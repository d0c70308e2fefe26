#include "bo/surrogate.hpp"

#include "obs/obs.hpp"

namespace kato::bo {

std::vector<std::vector<gp::GpPrediction>> Surrogate::predict_batch(
    const la::Matrix& xq) const {
  std::vector<std::vector<gp::GpPrediction>> out;
  out.reserve(xq.rows());
  for (std::size_t q = 0; q < xq.rows(); ++q) out.push_back(predict(xq.row(q)));
  return out;
}

std::unique_ptr<kern::Kernel> make_kernel(KernelKind kind, std::size_t dim,
                                          util::Rng& rng) {
  switch (kind) {
    case KernelKind::neuk: {
      kern::NeukConfig cfg;
      return std::make_unique<kern::NeukKernel>(dim, cfg, rng);
    }
    case KernelKind::rbf:
      return std::make_unique<kern::StationaryArd>(kern::StationaryType::rbf, dim);
    case KernelKind::matern52:
      return std::make_unique<kern::StationaryArd>(kern::StationaryType::matern52,
                                                   dim);
  }
  throw std::logic_error("make_kernel: unknown kind");
}

GpSurrogate::GpSurrogate(std::size_t dim, std::size_t n_metrics, KernelKind kind,
                         const gp::GpFitOptions& initial_fit,
                         const gp::GpFitOptions& refit, util::Rng& rng)
    : dim_(dim),
      kind_(kind),
      model_(n_metrics, [&] { return make_kernel(kind, dim, rng); }),
      initial_fit_(initial_fit),
      refit_(refit) {}

std::string GpSurrogate::name() const {
  switch (kind_) {
    case KernelKind::neuk: return "neuk-gp";
    case KernelKind::rbf: return "rbf-gp";
    case KernelKind::matern52: return "matern52-gp";
  }
  return "gp";
}

void GpSurrogate::refit(const la::Matrix& x, const la::Matrix& y, util::Rng& rng,
                        bool train_hyper) {
  auto streams = training_streams(rng, train_hyper);
  refit(x, y, streams, train_hyper);
}

std::vector<util::Rng> GpSurrogate::training_streams(util::Rng& rng,
                                                     bool train_hyper) const {
  if (!train_hyper && fitted_) return {};
  return model_.split_streams(rng);
}

void GpSurrogate::refit(const la::Matrix& x, const la::Matrix& y,
                        std::vector<util::Rng>& streams, bool train_hyper) {
  const bool hyper = train_hyper || !fitted_;
  // When hyper-training follows, defer the posterior rebuild: fit() always
  // refreshes at its end, so refreshing inside set_data too would factor the
  // full kernel matrix twice per refit.  Hyperparameters warm-start from the
  // previous optimum (the kernel keeps its parameters across refits), and
  // after the first fit the smaller `refit_` budget applies.
  model_.set_data(x, y, /*refresh=*/!hyper);
  if (hyper) {
    // A refit after the first full fit reuses the previous hyperparameter
    // optimum as its starting point — the warm-start path the obs counter
    // tracks against cold initial fits.
    if (fitted_) obs::bo_count(obs::BoCounter::gp_warm_starts);
    model_.fit(fitted_ ? refit_ : initial_fit_, streams);
    fitted_ = true;
  }
}

std::vector<gp::GpPrediction> GpSurrogate::predict(std::span<const double> x) const {
  return model_.predict(x);
}

std::vector<std::vector<gp::GpPrediction>> GpSurrogate::predict_batch(
    const la::Matrix& xq) const {
  return model_.predict_batch(xq);
}

KatSurrogate::KatSurrogate(const gp::MultiGp* source, std::size_t target_dim,
                           std::size_t target_metrics,
                           const gp::KatGpConfig& config, util::Rng& rng)
    : dim_(target_dim), model_(source, target_dim, target_metrics, config, rng) {}

void KatSurrogate::refit(const la::Matrix& x, const la::Matrix& y, util::Rng& rng,
                         bool train_hyper) {
  model_.set_target_data(x, y);
  if (train_hyper || !fitted_) {
    if (fitted_) obs::bo_count(obs::BoCounter::gp_warm_starts);
    model_.fit(rng);
    fitted_ = true;
  }
}

std::vector<gp::GpPrediction> KatSurrogate::predict(std::span<const double> x) const {
  return model_.predict(x);
}

std::vector<std::vector<gp::GpPrediction>> KatSurrogate::predict_batch(
    const la::Matrix& xq) const {
  return model_.predict_batch(xq);
}

}  // namespace kato::bo
