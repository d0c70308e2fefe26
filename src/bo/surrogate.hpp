#pragma once
// Surrogate abstraction: anything that predicts a per-metric Gaussian given a
// unit-box design.  The STL scheme (Sec. 3.4) runs MACE over two surrogates —
// a plain NeukGP and a KAT-GP — through this interface.

#include <memory>

#include "gp/gp.hpp"
#include "gp/kat_gp.hpp"
#include "kernel/neuk.hpp"
#include "kernel/stationary.hpp"

namespace kato::bo {

class Surrogate {
 public:
  virtual ~Surrogate() = default;
  virtual std::string name() const = 0;
  /// Replace training data (x: n x d unit box, y: n x m metrics) and refit.
  /// With train_hyper=false only the posterior is refreshed (cheap update
  /// used on alternate BO iterations).
  virtual void refit(const la::Matrix& x, const la::Matrix& y, util::Rng& rng,
                     bool train_hyper = true) = 0;
  /// Per-metric predictive Gaussians at x.
  virtual std::vector<gp::GpPrediction> predict(std::span<const double> x) const = 0;
  /// Per-metric predictive Gaussians for a block of candidates (rows of xq);
  /// out[q][m] is metric m at query row q.  The base implementation loops
  /// predict(); GP-backed surrogates override it with a batched posterior
  /// that shares one triangular solve across the block.
  virtual std::vector<std::vector<gp::GpPrediction>> predict_batch(
      const la::Matrix& xq) const;
  virtual std::size_t n_metrics() const = 0;
  virtual std::size_t input_dim() const = 0;
};

enum class KernelKind { neuk, rbf, matern52 };

std::unique_ptr<kern::Kernel> make_kernel(KernelKind kind, std::size_t dim,
                                          util::Rng& rng);

/// Independent GPs (one per metric).  "NeukGP" of the paper when kind=neuk.
class GpSurrogate final : public Surrogate {
 public:
  GpSurrogate(std::size_t dim, std::size_t n_metrics, KernelKind kind,
              const gp::GpFitOptions& initial_fit, const gp::GpFitOptions& refit,
              util::Rng& rng);

  std::string name() const override;
  /// Same as refit(x, y, streams, train_hyper) with
  /// streams = training_streams(rng, train_hyper).
  void refit(const la::Matrix& x, const la::Matrix& y, util::Rng& rng,
             bool train_hyper = true) override;
  /// The RNG streams refit(..., train_hyper) trains on, split from `rng`:
  /// one per metric when it trains hyperparameters, none otherwise.
  std::vector<util::Rng> training_streams(util::Rng& rng, bool train_hyper) const;
  /// Refit on streams from training_streams(rng, train_hyper), drawing from
  /// no other stream.
  void refit(const la::Matrix& x, const la::Matrix& y,
             std::vector<util::Rng>& streams, bool train_hyper);
  std::vector<gp::GpPrediction> predict(std::span<const double> x) const override;
  std::vector<std::vector<gp::GpPrediction>> predict_batch(
      const la::Matrix& xq) const override;
  std::size_t n_metrics() const override { return model_.n_metrics(); }
  std::size_t input_dim() const override { return dim_; }

  gp::MultiGp& model() { return model_; }

 private:
  std::size_t dim_;
  KernelKind kind_;
  gp::MultiGp model_;
  gp::GpFitOptions initial_fit_;
  gp::GpFitOptions refit_;
  bool fitted_ = false;
};

/// KAT-GP wrapped as a Surrogate (Sec. 3.2); the frozen source model must
/// outlive this object.
class KatSurrogate final : public Surrogate {
 public:
  KatSurrogate(const gp::MultiGp* source, std::size_t target_dim,
               std::size_t target_metrics, const gp::KatGpConfig& config,
               util::Rng& rng);

  std::string name() const override { return "kat-gp"; }
  void refit(const la::Matrix& x, const la::Matrix& y, util::Rng& rng,
             bool train_hyper = true) override;
  std::vector<gp::GpPrediction> predict(std::span<const double> x) const override;
  std::vector<std::vector<gp::GpPrediction>> predict_batch(
      const la::Matrix& xq) const override;
  std::size_t n_metrics() const override { return model_.n_metrics(); }
  std::size_t input_dim() const override { return dim_; }

 private:
  std::size_t dim_;
  gp::KatGp model_;
  bool fitted_ = false;
};

}  // namespace kato::bo
