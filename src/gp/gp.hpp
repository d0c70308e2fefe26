#pragma once
// Gaussian-process regression with exact marginal-likelihood training.
//
// Implements Eqs. (3)-(4) of the paper.  Hyperparameters (kernel parameters
// plus observation noise) are trained by Adam on the exact negative log
// marginal likelihood; the gradient splits at the kernel-matrix boundary:
//   dNLL/dK = 0.5 (K^-1 - alpha alpha^T),  alpha = K^-1 y,
// which is analytic, and each kernel provides backward() for dK/dtheta.
//
// Targets are standardized internally; predictions are returned in raw units
// unless the *_std variants are used (the KAT-GP transfer path works in
// standardized space so the encoder/decoder see O(1) values).

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>

#include "kernel/kernel.hpp"
#include "linalg/cholesky.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace kato::gp {

struct GpFitOptions {
  int iterations = 100;             ///< Adam steps on the NLL
  double lr = 0.05;                 ///< Adam learning rate
  std::size_t max_train_points = 192;  ///< subsample cap for hyper-training
  double min_noise = 1e-6;          ///< noise floor (standardized space)
};

struct GpPrediction {
  double mean = 0.0;
  double var = 0.0;
};

/// Diagnostics of the most recent fit() call — lets callers (and tests) pin
/// that warm-started refits really run the smaller refit budget.
struct GpFitInfo {
  int iterations = 0;    ///< Adam steps executed
  double best_nll = 0.0; ///< best subset NLL seen during the fit
};

class GaussianProcess {
 public:
  explicit GaussianProcess(std::unique_ptr<kern::Kernel> kernel);

  GaussianProcess(const GaussianProcess& other);
  GaussianProcess& operator=(const GaussianProcess& other);
  GaussianProcess(GaussianProcess&&) = default;
  GaussianProcess& operator=(GaussianProcess&&) = default;

  /// Replace the training set (inputs in the unit box, raw-unit targets).
  /// With refresh=true (default) the posterior is rebuilt at the current
  /// hyperparameters; pass refresh=false when a fit() follows immediately —
  /// fit() refreshes at the end, and skipping the interim rebuild saves a
  /// full factorization + inverse per refit.
  void set_data(la::Matrix x, la::Vector y, bool refresh = true);

  /// Maximum-likelihood hyperparameter training (warm-started from current
  /// values).  `rng` drives the hyper-training subsample when n exceeds
  /// GpFitOptions::max_train_points.
  void fit(const GpFitOptions& opts, util::Rng& rng);

  /// Predictive posterior (Eq. 4) in raw target units.
  GpPrediction predict(std::span<const double> x) const;
  /// Predictive posterior in standardized-target space.
  GpPrediction predict_std(std::span<const double> x) const;
  /// Batched posteriors.  Each splits the query rows across KATO_THREADS
  /// pool workers, and every chunk builds the cross-covariance rows of its
  /// own queries (kernel cross() on the chunk's rows, inside the
  /// parallel_for) and then runs one of the two serial row-range cores
  /// below.  Every cross() entry depends only on its own query, and each
  /// core's per-query arithmetic does too, so results are bit-identical at
  /// any thread count.
  ///
  /// Batched posterior for a whole query block (rows of xq), raw units:
  /// the triangular-solve core, agreeing with per-point predict() to
  /// round-off at a fraction of the cost.
  std::vector<GpPrediction> predict_batch(const la::Matrix& xq) const;
  /// Batched posterior in standardized-target space.
  std::vector<GpPrediction> predict_std_batch(const la::Matrix& xq) const;
  /// Standardized posterior plus gradients d mean/dx and d var/dx
  /// (used by KAT-GP to backpropagate through the source GP).
  void predict_std_grad(std::span<const double> x, GpPrediction& pred,
                        la::Vector& dmean_dx, la::Vector& dvar_dx) const;
  /// Batched predict_std_grad: the K^-1 core with gradients.  Bit-identical
  /// to the per-point call at any KATO_THREADS — every query keeps
  /// la::dot's summation order and the kernel's posterior_input_grad — so
  /// KAT-GP training batches its source stage without changing results.
  /// Row q of dmean_dx/dvar_dx is the gradient at query q.
  void predict_std_grad_batch(const la::Matrix& xq,
                              std::vector<GpPrediction>& preds,
                              la::Matrix& dmean_dx, la::Matrix& dvar_dx) const;
  /// The posterior values of predict_std_grad_batch without the gradients,
  /// bit-identical to per-point predict_std (KAT-GP's exact-NLL sweeps).
  void predict_std_batch_exact(const la::Matrix& xq,
                               std::vector<GpPrediction>& preds) const;

  /// Serial row-range cores of the batched posteriors: queries [q0, q1) of
  /// xq, written to preds[q0..q1) (preds must already hold xq.rows()
  /// entries).  Each builds its queries' cross-covariance rows itself, so a
  /// caller can dispatch one parallel_for over several GPs' rows
  /// (for_metric_rows below, as MultiGp::predict_batch and KAT-GP's source
  /// stage do) and get exactly the values of the batch methods above.
  ///
  /// Triangular-solve core of predict_std_batch.
  void predict_std_rows(const la::Matrix& xq, std::size_t q0, std::size_t q1,
                        std::vector<GpPrediction>& preds) const;
  /// K^-1 core of predict_std_batch_exact and predict_std_grad_batch:
  /// K^-1 k for kinv_block queries per register-blocked sweep over K^-1.
  /// With non-null dmean_dx/dvar_dx (xq.rows() x d, pre-sized) it also
  /// writes their rows q0..q1 via the kernel's posterior_input_grad.
  /// Non-null dmean_dx with null dvar_dx is the mean-only mode (KAT-GP's
  /// warm-up): mean and d mean/dx with the same arithmetic, no K^-1
  /// contraction, and preds[q].var set to NaN.
  void predict_std_kinv_rows(const la::Matrix& xq, std::size_t q0,
                             std::size_t q1, std::vector<GpPrediction>& preds,
                             la::Matrix* dmean_dx, la::Matrix* dvar_dx) const;

  /// Exact NLL of the current hyperparameters on the full training set.
  double nll() const;

  /// Diagnostics of the most recent fit().
  const GpFitInfo& last_fit_info() const { return fit_info_; }

  std::size_t n_data() const { return x_.rows(); }
  std::size_t input_dim() const { return kernel_->input_dim(); }
  const la::Matrix& train_x() const { return x_; }
  kern::Kernel& kernel() { return *kernel_; }
  const kern::Kernel& kernel() const { return *kernel_; }
  double y_mean() const { return y_mean_; }
  double y_std() const { return y_sd_; }
  double noise_var() const;  ///< standardized-space sigma^2

 private:
  struct Posterior {
    la::Matrix chol_l;
    la::Vector alpha;
    la::Matrix kinv;
  };

  /// Reusable heap state for the LML loop: the kernel workspace plus every
  /// matrix/vector the per-iteration algebra touches.
  struct FitScratch {
    std::unique_ptr<kern::Kernel::FitWorkspace> ws;
    la::Matrix k;      ///< kernel matrix (+ noise on the diagonal)
    la::Matrix l;      ///< Cholesky factor
    la::Matrix t;      ///< (L^-1)^T, scratch of cholesky_inverse_into
    la::Matrix dk;     ///< K^-1, then dNLL/dK in place
    la::Vector alpha;
    la::Vector tmp;
  };

  /// Queries per blocked K^-1 contraction (la::contract_block).
  static constexpr std::size_t kinv_block = la::k_contract_block;

  /// NLL and gradient (kernel params then log-noise) on the subset bound to
  /// s.ws, reusing s's buffers across iterations.
  double nll_and_grad_ws(FitScratch& s, const la::Vector& y,
                         std::vector<double>& grad) const;
  void refresh_posterior();
  const Posterior& posterior() const;

  std::unique_ptr<kern::Kernel> kernel_;
  double log_noise_;
  la::Matrix x_;
  la::Vector y_std_;  ///< standardized targets
  double y_mean_ = 0.0;
  double y_sd_ = 1.0;
  std::optional<Posterior> post_;
  GpFitInfo fit_info_;
};

/// One parallel_for over every (metric, query row) pair of an m x b index
/// space: fn(k, q0, q1) runs metric k's serial row-range core on query rows
/// [q0, q1).  A chunk that straddles two metrics becomes two calls; each
/// row's values never depend on the split.
template <class Fn>
void for_metric_rows(std::size_t m, std::size_t b, const Fn& fn) {
  util::parallel_for(m * b, [&](std::size_t r0, std::size_t r1) {
    while (r0 < r1) {
      const std::size_t k = r0 / b;
      const std::size_t q0 = r0 % b;
      const std::size_t q1 = std::min(b, q0 + (r1 - r0));
      fn(k, q0, q1);
      r0 += q1 - q0;
    }
  });
}

/// Independent per-metric GPs sharing one input set — the surrogate layout
/// used for constrained sizing (one GP for the objective, one per constraint).
class MultiGp {
 public:
  /// `make_kernel` builds a fresh kernel per metric.
  MultiGp(std::size_t n_metrics,
          const std::function<std::unique_ptr<kern::Kernel>()>& make_kernel);

  /// y has one column per metric.  refresh as in GaussianProcess::set_data.
  void set_data(const la::Matrix& x, const la::Matrix& y, bool refresh = true);
  /// Train every metric's GP.  The metrics are fitted concurrently across
  /// KATO_THREADS pool workers; each metric receives its own RNG stream
  /// split from `rng` up front (in metric order), so the result is
  /// bit-identical at any thread count.  Same as fit(opts, streams) with
  /// streams = split_streams(rng).
  void fit(const GpFitOptions& opts, util::Rng& rng);
  /// The per-metric streams fit(opts, rng) trains on, split from `rng` in
  /// metric order.
  std::vector<util::Rng> split_streams(util::Rng& rng) const;
  /// Train metric m on streams[m], drawing nothing from any other stream, so
  /// a caller can split the streams first and let other work draw from the
  /// parent stream while this fit runs.
  void fit(const GpFitOptions& opts, std::vector<util::Rng>& streams);

  std::vector<GpPrediction> predict(std::span<const double> x) const;
  /// Batched prediction: out[q][m] is metric m's posterior at query row q,
  /// bit-identical to each metric's predict_batch, from one dispatch over
  /// every (metric, query row) pair.
  std::vector<std::vector<GpPrediction>> predict_batch(const la::Matrix& xq) const;

  std::size_t n_metrics() const { return gps_.size(); }
  GaussianProcess& metric(std::size_t i) { return gps_[i]; }
  const GaussianProcess& metric(std::size_t i) const { return gps_[i]; }

 private:
  std::vector<GaussianProcess> gps_;
};

}  // namespace kato::gp
