#pragma once
// Classic stationary ARD kernels: RBF, Rational Quadratic, Matern 3/2 & 5/2,
// and an ARD Periodic kernel.  These serve as (a) baselines for the Fig. 1
// kernel assessment and (b) surrogate options in ablation benches.
//
// Parameterization (all unconstrained, log space):
//   params[0]      = log amplitude^2 (sigma^2)
//   params[1..d]   = log ARD weights w_j  (k uses  r2 = sum_j w_j (x_j-x'_j)^2)
//   params[d+1...] = kernel-specific shape parameters (RQ alpha, periodic p).

#include "kernel/kernel.hpp"

namespace kato::kern {

enum class StationaryType { rbf, rq, matern32, matern52 };

/// ARD kernels of the form k = sigma^2 * g(r2).
class StationaryArd final : public Kernel {
 public:
  StationaryArd(StationaryType type, std::size_t dim);

  std::string name() const override;
  std::size_t input_dim() const override { return dim_; }
  std::size_t n_params() const override { return params_.size(); }
  std::span<double> params() override { return params_; }
  std::span<const double> params() const override { return params_; }

  la::Matrix cross(const la::Matrix& x1, const la::Matrix& x2) const override;
  /// Symmetric K(X, X): upper triangle only, mirrored (bit-identical values).
  la::Matrix matrix(const la::Matrix& x) const override;
  double diag(std::span<const double> x) const override;
  void backward(const la::Matrix& x, const la::Matrix& dk,
                std::span<double> grad) const override;
  la::Matrix input_grad(std::span<const double> x,
                        const la::Matrix& x2) const override;
  /// Heap-free for dim <= 64; RBF takes s2 dg/dr2 = -kx[i] from the cross
  /// row (exact: s2 (-exp(-r2)) = -(s2 exp(-r2))), the other types
  /// recompute r2 and call dg_dr2 as input_grad() does.
  void posterior_input_grad(std::span<const double> x, const la::Matrix& x2,
                            std::span<const double> kx,
                            std::span<const double> alpha,
                            std::span<const double> kinv_k,
                            std::span<double> dmean,
                            std::span<double> dvar) const override;
  std::unique_ptr<Kernel> clone() const override;

  /// Fused training path: the workspace precomputes the pairwise squared
  /// coordinate deltas once per fit (they do not depend on hyperparameters),
  /// matrix_ws caches r2 and g(r2) per pair, and backward_ws recovers every
  /// dg/dr2 from the cached g — the gradient pass is transcendental-free for
  /// RBF and the Materns and touches the upper triangle only.
  std::unique_ptr<FitWorkspace> fit_workspace(const la::Matrix& x) const override;
  void matrix_ws(FitWorkspace& ws, la::Matrix& k) const override;
  void backward_ws(FitWorkspace& ws, const la::Matrix& dk,
                   std::span<double> grad) const override;

 private:
  double amplitude2() const;
  double weight(std::size_t j) const;
  /// All ARD weights exponentiated once (the per-pair loops reuse them).
  std::vector<double> weights() const;
  double alpha() const;  // RQ only

  /// g(r2) and dg/dr2 for the configured type.
  double g(double r2) const;
  double dg_dr2(double r2) const;
  /// dg/dalpha (RQ only; 0 otherwise).
  double dg_dalpha(double r2) const;

  StationaryType type_;
  std::size_t dim_;
  std::vector<double> params_;
};

/// ARD periodic kernel: k = sigma^2 exp(-2 sum_j w_j sin^2(pi (x_j-x'_j)/p)).
class PeriodicArd final : public Kernel {
 public:
  explicit PeriodicArd(std::size_t dim);

  std::string name() const override { return "periodic"; }
  std::size_t input_dim() const override { return dim_; }
  std::size_t n_params() const override { return params_.size(); }
  std::span<double> params() override { return params_; }
  std::span<const double> params() const override { return params_; }

  la::Matrix cross(const la::Matrix& x1, const la::Matrix& x2) const override;
  double diag(std::span<const double> x) const override;
  void backward(const la::Matrix& x, const la::Matrix& dk,
                std::span<double> grad) const override;
  la::Matrix input_grad(std::span<const double> x,
                        const la::Matrix& x2) const override;
  std::unique_ptr<Kernel> clone() const override;

 private:
  double amplitude2() const;
  double weight(std::size_t j) const;
  double period() const;

  std::size_t dim_;
  std::vector<double> params_;
};

}  // namespace kato::kern
