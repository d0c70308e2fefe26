#pragma once
// Kernel interface for the GP stack.
//
// Kernels expose three things beyond evaluation:
//  * params()   — a flat unconstrained parameter vector (positive quantities
//                 are stored in log space) so a generic optimizer can train
//                 any kernel;
//  * backward() — accumulate dL/dparams given the upstream gradient dL/dK of
//                 a scalar loss w.r.t. the kernel matrix.  The GP's marginal
//                 likelihood gradient dL/dK is analytic (see gp.cpp), so the
//                 chain rule splits cleanly at the kernel-matrix boundary;
//  * input_grad() — d k(x, x2_j)/dx, needed by KAT-GP to backpropagate
//                 through the source GP's posterior into the encoder;
//  * posterior_input_grad() — the same derivative already contracted into
//                 a GP posterior's d mean/dx and d var/dx, straight from the
//                 query's cross-covariance row.  This is the one gradient
//                 path of GaussianProcess (per-point and batched).  The
//                 default contracts input_grad(); StationaryArd overrides it
//                 with a loop that allocates nothing and, for RBF, reuses
//                 the cross row instead of a second exp (s2 dg/dr2 = -k).
//
// For the training loop there is additionally a fit-scoped workspace path
// (fit_workspace / matrix_ws / backward_ws): the workspace is bound once per
// GaussianProcess::fit() to a fixed training matrix, precomputes everything
// that does not depend on the hyperparameters (pairwise input deltas), and
// carries the per-pair forward intermediates from matrix_ws into backward_ws
// so one LML iteration evaluates every transcendental exactly once.  The
// fused path must agree with the plain matrix()/backward() pair to 1e-12;
// tests/perf_regression_test.cpp pins this.
//
// All gradients are finite-difference checked in tests/kernel_test.cpp.

#include <memory>
#include <span>
#include <string>

#include "linalg/matrix.hpp"

namespace kato::kern {

class Kernel {
 public:
  virtual ~Kernel() = default;

  virtual std::string name() const = 0;
  virtual std::size_t input_dim() const = 0;
  virtual std::size_t n_params() const = 0;
  virtual std::span<double> params() = 0;
  virtual std::span<const double> params() const = 0;

  /// Cross-covariance K(X1, X2), shape n1 x n2.
  virtual la::Matrix cross(const la::Matrix& x1, const la::Matrix& x2) const = 0;

  /// Symmetric covariance K(X, X).  Default forwards to cross().
  virtual la::Matrix matrix(const la::Matrix& x) const { return cross(x, x); }

  /// k(x, x) for a single point.
  virtual double diag(std::span<const double> x) const = 0;

  /// Accumulate dL/dparams into `grad` given dL/dK for K(X, X).
  virtual void backward(const la::Matrix& x, const la::Matrix& dk,
                        std::span<double> grad) const = 0;

  /// Rows j = d k(x, x2_j) / dx; shape n2 x d.
  virtual la::Matrix input_grad(std::span<const double> x,
                                const la::Matrix& x2) const = 0;

  /// GP posterior input gradient at one query x, given its cross row
  /// kx[i] = k(x, x2_i):
  ///   dmean[j] += sum_i dk(x, x2_i)/dx_j * alpha[i]
  ///   dvar[j]  += sum_i (-2 dk(x, x2_i)/dx_j) * kinv_k[i]
  /// accumulated i-outer, j-inner.  An empty dvar (and kinv_k) skips the
  /// variance term and leaves dmean's additions unchanged.  Every
  /// implementation forms each term exactly as the contraction of
  /// input_grad() would, so the result is bit-identical to it
  /// (tests/kernel_test.cpp pins this).
  virtual void posterior_input_grad(std::span<const double> x,
                                    const la::Matrix& x2,
                                    std::span<const double> kx,
                                    std::span<const double> alpha,
                                    std::span<const double> kinv_k,
                                    std::span<double> dmean,
                                    std::span<double> dvar) const;

  virtual std::unique_ptr<Kernel> clone() const = 0;

  // --- Fit-scoped fused value+grad path (see file comment) ---

  /// Opaque training-loop scratch state.  Owns reusable heap buffers and the
  /// per-pair caches shared between matrix_ws and backward_ws.
  class FitWorkspace {
   public:
    virtual ~FitWorkspace() = default;
  };

  /// Bind a workspace to training inputs `x`, which must outlive the
  /// workspace and stay unchanged.  Param-independent precomputation
  /// (pairwise deltas) happens here, once per fit.
  virtual std::unique_ptr<FitWorkspace> fit_workspace(const la::Matrix& x) const;

  /// Fused forward: fill k = K(x, x) (k is resized by the callee) and cache
  /// the per-pair intermediates backward_ws needs.  Valid for the current
  /// parameter values only — call again after every parameter update.
  virtual void matrix_ws(FitWorkspace& ws, la::Matrix& k) const;

  /// Accumulate dL/dparams into `grad` given dL/dK, reusing the forward
  /// intermediates cached by the matrix_ws call made at the same parameters.
  virtual void backward_ws(FitWorkspace& ws, const la::Matrix& dk,
                           std::span<double> grad) const;
};

/// Numerically safe softplus and its derivative (used for positivity
/// constraints on Neuk mixing weights).
double softplus(double x);
double softplus_deriv(double x);

}  // namespace kato::kern
