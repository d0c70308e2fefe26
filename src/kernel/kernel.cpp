#include "kernel/kernel.hpp"

namespace kato::kern {

namespace {

/// Fallback workspace for kernels without a fused path: just remembers the
/// training inputs and forwards to the plain matrix()/backward() pair.
class GenericFitWorkspace final : public Kernel::FitWorkspace {
 public:
  explicit GenericFitWorkspace(const la::Matrix& x) : x_(&x) {}
  const la::Matrix& x() const { return *x_; }

 private:
  const la::Matrix* x_;
};

}  // namespace

std::unique_ptr<Kernel::FitWorkspace> Kernel::fit_workspace(
    const la::Matrix& x) const {
  return std::make_unique<GenericFitWorkspace>(x);
}

void Kernel::posterior_input_grad(std::span<const double> x,
                                  const la::Matrix& x2,
                                  std::span<const double> /*kx*/,
                                  std::span<const double> alpha,
                                  std::span<const double> kinv_k,
                                  std::span<double> dmean,
                                  std::span<double> dvar) const {
  const la::Matrix dk_dx = input_grad(x, x2);  // n2 x d
  for (std::size_t i = 0; i < dk_dx.rows(); ++i)
    for (std::size_t j = 0; j < dk_dx.cols(); ++j) {
      dmean[j] += dk_dx(i, j) * alpha[i];
      dvar[j] += -2.0 * dk_dx(i, j) * kinv_k[i];
    }
}

void Kernel::matrix_ws(FitWorkspace& ws, la::Matrix& k) const {
  k = matrix(static_cast<const GenericFitWorkspace&>(ws).x());
}

void Kernel::backward_ws(FitWorkspace& ws, const la::Matrix& dk,
                         std::span<double> grad) const {
  backward(static_cast<const GenericFitWorkspace&>(ws).x(), dk, grad);
}

}  // namespace kato::kern
