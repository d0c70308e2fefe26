#pragma once
// Minimal multi-layer perceptron with explicit forward/backward passes.
//
// KAT-GP (paper Sec. 3.2) uses two small MLPs: an encoder mapping target
// design variables into the source design space and a decoder mapping source
// GP outputs to target outputs, both with the linear(d_in x 32)-sigmoid-
// linear(32 x d_out) structure given in the paper.  The Delta method (Eq. 11)
// also needs the decoder's analytic Jacobian, provided here.

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "linalg/matrix.hpp"
#include "util/rng.hpp"

namespace kato::nn {

enum class Activation { identity, sigmoid, tanh };

double activate(Activation a, double x);
double activate_deriv(Activation a, double x);  // derivative w.r.t. pre-activation
double activate_second_deriv(Activation a, double x);

/// Fully connected network: linear -> act -> linear -> act ... -> linear
/// [-> output activation].  The paper's encoder/decoder use a linear output;
/// the KAT-GP encoder additionally squashes its output with a sigmoid so the
/// encoded point stays inside the source design box (the source GP has no
/// gradient signal far outside its data).
class Mlp {
 public:
  /// Cached intermediates of one forward pass, consumed by backward() and
  /// jacobian().  Reusing one across forward() calls reuses its buffers.
  struct Cache {
    std::vector<la::Vector> inputs;   ///< input to each linear layer
    std::vector<la::Vector> pre_act;  ///< pre-activation of each layer
    la::Vector out;                   ///< network output
  };

  /// layer_sizes = {d_in, h1, ..., d_out}; weights get Xavier-uniform init.
  Mlp(std::vector<std::size_t> layer_sizes, Activation hidden_act,
      util::Rng& rng, Activation output_act = Activation::identity);

  std::size_t in_dim() const { return sizes_.front(); }
  std::size_t out_dim() const { return sizes_.back(); }
  std::size_t n_params() const { return params_.size(); }

  std::span<double> params() { return params_; }
  std::span<const double> params() const { return params_; }
  std::span<double> grads() { return grads_; }
  void zero_grad();

  /// Forward pass; fills `cache` for a subsequent backward().
  la::Vector forward(const la::Vector& x, Cache& cache) const;
  /// Forward pass without caching.
  la::Vector forward(const la::Vector& x) const;

  /// Backpropagate an upstream gradient dL/dy.  Accumulates parameter
  /// gradients into grads() and returns dL/dx.  Equivalent to backprop()
  /// followed by accumulate_grads().
  la::Vector backward(const Cache& cache, const la::Vector& dy);

  /// The const half of backward(): writes deltas[l], the loss gradient at
  /// layer l's pre-activation (layer_out(l) entries), and returns dL/dx.
  /// Writes no member state, so threads may run it concurrently.
  la::Vector backprop(const Cache& cache, const la::Vector& dy,
                      std::vector<la::Vector>& deltas) const;
  /// The other half: add the bias and outer-product weight terms of one
  /// backprop() into grads(), the exact additions backward() makes.
  void accumulate_grads(const Cache& cache,
                        const std::vector<la::Vector>& deltas);

  /// Analytic Jacobian dy/dx evaluated at x (out_dim x in_dim).
  la::Matrix jacobian(const la::Vector& x) const;
  /// The same Jacobian at the input of the forward() that filled `cache`.
  la::Matrix jacobian(const Cache& cache) const;

  // Direct views of a layer's weights/bias and their gradient blocks.
  // Needed by KAT-GP, whose Delta-method covariance gradient addresses the
  // decoder's weight matrices individually.
  std::size_t n_layers() const { return layers_.size(); }
  std::size_t layer_in(std::size_t l) const { return layers_.at(l).in; }
  std::size_t layer_out(std::size_t l) const { return layers_.at(l).out; }
  Activation activation_of(std::size_t l) const { return layer_act(l); }
  /// Weight block of layer l, row-major out x in.
  std::span<double> weight(std::size_t l) {
    return {params_.data() + layers_.at(l).w_offset, layers_.at(l).in * layers_.at(l).out};
  }
  std::span<const double> weight(std::size_t l) const {
    return {params_.data() + layers_.at(l).w_offset, layers_.at(l).in * layers_.at(l).out};
  }
  std::span<double> bias(std::size_t l) {
    return {params_.data() + layers_.at(l).b_offset, layers_.at(l).out};
  }
  std::span<double> weight_grad(std::size_t l) {
    return {grads_.data() + layers_.at(l).w_offset, layers_.at(l).in * layers_.at(l).out};
  }
  std::span<double> bias_grad(std::size_t l) {
    return {grads_.data() + layers_.at(l).b_offset, layers_.at(l).out};
  }

 private:
  struct LayerView {
    std::size_t w_offset;  ///< into params_: weight block, row-major out x in
    std::size_t b_offset;  ///< into params_: bias block
    std::size_t in;
    std::size_t out;
  };

  /// y = W x + b for layer l (y is resized).
  void apply_linear(const LayerView& l, const la::Vector& x,
                    la::Vector& y) const;

  /// Activation applied after linear layer `li`.
  Activation layer_act(std::size_t li) const {
    return li + 1 < layers_.size() ? act_ : out_act_;
  }

  std::vector<std::size_t> sizes_;
  Activation act_;
  Activation out_act_ = Activation::identity;
  std::vector<LayerView> layers_;
  std::vector<double> params_;
  std::vector<double> grads_;
};

/// Adam optimizer over a flat parameter vector.
class Adam {
 public:
  explicit Adam(std::size_t n_params, double lr = 1e-2, double beta1 = 0.9,
                double beta2 = 0.999, double eps = 1e-8);

  void step(std::span<double> params, std::span<const double> grads);
  void set_lr(double lr) { lr_ = lr; }
  double lr() const { return lr_; }
  void reset();

 private:
  double lr_;
  double beta1_;
  double beta2_;
  double eps_;
  std::vector<double> m_;
  std::vector<double> v_;
  long t_ = 0;
};

/// Central finite-difference gradient of a scalar function for grad-checks.
std::vector<double> numeric_gradient(const std::function<double()>& f,
                                     std::span<double> params, double h = 1e-6);

}  // namespace kato::nn
