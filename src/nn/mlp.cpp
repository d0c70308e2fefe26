#include "nn/mlp.hpp"

#include <cmath>
#include <functional>
#include <stdexcept>

namespace kato::nn {

double activate(Activation a, double x) {
  switch (a) {
    case Activation::identity: return x;
    case Activation::sigmoid: return 1.0 / (1.0 + std::exp(-x));
    case Activation::tanh: return std::tanh(x);
  }
  throw std::logic_error("activate: unknown activation");
}

double activate_deriv(Activation a, double x) {
  switch (a) {
    case Activation::identity: return 1.0;
    case Activation::sigmoid: {
      const double s = 1.0 / (1.0 + std::exp(-x));
      return s * (1.0 - s);
    }
    case Activation::tanh: {
      const double t = std::tanh(x);
      return 1.0 - t * t;
    }
  }
  throw std::logic_error("activate_deriv: unknown activation");
}

double activate_second_deriv(Activation a, double x) {
  switch (a) {
    case Activation::identity: return 0.0;
    case Activation::sigmoid: {
      const double s = 1.0 / (1.0 + std::exp(-x));
      return s * (1.0 - s) * (1.0 - 2.0 * s);
    }
    case Activation::tanh: {
      const double t = std::tanh(x);
      return -2.0 * t * (1.0 - t * t);
    }
  }
  throw std::logic_error("activate_second_deriv: unknown activation");
}

Mlp::Mlp(std::vector<std::size_t> layer_sizes, Activation hidden_act,
         util::Rng& rng, Activation output_act)
    : sizes_(std::move(layer_sizes)), act_(hidden_act), out_act_(output_act) {
  if (sizes_.size() < 2)
    throw std::invalid_argument("Mlp: need at least input and output sizes");
  std::size_t offset = 0;
  for (std::size_t l = 0; l + 1 < sizes_.size(); ++l) {
    LayerView view;
    view.in = sizes_[l];
    view.out = sizes_[l + 1];
    view.w_offset = offset;
    offset += view.in * view.out;
    view.b_offset = offset;
    offset += view.out;
    layers_.push_back(view);
  }
  params_.resize(offset);
  grads_.assign(offset, 0.0);
  for (const auto& l : layers_) {
    const double bound =
        std::sqrt(6.0 / static_cast<double>(l.in + l.out));
    for (std::size_t i = 0; i < l.in * l.out; ++i)
      params_[l.w_offset + i] = rng.uniform(-bound, bound);
    for (std::size_t i = 0; i < l.out; ++i) params_[l.b_offset + i] = 0.0;
  }
}

void Mlp::zero_grad() { grads_.assign(grads_.size(), 0.0); }

void Mlp::apply_linear(const LayerView& l, const la::Vector& x,
                       la::Vector& y) const {
  y.resize(l.out);
  for (std::size_t i = 0; i < l.out; ++i) {
    double s = params_[l.b_offset + i];
    const double* w = params_.data() + l.w_offset + i * l.in;
    for (std::size_t j = 0; j < l.in; ++j) s += w[j] * x[j];
    y[i] = s;
  }
}

la::Vector Mlp::forward(const la::Vector& x, Cache& cache) const {
  if (x.size() != in_dim()) throw std::invalid_argument("Mlp::forward: bad input dim");
  // Sized once and overwritten in place, so a cache reused across calls
  // stops allocating.
  cache.inputs.resize(layers_.size());
  cache.pre_act.resize(layers_.size());
  cache.inputs[0] = x;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    la::Vector& z = cache.pre_act[l];
    apply_linear(layers_[l], cache.inputs[l], z);
    la::Vector& h = l + 1 < layers_.size() ? cache.inputs[l + 1] : cache.out;
    h = z;
    const Activation act = layer_act(l);
    if (act != Activation::identity)
      for (auto& v : h) v = activate(act, v);
  }
  return cache.out;
}

la::Vector Mlp::forward(const la::Vector& x) const {
  Cache scratch;
  return forward(x, scratch);
}

la::Vector Mlp::backward(const Cache& cache, const la::Vector& dy) {
  std::vector<la::Vector> deltas;
  la::Vector dx = backprop(cache, dy, deltas);
  accumulate_grads(cache, deltas);
  return dx;
}

la::Vector Mlp::backprop(const Cache& cache, const la::Vector& dy,
                         std::vector<la::Vector>& deltas) const {
  if (cache.inputs.size() != layers_.size())
    throw std::invalid_argument("Mlp::backprop: cache does not match network");
  deltas.resize(layers_.size());
  la::Vector delta = dy;  // gradient w.r.t. current layer's (post-act) output
  for (std::size_t li = layers_.size(); li-- > 0;) {
    const auto& l = layers_[li];
    const Activation act = layer_act(li);
    if (act != Activation::identity) {
      const auto& z = cache.pre_act[li];
      for (std::size_t i = 0; i < l.out; ++i)
        delta[i] *= activate_deriv(act, z[i]);
    }
    la::Vector dx(l.in, 0.0);
    for (std::size_t i = 0; i < l.out; ++i) {
      const double* w = params_.data() + l.w_offset + i * l.in;
      for (std::size_t j = 0; j < l.in; ++j) dx[j] += delta[i] * w[j];
    }
    deltas[li] = std::move(delta);
    delta = std::move(dx);
  }
  return delta;  // dL/dx
}

void Mlp::accumulate_grads(const Cache& cache,
                           const std::vector<la::Vector>& deltas) {
  if (cache.inputs.size() != layers_.size() || deltas.size() != layers_.size())
    throw std::invalid_argument(
        "Mlp::accumulate_grads: cache does not match network");
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const auto& l = layers_[li];
    const auto& delta = deltas[li];
    const auto& input = cache.inputs[li];
    for (std::size_t i = 0; i < l.out; ++i) {
      grads_[l.b_offset + i] += delta[i];
      double* gw = grads_.data() + l.w_offset + i * l.in;
      for (std::size_t j = 0; j < l.in; ++j) gw[j] += delta[i] * input[j];
    }
  }
}

la::Matrix Mlp::jacobian(const la::Vector& x) const {
  Cache cache;
  (void)forward(x, cache);
  return jacobian(cache);
}

la::Matrix Mlp::jacobian(const Cache& cache) const {
  // J = W_last * diag(act') * W_{last-1} * ... built back-to-front.
  la::Matrix j;  // current product, dims: out_dim x (current layer input)
  for (std::size_t li = layers_.size(); li-- > 0;) {
    const auto& l = layers_[li];
    la::Matrix w(l.out, l.in);
    for (std::size_t i = 0; i < l.out; ++i)
      for (std::size_t jj = 0; jj < l.in; ++jj)
        w(i, jj) = params_[l.w_offset + i * l.in + jj];
    const Activation act = layer_act(li);
    if (li + 1 == layers_.size()) {
      j = std::move(w);
      if (act != Activation::identity) {
        // Output activation scales the rows of the last weight matrix.
        const auto& z = cache.pre_act[li];
        for (std::size_t r = 0; r < j.rows(); ++r) {
          const double d = activate_deriv(act, z[r]);
          for (std::size_t c = 0; c < j.cols(); ++c) j(r, c) *= d;
        }
      }
    } else {
      // Scale columns of the running product by the activation derivative
      // before multiplying in this layer's weights.
      const auto& z = cache.pre_act[li];
      for (std::size_t c = 0; c < l.out; ++c) {
        const double d = activate_deriv(act, z[c]);
        for (std::size_t r = 0; r < j.rows(); ++r) j(r, c) *= d;
      }
      j = la::matmul(j, w);
    }
  }
  return j;
}

Adam::Adam(std::size_t n_params, double lr, double beta1, double beta2, double eps)
    : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps),
      m_(n_params, 0.0), v_(n_params, 0.0) {}

void Adam::step(std::span<double> params, std::span<const double> grads) {
  if (params.size() != m_.size() || grads.size() != m_.size())
    throw std::invalid_argument("Adam::step: size mismatch");
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  for (std::size_t i = 0; i < params.size(); ++i) {
    const double g = grads[i];
    m_[i] = beta1_ * m_[i] + (1.0 - beta1_) * g;
    v_[i] = beta2_ * v_[i] + (1.0 - beta2_) * g * g;
    const double mhat = m_[i] / bc1;
    const double vhat = v_[i] / bc2;
    params[i] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
  }
}

void Adam::reset() {
  m_.assign(m_.size(), 0.0);
  v_.assign(v_.size(), 0.0);
  t_ = 0;
}

std::vector<double> numeric_gradient(const std::function<double()>& f,
                                     std::span<double> params, double h) {
  std::vector<double> g(params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    const double saved = params[i];
    params[i] = saved + h;
    const double fp = f();
    params[i] = saved - h;
    const double fm = f();
    params[i] = saved;
    g[i] = (fp - fm) / (2.0 * h);
  }
  return g;
}

}  // namespace kato::nn
