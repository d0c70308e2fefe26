#include "gp/gp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "linalg/v2.hpp"
#include "nn/mlp.hpp"
#include "obs/obs.hpp"
#include "util/fault.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"

namespace kato::gp {

namespace {
constexpr double k_two_pi = 6.283185307179586;

using la::load2;
using la::V2;

/// Rows [r0, r1) of x as their own matrix (the query block of one chunk).
la::Matrix row_range(const la::Matrix& x, std::size_t r0, std::size_t r1) {
  la::Matrix out(r1 - r0, x.cols());
  for (std::size_t r = r0; r < r1; ++r) out.set_row(r - r0, x.row(r));
  return out;
}
}  // namespace

GaussianProcess::GaussianProcess(std::unique_ptr<kern::Kernel> kernel)
    : kernel_(std::move(kernel)), log_noise_(std::log(1e-2)) {
  if (!kernel_) throw std::invalid_argument("GaussianProcess: null kernel");
}

GaussianProcess::GaussianProcess(const GaussianProcess& other)
    : kernel_(other.kernel_->clone()),
      log_noise_(other.log_noise_),
      x_(other.x_),
      y_std_(other.y_std_),
      y_mean_(other.y_mean_),
      y_sd_(other.y_sd_),
      post_(other.post_),
      fit_info_(other.fit_info_) {}

GaussianProcess& GaussianProcess::operator=(const GaussianProcess& other) {
  if (this == &other) return *this;
  kernel_ = other.kernel_->clone();
  log_noise_ = other.log_noise_;
  x_ = other.x_;
  y_std_ = other.y_std_;
  y_mean_ = other.y_mean_;
  y_sd_ = other.y_sd_;
  post_ = other.post_;
  fit_info_ = other.fit_info_;
  return *this;
}

double GaussianProcess::noise_var() const { return std::exp(log_noise_); }

void GaussianProcess::set_data(la::Matrix x, la::Vector y, bool refresh) {
  if (x.rows() != y.size())
    throw std::invalid_argument("GaussianProcess::set_data: n mismatch");
  if (x.rows() == 0)
    throw std::invalid_argument("GaussianProcess::set_data: empty data");
  if (x.cols() != kernel_->input_dim())
    throw std::invalid_argument("GaussianProcess::set_data: dim mismatch");
  y_mean_ = util::mean(y);
  y_sd_ = util::stddev(y);
  if (y_sd_ < 1e-12) y_sd_ = 1.0;  // constant targets: keep scale identity
  x_ = std::move(x);
  y_std_.resize(y.size());
  for (std::size_t i = 0; i < y.size(); ++i) y_std_[i] = (y[i] - y_mean_) / y_sd_;
  if (refresh)
    refresh_posterior();
  else
    post_.reset();  // stale posterior must not outlive the data swap
}

double GaussianProcess::nll_and_grad_ws(FitScratch& s, const la::Vector& y,
                                        std::vector<double>& grad) const {
  const std::size_t n = y.size();
  kernel_->matrix_ws(*s.ws, s.k);
  const double noise = std::max(std::exp(log_noise_), 1e-12);
  for (std::size_t i = 0; i < n; ++i) s.k(i, i) += noise;

  const int start =
      util::fault_fires(util::FaultSite::gp_chol_fail) ? 1 : 0;
  if (la::cholesky_jittered_into(s.k, s.l, start) > 0.0)
    obs::bo_count(obs::BoCounter::gp_jitter_retries);
  la::cholesky_solve_into(s.l, y, s.alpha, s.tmp);
  const double logdet = la::cholesky_logdet(s.l);
  const double nll = 0.5 * la::dot(y, s.alpha) + 0.5 * logdet +
                     0.5 * static_cast<double>(n) * std::log(k_two_pi);

  // dNLL/dK = 0.5 (K^-1 - alpha alpha^T), formed in place over K^-1.
  la::cholesky_inverse_into(s.l, s.dk, s.t);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j) {
      const double v = 0.5 * (s.dk(i, j) - s.alpha[i] * s.alpha[j]);
      s.dk(i, j) = v;
      s.dk(j, i) = v;
    }

  grad.assign(kernel_->n_params() + 1, 0.0);
  kernel_->backward_ws(*s.ws, s.dk,
                       std::span<double>(grad.data(), kernel_->n_params()));
  double trace = 0.0;
  for (std::size_t i = 0; i < n; ++i) trace += s.dk(i, i);
  grad[kernel_->n_params()] = trace * noise;  // dK/d log sigma^2 = sigma^2 I
  return nll;
}

void GaussianProcess::fit(const GpFitOptions& opts, util::Rng& rng) {
  KATO_OBS_SPAN("gp_fit");
  KATO_OBS_STAGE(gp_fit);
  if (x_.empty()) throw std::logic_error("GaussianProcess::fit: no data");

  // Hyper-training subset (full posterior still uses all points).
  la::Matrix xs = x_;
  la::Vector ys = y_std_;
  if (x_.rows() > opts.max_train_points) {
    const auto idx = rng.choice(x_.rows(), opts.max_train_points);
    xs = la::Matrix(opts.max_train_points, x_.cols());
    ys.resize(opts.max_train_points);
    for (std::size_t i = 0; i < idx.size(); ++i) {
      xs.set_row(i, x_.row(idx[i]));
      ys[i] = y_std_[idx[i]];
    }
  }

  const std::size_t np = kernel_->n_params() + 1;
  nn::Adam adam(np, opts.lr);
  std::vector<double> grad;
  std::vector<double> best_params(np);
  double best_nll = std::numeric_limits<double>::infinity();

  // The workspace is bound to the subset once per fit: pairwise deltas are
  // computed here and every LML iteration below reuses the same buffers.
  FitScratch scratch;
  scratch.ws = kernel_->fit_workspace(xs);

  auto pack = [&](std::vector<double>& out) {
    auto kp = kernel_->params();
    std::copy(kp.begin(), kp.end(), out.begin());
    out[np - 1] = log_noise_;
  };
  auto unpack = [&](const std::vector<double>& in) {
    auto kp = kernel_->params();
    std::copy(in.begin(), in.begin() + kp.size(), kp.begin());
    log_noise_ = in[np - 1];
  };

  std::vector<double> theta(np);
  pack(theta);
  int iters_run = 0;
  for (int it = 0; it < opts.iterations; ++it) {
    unpack(theta);
    double nll;
    try {
      nll = nll_and_grad_ws(scratch, ys, grad);
    } catch (const std::runtime_error&) {
      break;  // kernel degenerated beyond the jitter ladder; keep best so far
    }
    ++iters_run;
    if (nll < best_nll) {
      best_nll = nll;
      best_params = theta;
    }
    adam.step(theta, grad);
    // Noise floor keeps the posterior numerically sane.
    theta[np - 1] = std::max(theta[np - 1], std::log(opts.min_noise));
  }
  if (std::isfinite(best_nll)) unpack(best_params);
  fit_info_ = {iters_run, best_nll};
  obs::bo_count(obs::BoCounter::gp_fits);
  obs::bo_count(obs::BoCounter::gp_fit_iters,
                static_cast<std::uint64_t>(iters_run));
  refresh_posterior();
}

void GaussianProcess::refresh_posterior() {
  KATO_OBS_SPAN("gp_refresh");
  const std::size_t n = x_.rows();
  la::Matrix k = kernel_->matrix(x_);
  const double noise = std::max(std::exp(log_noise_), 1e-12);
  for (std::size_t i = 0; i < n; ++i) k(i, i) += noise;
  const int start =
      util::fault_fires(util::FaultSite::gp_chol_fail) ? 1 : 0;
  auto chol = la::cholesky_jittered(k, start);
  if (chol.jitter > 0.0) obs::bo_count(obs::BoCounter::gp_jitter_retries);
  Posterior p;
  p.alpha = la::cholesky_solve(chol.l, y_std_);
  la::Matrix t_scratch;
  la::cholesky_inverse_into(chol.l, p.kinv, t_scratch);
  p.chol_l = std::move(chol.l);
  post_ = std::move(p);
}

const GaussianProcess::Posterior& GaussianProcess::posterior() const {
  if (!post_) throw std::logic_error("GaussianProcess: posterior not ready");
  return *post_;
}

GpPrediction GaussianProcess::predict_std(std::span<const double> x) const {
  const auto& p = posterior();
  const std::size_t n = x_.rows();
  la::Matrix xq(1, x.size());
  xq.set_row(0, x);
  const la::Matrix kx = kernel_->cross(xq, x_);  // 1 x n
  double mean = 0.0;
  for (std::size_t i = 0; i < n; ++i) mean += kx(0, i) * p.alpha[i];
  // v = k(x,x) - k^T K^-1 k.
  la::Vector kv(n);
  for (std::size_t i = 0; i < n; ++i) kv[i] = kx(0, i);
  const la::Vector kinv_k = la::matvec(p.kinv, kv);
  double var = kernel_->diag(x) - la::dot(kv, kinv_k);
  var = std::max(var, 1e-12);
  return {mean, var};
}

GpPrediction GaussianProcess::predict(std::span<const double> x) const {
  GpPrediction p = predict_std(x);
  p.mean = p.mean * y_sd_ + y_mean_;
  p.var *= y_sd_ * y_sd_;
  return p;
}

void GaussianProcess::predict_std_rows(const la::Matrix& xq, std::size_t q0,
                                       std::size_t q1,
                                       std::vector<GpPrediction>& preds) const {
  if (q1 <= q0) return;
  const auto& p = posterior();
  const std::size_t n = x_.rows();
  const std::size_t w = q1 - q0;
  const la::Matrix kx = kernel_->cross(row_range(xq, q0, q1), x_);  // w x n

  // rhs = kx^T, then one forward sweep solves L V = rhs for all w queries
  // together; var = k(x,x) - ||v||^2 column-wise.  Each column of the sweep
  // is independent of the others, so the row range never changes a value.
  la::Matrix rhs(n, w);
  for (std::size_t j = 0; j < w; ++j)
    for (std::size_t k = 0; k < n; ++k) rhs(k, j) = kx(j, k);
  const la::Matrix v = la::solve_lower_multi(p.chol_l, rhs);
  la::Vector sumsq(w, 0.0);
  for (std::size_t k = 0; k < n; ++k) {
    const auto row = v.row(k);
    for (std::size_t j = 0; j < w; ++j) sumsq[j] += row[j] * row[j];
  }
  for (std::size_t j = 0; j < w; ++j) {
    const double mean = la::dot(kx.row(j), p.alpha);
    const double var =
        std::max(kernel_->diag(xq.row(q0 + j)) - sumsq[j], 1e-12);
    preds[q0 + j] = {mean, var};
  }
}

std::vector<GpPrediction> GaussianProcess::predict_std_batch(
    const la::Matrix& xq) const {
  const std::size_t m = xq.rows();
  std::vector<GpPrediction> out(m);
  if (m == 0) return out;
  if (xq.cols() != kernel_->input_dim())
    throw std::invalid_argument("predict_std_batch: dim mismatch");
  util::parallel_for(m, [&](std::size_t q0, std::size_t q1) {
    predict_std_rows(xq, q0, q1, out);
  });
  return out;
}

std::vector<GpPrediction> GaussianProcess::predict_batch(
    const la::Matrix& xq) const {
  auto out = predict_std_batch(xq);
  for (auto& p : out) {
    p.mean = p.mean * y_sd_ + y_mean_;
    p.var *= y_sd_ * y_sd_;
  }
  return out;
}

void GaussianProcess::predict_std_grad(std::span<const double> x,
                                       GpPrediction& pred, la::Vector& dmean_dx,
                                       la::Vector& dvar_dx) const {
  const auto& p = posterior();
  const std::size_t n = x_.rows();
  la::Matrix xq(1, x.size());
  xq.set_row(0, x);
  const la::Matrix kx = kernel_->cross(xq, x_);
  la::Vector kv(n);
  for (std::size_t i = 0; i < n; ++i) kv[i] = kx(0, i);

  double mean = la::dot(kv, p.alpha);
  const la::Vector kinv_k = la::matvec(p.kinv, kv);
  double var = std::max(kernel_->diag(x) - la::dot(kv, kinv_k), 1e-12);
  pred = {mean, var};

  // d mean/dx = (dk/dx)^T alpha ; d var/dx = -2 (dk/dx)^T K^-1 k.
  // (k(x,x) is constant in x for the stationary and Neuk kernels used here.)
  dmean_dx.assign(x.size(), 0.0);
  dvar_dx.assign(x.size(), 0.0);
  kernel_->posterior_input_grad(x, x_, kv, p.alpha, kinv_k, dmean_dx, dvar_dx);
}

void GaussianProcess::predict_std_kinv_rows(const la::Matrix& xq,
                                            std::size_t q0, std::size_t q1,
                                            std::vector<GpPrediction>& preds,
                                            la::Matrix* dmean_dx,
                                            la::Matrix* dvar_dx) const {
  if (q1 <= q0) return;
  const auto& p = posterior();
  const std::size_t n = x_.rows();
  const la::Matrix kx = kernel_->cross(row_range(xq, q0, q1), x_);  // w x n
  const bool mean_only = dmean_dx != nullptr && dvar_dx == nullptr;

  // tile: n x kinv_block, the block's rows of kx transposed (unused lanes
  // zero) so one sweep over a row of K^-1 feeds every query at once.
  // kinv_k: row j is K^-1 k of the block's query j.  The mean-only mode
  // never contracts K^-1.
  std::vector<double> tile(mean_only ? 0 : n * kinv_block);
  la::Matrix kinv_k(mean_only ? 0 : kinv_block, n);
  static_assert(kinv_block == 8, "four two-lane accumulators");
  for (std::size_t b0 = 0; b0 < q1 - q0; b0 += kinv_block) {
    const std::size_t w = std::min(kinv_block, q1 - q0 - b0);
    if (!mean_only) {
      for (std::size_t k = 0; k < n; ++k) {
        double* t = tile.data() + k * kinv_block;
        for (std::size_t j = 0; j < kinv_block; ++j)
          t[j] = j < w ? kx(b0 + j, k) : 0.0;
      }

      // Lane j of (a0, a1, a2, a3) accumulates sum_k K^-1(i,k) kx(b0+j,k)
      // from 0.0 in increasing k with a separate multiply and add:
      // la::dot's exact summation order, so every query's K^-1 k is
      // bit-identical to the per-point la::matvec (K^-1 is exactly
      // symmetric).
      for (std::size_t i = 0; i < n; ++i) {
        const double* ki = p.kinv.row(i).data();
        const double* t = tile.data();
        V2 a0 = {0.0, 0.0};
        V2 a1 = a0;
        V2 a2 = a0;
        V2 a3 = a0;
        for (std::size_t k = 0; k < n; ++k, t += kinv_block) {
          const V2 s = {ki[k], ki[k]};
          a0 += s * load2(t);
          a1 += s * load2(t + 2);
          a2 += s * load2(t + 4);
          a3 += s * load2(t + 6);
        }
        const V2 acc[4] = {a0, a1, a2, a3};
        for (std::size_t j = 0; j < w; ++j) kinv_k(j, i) = acc[j / 2][j % 2];
      }
    }

    for (std::size_t j = 0; j < w; ++j) {
      const std::size_t q = q0 + b0 + j;
      const auto kv = kx.row(b0 + j);
      const double mean = la::dot(kv, p.alpha);
      const double var =
          mean_only ? std::numeric_limits<double>::quiet_NaN()
                    : std::max(kernel_->diag(xq.row(q)) -
                                   la::dot(kv, kinv_k.row(j)),
                               1e-12);
      preds[q] = {mean, var};
      if (dmean_dx == nullptr) continue;
      auto dm = dmean_dx->row(q);
      std::fill(dm.begin(), dm.end(), 0.0);
      std::span<double> dv;
      if (!mean_only) {
        dv = dvar_dx->row(q);
        std::fill(dv.begin(), dv.end(), 0.0);
      }
      kernel_->posterior_input_grad(
          xq.row(q), x_, kv, p.alpha,
          mean_only ? std::span<const double>() : kinv_k.row(j), dm, dv);
    }
  }
}

void GaussianProcess::predict_std_grad_batch(const la::Matrix& xq,
                                             std::vector<GpPrediction>& preds,
                                             la::Matrix& dmean_dx,
                                             la::Matrix& dvar_dx) const {
  const std::size_t m = xq.rows();
  const std::size_t d = xq.cols();
  preds.resize(m);
  if (dmean_dx.rows() != m || dmean_dx.cols() != d) dmean_dx = la::Matrix(m, d);
  if (dvar_dx.rows() != m || dvar_dx.cols() != d) dvar_dx = la::Matrix(m, d);
  util::parallel_for(m, [&](std::size_t q0, std::size_t q1) {
    predict_std_kinv_rows(xq, q0, q1, preds, &dmean_dx, &dvar_dx);
  });
}

void GaussianProcess::predict_std_batch_exact(
    const la::Matrix& xq, std::vector<GpPrediction>& preds) const {
  preds.resize(xq.rows());
  util::parallel_for(xq.rows(), [&](std::size_t q0, std::size_t q1) {
    predict_std_kinv_rows(xq, q0, q1, preds, nullptr, nullptr);
  });
}

double GaussianProcess::nll() const {
  // The training path on the full data (gradient discarded).
  FitScratch scratch;
  scratch.ws = kernel_->fit_workspace(x_);
  std::vector<double> grad;
  return nll_and_grad_ws(scratch, y_std_, grad);
}

MultiGp::MultiGp(std::size_t n_metrics,
                 const std::function<std::unique_ptr<kern::Kernel>()>& make_kernel) {
  if (n_metrics == 0) throw std::invalid_argument("MultiGp: need >= 1 metric");
  gps_.reserve(n_metrics);
  for (std::size_t i = 0; i < n_metrics; ++i)
    gps_.emplace_back(make_kernel());
}

void MultiGp::set_data(const la::Matrix& x, const la::Matrix& y, bool refresh) {
  if (y.cols() != gps_.size())
    throw std::invalid_argument("MultiGp::set_data: metric count mismatch");
  // The per-metric posterior rebuilds are independent: refresh them on the
  // pool when more than one metric is present.
  util::parallel_for(gps_.size(), [&](std::size_t m0, std::size_t m1) {
    for (std::size_t m = m0; m < m1; ++m) {
      la::Vector col(y.rows());
      for (std::size_t i = 0; i < y.rows(); ++i) col[i] = y(i, m);
      gps_[m].set_data(x, std::move(col), refresh);
    }
  });
}

void MultiGp::fit(const GpFitOptions& opts, util::Rng& rng) {
  // Deterministic parallel training: every metric gets its own RNG stream,
  // split from the caller's in metric order *before* any work starts, so the
  // draw sequences — and therefore the fitted hyperparameters — are
  // bit-identical whether the metrics run on 1 thread or many.
  std::vector<util::Rng> rngs;
  rngs.reserve(gps_.size());
  for (std::size_t m = 0; m < gps_.size(); ++m) rngs.push_back(rng.split());
  util::parallel_for(gps_.size(), [&](std::size_t m0, std::size_t m1) {
    for (std::size_t m = m0; m < m1; ++m) gps_[m].fit(opts, rngs[m]);
  });
}

std::vector<GpPrediction> MultiGp::predict(std::span<const double> x) const {
  std::vector<GpPrediction> out;
  out.reserve(gps_.size());
  for (const auto& g : gps_) out.push_back(g.predict(x));
  return out;
}

std::vector<std::vector<GpPrediction>> MultiGp::predict_batch(
    const la::Matrix& xq) const {
  const std::size_t q = xq.rows();
  if (q > 0 && xq.cols() != gps_.front().input_dim())
    throw std::invalid_argument("MultiGp::predict_batch: dim mismatch");
  // One dispatch over every metric's query rows through the triangular-solve
  // core of GaussianProcess::predict_std_batch, then raw units per metric.
  std::vector<std::vector<GpPrediction>> preds(gps_.size(),
                                               std::vector<GpPrediction>(q));
  for_metric_rows(gps_.size(), q, [&](std::size_t m, std::size_t q0,
                                      std::size_t q1) {
    gps_[m].predict_std_rows(xq, q0, q1, preds[m]);
  });
  std::vector<std::vector<GpPrediction>> out(q,
                                             std::vector<GpPrediction>(gps_.size()));
  for (std::size_t m = 0; m < gps_.size(); ++m) {
    const double sd = gps_[m].y_std();
    const double mu = gps_[m].y_mean();
    for (std::size_t i = 0; i < q; ++i) {
      GpPrediction p = preds[m][i];
      p.mean = p.mean * sd + mu;
      p.var *= sd * sd;
      out[i][m] = p;
    }
  }
  return out;
}

}  // namespace kato::gp
