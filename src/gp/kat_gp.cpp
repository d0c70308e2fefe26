#include "gp/kat_gp.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/obs.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"

namespace kato::gp {

namespace {
constexpr double k_log_two_pi = 1.8378770664093453;

}  // namespace

KatGp::KatGp(const MultiGp* source, std::size_t target_dim,
             std::size_t target_metrics, const KatGpConfig& config,
             util::Rng& rng)
    : source_(source),
      d_t_(target_dim),
      m_t_(target_metrics),
      config_(config),
      encoder_({target_dim, config.hidden, source->metric(0).input_dim()},
               nn::Activation::sigmoid, rng),
      decoder_({source->n_metrics(), config.hidden, target_metrics},
               nn::Activation::sigmoid, rng),
      log_noise_(std::log(config.init_noise)) {
  if (!source_) throw std::invalid_argument("KatGp: null source model");
  if (target_dim == 0 || target_metrics == 0)
    throw std::invalid_argument("KatGp: zero target dimension");

  // Identity-biased initialization: start from "target behaves like source".
  // Matching design variables (i < min(d_t, d_s)) are wired through so that
  // E(x) ~= x, and matching metrics so that D(u) ~= u; surplus dimensions
  // start at the box/metric center.  This is the natural prior for node
  // transfer (same topology, same variable order) and a harmless starting
  // point for topology transfer, where training reshapes the maps.  Xavier
  // noise left by the Mlp constructor provides the symmetry breaking.
  {
    const std::size_t d_s = source_->metric(0).input_dim();
    auto scale_block = [](std::span<double> w, double s) {
      for (auto& v : w) v *= s;
    };
    scale_block(encoder_.weight(0), 0.1);
    scale_block(encoder_.weight(1), 0.1);
    // 8 sigmoid(x/2 - 1/4) - 3.5 ~= x on [0,1] to within 3e-3 (the sigmoid
    // stays in its linear region), so E starts as a near-exact identity on
    // the shared dimensions; surplus source dimensions start near the box
    // center (sigmoid of small noise scaled into [0,1] via the bias).
    auto ew1 = encoder_.weight(0);
    auto eb1 = encoder_.bias(0);
    auto ew2 = encoder_.weight(1);
    auto eb2 = encoder_.bias(1);
    const std::size_t eh = encoder_.layer_out(0);
    for (std::size_t i = 0; i < std::min(d_t_, d_s); ++i) {
      ew1[i * d_t_ + i] = 0.5;
      eb1[i] = -0.25;
      ew2[i * eh + i] = 8.0;
      eb2[i] = -3.5;
    }
    for (std::size_t i = std::min(d_t_, d_s); i < d_s; ++i) eb2[i] = 0.5;
    scale_block(decoder_.weight(0), 0.1);
    scale_block(decoder_.weight(1), 0.1);
    // 8(sigmoid(u/2) - 1/2) ~= u on the standardized range |u| <~ 2.
    const std::size_t m_s = source_->n_metrics();
    auto dw1 = decoder_.weight(0);
    auto db1 = decoder_.bias(0);
    auto dw2 = decoder_.weight(1);
    auto db2 = decoder_.bias(1);
    const std::size_t dh = decoder_.layer_out(0);
    for (std::size_t i = 0; i < std::min(m_t_, m_s); ++i) {
      dw1[i * m_s + i] = 0.5;
      db1[i] = 0.0;
      dw2[i * dh + i] = 8.0;
      db2[i] = -4.0;
    }
  }
}

void KatGp::set_target_data(const la::Matrix& x, const la::Matrix& y) {
  if (x.rows() != y.rows())
    throw std::invalid_argument("KatGp::set_target_data: n mismatch");
  if (x.cols() != d_t_ || y.cols() != m_t_)
    throw std::invalid_argument("KatGp::set_target_data: dim mismatch");
  x_t_ = x;
  y_mean_.assign(m_t_, 0.0);
  y_sd_.assign(m_t_, 1.0);
  y_t_std_ = la::Matrix(y.rows(), m_t_);
  for (std::size_t m = 0; m < m_t_; ++m) {
    la::Vector col(y.rows());
    for (std::size_t i = 0; i < y.rows(); ++i) col[i] = y(i, m);
    y_mean_[m] = util::mean(col);
    y_sd_[m] = util::stddev(col);
    if (y_sd_[m] < 1e-12) y_sd_[m] = 1.0;
    for (std::size_t i = 0; i < y.rows(); ++i)
      y_t_std_(i, m) = (y(i, m) - y_mean_[m]) / y_sd_[m];
  }
}

KatGp::Forward KatGp::forward(std::span<const double> x) const {
  Forward f;
  la::Vector xin(x.begin(), x.end());
  f.enc_out = encoder_.forward(xin, f.enc_cache);

  const std::size_t m_s = source_->n_metrics();
  f.mu_s.resize(m_s);
  f.v_s.resize(m_s);
  for (std::size_t k = 0; k < m_s; ++k) {
    const GpPrediction p = source_->metric(k).predict_std(f.enc_out);
    f.mu_s[k] = p.mean;
    f.v_s[k] = p.var;
  }
  f.mean_t = decoder_.forward(f.mu_s, f.dec_cache);
  f.jac = decoder_.jacobian(f.dec_cache);
  return f;
}

void KatGp::factor_sigma(const Forward& f, SigmaScratch& s) const {
  const double noise = std::exp(log_noise_);
  if (s.sigma.rows() != m_t_) s.sigma = la::Matrix(m_t_, m_t_);
  for (std::size_t a = 0; a < m_t_; ++a)
    for (std::size_t b = 0; b < m_t_; ++b) {
      double v = 0.0;
      for (std::size_t k = 0; k < f.v_s.size(); ++k)
        v += f.jac(a, k) * f.v_s[k] * f.jac(b, k);
      s.sigma(a, b) = v + (a == b ? noise : 0.0);
    }
  la::cholesky_jittered_into(s.sigma, s.l);
  la::cholesky_inverse_small_into(s.l, s.inv, s.tmp);
}

double KatGp::point_nll(const Forward& f, std::size_t row,
                        SigmaScratch& s) const {
  la::Vector r(m_t_);
  for (std::size_t m = 0; m < m_t_; ++m) r[m] = y_t_std_(row, m) - f.mean_t[m];
  factor_sigma(f, s);
  const la::Vector w = la::matvec(s.inv, r);
  return 0.5 * la::dot(r, w) + 0.5 * la::cholesky_logdet(s.l) +
         0.5 * static_cast<double>(m_t_) * k_log_two_pi;
}

void KatGp::point_grad(Forward& f, std::size_t row, bool mean_only,
                       const SourceGrads& sg, std::size_t brow, PointGrad& g,
                       SigmaScratch& ss) const {
  const std::size_t m_s = sg.preds.size();
  const std::size_t d_s = f.enc_out.size();
  f.mu_s.resize(m_s);
  for (std::size_t k = 0; k < m_s; ++k) f.mu_s[k] = sg.preds[k][brow].mean;
  f.mean_t = decoder_.forward(f.mu_s, f.dec_cache);

  if (mean_only) {
    // Warmup phase: L = 0.5 ||y - mean_t||^2, upstream dL/dmean_t = -r.
    la::Vector dmean(m_t_);
    for (std::size_t m = 0; m < m_t_; ++m)
      dmean[m] = -(y_t_std_(row, m) - f.mean_t[m]);
    const la::Vector dmu = decoder_.backprop(f.dec_cache, dmean, g.dec_delta);
    la::Vector dxs(d_s, 0.0);
    for (std::size_t k = 0; k < m_s; ++k) {
      const auto dmean_dx = sg.dmean[k].row(brow);
      for (std::size_t j = 0; j < d_s; ++j) dxs[j] += dmu[k] * dmean_dx[j];
    }
    (void)encoder_.backprop(f.enc_cache, dxs, g.enc_delta);
    return;
  }

  f.v_s.resize(m_s);
  for (std::size_t k = 0; k < m_s; ++k) f.v_s[k] = sg.preds[k][brow].var;
  f.jac = decoder_.jacobian(f.dec_cache);
  const double noise = std::exp(log_noise_);
  la::Vector r(m_t_);
  for (std::size_t m = 0; m < m_t_; ++m) r[m] = y_t_std_(row, m) - f.mean_t[m];

  factor_sigma(f, ss);
  const la::Matrix& sigma_inv = ss.inv;
  const la::Vector w = la::matvec(sigma_inv, r);

  // dNLL/dSigma = 0.5 (Sigma^-1 - w w^T).
  la::Matrix dsigma(m_t_, m_t_);
  for (std::size_t a = 0; a < m_t_; ++a)
    for (std::size_t b = 0; b < m_t_; ++b)
      dsigma(a, b) = 0.5 * (sigma_inv(a, b) - w[a] * w[b]);

  double trace = 0.0;
  for (std::size_t a = 0; a < m_t_; ++a) trace += dsigma(a, a);
  g.noise = trace * noise;

  // dNLL/dv_k = J[:,k]^T dSigma J[:,k].
  la::Vector dv(m_s, 0.0);
  for (std::size_t k = 0; k < m_s; ++k) {
    double acc = 0.0;
    for (std::size_t a = 0; a < m_t_; ++a)
      for (std::size_t b = 0; b < m_t_; ++b)
        acc += f.jac(a, k) * dsigma(a, b) * f.jac(b, k);
    dv[k] = acc;
  }

  // Decoder: upstream dNLL/dmean_t = -w.
  la::Vector dmean(m_t_);
  for (std::size_t m = 0; m < m_t_; ++m) dmean[m] = -w[m];
  la::Vector dmu = decoder_.backprop(f.dec_cache, dmean, g.dec_delta);

  // ---- Exact gradient through the Delta-method Jacobian ----
  // J = W2 diag(s'(a)) W1 with a = W1 mu_s + b1 (one hidden layer).
  // dNLL/dJ = (P + P^T) J S = 2 P J S with P = dsigma (symmetric), S = diag(v).
  {
    const std::size_t h = decoder_.layer_out(0);
    const auto w1 = decoder_.weight(0);  // h x m_s
    const auto w2 = decoder_.weight(1);  // m_t x h
    const auto& a_pre = f.dec_cache.pre_act[0];
    const nn::Activation act = decoder_.activation_of(0);

    la::Matrix dj(m_t_, m_s);
    for (std::size_t p = 0; p < m_t_; ++p)
      for (std::size_t j = 0; j < m_s; ++j) {
        double s = 0.0;
        for (std::size_t b = 0; b < m_t_; ++b) s += dsigma(p, b) * f.jac(b, j);
        dj(p, j) = 2.0 * s * f.v_s[j];
      }

    // T = W2^T dJ (h x m_s).
    la::Matrix t(h, m_s);
    for (std::size_t k = 0; k < h; ++k)
      for (std::size_t j = 0; j < m_s; ++j) {
        double s = 0.0;
        for (std::size_t p = 0; p < m_t_; ++p) s += w2[p * h + k] * dj(p, j);
        t(k, j) = s;
      }

    g.jac_w1.resize(h * m_s);
    g.jac_w2.resize(m_t_ * h);
    g.jac_b1.resize(h);
    for (std::size_t k = 0; k < h; ++k) {
      const double sp = nn::activate_deriv(act, a_pre[k]);
      const double spp = nn::activate_second_deriv(act, a_pre[k]);
      // dW2[p,k] = sum_j dJ[p,j] s'(a_k) W1[k,j].
      for (std::size_t p = 0; p < m_t_; ++p) {
        double s = 0.0;
        for (std::size_t j = 0; j < m_s; ++j) s += dj(p, j) * w1[k * m_s + j];
        g.jac_w2[p * h + k] = sp * s;
      }
      // g_k = sum_j T[k,j] W1[k,j]; da_k = g_k s''(a_k).
      double gk = 0.0;
      for (std::size_t j = 0; j < m_s; ++j) gk += t(k, j) * w1[k * m_s + j];
      const double da = gk * spp;
      g.jac_b1[k] = da;
      for (std::size_t j = 0; j < m_s; ++j) {
        // explicit-W1 path + activation path.
        g.jac_w1[k * m_s + j] = sp * t(k, j) + da * f.mu_s[j];
        // a depends on the decoder input mu_s as well.
        dmu[j] += da * w1[k * m_s + j];
      }
    }
  }

  // Source GP posterior: chain d mu/dx_s and d var/dx_s into the encoder.
  la::Vector dxs(d_s, 0.0);
  for (std::size_t k = 0; k < m_s; ++k) {
    const auto dmean_dx = sg.dmean[k].row(brow);
    const auto dvar_dx = sg.dvar[k].row(brow);
    for (std::size_t j = 0; j < d_s; ++j)
      dxs[j] += dmu[k] * dmean_dx[j] + dv[k] * dvar_dx[j];
  }
  (void)encoder_.backprop(f.enc_cache, dxs, g.enc_delta);
}

void KatGp::accumulate_point(const Forward& f, bool mean_only,
                             const PointGrad& g) {
  if (!mean_only) noise_grad_ += g.noise;
  decoder_.accumulate_grads(f.dec_cache, g.dec_delta);
  if (!mean_only) {
    // The Jacobian-path terms land after the decoder's own backprop terms.
    auto w1g = decoder_.weight_grad(0);
    auto w2g = decoder_.weight_grad(1);
    auto b1g = decoder_.bias_grad(0);
    const std::size_t h = decoder_.layer_out(0);
    const std::size_t m_s = decoder_.in_dim();
    for (std::size_t k = 0; k < h; ++k) {
      for (std::size_t p = 0; p < m_t_; ++p)
        w2g[p * h + k] += g.jac_w2[p * h + k];
      b1g[k] += g.jac_b1[k];
      for (std::size_t j = 0; j < m_s; ++j)
        w1g[k * m_s + j] += g.jac_w1[k * m_s + j];
    }
  }
  encoder_.accumulate_grads(f.enc_cache, g.enc_delta);
}

void KatGp::fit(util::Rng& rng) {
  if (x_t_.empty()) throw std::logic_error("KatGp::fit: no target data");
  KATO_OBS_SPAN("kat_fit");
  KATO_OBS_STAGE(kat_fit);
  const int iters =
      fitted_once_ ? config_.refit_iterations : config_.init_iterations;
  const std::size_t n = x_t_.rows();
  const std::size_t batch = config_.batch_size == 0
                                ? n
                                : std::min<std::size_t>(config_.batch_size, n);

  const std::size_t np = encoder_.n_params() + decoder_.n_params() + 1;
  nn::Adam adam(np, config_.lr);
  std::vector<double> theta(np);
  std::vector<double> grad(np);

  auto pack = [&] {
    auto ep = encoder_.params();
    auto dp = decoder_.params();
    std::copy(ep.begin(), ep.end(), theta.begin());
    std::copy(dp.begin(), dp.end(), theta.begin() + ep.size());
    theta[np - 1] = log_noise_;
  };
  auto unpack = [&] {
    auto ep = encoder_.params();
    auto dp = decoder_.params();
    std::copy(theta.begin(), theta.begin() + ep.size(), ep.begin());
    std::copy(theta.begin() + ep.size(), theta.begin() + ep.size() + dp.size(),
              dp.begin());
    log_noise_ = theta[np - 1];
  };

  // Mean-only warmup applies to the first fit only (see header).
  const int warmup =
      fitted_once_ ? 0
                   : static_cast<int>(config_.warmup_frac *
                                      static_cast<double>(iters));

  // Track the best parameters by exact full-data NLL so a diverging run can
  // never leave the model worse than its starting point.
  std::vector<double> best_theta(np);
  double best_nll = std::numeric_limits<double>::infinity();
  auto consider_best = [&] {
    const double cur = nll();
    if (cur < best_nll) {
      best_nll = cur;
      best_theta = theta;
    }
  };

  pack();
  consider_best();
  bool evaluated = true;  // best-tracking has seen the current theta
  // The regularizer anchors to the parameters at the start of this fit —
  // the identity-biased init on the first call, the previous optimum on
  // refits — so transfer stays conservative unless the data insists.
  const std::vector<double> anchor = theta;

  // Minibatch buffers reused across Adam steps: per-point forward caches
  // and gradient records, the encoded block and the source posterior.
  const std::size_t m_s = source_->n_metrics();
  const std::size_t d_s = encoder_.out_dim();
  std::vector<Forward> fwd;
  std::vector<PointGrad> pg;
  la::Matrix enc;
  SourceGrads sg;
  sg.preds.resize(m_s);
  sg.dmean.resize(m_s);
  sg.dvar.resize(m_s);

  for (int it = 0; it < iters; ++it) {
    unpack();
    encoder_.zero_grad();
    decoder_.zero_grad();
    noise_grad_ = 0.0;
    const bool mean_only = it < warmup;
    const auto idx = batch < n ? rng.choice(n, batch) : rng.permutation(n);
    const std::size_t b = idx.size();
    if (fwd.size() < b) {
      fwd.resize(b);
      pg.resize(b);
    }
    if (enc.rows() != b) enc = la::Matrix(b, d_s);

    {
      // Serial: the whole minibatch encodes in about the time a pool
      // dispatch takes to wake its workers.
      KATO_OBS_SPAN("kat_encode");
      for (std::size_t bi = 0; bi < b; ++bi) {
        const auto row = x_t_.row(idx[bi]);
        la::Vector xin(row.begin(), row.end());
        fwd[bi].enc_out = encoder_.forward(xin, fwd[bi].enc_cache);
        enc.set_row(bi, fwd[bi].enc_out);
      }
    }
    {
      // One dispatch over every source metric's minibatch rows; the
      // warm-up reads only mu_s and d mu_s/dx.
      KATO_OBS_SPAN("kat_source");
      for (std::size_t k = 0; k < m_s; ++k) {
        sg.preds[k].resize(b);
        if (sg.dmean[k].rows() != b) {
          sg.dmean[k] = la::Matrix(b, d_s);
          sg.dvar[k] = la::Matrix(b, d_s);
        }
      }
      for_metric_rows(m_s, b, [&](std::size_t k, std::size_t q0,
                                  std::size_t q1) {
        source_->metric(k).predict_std_kinv_rows(
            enc, q0, q1, sg.preds[k], &sg.dmean[k],
            mean_only ? nullptr : &sg.dvar[k]);
      });
    }

    {
      // Per-point gradient work on the pool, then the additions into the
      // shared gradients serially in point order.
      KATO_OBS_SPAN("kat_backward");
      util::parallel_for(b, [&](std::size_t b0, std::size_t b1) {
        SigmaScratch ss;
        for (std::size_t bi = b0; bi < b1; ++bi)
          point_grad(fwd[bi], idx[bi], mean_only, sg, bi, pg[bi], ss);
      });
      for (std::size_t bi = 0; bi < b; ++bi)
        accumulate_point(fwd[bi], mean_only, pg[bi]);
    }
    const double scale = 1.0 / static_cast<double>(idx.size());
    auto eg = encoder_.grads();
    auto dg = decoder_.grads();
    for (std::size_t i = 0; i < eg.size(); ++i) grad[i] = eg[i] * scale;
    for (std::size_t i = 0; i < dg.size(); ++i) grad[eg.size() + i] = dg[i] * scale;
    grad[np - 1] = noise_grad_ * scale;
    if (config_.reg_to_init > 0.0)
      for (std::size_t i = 0; i + 1 < np; ++i)  // noise is not anchored
        grad[i] += config_.reg_to_init * (theta[i] - anchor[i]);
    if (config_.grad_clip > 0.0) {
      const double norm = la::norm2(grad);
      if (norm > config_.grad_clip) {
        const double s = config_.grad_clip / norm;
        for (auto& g : grad) g *= s;
      }
    }
    adam.step(theta, grad);
    theta[np - 1] = std::max(theta[np - 1], std::log(config_.min_noise));
    evaluated = false;
    if (it >= warmup &&
        (config_.eval_every > 0 && (it + 1) % config_.eval_every == 0)) {
      unpack();
      consider_best();
      evaluated = true;
    }
  }
  if (!evaluated) {
    unpack();
    consider_best();
  }
  theta = best_theta;
  unpack();
  fitted_once_ = true;
}

std::vector<GpPrediction> KatGp::predict(std::span<const double> x) const {
  const Forward f = forward(x);
  const double noise = std::exp(log_noise_);
  std::vector<GpPrediction> out(m_t_);
  for (std::size_t m = 0; m < m_t_; ++m) {
    double var = noise;
    for (std::size_t k = 0; k < f.v_s.size(); ++k)
      var += f.jac(m, k) * f.jac(m, k) * f.v_s[k];
    out[m].mean = f.mean_t[m] * y_sd_[m] + y_mean_[m];
    out[m].var = var * y_sd_[m] * y_sd_[m];
  }
  return out;
}

std::vector<std::vector<GpPrediction>> KatGp::predict_batch(
    const la::Matrix& xq) const {
  const std::size_t q = xq.rows();
  const std::size_t m_s = source_->n_metrics();

  // Encode every query into one block; queries are independent, so the
  // MLP forwards run on the pool.
  la::Matrix enc(q, encoder_.out_dim());
  util::parallel_for(q, [&](std::size_t i0, std::size_t i1) {
    nn::Mlp::Cache enc_cache;
    for (std::size_t i = i0; i < i1; ++i) {
      const auto row = xq.row(i);
      la::Vector xin(row.begin(), row.end());
      enc.set_row(i, encoder_.forward(xin, enc_cache));
    }
  });

  // Batched source posterior: one dispatch over every source metric's
  // query rows through the triangular-solve core of predict_std_batch.
  std::vector<std::vector<GpPrediction>> preds(
      m_s, std::vector<GpPrediction>(q));
  for_metric_rows(m_s, q, [&](std::size_t k, std::size_t q0, std::size_t q1) {
    source_->metric(k).predict_std_rows(enc, q0, q1, preds[k]);
  });

  // Decoder + Delta-method variance per candidate, on the pool.
  const double noise = std::exp(log_noise_);
  std::vector<std::vector<GpPrediction>> out(q);
  util::parallel_for(q, [&](std::size_t i0, std::size_t i1) {
    nn::Mlp::Cache dec_cache;
    la::Vector mu(m_s);
    for (std::size_t i = i0; i < i1; ++i) {
      for (std::size_t k = 0; k < m_s; ++k) mu[k] = preds[k][i].mean;
      const la::Vector mean_t = decoder_.forward(mu, dec_cache);
      const la::Matrix jac = decoder_.jacobian(dec_cache);
      out[i].resize(m_t_);
      for (std::size_t m = 0; m < m_t_; ++m) {
        double var = noise;
        for (std::size_t k = 0; k < m_s; ++k)
          var += jac(m, k) * jac(m, k) * preds[k][i].var;
        out[i][m].mean = mean_t[m] * y_sd_[m] + y_mean_[m];
        out[i][m].var = var * y_sd_[m] * y_sd_[m];
      }
    }
  });
  return out;
}

double KatGp::nll() const {
  KATO_OBS_SPAN("kat_nll");
  const std::size_t n = x_t_.rows();
  const std::size_t m_s = source_->n_metrics();
  // Batched evaluation sweep: encode every point (serially, as in fit()),
  // one dispatch over every source metric's rows through the K^-1 core of
  // predict_std_batch_exact (bit-identical to per-point forward()), then
  // the per-point NLLs on the pool, summed in point order.
  la::Matrix enc(n, encoder_.out_dim());
  nn::Mlp::Cache enc_cache;
  for (std::size_t i = 0; i < n; ++i) {
    const auto row = x_t_.row(i);
    la::Vector xin(row.begin(), row.end());
    enc.set_row(i, encoder_.forward(xin, enc_cache));
  }
  std::vector<std::vector<GpPrediction>> preds(
      m_s, std::vector<GpPrediction>(n));
  for_metric_rows(m_s, n, [&](std::size_t k, std::size_t q0, std::size_t q1) {
    source_->metric(k).predict_std_kinv_rows(enc, q0, q1, preds[k], nullptr,
                                             nullptr);
  });

  std::vector<double> point(n);
  util::parallel_for(n, [&](std::size_t i0, std::size_t i1) {
    Forward f;
    SigmaScratch ss;
    f.mu_s.resize(m_s);
    f.v_s.resize(m_s);
    for (std::size_t i = i0; i < i1; ++i) {
      for (std::size_t k = 0; k < m_s; ++k) {
        f.mu_s[k] = preds[k][i].mean;
        f.v_s[k] = preds[k][i].var;
      }
      f.mean_t = decoder_.forward(f.mu_s, f.dec_cache);
      f.jac = decoder_.jacobian(f.dec_cache);
      point[i] = point_nll(f, i, ss);
    }
  });
  double total = 0.0;
  for (const double v : point) total += v;
  return total / static_cast<double>(n);
}

std::vector<double> KatGp::params() const {
  const auto ep = encoder_.params();
  const auto dp = decoder_.params();
  std::vector<double> theta(ep.begin(), ep.end());
  theta.insert(theta.end(), dp.begin(), dp.end());
  theta.push_back(log_noise_);
  return theta;
}

}  // namespace kato::gp
