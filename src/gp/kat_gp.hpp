#pragma once
// Knowledge Alignment and Transfer GP (KAT-GP) — paper Sec. 3.2.
//
// Structure (Fig. 2):
//   encoder E : target design space  -> source design space   (MLP d_t-32-d_s)
//   source GP : frozen MultiGp trained on the source circuit's data
//   decoder D : source metric space  -> target metric space   (MLP m_s-32-m_t)
//
// Predictive distribution via the Delta method (Eq. 11):
//   mu_t(x)    = D( mu_s(E(x)) )
//   Sigma_t(x) = J diag(v_s(E(x))) J^T + sigma_t^2 I,
// where J is the decoder Jacobian at mu_s (the source GPs are independent per
// metric, so the source covariance S is diagonal).
//
// Training maximizes the Gaussian likelihood of the target data (Eq. 12) with
// Adam over encoder weights, decoder weights and the target noise.  Gradients
// flow through the decoder (backprop), through the source GP posterior
// (analytic d mean/dx, d var/dx from the K^-1 row core
// GaussianProcess::predict_std_kinv_rows) and into the encoder (backprop).
// The gradient through the Jacobian J inside the Delta-method covariance is
// computed exactly for the paper's one-hidden-layer decoder: with
// D(u) = W2 s(W1 u + b1) + b2 the Jacobian factors as J = W2 diag(s'(a)) W1,
// whose parameter- and input-derivatives are closed form (they involve
// s'').  All gradients are finite-difference checked in
// tests/gp_test.cpp.
//
// The first fit begins with a mean-warmup phase (squared-error loss on the
// predictive mean only).  Without it, Adam reliably falls into the variance-
// sink local optimum of Eq. 12 — inflate sigma_t to "explain" the residuals
// and leave the encoder untrained — because the mean path needs coordinated
// encoder+decoder progress while the variance path has an easy one-parameter
// fix.  Warmup removes that shortcut while the alignment forms.  Its steps
// compute only what the mean loss reads: the source stage runs mean-only
// (no K^-1 contraction, no variances) and the decoder Jacobian is skipped.
//
// Each Adam step encodes the minibatch (serially: it is too little work
// for a pool dispatch), runs the source stage as one pool dispatch over
// (source metric x point), then the const per-point gradient work
// (decoder, Delta-method covariance, backprop deltas) on the pool.  Only the additions into the shared parameter
// gradients run serially, in point order, so every gradient entry receives
// the same additions in the same order at any KATO_THREADS.
//
// All alignment happens in standardized spaces: inputs live in unit boxes,
// the decoder consumes standardized source-GP outputs and produces
// standardized target outputs.

#include <memory>

#include "gp/gp.hpp"
#include "nn/mlp.hpp"

namespace kato::gp {

struct KatGpConfig {
  std::size_t hidden = 32;      ///< hidden width of encoder/decoder (paper: 32)
  int init_iterations = 400;    ///< Adam steps for the first fit
  int refit_iterations = 60;    ///< Adam steps for warm-started refits
  double lr = 1e-2;
  double warmup_frac = 0.4;     ///< fraction of the first fit spent on mean-only loss
  double grad_clip = 10.0;      ///< global-norm gradient clip (0 = off)
  double reg_to_init = 1e-3;    ///< L2 pull toward the identity-biased init
  int eval_every = 10;          ///< full-NLL evaluation cadence for best-param tracking
  std::size_t batch_size = 128; ///< minibatch size (0 = full batch)
  double init_noise = 1e-2;     ///< initial target noise (standardized)
  double min_noise = 1e-6;
};

class KatGp {
 public:
  /// `source` must outlive this object and already be fitted on source data.
  KatGp(const MultiGp* source, std::size_t target_dim,
        std::size_t target_metrics, const KatGpConfig& config, util::Rng& rng);

  /// Replace target data: x (n x d_t, unit box), y (n x m_t, raw units).
  void set_target_data(const la::Matrix& x, const la::Matrix& y);

  /// Train encoder/decoder/noise.  First call uses init_iterations, later
  /// calls warm-start with refit_iterations.
  void fit(util::Rng& rng);

  /// Delta-method predictive per target metric, raw units.
  std::vector<GpPrediction> predict(std::span<const double> x) const;
  /// Batched prediction (out[q][m]): encodes the whole query block, then
  /// runs every source metric's batched posterior over the encoded block in
  /// one parallel_for across KATO_THREADS (each chunk builds its own
  /// cross-covariance rows and shares one triangular solve among them).
  std::vector<std::vector<GpPrediction>> predict_batch(const la::Matrix& xq) const;

  /// Exact Eq. 12 negative log likelihood of the current parameters on the
  /// full target set (used by tests and diagnostics).
  double nll() const;

  /// Current parameters as fit() packs them: encoder, decoder, then
  /// log sigma_t^2.
  std::vector<double> params() const;

  std::size_t n_metrics() const { return m_t_; }
  std::size_t n_target_data() const { return x_t_.rows(); }

 private:
  struct Forward {
    la::Vector enc_out;          ///< E(x), d_s
    la::Vector mu_s;             ///< standardized source means, m_s
    la::Vector v_s;              ///< standardized source variances, m_s
    la::Vector mean_t;           ///< decoder output (standardized target), m_t
    la::Matrix jac;              ///< decoder Jacobian m_t x m_s
    nn::Mlp::Cache enc_cache;
    nn::Mlp::Cache dec_cache;
  };

  /// Per-minibatch source-GP state: posterior values plus d mu_s/dx and
  /// (past the warm-up) d v_s/dx for every (point, metric) pair, from one
  /// for_metric_rows dispatch per Adam step through predict_std_kinv_rows.
  struct SourceGrads {
    std::vector<std::vector<GpPrediction>> preds;  ///< [metric][point]
    std::vector<la::Matrix> dmean;                 ///< [metric]: b x d_s
    std::vector<la::Matrix> dvar;                  ///< [metric]: b x d_s
  };

  /// One minibatch point's additions to the shared gradients, written by
  /// point_grad on the pool and added by accumulate_point.  Reused across
  /// Adam steps; the jac_* terms stay unused in the warm-up.
  struct PointGrad {
    std::vector<la::Vector> dec_delta;  ///< decoder backprop deltas
    std::vector<la::Vector> enc_delta;  ///< encoder backprop deltas
    la::Vector jac_w1;   ///< Jacobian-path dW1 terms, h x m_s
    la::Vector jac_w2;   ///< Jacobian-path dW2 terms, m_t x h
    la::Vector jac_b1;   ///< Jacobian-path db1 terms, h
    double noise = 0.0;  ///< d NLL / d log sigma_t^2 term
  };

  Forward forward(std::span<const double> x) const;
  /// NLL of one target point given a forward pass.  `chol` is a reused
  /// buffer for the factor of the point's m_t x m_t predictive covariance.
  double point_nll(const Forward& f, std::size_t row, la::Matrix& chol) const;
  /// The per-point half of a training step, const and run on the pool: the
  /// decoder forward pass (plus its Jacobian past the warm-up) from the
  /// point's source posterior (sg row `brow`), then the loss gradient back
  /// through the decoder, the Delta-method covariance and the source
  /// posterior into the encoder, written to `g` as backprop deltas and
  /// Jacobian-path terms.  With mean_only the loss is the squared error of
  /// the predictive mean (warmup phase).  `chol` is as in point_nll.
  void point_grad(Forward& f, std::size_t row, bool mean_only,
                  const SourceGrads& sg, std::size_t brow, PointGrad& g,
                  la::Matrix& chol) const;
  /// The serial half: add one point's terms into the encoder/decoder
  /// gradients and noise_grad_, in the order a single fused backward pass
  /// adds them.
  void accumulate_point(const Forward& f, bool mean_only, const PointGrad& g);

  const MultiGp* source_;
  std::size_t d_t_;
  std::size_t m_t_;
  KatGpConfig config_;
  nn::Mlp encoder_;
  nn::Mlp decoder_;
  double log_noise_;
  double noise_grad_ = 0.0;  ///< scratch accumulator for d NLL / d log sigma^2
  la::Matrix x_t_;
  la::Matrix y_t_std_;
  la::Vector y_mean_;
  la::Vector y_sd_;
  bool fitted_once_ = false;
};

}  // namespace kato::gp
