#include "bo/drivers.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "obs/journal.hpp"
#include "obs/obs.hpp"
#include "rf/random_forest.hpp"
#include "util/sampling.hpp"

namespace kato::bo {

namespace {

constexpr double k_inf = std::numeric_limits<double>::infinity();

// --- Run-journal helpers ---------------------------------------------------
// Journal emission is value-free: these helpers only read optimizer state
// and format strings, and every call site is gated on the state's captured
// journal flag, so a journaled run's RNG stream and arithmetic stay
// bit-identical to an unjournaled one (pinned by obs_test's ObsBo cases).

std::string config_json(const BoConfig& c, bool transfer) {
  obs::JsonObj o;
  o.uint("batch", c.batch)
      .uint("iterations", c.iterations)
      .uint("n_init", c.n_init)
      .num("ucb_beta", c.ucb_beta)
      .boolean("use_stl", c.use_stl)
      .uint("max_gp_points", c.max_gp_points)
      .uint("hyper_every", c.hyper_every)
      .boolean("transfer", transfer);
  return o.take();
}

/// New design points as an array of arrays, from index `from` on.
std::string points_json(const std::vector<std::vector<double>>& xs,
                        std::size_t from) {
  std::string out = "[";
  for (std::size_t i = from; i < xs.size(); ++i) {
    if (i != from) out += ',';
    out += obs::json_array(xs[i]);
  }
  out += ']';
  return out;
}

/// Append the acquisition vectors of a selected batch, matched back into the
/// Pareto set by exact design-vector equality (select_batch copies rows
/// verbatim; random fill-ins that never sat on the front log as null).
/// Rows of `p.f` are the negated acquisition objectives MACE minimizes.
void append_acq(std::string& out, const moo::ParetoSet& p,
                const std::vector<std::vector<double>>& batch) {
  for (const auto& x : batch) {
    if (out.size() > 1) out += ',';
    std::size_t hit = p.x.size();
    for (std::size_t i = 0; i < p.x.size(); ++i)
      if (p.x[i] == x) {
        hit = i;
        break;
      }
    out += hit < p.x.size() ? obs::json_array(p.f[hit]) : "null";
  }
}

/// GP refit diagnostics from the objective GP (metric 0): NLL/iterations of
/// the last hyper-fit, current noise, and the kernel hyperparameters — in
/// full for small kernels, as dimension+norm for NeuK's weight vector so a
/// journal line stays bounded.
std::string gp_json(GpSurrogate& s, bool hyper, bool warm) {
  gp::GaussianProcess& g0 = s.model().metric(0);
  const gp::GpFitInfo& info = g0.last_fit_info();
  obs::JsonObj o;
  o.boolean("hyper", hyper)
      .boolean("warm", warm)
      .num("nll", info.best_nll)
      .num("fit_iters", info.iterations)
      .num("noise", g0.noise_var());
  const auto theta = g0.kernel().params();
  if (theta.size() <= 16) {
    o.raw("theta", obs::json_array({theta.begin(), theta.end()}));
  } else {
    double sq = 0.0;
    for (const double t : theta) sq += t * t;
    o.uint("n_theta", theta.size()).num("theta_norm", std::sqrt(sq));
  }
  return o.take();
}

/// Bookkeeping of one optimization run in either experiment mode: simulate,
/// record history, keep the running best, and journal the run.
///
/// Every valid simulation gets a score to minimize.  Constrained mode (Eq. 1)
/// scores a feasible design by its objective metrics[0] and an infeasible one
/// +inf; FOM mode (Eq. 2, selected by passing `norm`) scores -fom_value.  The
/// trace and the journal report the incumbent in the mode's own sign: the
/// best feasible objective, or the best FOM.
class RunState {
 public:
  RunState(const ckt::SizingCircuit& circuit, const ckt::FomNormalization* norm)
      : circuit_(circuit), norm_(norm) {}

  /// Simulate a whole proposal batch through SizingCircuit::evaluate_batch
  /// (thread-parallel on the pool for every circuit), then record in
  /// submission order — history, trace and incumbent bookkeeping are
  /// bit-identical to simulating one design at a time.  Returns, per
  /// design, whether it improved the incumbent.
  std::vector<char> simulate_batch(const std::vector<std::vector<double>>& xs) {
    KATO_OBS_SPAN("simulate_batch");
    obs::bo_count(obs::BoCounter::proposal_batches);
    obs::bo_count(obs::BoCounter::proposals, xs.size());
    const std::uint64_t t0 = jon_ ? obs::trace_now_ns() : 0;
    const auto metrics = circuit_.evaluate_batch(xs);
    if (jon_) eval_ns_ += obs::trace_now_ns() - t0;
    std::vector<char> improved(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i)
      improved[i] = record(xs[i], metrics[i]) ? 1 : 0;
    return improved;
  }

  /// Incumbent score — the y_best acquisitions improve on (+inf until the
  /// first feasible design, in FOM mode until the first valid one).
  double y_best() const { return best_; }
  std::size_t n_valid() const { return xs_.size(); }
  const std::vector<std::vector<double>>& xs() const { return xs_; }
  const std::vector<double>& scores() const { return scores_; }

  /// Surrogate training set capped at `max_points`.  Constrained mode keeps
  /// every feasible design (they anchor the incumbent region) and models all
  /// metrics; FOM mode keeps the best-scored half and models the score
  /// (-FOM) alone.  The most recent simulations fill the rest of the cap.
  void training_data(std::size_t max_points, la::Matrix& x, la::Matrix& y) const {
    std::vector<std::size_t> keep;
    if (xs_.size() <= max_points) {
      keep.resize(xs_.size());
      std::iota(keep.begin(), keep.end(), std::size_t{0});
    } else {
      std::vector<char> taken(xs_.size(), 0);
      auto take = [&](std::size_t i) {
        keep.push_back(i);
        taken[i] = 1;
      };
      if (fom()) {
        const auto order = by_score();
        for (std::size_t k = 0; k < max_points / 2; ++k) take(order[k]);
      } else {
        for (std::size_t i = 0; i < xs_.size(); ++i)
          if (circuit_.feasible(ys_[i]) && keep.size() < max_points) take(i);
      }
      for (std::size_t i = xs_.size(); i-- > 0 && keep.size() < max_points;)
        if (!taken[i]) keep.push_back(i);
      std::sort(keep.begin(), keep.end());
    }
    x = la::Matrix(keep.size(), circuit_.dim());
    y = la::Matrix(keep.size(), fom() ? 1 : circuit_.n_metrics());
    for (std::size_t r = 0; r < keep.size(); ++r) {
      x.set_row(r, xs_[keep[r]]);
      if (fom())
        y(r, 0) = scores_[keep[r]];
      else
        y.set_row(r, ys_[keep[r]]);
    }
  }

  /// Up to `count` NSGA-II seeds: the best feasible designs in constrained
  /// mode, the best by FOM in FOM mode.
  std::vector<std::vector<double>> incumbent_seeds(std::size_t count) const {
    std::vector<std::size_t> order;
    if (fom()) {
      order = by_score();
    } else {
      std::vector<std::pair<double, std::size_t>> feas;
      for (std::size_t i = 0; i < xs_.size(); ++i)
        if (circuit_.feasible(ys_[i])) feas.push_back({ys_[i][0], i});
      std::sort(feas.begin(), feas.end());
      for (const auto& f : feas) order.push_back(f.second);
    }
    std::vector<std::vector<double>> seeds;
    for (std::size_t k = 0; k < order.size() && k < count; ++k)
      seeds.push_back(xs_[order[k]]);
    return seeds;
  }

  // --- Run-journal emission (value-free; see helpers above) ---------------

  bool journal_on() const { return jon_; }

  void journal_begin(const char* method, const BoConfig& config,
                     std::uint64_t seed, bool transfer) {
    if (!jon_) return;
    obs::JsonObj o;
    o.str("event", "run_begin")
        .uint("run", jid_)
        .str("mode", fom() ? "fom" : "constrained")
        .str("method", method)
        .str("circuit", circuit_.name())
        .uint("dim", circuit_.dim())
        .uint("n_metrics", circuit_.n_metrics())
        .uint("seed", seed)
        .raw("config", config_json(config, transfer));
    obs::journal_write(o.take());
  }

  /// One progress record covering everything simulated since the previous
  /// one: the DOE batch ("doe"), a too-little-data random batch ("explore"),
  /// or a model-driven iteration ("propose", with GP/acquisition payloads).
  /// FOM mode has no constraints, so its n_feasible counts valid designs.
  void journal_step(const char* phase, std::int64_t iter,
                    const std::string& gp, const std::string& acq) {
    if (!jon_) return;
    obs::JsonObj o;
    o.str("event", "iteration")
        .uint("run", jid_)
        .str("phase", phase)
        .num("iter", static_cast<double>(iter))
        .uint("sims", result_.trace.size());
    std::size_t ok = 0;
    std::size_t feas = 0;
    for (std::size_t i = jmark_; i < result_.metrics_history.size(); ++i)
      if (const auto& m = result_.metrics_history[i]) {
        ++ok;
        if (fom() || circuit_.feasible(*m)) ++feas;
      }
    o.uint("n_prop", result_.trace.size() - jmark_)
        .uint("n_valid", ok)
        .uint("n_feasible", feas)
        .num("eval_ms", static_cast<double>(eval_ns_) / 1e6)
        .raw("proposals", points_json(result_.x_history, jmark_))
        .raw("trace", obs::json_array({result_.trace.begin() +
                                           static_cast<std::ptrdiff_t>(jmark_),
                                       result_.trace.end()}))
        .num("best", reported_best());
    if (!fom() && !result_.best_metrics.empty())
      o.raw("best_violation", violation_json());
    if (!gp.empty()) o.raw("gp", gp);
    if (!acq.empty()) o.raw("acq_f", acq);
    obs::journal_write(o.take());
    jmark_ = result_.trace.size();
    eval_ns_ = 0;
  }

  /// Close the run: journal its end record and hand back the result with
  /// the final STL weights.
  RunResult finish(double w_kat, double w_self) {
    if (jon_) {
      obs::JsonObj o;
      o.str("event", "run_end")
          .uint("run", jid_)
          .uint("sims", result_.trace.size())
          .num("best", reported_best())
          .raw("best_x", obs::json_array(result_.best_x));
      if (!result_.best_metrics.empty()) {
        o.raw("best_metrics", obs::json_array(result_.best_metrics));
        if (!fom()) o.raw("best_violation", violation_json());
      }
      o.num("stl_w_kat", w_kat)
          .num("stl_w_self", w_self)
          .raw("regret_curve", obs::json_array(result_.trace));
      obs::journal_write(o.take());
    }
    result_.stl_w_kat = w_kat;
    result_.stl_w_self = w_self;
    return std::move(result_);
  }

 private:
  bool fom() const { return norm_ != nullptr; }
  double reported_best() const { return fom() ? -best_ : best_; }

  /// Indices of the valid simulations, best score first.
  std::vector<std::size_t> by_score() const {
    std::vector<std::size_t> order(xs_.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return scores_[a] < scores_[b];
    });
    return order;
  }

  bool record(const std::vector<double>& x,
              const std::optional<std::vector<double>>& metrics) {
    result_.x_history.push_back(x);
    result_.metrics_history.push_back(metrics);
    bool improved = false;
    if (metrics) {
      const double score = fom() ? -ckt::fom_value(*norm_, *metrics)
                           : circuit_.feasible(*metrics) ? (*metrics)[0]
                                                         : k_inf;
      xs_.push_back(x);
      ys_.push_back(*metrics);
      scores_.push_back(score);
      if (score < best_) {
        best_ = score;
        result_.best_x = x;
        result_.best_metrics = *metrics;
        improved = true;
      }
    }
    result_.trace.push_back(reported_best());
    return improved;
  }

  /// Constraint violations of the incumbent's metrics (0 when satisfied).
  std::string violation_json() const {
    const auto& specs = circuit_.constraints();
    std::vector<double> v(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i)
      v[i] = specs[i].violation(result_.best_metrics[i + 1]);
    return obs::json_array(v);
  }

  const ckt::SizingCircuit& circuit_;
  const ckt::FomNormalization* norm_;  ///< null in constrained mode
  RunResult result_;
  std::vector<std::vector<double>> xs_;  ///< valid sims only
  std::vector<std::vector<double>> ys_;
  std::vector<double> scores_;
  double best_ = k_inf;
  // Journal bookkeeping, captured once so one run is consistently journaled
  // or not.  jmark_ is the history index at the last emitted step; eval_ns_
  // accumulates simulate_batch wall time between steps.
  const bool jon_ = obs::journal_enabled();
  const std::uint64_t jid_ = jon_ ? obs::journal_next_run_id() : 0;
  std::size_t jmark_ = 0;
  std::uint64_t eval_ns_ = 0;
};

/// The surrogates of one run and their STL weights (Alg. 1).  `self` is
/// the target-only model (NeukGP, RBF GP or the TLMBO residual GP); `kat`
/// is the KAT-GP (Sec. 3.2), present only when transferring.
struct Surrogates {
  std::unique_ptr<Surrogate> self;
  GpSurrogate* gp = nullptr;  ///< `self` as a GP, for the journal's gp payload
  std::unique_ptr<KatSurrogate> kat;
  double w_kat = 0.0;
  double w_self = 0.0;
  bool fitted = false;  ///< first refit is a cold initial fit

  /// Refit on the run's capped training set and return the journal's gp
  /// payload.  Warm-started refits: both surrogates keep their previous
  /// optimum's hyperparameters and, after the first fit, train on the
  /// smaller gp_refit / KatGpConfig::refit_iterations budget.
  /// Posterior-only iterations skip hyper-training entirely.
  std::string refit(const RunState& state, const BoConfig& config,
                    std::size_t it, util::Rng& rng) {
    la::Matrix x;
    la::Matrix y;
    state.training_data(config.max_gp_points, x, y);
    const bool hyper = it % config.hyper_every == 0;
    // What the surrogate actually does (it forces an initial fit when none
    // has run yet) — recorded in the journal's gp payload.
    const bool eff_hyper = hyper || !fitted;
    const bool warm = eff_hyper && fitted;
    self->refit(x, y, rng, hyper);
    if (kat) kat->refit(x, y, rng, hyper);
    fitted = true;
    if (!state.journal_on() || gp == nullptr) return "";
    return gp_json(*gp, eff_hyper, warm);
  }
};

/// One MACE proposal step, shared by both modes (FOM mode passes no specs).
/// The proposing model is KAT-GP when transferring, else the self model.
/// Under Selective Transfer Learning (Alg. 1) the self model proposes too,
/// the batch is split between the two Pareto sets by the STL weights, and
/// each weight grows by the improvements its share found (Eq. 14).  Returns
/// the journal's acq_f payload.
std::string mace_step(RunState& state, Surrogates& s, bool use_stl,
                      const std::vector<ckt::MetricSpec>& specs,
                      const MaceOptions& options, std::size_t batch,
                      util::Rng& rng) {
  const double y_best = state.y_best();
  const auto seeds = state.incumbent_seeds(4);
  const std::size_t dim = s.self->input_dim();
  const bool stl = s.kat && use_stl;
  const Surrogate& first = s.kat ? *s.kat : *s.self;
  const auto p_first = mace_proposals(first, specs, y_best, options, rng, seeds);
  moo::ParetoSet p_self;
  if (stl) p_self = mace_proposals(*s.self, specs, y_best, options, rng, seeds);
  const std::size_t n_first =
      stl ? static_cast<std::size_t>(std::lround(
                s.w_kat / (s.w_kat + s.w_self) * static_cast<double>(batch)))
          : batch;
  const auto a_first = select_batch(p_first, n_first, dim, rng);
  std::vector<std::vector<double>> a_self;
  if (stl) a_self = select_batch(p_self, batch - n_first, dim, rng);
  std::string acq;
  if (state.journal_on()) {
    acq += '[';
    append_acq(acq, p_first, a_first);
    if (stl) append_acq(acq, p_self, a_self);
    acq += ']';
  }
  const auto improved = state.simulate_batch(a_first);
  if (stl) {
    for (char imp : improved)
      if (imp) s.w_kat += 1.0;
    for (char imp : state.simulate_batch(a_self))
      if (imp) s.w_self += 1.0;
  }
  return acq;
}

/// Greedy top-k distinct designs from a scored candidate pool.
std::vector<std::vector<double>> top_k_distinct(
    std::vector<std::pair<double, std::vector<double>>>& scored, std::size_t k,
    std::size_t dim, util::Rng& rng) {
  std::sort(scored.begin(), scored.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<std::vector<double>> batch;
  for (const auto& [score, x] : scored) {
    if (batch.size() >= k) break;
    bool dup = false;
    for (const auto& chosen : batch) {
      double d2 = 0.0;
      for (std::size_t j = 0; j < dim; ++j)
        d2 += (x[j] - chosen[j]) * (x[j] - chosen[j]);
      if (d2 < 1e-6) {
        dup = true;
        break;
      }
    }
    if (!dup) batch.push_back(x);
  }
  while (batch.size() < k) batch.push_back(rng.uniform_vec(dim));
  return batch;
}

/// Candidate pool for the scalarized baselines: random exploration plus
/// Gaussian perturbations of the incumbent seeds.
std::vector<std::vector<double>> candidate_pool(
    const std::vector<std::vector<double>>& seeds, std::size_t dim,
    util::Rng& rng) {
  std::vector<std::vector<double>> pool;
  for (int i = 0; i < 1200; ++i) pool.push_back(rng.uniform_vec(dim));
  for (const auto& s : seeds)
    for (int i = 0; i < 80; ++i) {
      auto x = s;
      for (auto& v : x) v = std::clamp(v + 0.05 * rng.normal(), 0.0, 1.0);
      pool.push_back(std::move(x));
    }
  return pool;
}

/// `count` uniform random designs.  The draws consume the RNG stream in the
/// same order as the historical one-point-at-a-time loop; callers evaluate
/// them as one thread-parallel batch.
std::vector<std::vector<double>> random_batch(util::Rng& rng, std::size_t count,
                                              std::size_t dim) {
  std::vector<std::vector<double>> pts;
  pts.reserve(count);
  for (std::size_t i = 0; i < count; ++i) pts.push_back(rng.uniform_vec(dim));
  return pts;
}

/// GP surrogate whose mean is offset by a frozen source model — the
/// TLMBO-lite technology-transfer baseline (see DESIGN.md).
class ResidualSurrogate final : public Surrogate {
 public:
  ResidualSurrogate(const gp::MultiGp* source, std::size_t dim,
                    const gp::GpFitOptions& initial_fit,
                    const gp::GpFitOptions& refit, util::Rng& rng)
      : source_(source),
        residual_(dim, 1, KernelKind::rbf, initial_fit, refit, rng) {}

  std::string name() const override { return "tlmbo"; }
  std::size_t n_metrics() const override { return 1; }
  std::size_t input_dim() const override { return residual_.input_dim(); }

  void refit(const la::Matrix& x, const la::Matrix& y, util::Rng& rng,
             bool train_hyper = true) override {
    la::Matrix res(x.rows(), 1);
    const auto src_preds = source_->metric(0).predict_batch(x);
    for (std::size_t i = 0; i < x.rows(); ++i)
      res(i, 0) = y(i, 0) - src_preds[i].mean;
    residual_.refit(x, res, rng, train_hyper);
  }

  std::vector<gp::GpPrediction> predict(std::span<const double> x) const override {
    const auto src = source_->metric(0).predict(x);
    auto pred = residual_.predict(x);
    pred[0].mean += src.mean;
    pred[0].var += 0.25 * src.var;  // deflated: the source is a prior, not data
    return pred;
  }

  std::vector<std::vector<gp::GpPrediction>> predict_batch(
      const la::Matrix& xq) const override {
    const auto src = source_->metric(0).predict_batch(xq);
    auto preds = residual_.predict_batch(xq);
    for (std::size_t i = 0; i < preds.size(); ++i) {
      preds[i][0].mean += src[i].mean;
      preds[i][0].var += 0.25 * src[i].var;
    }
    return preds;
  }

 private:
  const gp::MultiGp* source_;
  GpSurrogate residual_;
};

}  // namespace

const char* to_string(FomMethod m) {
  switch (m) {
    case FomMethod::kato: return "KATO";
    case FomMethod::mace: return "MACE";
    case FomMethod::smac_rf: return "SMAC-RF";
    case FomMethod::random_search: return "RS";
    case FomMethod::tlmbo: return "TLMBO";
  }
  return "?";
}

const char* to_string(ConstrainedMethod m) {
  switch (m) {
    case ConstrainedMethod::kato: return "KATO";
    case ConstrainedMethod::mace_full: return "MACE";
    case ConstrainedMethod::mesmoc: return "MESMOC";
    case ConstrainedMethod::usemoc: return "USEMOC";
  }
  return "?";
}

TransferSource build_transfer_source(const ckt::SizingCircuit& circuit,
                                     std::size_t n_samples, KernelKind kind,
                                     std::uint64_t seed) {
  KATO_OBS_SPAN("build_transfer_source");
  util::Rng rng(seed);
  TransferSource src;
  src.dim = circuit.dim();
  src.fom_norm = ckt::calibrate_fom(circuit, 200, rng);

  // Each round draws exactly the points still missing and evaluates them as
  // one batch, appending successes in draw order.  A round that completes
  // the set has no failures, so it ends on the n-th success: the RNG stream
  // (and the state handed to rng.split() below) matches drawing and
  // simulating one point at a time.
  std::vector<std::vector<double>> xs;
  std::vector<std::vector<double>> ys;
  std::vector<double> foms;
  while (xs.size() < n_samples) {
    std::vector<std::vector<double>> round(n_samples - xs.size());
    for (auto& x : round) x = rng.uniform_vec(circuit.dim());
    const auto metrics = circuit.evaluate_batch(round);
    for (std::size_t i = 0; i < round.size(); ++i) {
      if (!metrics[i]) continue;
      xs.push_back(std::move(round[i]));
      ys.push_back(*metrics[i]);
      foms.push_back(ckt::fom_value(src.fom_norm, *metrics[i]));
    }
  }
  src.x = la::Matrix::from_points(xs);
  src.y = la::Matrix(ys.size(), circuit.n_metrics());
  for (std::size_t i = 0; i < ys.size(); ++i) src.y.set_row(i, ys[i]);

  gp::GpFitOptions fit;
  fit.iterations = 120;
  util::Rng fit_rng = rng.split();
  src.metric_model = std::make_shared<gp::MultiGp>(
      circuit.n_metrics(), [&] { return make_kernel(kind, circuit.dim(), fit_rng); });
  src.metric_model->set_data(src.x, src.y);
  src.metric_model->fit(fit, fit_rng);

  // Single-output view for FOM-mode transfer: model -FOM (minimization).
  la::Matrix neg_fom(foms.size(), 1);
  for (std::size_t i = 0; i < foms.size(); ++i) neg_fom(i, 0) = -foms[i];
  src.fom_model = std::make_shared<gp::MultiGp>(
      1, [&] { return make_kernel(kind, circuit.dim(), fit_rng); });
  src.fom_model->set_data(src.x, neg_fom);
  src.fom_model->fit(fit, fit_rng);
  return src;
}

// ---------------------------------------------------------------------------
// Constrained mode.

RunResult run_constrained(const ckt::SizingCircuit& circuit,
                          ConstrainedMethod method, const BoConfig& config,
                          std::uint64_t seed, const TransferSource* source) {
  util::Rng rng(seed);
  RunState state(circuit, nullptr);
  const std::size_t dim = circuit.dim();
  const auto& specs = circuit.constraints();

  const bool transfer = method == ConstrainedMethod::kato && source != nullptr;
  state.journal_begin(to_string(method), config, seed, transfer);

  // Initial random design set (DOE).
  (void)state.simulate_batch(random_batch(rng, config.n_init, dim));
  state.journal_step("doe", -1, "", "");

  // Surrogates; STL weights (Alg. 1) start at the sample counts.
  util::Rng model_rng = rng.split();
  Surrogates s;
  auto self_gp = std::make_unique<GpSurrogate>(
      dim, circuit.n_metrics(),
      method == ConstrainedMethod::kato ? KernelKind::neuk : KernelKind::rbf,
      config.gp_initial, config.gp_refit, model_rng);
  s.gp = self_gp.get();
  s.self = std::move(self_gp);
  if (transfer)
    s.kat = std::make_unique<KatSurrogate>(source->metric_model.get(), dim,
                                           circuit.n_metrics(), config.kat,
                                           model_rng);
  s.w_kat = transfer ? static_cast<double>(source->x.rows()) : 0.0;
  s.w_self = static_cast<double>(config.n_init);

  MaceOptions mace_opts;
  mace_opts.variant = method == ConstrainedMethod::mace_full
                          ? MaceVariant::full
                          : config.kato_variant;
  mace_opts.ucb_beta = config.ucb_beta;
  mace_opts.nsga = config.nsga;

  for (std::size_t it = 0; it < config.iterations; ++it) {
    if (state.n_valid() < 4) {  // not enough data to model: explore
      (void)state.simulate_batch(random_batch(rng, config.batch, dim));
      state.journal_step("explore", static_cast<std::int64_t>(it), "", "");
      continue;
    }
    const std::string gp_info = s.refit(state, config, it, model_rng);
    std::string acq;
    if (method == ConstrainedMethod::kato ||
        method == ConstrainedMethod::mace_full) {
      acq = mace_step(state, s, config.use_stl, specs, mace_opts, config.batch,
                      rng);
    } else {
      // MESMOC-lite scores an exploitation-heavy feasible lower confidence
      // bound, USEMOC-lite the total predictive spread gated by PF (see
      // DESIGN.md).
      const double y_best = state.y_best();
      auto pool = candidate_pool(state.incumbent_seeds(4), dim, rng);
      const auto all_preds = s.self->predict_batch(la::Matrix::from_points(pool));
      std::vector<std::pair<double, std::vector<double>>> scored;
      scored.reserve(pool.size());
      for (std::size_t c = 0; c < pool.size(); ++c) {
        const auto& preds = all_preds[c];
        const std::vector<gp::GpPrediction> cons(preds.begin() + 1, preds.end());
        const double pf = probability_of_feasibility(cons, specs);
        double score;
        if (method == ConstrainedMethod::mesmoc) {
          score = pf * (std::isfinite(y_best)
                            ? ucb_improvement(preds[0], y_best, 0.5)
                            : 1.0);
        } else {
          double spread = 0.0;
          for (const auto& p : preds) spread += std::sqrt(std::max(p.var, 0.0));
          score = spread * std::sqrt(pf);
        }
        scored.push_back({score, std::move(pool[c])});
      }
      (void)state.simulate_batch(top_k_distinct(scored, config.batch, dim, rng));
    }
    state.journal_step("propose", static_cast<std::int64_t>(it), gp_info, acq);
  }
  return state.finish(s.w_kat, s.w_self);
}

// ---------------------------------------------------------------------------
// FOM mode.

RunResult run_fom(const ckt::SizingCircuit& circuit,
                  const ckt::FomNormalization& norm, FomMethod method,
                  const BoConfig& config, std::uint64_t seed,
                  const TransferSource* source) {
  util::Rng rng(seed);
  RunState state(circuit, &norm);
  const std::size_t dim = circuit.dim();

  const bool transfer = method == FomMethod::kato && source != nullptr;
  state.journal_begin(to_string(method), config, seed, transfer);

  (void)state.simulate_batch(random_batch(rng, config.n_init, dim));
  state.journal_step("doe", -1, "", "");

  if (method == FomMethod::random_search) {
    (void)state.simulate_batch(
        random_batch(rng, config.batch * config.iterations, dim));
    state.journal_step("propose", 0, "", "");
    return state.finish(0.0, 0.0);
  }
  if (method == FomMethod::tlmbo && source == nullptr)
    throw std::invalid_argument("run_fom: tlmbo requires a transfer source");

  // Surrogates on the single -FOM output (SMAC-RF uses its forest instead).
  util::Rng model_rng = rng.split();
  Surrogates s;
  if (method == FomMethod::kato || method == FomMethod::mace) {
    auto self_gp = std::make_unique<GpSurrogate>(
        dim, 1, method == FomMethod::kato ? KernelKind::neuk : KernelKind::rbf,
        config.gp_initial, config.gp_refit, model_rng);
    s.gp = self_gp.get();
    s.self = std::move(self_gp);
  } else if (method == FomMethod::tlmbo) {
    s.self = std::make_unique<ResidualSurrogate>(source->fom_model.get(), dim,
                                                 config.gp_initial,
                                                 config.gp_refit, model_rng);
  }
  if (transfer)
    s.kat = std::make_unique<KatSurrogate>(source->fom_model.get(), dim, 1,
                                           config.kat, model_rng);
  s.w_kat = transfer ? static_cast<double>(source->x.rows()) : 0.0;
  s.w_self = static_cast<double>(config.n_init);

  rf::RandomForest forest;

  MaceOptions mace_opts;  // modified variant; no specs, so PF is 1
  mace_opts.ucb_beta = config.ucb_beta;
  mace_opts.nsga = config.nsga;

  for (std::size_t it = 0; it < config.iterations; ++it) {
    if (state.n_valid() < 4) {
      (void)state.simulate_batch(random_batch(rng, config.batch, dim));
      state.journal_step("explore", static_cast<std::int64_t>(it), "", "");
      continue;
    }
    std::string gp_info;
    std::string acq;
    if (method == FomMethod::smac_rf) {
      const double y_best = state.y_best();
      const auto seeds = state.incumbent_seeds(4);
      forest.fit(state.xs(), state.scores(), model_rng);
      auto pool = candidate_pool(seeds, dim, rng);
      std::vector<std::pair<double, std::vector<double>>> scored;
      scored.reserve(pool.size());
      for (auto& cand : pool) {
        const auto p = forest.predict(cand);
        scored.push_back(
            {expected_improvement({p.mean, p.var}, y_best), std::move(cand)});
      }
      (void)state.simulate_batch(top_k_distinct(scored, config.batch, dim, rng));
    } else {
      gp_info = s.refit(state, config, it, model_rng);
      acq = mace_step(state, s, config.use_stl, {}, mace_opts, config.batch, rng);
    }
    state.journal_step("propose", static_cast<std::int64_t>(it), gp_info, acq);
  }
  return state.finish(s.w_kat, s.w_self);
}

}  // namespace kato::bo
