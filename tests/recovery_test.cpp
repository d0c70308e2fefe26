// Fault-tolerant evaluation pipeline: the KATO_FAULT spec grammar, the
// deterministic splitmix64 fault stream,
// a fault-injection matrix forcing every recovery path (DC homotopy, DC
// pseudo-transient, transient step-floor + device fallback, sparse LU
// re-pivot, GP jitter retry, deadline kill) with its obs counter, batch
// hardening against escaping exceptions, and (RecoveryBo suite — labelled
// slow in CTest) bit-identity of a seeded BO run with the recovery hooks
// armed-but-idle vs off.

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "bo/drivers.hpp"
#include "gp/gp.hpp"
#include "kernel/stationary.hpp"
#include "linalg/sparse.hpp"
#include "netlist/netlist_circuit.hpp"
#include "obs/obs.hpp"
#include "sim/dc.hpp"
#include "sim/transient.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"
#include "util/sampling.hpp"

namespace util = kato::util;
namespace obs = kato::obs;
namespace sim = kato::sim;
namespace la = kato::la;
namespace gp = kato::gp;
namespace kern = kato::kern;
namespace ckt = kato::ckt;
namespace bo = kato::bo;

#ifndef KATO_SOURCE_DIR
#define KATO_SOURCE_DIR "."
#endif

namespace {

std::string deck_path(const std::string& name) {
  return std::string(KATO_SOURCE_DIR) + "/circuits/netlists/" + name;
}

/// Clears every robustness knob; used as RAII so a failing assertion cannot
/// leak an armed fault into later tests.
struct CleanSlate {
  CleanSlate() { reset(); }
  ~CleanSlate() { reset(); }
  static void reset() {
    util::set_fault(std::nullopt);
    util::set_eval_deadline_ms(0);
    util::set_recovery_enabled(true);
  }
};

/// 3V through 1k over 2k: mid node settles at 2V.  Linear, so every Newton
/// call converges in one correcting iteration — recovery outcomes are then
/// fully attributable to the injected faults.
sim::Circuit divider() {
  sim::Circuit c;
  const int vin = c.new_node("vin");
  const int mid = c.new_node("mid");
  c.add_vsource(vin, sim::Circuit::ground, 3.0);
  c.add_resistor(vin, mid, 1e3);
  c.add_resistor(mid, sim::Circuit::ground, 2e3);
  return c;
}

/// RC discharge from 1V: well-conditioned transient with an analytic answer.
sim::Circuit rc_discharge(int& node) {
  sim::Circuit c;
  node = c.new_node("a");
  c.add_resistor(node, sim::Circuit::ground, 1e3);
  c.add_capacitor(node, sim::Circuit::ground, 1e-6);
  return c;
}

util::FaultSpec spec(util::FaultSite site, double rate, std::uint64_t seed) {
  util::FaultSpec s;
  s.site = site;
  s.rate = rate;
  s.seed = seed;
  return s;
}

}  // namespace

// --- KATO_FAULT spec grammar -------------------------------------------------

TEST(FaultEnv, ParsesWellFormedSpecs) {
  const auto a = util::parse_fault_spec("dc:singular:1:42");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->site, util::FaultSite::dc_singular);
  EXPECT_DOUBLE_EQ(a->rate, 1.0);
  EXPECT_EQ(a->seed, 42u);

  const auto b = util::parse_fault_spec("tran:nan_device:0.25:7");
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->site, util::FaultSite::tran_nan_device);
  EXPECT_DOUBLE_EQ(b->rate, 0.25);
  EXPECT_EQ(b->seed, 7u);

  EXPECT_EQ(util::parse_fault_spec("lu:collapse:0.5:0")->site,
            util::FaultSite::lu_collapse);
  EXPECT_EQ(util::parse_fault_spec("gp:chol_fail:1:1")->site,
            util::FaultSite::gp_chol_fail);
  EXPECT_EQ(util::parse_fault_spec("eval:slow:1:1")->site,
            util::FaultSite::eval_slow);
  EXPECT_EQ(util::parse_fault_spec("eval:throw:1:1")->site,
            util::FaultSite::eval_throw);
}

TEST(FaultEnv, RejectsMalformedSpecsWholesale) {
  // Full-string discipline: no trimming, no partial parses, no guessing.
  EXPECT_FALSE(util::parse_fault_spec(nullptr).has_value());
  EXPECT_FALSE(util::parse_fault_spec("").has_value());
  EXPECT_FALSE(util::parse_fault_spec("dc:singular").has_value());
  EXPECT_FALSE(util::parse_fault_spec("dc:singular:1").has_value());
  EXPECT_FALSE(util::parse_fault_spec("bogus:kind:1:1").has_value());
  EXPECT_FALSE(util::parse_fault_spec("dc:singular:0:1").has_value());
  EXPECT_FALSE(util::parse_fault_spec("dc:singular:1.5:1").has_value());
  EXPECT_FALSE(util::parse_fault_spec("dc:singular:-0.5:1").has_value());
  EXPECT_FALSE(util::parse_fault_spec("dc:singular:0.5x:1").has_value());
  EXPECT_FALSE(util::parse_fault_spec("dc:singular:1:-3").has_value());
  EXPECT_FALSE(util::parse_fault_spec("dc:singular:1:4.2").has_value());
  EXPECT_FALSE(util::parse_fault_spec("dc:singular:1:1:extra").has_value());
  EXPECT_FALSE(util::parse_fault_spec(" dc:singular:1:1").has_value());
  EXPECT_FALSE(util::parse_fault_spec("dc:singular:1:1 ").has_value());
  EXPECT_FALSE(util::parse_fault_spec("dc:singular: 1:1").has_value());
}

TEST(FaultEnv, StreamIsAPureFunctionOfSeedAndIndex) {
  // The schedule replays exactly: same (seed, index) -> same draw, and the
  // draws are well spread (a degenerate constant stream would make rate
  // thresholds meaningless).
  for (std::uint64_t seed : {0ull, 1ull, 42ull}) {
    double lo = 1.0;
    double hi = 0.0;
    for (std::uint64_t i = 0; i < 64; ++i) {
      const double u = util::fault_uniform(seed, i);
      EXPECT_EQ(u, util::fault_uniform(seed, i));
      EXPECT_GE(u, 0.0);
      EXPECT_LT(u, 1.0);
      lo = std::min(lo, u);
      hi = std::max(hi, u);
    }
    EXPECT_LT(lo, 0.25);
    EXPECT_GT(hi, 0.75);
  }
}

TEST(FaultEnv, FaultFiresConsumesTheStreamDeterministically) {
  CleanSlate slate;
  util::set_fault(spec(util::FaultSite::eval_throw, 0.5, 31));
  // Site mismatch costs nothing from the stream.
  EXPECT_FALSE(util::fault_fires(util::FaultSite::dc_singular));
  for (std::uint64_t i = 0; i < 32; ++i)
    EXPECT_EQ(util::fault_fires(util::FaultSite::eval_throw),
              util::fault_uniform(31, i) < 0.5)
        << "draw " << i;
  // Re-arming resets the draw counter, so the schedule replays.
  util::set_fault(spec(util::FaultSite::eval_throw, 0.5, 31));
  EXPECT_EQ(util::fault_fires(util::FaultSite::eval_throw),
            util::fault_uniform(31, 0) < 0.5);
}

// --- DC recovery ladder -----------------------------------------------------

TEST(Recovery, EmptyGminLadderIsRescuedBySourceSteppingHomotopy) {
  CleanSlate slate;
  sim::DcOptions opts;
  opts.gmin_ladder.clear();  // the ladder never runs: honest escalation

  const auto rescued = sim::solve_dc(divider(), opts);
  EXPECT_TRUE(rescued.converged) << rescued.reason;
  EXPECT_EQ(rescued.stats.dc_homotopy_escalations, 1u);
  EXPECT_EQ(rescued.stats.dc_pseudo_transients, 0u);
  EXPECT_NEAR(rescued.v(2), 2.0, 1e-6);  // mid node of the 1k/2k divider

  util::set_recovery_enabled(false);
  const auto abandoned = sim::solve_dc(divider(), opts);
  EXPECT_FALSE(abandoned.converged);
  EXPECT_EQ(abandoned.stats.dc_homotopy_escalations, 0u);
}

TEST(Recovery, DcSingularFaultForcesPseudoTransient) {
  CleanSlate slate;
  obs::stats_reset();
  util::set_fault(spec(util::FaultSite::dc_singular, 1.0, 5));

  const auto r = sim::solve_dc(divider());
  EXPECT_TRUE(r.converged) << r.reason;
  EXPECT_EQ(r.stats.dc_homotopy_escalations, 0u);  // fault skips stage 1
  EXPECT_EQ(r.stats.dc_pseudo_transients, 1u);
  EXPECT_NEAR(r.v(2), 2.0, 1e-6);
  EXPECT_GE(obs::stats_value("faults_injected"), 1u);

  // Recovery off: the injected singularity is terminal and says so.
  util::set_recovery_enabled(false);
  util::set_fault(spec(util::FaultSite::dc_singular, 1.0, 5));
  const auto dead = sim::solve_dc(divider());
  EXPECT_FALSE(dead.converged);
  EXPECT_NE(dead.reason.find("dc:singular"), std::string::npos) << dead.reason;
}

TEST(Recovery, ExpiredDeadlineKillsDcCleanly) {
  CleanSlate slate;
  const util::EvalDeadline guard(1);  // 1 ms, burned before the solve
  util::fault_sleep_ms(5);
  const auto r = sim::solve_dc(divider());
  EXPECT_FALSE(r.converged);
  EXPECT_NE(r.reason.find("deadline exceeded (KATO_EVAL_DEADLINE_MS)"),
            std::string::npos)
      << r.reason;
  EXPECT_EQ(r.stats.deadline_kills, 1u);
  // The kill must short-circuit the ladder, not walk all 11 rungs.
  EXPECT_LE(r.stats.gmin_rungs, 1u);
  EXPECT_EQ(r.stats.dc_homotopy_escalations, 0u);
  EXPECT_EQ(r.stats.dc_pseudo_transients, 0u);
}

// --- Transient recovery -----------------------------------------------------

TEST(Recovery, TranNanDeviceFaultWalksStepFloorThenDeviceFallback) {
  CleanSlate slate;
  int node = 0;
  const auto circuit = rc_discharge(node);
  sim::TranOptions opts;
  opts.tstop = 1e-3;
  opts.tstep = 1e-5;
  opts.initial_conditions = {{node, 1.0}};

  util::set_fault(spec(util::FaultSite::tran_nan_device, 1.0, 9));
  const auto rescued = sim::solve_tran(circuit, opts);
  EXPECT_TRUE(rescued.ok) << rescued.reason;
  // Rate-1 rejection walks the whole ladder: floor cut first, then the
  // table -> analytic rebuild (which stops the injection by construction).
  EXPECT_GE(rescued.stats.tran_stepfloor_restarts, 1u);
  EXPECT_EQ(rescued.stats.tran_device_fallbacks, 1u);
  // RC discharge from 1V: v(t) = exp(-t/tau), tau = 1 ms.
  const double v_end = rescued.v(rescued.n_points() - 1, node);
  EXPECT_NEAR(v_end, std::exp(-1.0), 1e-3);

  util::set_recovery_enabled(false);
  util::set_fault(spec(util::FaultSite::tran_nan_device, 1.0, 9));
  const auto dead = sim::solve_tran(circuit, opts);
  EXPECT_FALSE(dead.ok);
  EXPECT_NE(dead.reason.find("tran:nan_device"), std::string::npos)
      << dead.reason;
}

TEST(Recovery, ExpiredDeadlineKillsTranCleanly) {
  CleanSlate slate;
  int node = 0;
  const auto circuit = rc_discharge(node);
  sim::TranOptions opts;
  opts.tstop = 1e-3;
  opts.tstep = 1e-5;

  const util::EvalDeadline guard(1);
  util::fault_sleep_ms(5);
  const auto r = sim::solve_tran(circuit, opts);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.reason.find("deadline exceeded (KATO_EVAL_DEADLINE_MS)"),
            std::string::npos)
      << r.reason;
  EXPECT_GE(r.stats.deadline_kills, 1u);
}

// --- Sparse LU re-pivot -----------------------------------------------------

TEST(Recovery, LuCollapseFaultForcesFreshPivotPass) {
  CleanSlate slate;
  // 2x2 diagonally dominant system; factor once to record the structure.
  const la::SparsePattern pattern(2, {{0, 0}, {0, 1}, {1, 0}, {1, 1}});
  const std::vector<double> values = {4.0, 1.0, 1.0, 3.0};
  la::SparseLu lu;
  lu.analyze(pattern);
  ASSERT_TRUE(lu.factor(values));
  EXPECT_EQ(lu.pivot_passes(), 1u);

  // Clean refactor reuses the recorded pivots.
  ASSERT_TRUE(lu.factor(values));
  EXPECT_EQ(lu.pivot_passes(), 1u);

  // The injected collapse makes the refactor report stale pivots; factor()
  // recovers by re-pivoting from scratch and still succeeds.
  util::set_fault(spec(util::FaultSite::lu_collapse, 1.0, 3));
  ASSERT_TRUE(lu.factor(values));
  EXPECT_EQ(lu.pivot_passes(), 2u);
  std::vector<double> x;
  lu.solve({9.0, 7.0}, x);
  EXPECT_NEAR(x[0], 20.0 / 11.0, 1e-12);
  EXPECT_NEAR(x[1], 19.0 / 11.0, 1e-12);
}

TEST(Recovery, LuCollapseFaultSurfacesAsPivotFallbackCounter) {
  CleanSlate slate;
  util::set_fault(spec(util::FaultSite::lu_collapse, 1.0, 3));
  sim::DcOptions opts;
  opts.solver = sim::MnaSolver::sparse;
  const auto r = sim::solve_dc(divider(), opts);
  EXPECT_TRUE(r.converged) << r.reason;
  // Every post-first factor() re-pivots under the rate-1 fault.
  EXPECT_GE(r.stats.lu_pivot_fallbacks, 1u);
  EXPECT_NEAR(r.v(2), 2.0, 1e-6);
}

// --- GP jitter retry --------------------------------------------------------

TEST(Recovery, GpCholFailFaultDrivesJitterRetry) {
  CleanSlate slate;
  obs::stats_reset();

  kato::util::Rng rng(11);
  auto design = kato::util::latin_hypercube(24, 2, rng);
  la::Matrix x(24, 2);
  la::Vector y(24);
  for (std::size_t i = 0; i < 24; ++i) {
    x.set_row(i, std::span<const double>(design.row(i), 2));
    y[i] = std::sin(3.0 * x(i, 0)) + x(i, 1);
  }

  util::set_fault(spec(util::FaultSite::gp_chol_fail, 1.0, 17));
  gp::GaussianProcess model(std::make_unique<kern::StationaryArd>(
      kern::StationaryType::rbf, 2));
  model.set_data(x, y);
  gp::GpFitOptions opts;
  opts.iterations = 10;
  model.fit(opts, rng);  // must survive: the ladder escalates past the fault

  EXPECT_GE(obs::stats_value("gp_jitter_retries"), 1u);
  EXPECT_GE(obs::stats_value("faults_injected"), 1u);
}

// --- Evaluation pipeline hardening ------------------------------------------

TEST(Recovery, EvalThrowBecomesPerCandidateFailureNotBatchDeath) {
  CleanSlate slate;
  const auto deck = ckt::NetlistCircuit::from_file(deck_path("opamp2.cir"),
                                                   ckt::pdk_180nm());
  const std::vector<double> mid(deck->dim(), 0.5);

  util::set_fault(spec(util::FaultSite::eval_throw, 1.0, 13));
  const auto outcome = deck->evaluate_detailed(mid);
  EXPECT_FALSE(outcome.metrics.has_value());
  EXPECT_NE(outcome.failure.find("injected fault eval:throw"),
            std::string::npos)
      << outcome.failure;

  // A batch where every worker throws still returns one slot per candidate.
  util::set_fault(spec(util::FaultSite::eval_throw, 1.0, 13));
  const auto batch = deck->evaluate_batch({mid, mid, mid});
  ASSERT_EQ(batch.size(), 3u);
  for (const auto& slot : batch) EXPECT_FALSE(slot.has_value());

  // Disarmed, the same candidate evaluates normally again.
  util::set_fault(std::nullopt);
  EXPECT_TRUE(deck->evaluate(mid).has_value());
}

TEST(Recovery, PartialFaultScheduleMatchesTheStreamServing) {
  CleanSlate slate;
  const auto deck = ckt::NetlistCircuit::from_file(deck_path("opamp2.cir"),
                                                   ckt::pdk_180nm());
  const std::vector<double> mid(deck->dim(), 0.5);

  // Serial evaluations draw stream indices 0, 1, 2, ... in order, so the
  // failure pattern is exactly the pinned splitmix64 schedule.
  util::set_fault(spec(util::FaultSite::eval_throw, 0.5, 21));
  for (std::uint64_t i = 0; i < 6; ++i) {
    const bool should_fail = util::fault_uniform(21, i) < 0.5;
    const auto m = deck->evaluate(mid);
    EXPECT_EQ(!m.has_value(), should_fail) << "eval " << i;
  }
}

TEST(Recovery, EvalSlowFaultTripsTheDeadlineThroughThePublicPath) {
  CleanSlate slate;
  const auto deck = ckt::NetlistCircuit::from_file(deck_path("opamp2.cir"),
                                                   ckt::pdk_180nm());
  const std::vector<double> mid(deck->dim(), 0.5);
  obs::stats_reset();

  util::set_eval_deadline_ms(1);
  util::set_fault(spec(util::FaultSite::eval_slow, 1.0, 27));
  const auto outcome = deck->evaluate_detailed(mid);
  EXPECT_FALSE(outcome.metrics.has_value());
  EXPECT_NE(outcome.failure.find("deadline exceeded (KATO_EVAL_DEADLINE_MS)"),
            std::string::npos)
      << outcome.failure;
  EXPECT_GE(obs::stats_value("deadline_kills"), 1u);

  // Deadline off again: the same point evaluates fine.
  CleanSlate::reset();
  EXPECT_TRUE(deck->evaluate(mid).has_value());
}

// --- Seeded-run bit-identity (slow) -----------------------------------------

namespace {

bo::BoConfig identity_config() {
  bo::BoConfig cfg;
  cfg.n_init = 14;
  cfg.iterations = 5;
  cfg.batch = 2;
  cfg.nsga.population = 12;
  cfg.nsga.generations = 6;
  cfg.max_gp_points = 96;
  cfg.hyper_every = 3;
  cfg.gp_initial.iterations = 15;
  cfg.gp_refit.iterations = 6;
  return cfg;
}

void expect_same_run(const bo::RunResult& a, const bo::RunResult& b,
                     const char* label) {
  ASSERT_EQ(a.trace.size(), b.trace.size()) << label;
  for (std::size_t i = 0; i < a.trace.size(); ++i)
    EXPECT_DOUBLE_EQ(a.trace[i], b.trace[i]) << label << " sim " << i;
  ASSERT_EQ(a.x_history.size(), b.x_history.size()) << label;
  for (std::size_t i = 0; i < a.x_history.size(); ++i)
    EXPECT_EQ(a.x_history[i], b.x_history[i]) << label << " sim " << i;
  EXPECT_EQ(a.best_metrics, b.best_metrics) << label;
}

}  // namespace

TEST(RecoveryBo, SeededRunBitIdenticalAcrossIdleRobustnessKnobs) {
  CleanSlate slate;
  const auto deck = ckt::NetlistCircuit::from_file(deck_path("opamp2.cir"),
                                                   ckt::pdk_180nm());
  const bo::BoConfig cfg = identity_config();

  // Reference: recovery enabled (the shipping default), nothing armed.
  const auto reference =
      bo::run_constrained(*deck, bo::ConstrainedMethod::kato, cfg, 5);
  ASSERT_EQ(reference.trace.size(),
            cfg.n_init + cfg.iterations * cfg.batch);  // not a vacuous compare

  // Recovery ladders disabled: hooks are value-free on every converging
  // path, so the trajectory must not move.
  util::set_recovery_enabled(false);
  const auto no_recovery =
      bo::run_constrained(*deck, bo::ConstrainedMethod::kato, cfg, 5);
  util::set_recovery_enabled(true);
  expect_same_run(reference, no_recovery, "recovery off");

  // Deadline armed far above the runtime: every loop pays the predicated
  // clock checks but nothing trips.
  util::set_eval_deadline_ms(600000);
  const auto armed_deadline =
      bo::run_constrained(*deck, bo::ConstrainedMethod::kato, cfg, 5);
  util::set_eval_deadline_ms(0);
  expect_same_run(reference, armed_deadline, "idle deadline");

  // Fault armed at rate ~0 on a site the run hits constantly: the stream
  // is consumed (draws advance) but never fires, and the trajectory holds.
  util::set_fault(spec(util::FaultSite::gp_chol_fail, 1e-12, 1));
  const auto armed_fault =
      bo::run_constrained(*deck, bo::ConstrainedMethod::kato, cfg, 5);
  util::set_fault(std::nullopt);
  expect_same_run(reference, armed_fault, "idle fault");
}
