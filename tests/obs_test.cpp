// Observability subsystem: the environment record in the artifacts,
// counter goldens hand-countable on small circuits, trace-file schema,
// concurrent flush integrity under KATO_THREADS, the stats registry, and
// (ObsBo suite — labelled slow in CTest) bit-identity of a seeded BO run
// with tracing on vs off.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bo/drivers.hpp"
#include "circuits/factory.hpp"
#include "gp/kat_gp.hpp"
#include "kernel/stationary.hpp"
#include "linalg/isa.hpp"
#include "netlist/netlist_circuit.hpp"
#include "obs/journal.hpp"
#include "obs/obs.hpp"
#include "sim/dc.hpp"
#include "sim/transient.hpp"
#include "util/env.hpp"

namespace obs = kato::obs;
namespace sim = kato::sim;
namespace ckt = kato::ckt;
namespace bo = kato::bo;
namespace gp = kato::gp;
namespace kern = kato::kern;
namespace la = kato::la;
namespace util = kato::util;

#ifndef KATO_SOURCE_DIR
#define KATO_SOURCE_DIR "."
#endif

namespace {

std::string deck_path(const std::string& name) {
  return std::string(KATO_SOURCE_DIR) + "/circuits/netlists/" + name;
}

std::string trace_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

sim::MosModel nmos_model() {
  sim::MosModel m;
  m.nmos = true;
  m.vth0 = 0.5;
  m.kp = 200e-6;
  m.lambda_coef = 0.05e-6;
  return m;
}

/// 3V through 1k over 2k: linear, so Newton takes exactly one correcting
/// iteration plus one convergence check.
sim::Circuit divider() {
  sim::Circuit c;
  const int vin = c.new_node("vin");
  const int mid = c.new_node("mid");
  c.add_vsource(vin, sim::Circuit::ground, 3.0);
  c.add_resistor(vin, mid, 1e3);
  c.add_resistor(mid, sim::Circuit::ground, 2e3);
  return c;
}

// --- Environment record ----------------------------------------------------

TEST(ObsEnv, ArtifactsRecordEveryEnvVariable) {
  // Parsing itself is pinned by util_test's EnvTable; here: the artifacts
  // carry one resolved entry per table row, plus the worker count.
  const char* prev = std::getenv("KATO_THREADS");
  const std::string saved = prev ? prev : "";
  setenv("KATO_THREADS", "3", 1);
  unsetenv("KATO_SEEDS");
  const std::string env = obs::env_json();
  for (const auto& row : util::env_table())
    EXPECT_NE(env.find(std::string("\"") + row.name + "\":{\"value\":"),
              std::string::npos)
        << row.name;
  EXPECT_NE(env.find("\"KATO_THREADS\":{\"value\":3,\"from_env\":true}"),
            std::string::npos)
      << env;
  EXPECT_NE(env.find("\"KATO_SEEDS\":{\"value\":null,\"from_env\":false}"),
            std::string::npos)
      << env;

  std::ostringstream json;
  obs::stats_write_json(json);
  const std::string s = json.str();
  EXPECT_NE(s.find("\"env\": " + env + ",\n"), std::string::npos) << s;
  EXPECT_NE(s.find("\"threads\": 3,\n"), std::string::npos) << s;
  if (prev)
    setenv("KATO_THREADS", saved.c_str(), 1);
  else
    unsetenv("KATO_THREADS");
}

// --- Counter goldens -------------------------------------------------------

TEST(ObsCounters, DividerNewtonGoldenDense) {
  sim::DcOptions opts;
  opts.gmin_ladder = {1e-12};
  opts.max_step = 10.0;  // no damping on a 3 V linear solve
  const auto res = sim::solve_dc(divider(), opts);
  ASSERT_TRUE(res.converged);
  // Linear circuit: iteration 1 lands the exact solution, iteration 2
  // observes |dV| < tol.  Each dense iteration runs one full LU; the first
  // counts as the first factor, the second as a refactor.
  EXPECT_EQ(res.stats.newton_solves, 1u);
  EXPECT_EQ(res.stats.newton_iters, 2u);
  EXPECT_EQ(res.stats.damping_clamps, 0u);
  EXPECT_EQ(res.stats.lu_first_factors, 1u);
  EXPECT_EQ(res.stats.lu_refactors, 1u);
  EXPECT_EQ(res.stats.lu_pivot_fallbacks, 0u);
  EXPECT_EQ(res.stats.gmin_rungs, 1u);
  EXPECT_EQ(res.stats.dc_restarts, 0u);
  ASSERT_EQ(res.rung_stats.size(), 1u);
  EXPECT_EQ(res.rung_stats[0].newton_iters, 2u);
  EXPECT_EQ(res.rung_stats[0].damping_clamps, 0u);
  EXPECT_TRUE(res.rung_stats[0].converged);
}

TEST(ObsCounters, SparseLadderFirstFactorVsRefactorSplit) {
  sim::DcOptions opts;
  opts.solver = sim::MnaSolver::sparse;
  opts.gmin_ladder = {1e-4, 1e-8, 1e-12};
  opts.max_step = 10.0;
  const auto res = sim::solve_dc(divider(), opts);
  ASSERT_TRUE(res.converged);
  // Symbolic reuse across the whole ladder: exactly one first factor, every
  // later Newton iteration is an in-place numeric refactorization and none
  // of them needs a pivot fallback on this well-conditioned system.
  EXPECT_EQ(res.stats.newton_solves, 3u);
  EXPECT_EQ(res.stats.lu_first_factors, 1u);
  EXPECT_EQ(res.stats.lu_refactors, res.stats.newton_iters - 1);
  EXPECT_EQ(res.stats.lu_pivot_fallbacks, 0u);
  EXPECT_EQ(res.stats.gmin_rungs, 3u);
  ASSERT_EQ(res.rung_stats.size(), 3u);
  for (const auto& r : res.rung_stats) EXPECT_TRUE(r.converged);
}

TEST(ObsCounters, TranAcceptCountsMatchTimeAxis) {
  // RC relaxation: 1 V source charges mid through 1k into 1 uF, with the
  // node forced to 0 at t = 0 — the LTE controller takes real steps.
  sim::Circuit c;
  const int vin = c.new_node("vin");
  const int mid = c.new_node("mid");
  c.add_vsource(vin, sim::Circuit::ground, 1.0);
  c.add_resistor(vin, mid, 1e3);
  c.add_capacitor(mid, sim::Circuit::ground, 1e-6);
  sim::TranOptions opts;
  opts.tstop = 5e-3;
  opts.tstep = 1e-5;
  opts.initial_conditions = {{mid, 0.0}};
  const auto res = sim::solve_tran(c, opts);
  ASSERT_TRUE(res.ok) << res.reason;
  // One recorded time point per accepted step, plus the t = 0 sample.
  EXPECT_EQ(res.stats.tran_steps_accepted + 1, res.time.size());
  EXPECT_GE(res.stats.tran_be_steps, 1u);  // the startup step is BE
  EXPECT_EQ(res.stats.tran_newton_rejects, 0u);
  // Every accepted or LTE-rejected step ran one Newton solve; the internal
  // t = 0 operating point contributes the rest.
  EXPECT_GE(res.stats.newton_solves,
            res.stats.tran_steps_accepted + res.stats.tran_steps_rejected);
  EXPECT_GT(res.stats.newton_iters, res.stats.newton_solves);
}

TEST(ObsCounters, DcFailureReasonNamesRungAndIterationBudget) {
  // Diode-connected NMOS pulled up through 10k: genuinely nonlinear, so one
  // allowed iteration on a one-rung ladder cannot converge.
  sim::Circuit c;
  const int vdd = c.new_node("vdd");
  const int d = c.new_node("d");
  c.add_vsource(vdd, sim::Circuit::ground, 1.8);
  c.add_resistor(vdd, d, 10e3);
  c.add_mosfet(d, d, sim::Circuit::ground, 10e-6, 1e-6, nmos_model());
  sim::DcOptions opts;
  opts.gmin_ladder = {1e-12};
  opts.max_iterations = 1;
  const auto res = sim::solve_dc(c, opts);
  ASSERT_FALSE(res.converged);
  EXPECT_NE(res.reason.find("gmin rung 1/1"), std::string::npos) << res.reason;
  EXPECT_NE(res.reason.find("newton 1/1"), std::string::npos) << res.reason;
  EXPECT_NE(res.reason.find("at gmin="), std::string::npos) << res.reason;
}

// --- Stats registry --------------------------------------------------------

TEST(ObsStats, RegistryAggregatesNetlistEvaluation) {
  const auto deck =
      ckt::NetlistCircuit::from_file(deck_path("buffer_tran.cir"), ckt::pdk_180nm());
  const std::vector<double> mid(deck->space().dim(), 0.5);
  obs::stats_reset();
  const auto outcome = deck->evaluate_detailed(mid);
  ASSERT_TRUE(outcome.metrics.has_value()) << outcome.failure;
  // The per-outcome stats and the process registry must agree: the registry
  // is fed exactly once per simulated condition, from evaluate_single.
  EXPECT_GT(outcome.stats.newton_iters, 0u);
  EXPECT_GT(outcome.stats.tran_steps_accepted, 0u);
  EXPECT_EQ(obs::stats_value("newton_iters"), outcome.stats.newton_iters);
  EXPECT_EQ(obs::stats_value("tran_steps_accepted"),
            outcome.stats.tran_steps_accepted);
  EXPECT_EQ(obs::stats_value("lu_first_factors"),
            outcome.stats.lu_first_factors);
  EXPECT_EQ(obs::stats_value("evals"), 1u);
  EXPECT_EQ(obs::stats_value("eval_failures"), 0u);

  std::ostringstream json;
  obs::stats_write_json(json);
  const std::string s = json.str();
  EXPECT_NE(s.find("\"newton_iters\": "), std::string::npos);
  EXPECT_NE(s.find("\"gp_fits\": "), std::string::npos);
  EXPECT_NE(s.find(std::string("\"la_isa\": \"") +
                   la::isa_name(la::active_isa()) + "\""),
            std::string::npos);
  EXPECT_EQ(s.front(), '{');
  obs::stats_reset();
  EXPECT_EQ(obs::stats_value("newton_iters"), 0u);
}

// --- Trace schema and concurrent flush -------------------------------------

/// Structural check of one emitted event line (the writer emits one JSON
/// object per line; Perfetto-required keys must all be present).
void expect_event_line(const std::string& line) {
  EXPECT_EQ(line.rfind("{\"name\":\"", 0), 0u) << line;
  EXPECT_NE(line.find("\"ph\":\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"ts\":"), std::string::npos) << line;
  EXPECT_NE(line.find("\"pid\":"), std::string::npos) << line;
  EXPECT_NE(line.find("\"tid\":"), std::string::npos) << line;
}

std::uint32_t event_tid(const std::string& line) {
  const auto pos = line.find("\"tid\":");
  return static_cast<std::uint32_t>(
      std::strtoul(line.c_str() + pos + 6, nullptr, 10));
}

TEST(ObsTrace, SchemaValidAndThreadBuffersSurviveConcurrentFlush) {
  const auto deck =
      ckt::NetlistCircuit::from_file(deck_path("opamp2.cir"), ckt::pdk_180nm());
  const std::vector<std::vector<double>> xs(
      32, std::vector<double>(deck->space().dim(), 0.5));
  const auto serial = deck->evaluate_batch(xs);

  const std::string path = trace_path("obs_trace_schema.json");
  setenv("KATO_THREADS", "4", 1);
  // Warm the pool untraced so the workers are spawned and parked — a parked
  // worker wakes in microseconds and reliably claims chunks of the traced
  // batch, whereas thread spawn can lose the race against fast evals.
  (void)deck->evaluate_batch(xs);
  obs::set_trace_buffer_capacity_for_test(4);  // force mid-run flushes
  obs::trace_begin(path);
  const auto traced = deck->evaluate_batch(xs);
  const std::size_t n_events = obs::trace_end();
  obs::set_trace_buffer_capacity_for_test(1 << 16);
  unsetenv("KATO_THREADS");

  EXPECT_GT(n_events, 0u);
  ASSERT_EQ(traced.size(), serial.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    ASSERT_TRUE(traced[i].has_value());
    EXPECT_EQ(*traced[i], *serial[i]) << "candidate " << i;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line, "{\"traceEvents\":[");
  std::size_t events_seen = 0;
  std::set<std::uint32_t> tids;
  bool saw_footer = false;
  while (std::getline(in, line)) {
    if (line.rfind("]", 0) == 0) {
      EXPECT_NE(line.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
      saw_footer = true;
      break;
    }
    if (line.size() >= 2 && line.compare(line.size() - 2, 2, ",\n") == 0)
      line.resize(line.size() - 2);
    if (!line.empty() && line.back() == ',') line.pop_back();
    expect_event_line(line);
    tids.insert(event_tid(line));
    ++events_seen;
  }
  EXPECT_TRUE(saw_footer);
  // thread_name metadata rows plus every collected event.
  EXPECT_GE(events_seen, n_events);
  // The fan-out ran on >= 2 threads and each one's buffer made it to disk.
  EXPECT_GE(tids.size(), 2u);
}

TEST(ObsTrace, PauseResumeAndEndWithoutSession) {
  EXPECT_EQ(obs::trace_end(), 0u);  // no session: clean no-op
  EXPECT_FALSE(obs::trace_enabled());
  obs::trace_resume();  // resume outside a session must not enable capture
  EXPECT_FALSE(obs::trace_enabled());

  const std::string path = trace_path("obs_trace_pause.json");
  obs::trace_begin(path);
  EXPECT_TRUE(obs::trace_enabled());
  { KATO_OBS_SPAN("kept"); }
  obs::trace_pause();
  EXPECT_FALSE(obs::trace_enabled());
  { KATO_OBS_SPAN("suppressed"); }
  obs::trace_resume();
  EXPECT_TRUE(obs::trace_enabled());
  const std::size_t n = obs::trace_end();
  EXPECT_EQ(n, 1u);
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_NE(ss.str().find("\"name\":\"kept\""), std::string::npos);
  EXPECT_EQ(ss.str().find("suppressed"), std::string::npos);
}

// --- Latency histograms ----------------------------------------------------

TEST(ObsHist, BucketIndexHandGoldens) {
  // Bucket = octave * 12 + sub, sub from the 2^(s/12) ladder.  All of these
  // are hand-derivable: 3 ns sits in octave 1 at ratio 1.5, between
  // 2^(7/12) ~ 1.4983 and 2^(8/12) ~ 1.5874, so sub = 7.
  EXPECT_EQ(obs::hist_bucket_index(0), 0);
  EXPECT_EQ(obs::hist_bucket_index(1), 0);
  EXPECT_EQ(obs::hist_bucket_index(2), 12);
  EXPECT_EQ(obs::hist_bucket_index(3), 19);
  EXPECT_EQ(obs::hist_bucket_index(4), 24);
  // 1000/512 ~ 1.953 is above 2^(11/12) ~ 1.8877: last sub of octave 9.
  EXPECT_EQ(obs::hist_bucket_index(1000), 9 * 12 + 11);
  EXPECT_EQ(obs::hist_bucket_index(1024), 10 * 12);
  EXPECT_EQ(obs::hist_bucket_index(std::uint64_t{1} << 40), 40 * 12);

  // Exact powers of two open their octave.
  EXPECT_EQ(obs::hist_bucket_lower_ns(0), 1u);
  EXPECT_EQ(obs::hist_bucket_lower_ns(12), 2u);
  EXPECT_EQ(obs::hist_bucket_lower_ns(24), 4u);
  EXPECT_EQ(obs::hist_bucket_lower_ns(40 * 12), std::uint64_t{1} << 40);

  // Bracketing invariant, lower(b) <= v < lower(b+1), holds once the
  // integer floor of the bound is finer than the ~6% bucket width (tiny
  // octaves truncate their bounds onto each other).
  for (std::uint64_t v : {std::uint64_t{1000}, std::uint64_t{123456},
                          std::uint64_t{987654321},
                          (std::uint64_t{1} << 40) + 12345}) {
    const int b = obs::hist_bucket_index(v);
    EXPECT_LE(obs::hist_bucket_lower_ns(b), v) << v;
    EXPECT_LT(v, obs::hist_bucket_lower_ns(b + 1)) << v;
  }
  // Bounds stay strictly increasing through the top octave (no clamp
  // collision below 2^64 ns).
  EXPECT_LT(obs::hist_bucket_lower_ns(obs::k_hist_buckets - 2),
            obs::hist_bucket_lower_ns(obs::k_hist_buckets - 1));
}

TEST(ObsHist, QuantileHandGoldens) {
  obs::HistSnapshot empty;
  EXPECT_EQ(empty.quantile_ns(0.5), 0u);

  // 10 durations near 100 ns, 89 near 1 us, 1 near 10 us: rank walks are
  // hand-checkable.  rank(p50) = 50 and rank(p99) = 99 both land in the
  // middle bucket (cumulative 10 -> 99 -> 100); only q = 1.0 reaches the
  // outlier bucket and q = 0 clamps to rank 1.
  const int b_lo = obs::hist_bucket_index(100);
  const int b_mid = obs::hist_bucket_index(1000);
  const int b_hi = obs::hist_bucket_index(10000);
  obs::HistSnapshot h;
  h.buckets[static_cast<std::size_t>(b_lo)] = 10;
  h.buckets[static_cast<std::size_t>(b_mid)] = 89;
  h.buckets[static_cast<std::size_t>(b_hi)] = 1;
  h.count = 100;
  EXPECT_EQ(h.quantile_ns(0.0), obs::hist_bucket_lower_ns(b_lo));
  EXPECT_EQ(h.quantile_ns(0.10), obs::hist_bucket_lower_ns(b_lo));
  EXPECT_EQ(h.quantile_ns(0.50), obs::hist_bucket_lower_ns(b_mid));
  EXPECT_EQ(h.quantile_ns(0.90), obs::hist_bucket_lower_ns(b_mid));
  EXPECT_EQ(h.quantile_ns(0.99), obs::hist_bucket_lower_ns(b_mid));
  EXPECT_EQ(h.quantile_ns(1.0), obs::hist_bucket_lower_ns(b_hi));
}

TEST(ObsHist, RecordSnapshotStatsDumpAndReset) {
  obs::stats_reset();
  obs::hist_record(obs::Stage::dc, 100);
  obs::hist_record(obs::Stage::dc, 100);
  obs::hist_record(obs::Stage::dc, 5000);
  const auto h = obs::hist_snapshot(obs::Stage::dc);
  EXPECT_EQ(h.count, 3u);
  EXPECT_EQ(h.sum_ns, 5200u);
  EXPECT_EQ(h.buckets[static_cast<std::size_t>(obs::hist_bucket_index(100))],
            2u);
  EXPECT_EQ(h.buckets[static_cast<std::size_t>(obs::hist_bucket_index(5000))],
            1u);
  // Untouched stages stay empty.
  EXPECT_EQ(obs::hist_snapshot(obs::Stage::gp_fit).count, 0u);

  std::ostringstream json;
  obs::stats_write_json(json);
  const std::string s = json.str();
  EXPECT_NE(s.find("\"hist_dc_count\": 3"), std::string::npos) << s;
  EXPECT_NE(s.find("\"hist_dc_sum_ns\": 5200"), std::string::npos) << s;
  EXPECT_NE(s.find("\"hist_dc_p50_ns\": "), std::string::npos);
  EXPECT_NE(s.find("\"hist_dc_p90_ns\": "), std::string::npos);
  EXPECT_NE(s.find("\"hist_tran_p99_ns\": "), std::string::npos);
  EXPECT_NE(s.find("\"hist_gp_fit_p99_ns\": "), std::string::npos);
  EXPECT_NE(s.find("\"hist_kat_fit_count\": 0"), std::string::npos);
  EXPECT_NE(s.find("\"hist_kat_fit_sum_ns\": 0"), std::string::npos);
  EXPECT_NE(s.find("\"hist_kat_fit_p50_ns\": "), std::string::npos);
  EXPECT_NE(s.find("\"hist_kat_fit_p90_ns\": "), std::string::npos);
  EXPECT_NE(s.find("\"hist_kat_fit_p99_ns\": "), std::string::npos);
  EXPECT_NE(s.find("\"fail_dc\": "), std::string::npos);

  obs::stats_reset();
  EXPECT_EQ(obs::hist_snapshot(obs::Stage::dc).count, 0u);
}

TEST(ObsHist, KatFitStageRecordsOneSamplePerAlignment) {
  // A tiny frozen source GP and a KAT-GP over it: every KatGp::fit (first
  // fit and warm-started refit alike) is one kat_fit sample, so KAT-GP
  // alignment is attributed instead of folding into unattributed time.
  kato::util::Rng rng(17);
  la::Matrix xs(24, 2);
  la::Matrix ys(24, 1);
  for (std::size_t i = 0; i < xs.rows(); ++i) {
    xs(i, 0) = rng.uniform();
    xs(i, 1) = rng.uniform();
    ys(i, 0) = std::sin(3.0 * xs(i, 0)) + xs(i, 1);
  }
  gp::MultiGp source(1, [] {
    return std::make_unique<kern::StationaryArd>(kern::StationaryType::rbf, 2);
  });
  source.set_data(xs, ys);
  gp::KatGpConfig cfg;
  cfg.init_iterations = 4;
  cfg.refit_iterations = 2;
  gp::KatGp kat(&source, 2, 1, cfg, rng);
  kat.set_target_data(xs, ys);

  obs::stats_reset();
  kat.fit(rng);
  kat.fit(rng);
  const auto h = obs::hist_snapshot(obs::Stage::kat_fit);
  EXPECT_EQ(h.count, 2u);
  EXPECT_GT(h.sum_ns, 0u);
  EXPECT_EQ(obs::hist_snapshot(obs::Stage::gp_fit).count, 0u);
  obs::stats_reset();
}

TEST(ObsTrace, KatFitStepSpansNestUnderKatFit) {
  // Every Adam step of KatGp::fit records kat_encode, kat_source and
  // kat_backward spans, each inside the kat_fit span on the same thread.
  // The exact-NLL sweeps are kat_nll spans: with 5 steps and no in-loop
  // evaluation (eval_every = 10) there are two, before the first step and
  // after the last.
  kato::util::Rng rng(18);
  la::Matrix xs(24, 2);
  la::Matrix ys(24, 1);
  for (std::size_t i = 0; i < xs.rows(); ++i) {
    xs(i, 0) = rng.uniform();
    xs(i, 1) = rng.uniform();
    ys(i, 0) = std::sin(3.0 * xs(i, 0)) + xs(i, 1);
  }
  gp::MultiGp source(1, [] {
    return std::make_unique<kern::StationaryArd>(kern::StationaryType::rbf, 2);
  });
  source.set_data(xs, ys);
  gp::KatGpConfig cfg;
  cfg.init_iterations = 5;
  gp::KatGp kat(&source, 2, 1, cfg, rng);
  kat.set_target_data(xs, ys);

  const std::string path = trace_path("obs_kat_fit_spans.json");
  obs::trace_begin(path);
  kat.fit(rng);
  obs::trace_end();

  struct Event {
    std::string name;
    std::uint32_t tid;
    double ts;
    double dur;
  };
  auto number = [](const std::string& line, const std::string& key) {
    const auto pos = line.find("\"" + key + "\":");
    EXPECT_NE(pos, std::string::npos) << key << " in " << line;
    return std::strtod(line.c_str() + pos + key.size() + 3, nullptr);
  };
  std::vector<Event> events;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"ph\":\"X\"") == std::string::npos) continue;
    const auto name_end = line.find('"', 9);
    events.push_back({line.substr(9, name_end - 9), event_tid(line),
                      number(line, "ts"), number(line, "dur")});
  }
  const Event* fit = nullptr;
  for (const auto& e : events)
    if (e.name == "kat_fit") fit = &e;
  ASSERT_NE(fit, nullptr);
  for (const char* name : {"kat_encode", "kat_source", "kat_backward"}) {
    SCOPED_TRACE(name);
    int count = 0;
    for (const auto& e : events) {
      if (e.name != name) continue;
      ++count;
      EXPECT_EQ(e.tid, fit->tid);
      EXPECT_GE(e.ts, fit->ts);
      EXPECT_LE(e.ts + e.dur, fit->ts + fit->dur + 1e-3);
    }
    EXPECT_EQ(count, cfg.init_iterations);
  }
  int nll_sweeps = 0;
  for (const auto& e : events) {
    if (e.name != "kat_nll") continue;
    ++nll_sweeps;
    EXPECT_EQ(e.tid, fit->tid);
    EXPECT_GE(e.ts, fit->ts);
    EXPECT_LE(e.ts + e.dur, fit->ts + fit->dur + 1e-3);
  }
  EXPECT_EQ(nll_sweeps, 2);
}

TEST(ObsTrace, BuildTransferSourceRecordsOneSpan) {
  // Source-knowledge construction (simulations plus the frozen source GP
  // fits) is one build_transfer_source span enclosing its gp_fit spans.
  auto circuit = kato::ckt::make_circuit("opamp2", "180nm");
  const std::string path = trace_path("obs_transfer_source_span.json");
  obs::trace_begin(path);
  const auto src = kato::bo::build_transfer_source(*circuit, 12,
                                                   kato::bo::KernelKind::rbf, 7);
  obs::trace_end();
  EXPECT_EQ(src.x.rows(), 12u);

  std::ifstream in(path);
  std::string line;
  int builds = 0;
  int fits = 0;
  while (std::getline(in, line)) {
    if (line.find("\"ph\":\"X\"") == std::string::npos) continue;
    if (line.rfind("{\"name\":\"build_transfer_source\"", 0) == 0) ++builds;
    if (line.rfind("{\"name\":\"gp_fit\"", 0) == 0) ++fits;
  }
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(fits, static_cast<int>(circuit->n_metrics()) + 1);
}

TEST(ObsTrace, GpFitRecordsPosteriorRefreshSpan) {
  // A fit ends by rebuilding the posterior (factor, alpha, K^-1) on the full
  // data: that rebuild is its own gp_refresh span inside the gp_fit span.
  kato::util::Rng rng(19);
  la::Matrix x(30, 2);
  la::Vector y(30);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    x(i, 0) = rng.uniform();
    x(i, 1) = rng.uniform();
    y[i] = std::sin(3.0 * x(i, 0)) + x(i, 1);
  }
  gp::GaussianProcess model(
      std::make_unique<kern::StationaryArd>(kern::StationaryType::rbf, 2));
  model.set_data(x, y, false);
  gp::GpFitOptions opts;
  opts.iterations = 3;

  const std::string path = trace_path("obs_gp_refresh_span.json");
  obs::trace_begin(path);
  model.fit(opts, rng);
  obs::trace_end();

  std::ifstream in(path);
  std::string line;
  int fits = 0;
  int refreshes = 0;
  while (std::getline(in, line)) {
    if (line.find("\"ph\":\"X\"") == std::string::npos) continue;
    if (line.rfind("{\"name\":\"gp_fit\"", 0) == 0) ++fits;
    if (line.rfind("{\"name\":\"gp_refresh\"", 0) == 0) ++refreshes;
  }
  EXPECT_EQ(fits, 1);
  EXPECT_EQ(refreshes, 1);
}

TEST(ObsHist, ShardMergeBitIdenticalAcrossThreadCounts) {
  // The same multiset of durations recorded by one thread and by four must
  // merge to the same snapshot: shards hold plain integer adds, and
  // addition commutes.  This is the property that makes histogram output
  // independent of KATO_THREADS for a given set of simulated work.
  std::vector<std::uint64_t> durations(2048);
  for (std::size_t i = 0; i < durations.size(); ++i)
    durations[i] = (i * 37) % 100000 + 1;

  obs::stats_reset();
  for (const std::uint64_t v : durations)
    obs::hist_record(obs::Stage::tran, v);
  const auto serial = obs::hist_snapshot(obs::Stage::tran);

  obs::stats_reset();
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&durations, t] {
      for (std::size_t i = static_cast<std::size_t>(t); i < durations.size();
           i += 4)
        obs::hist_record(obs::Stage::tran, durations[i]);
    });
  }
  for (auto& w : workers) w.join();  // exits retire shards into the totals
  const auto sharded = obs::hist_snapshot(obs::Stage::tran);

  EXPECT_EQ(serial.count, sharded.count);
  EXPECT_EQ(serial.sum_ns, sharded.sum_ns);
  EXPECT_EQ(serial.buckets, sharded.buckets);
  obs::stats_reset();
}

// --- Run journal (writer and helpers) --------------------------------------

TEST(ObsJournal, JsonHelpersGoldens) {
  EXPECT_EQ(obs::json_escape("plain"), "plain");
  EXPECT_EQ(obs::json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(obs::json_escape("x\n\t\r"), "x\\n\\t\\r");
  EXPECT_EQ(obs::json_escape(std::string("\x01", 1)), "\\u0001");

  EXPECT_EQ(obs::json_num(2.0), "2");
  EXPECT_EQ(obs::json_num(1.5), "1.5");
  EXPECT_EQ(obs::json_num(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(obs::json_num(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(obs::json_num(std::nan("")), "null");
  EXPECT_EQ(obs::json_array({1.0, 0.5,
                             std::numeric_limits<double>::infinity()}),
            "[1,0.5,null]");
  EXPECT_EQ(obs::json_array({}), "[]");

  obs::JsonObj o;
  o.str("event", "x").uint("n", 2).boolean("ok", true).num("v", 0.25);
  o.raw("a", "[1,2]");
  EXPECT_EQ(o.take(),
            "{\"event\":\"x\",\"n\":2,\"ok\":true,\"v\":0.25,\"a\":[1,2]}");
}

TEST(ObsJournal, WriterLifecycleTruncationAndBadPath) {
  EXPECT_FALSE(obs::journal_enabled());
  EXPECT_EQ(obs::journal_end(), 0u);  // no session: clean no-op

  const std::string path = trace_path("obs_journal_lifecycle.jsonl");
  obs::journal_begin(path);
  EXPECT_TRUE(obs::journal_enabled());
  obs::journal_write("{\"event\":\"a\"}");
  obs::journal_write("{\"event\":\"b\"}");
  EXPECT_EQ(obs::journal_end(), 2u);
  EXPECT_FALSE(obs::journal_enabled());
  {
    std::ifstream in(path);
    std::string l1, l2, extra;
    ASSERT_TRUE(std::getline(in, l1));
    ASSERT_TRUE(std::getline(in, l2));
    EXPECT_EQ(l1, "{\"event\":\"a\"}");
    EXPECT_EQ(l2, "{\"event\":\"b\"}");
    EXPECT_FALSE(std::getline(in, extra));
  }

  // A new session truncates the previous file.
  obs::journal_begin(path);
  obs::journal_write("{\"event\":\"c\"}");
  EXPECT_EQ(obs::journal_end(), 1u);
  {
    std::ifstream in(path);
    std::string l1, extra;
    ASSERT_TRUE(std::getline(in, l1));
    EXPECT_EQ(l1, "{\"event\":\"c\"}");
    EXPECT_FALSE(std::getline(in, extra));
  }

  // Unwritable path: warn-and-disable, never half-enable.
  obs::journal_begin("/nonexistent_kato_dir/journal.jsonl");
  EXPECT_FALSE(obs::journal_enabled());
  EXPECT_EQ(obs::journal_end(), 0u);

  // Disabled writes are dropped, not queued.
  obs::journal_write("{\"event\":\"dropped\"}");
  obs::journal_begin(path);
  EXPECT_EQ(obs::journal_end(), 0u);
}

TEST(ObsJournal, RunIdsAreProcessUnique) {
  const auto a = obs::journal_next_run_id();
  const auto b = obs::journal_next_run_id();
  EXPECT_LT(a, b);
}

// --- Off-path bit-identity (slow) ------------------------------------------

TEST(ObsBo, SeededRunBitIdenticalWithTracingOn) {
  const auto deck =
      ckt::NetlistCircuit::from_file(deck_path("opamp2.cir"), ckt::pdk_180nm());
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

  const auto plain =
      bo::run_constrained(*deck, bo::ConstrainedMethod::kato, cfg, 5);

  obs::trace_begin(trace_path("obs_bo_identity.json"));
  const auto traced =
      bo::run_constrained(*deck, bo::ConstrainedMethod::kato, cfg, 5);
  const std::size_t n_events = obs::trace_end();
  EXPECT_GT(n_events, 0u);

  // Counters never feed arithmetic and spans only read the clock, so the
  // optimization trajectory must be bit-identical with tracing enabled.
  ASSERT_EQ(plain.trace.size(), traced.trace.size());
  for (std::size_t i = 0; i < plain.trace.size(); ++i)
    EXPECT_DOUBLE_EQ(plain.trace[i], traced.trace[i]) << "sim " << i;
  ASSERT_EQ(plain.x_history.size(), traced.x_history.size());
  for (std::size_t i = 0; i < plain.x_history.size(); ++i)
    EXPECT_EQ(plain.x_history[i], traced.x_history[i]) << "sim " << i;
  EXPECT_EQ(plain.best_metrics, traced.best_metrics);
}

/// Shared config for the journaled-run tests: small enough to stay inside
/// the slow-suite budget, large enough to exercise DOE + refits + proposals.
bo::BoConfig journal_test_config() {
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

/// Integer value of `"key":<n>` in one journal line.
std::size_t journal_uint(const std::string& event, const std::string& key) {
  const auto pos = event.find("\"" + key + "\":");
  EXPECT_NE(pos, std::string::npos) << key << " in " << event;
  return pos == std::string::npos ? 0 : std::stoul(event.substr(pos + key.size() + 3));
}

/// Run the same seeded KATO optimization — constrained, or FOM mode when
/// `fom` — with the journal off and on; require a bit-identical trajectory
/// and a schema-complete journal whose run_end replays the run's own
/// best-so-far curve.
void check_journaled_run(const std::string& deck_name, bool fom = false) {
  const auto deck =
      ckt::NetlistCircuit::from_file(deck_path(deck_name), ckt::pdk_180nm());
  const bo::BoConfig cfg = journal_test_config();
  ckt::FomNormalization norm;
  if (fom) {
    kato::util::Rng cal_rng(9);
    norm = ckt::calibrate_fom(*deck, 40, cal_rng);
  }
  auto run = [&] {
    return fom ? bo::run_fom(*deck, norm, bo::FomMethod::kato, cfg, 5)
               : bo::run_constrained(*deck, bo::ConstrainedMethod::kato, cfg, 5);
  };

  const auto plain = run();

  const std::string path = trace_path(std::string("obs_journal_") +
                                      (fom ? "fom_" : "") + deck_name + ".jsonl");
  obs::journal_begin(path);
  ASSERT_TRUE(obs::journal_enabled());
  const auto journaled = run();
  const std::size_t lines = obs::journal_end();

  // Journaling is value-free: same seed, same trajectory, to the bit.
  ASSERT_EQ(plain.trace.size(), journaled.trace.size());
  for (std::size_t i = 0; i < plain.trace.size(); ++i)
    EXPECT_DOUBLE_EQ(plain.trace[i], journaled.trace[i]) << "sim " << i;
  ASSERT_EQ(plain.x_history.size(), journaled.x_history.size());
  for (std::size_t i = 0; i < plain.x_history.size(); ++i)
    EXPECT_EQ(plain.x_history[i], journaled.x_history[i]) << "sim " << i;
  EXPECT_EQ(plain.best_metrics, journaled.best_metrics);

  // run_begin + DOE record + one record per BO iteration + run_end.
  EXPECT_EQ(lines, 2u + 1u + cfg.iterations);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::vector<std::string> events;
  std::string line;
  while (std::getline(in, line)) events.push_back(line);
  ASSERT_EQ(events.size(), lines);
  for (const auto& e : events) {
    EXPECT_EQ(e.front(), '{') << e;
    EXPECT_EQ(e.back(), '}') << e;
  }
  const std::string& begin = events.front();
  EXPECT_NE(begin.find("\"event\":\"run_begin\""), std::string::npos);
  EXPECT_NE(begin.find(fom ? "\"mode\":\"fom\"" : "\"mode\":\"constrained\""),
            std::string::npos);
  EXPECT_NE(begin.find("\"method\":\"KATO\""), std::string::npos);
  EXPECT_NE(begin.find("\"seed\":5"), std::string::npos);
  EXPECT_NE(begin.find("\"config\":{"), std::string::npos);
  EXPECT_NE(begin.find("\"env\":{\"KATO_THREADS\":{"), std::string::npos);
  EXPECT_NE(begin.find("\"threads\":"), std::string::npos);
  EXPECT_NE(begin.find("\"iterations\":5"), std::string::npos);

  EXPECT_NE(events[1].find("\"phase\":\"doe\""), std::string::npos);
  EXPECT_NE(events[1].find("\"iter\":-1"), std::string::npos);
  std::size_t n_iteration = 0;
  for (std::size_t i = 1; i + 1 < events.size(); ++i) {
    EXPECT_NE(events[i].find("\"event\":\"iteration\""), std::string::npos);
    EXPECT_NE(events[i].find("\"proposals\":["), std::string::npos);
    EXPECT_NE(events[i].find("\"trace\":["), std::string::npos);
    EXPECT_NE(events[i].find("\"best\":"), std::string::npos);
    // FOM mode has no constraints: every valid design counts as feasible.
    if (fom) {
      EXPECT_EQ(journal_uint(events[i], "n_feasible"),
                journal_uint(events[i], "n_valid"))
          << events[i];
    }
    ++n_iteration;
  }
  EXPECT_EQ(n_iteration, 1u + cfg.iterations);

  const std::string& end = events.back();
  EXPECT_NE(end.find("\"event\":\"run_end\""), std::string::npos);
  EXPECT_NE(end.find("\"sims\":" + std::to_string(journaled.trace.size())),
            std::string::npos);
  EXPECT_NE(end.find("\"best\":" + obs::json_num(journaled.trace.back())),
            std::string::npos);
  EXPECT_NE(end.find("\"regret_curve\":["), std::string::npos);

  // Replay: the run_end regret curve is exactly the concatenation of the
  // per-iteration trace segments — and both match the in-memory result.
  const std::string expected_curve =
      "\"regret_curve\":" + obs::json_array(journaled.trace);
  EXPECT_NE(end.find(expected_curve), std::string::npos);
  std::string replayed;
  for (std::size_t i = 1; i + 1 < events.size(); ++i) {
    const auto pos = events[i].find("\"trace\":[");
    ASSERT_NE(pos, std::string::npos);
    const auto close = events[i].find(']', pos);
    ASSERT_NE(close, std::string::npos);
    std::string seg = events[i].substr(pos + 9, close - (pos + 9));
    if (!seg.empty() && !replayed.empty()) replayed += ',';
    replayed += seg;
  }
  EXPECT_EQ("[" + replayed + "]", obs::json_array(journaled.trace));
}

TEST(ObsBo, JournaledOpamp2RunBitIdenticalAndSchemaComplete) {
  check_journaled_run("opamp2.cir");
}

TEST(ObsBo, JournaledBufferTranRunBitIdenticalAndSchemaComplete) {
  check_journaled_run("buffer_tran.cir");
}

TEST(ObsBo, JournaledFomOpamp2RunBitIdenticalAndSchemaComplete) {
  check_journaled_run("opamp2.cir", /*fom=*/true);
}

}  // namespace
