#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>

#include "core/experiment.hpp"
#include "core/kato.hpp"

using namespace kato;

TEST(SeedList, DefaultAndEnvOverride) {
  unsetenv("KATO_SEEDS");
  auto seeds = core::seed_list(3);
  ASSERT_EQ(seeds.size(), 3u);
  EXPECT_EQ(seeds[0], 1u);
  setenv("KATO_SEEDS", "5", 1);
  EXPECT_EQ(core::seed_list(3).size(), 5u);
  setenv("KATO_SEEDS", "bogus", 1);
  EXPECT_EQ(core::seed_list(3).size(), 3u);
  unsetenv("KATO_SEEDS");
}

TEST(SeedList, RejectsMalformedAndClampsHugeCounts) {
  // Strict full-string parse: trailing garbage must not silently truncate
  // ("4abc" used to read as 4, "1e3" as 1).
  setenv("KATO_SEEDS", "4abc", 1);
  EXPECT_EQ(core::seed_list(3).size(), 3u);
  setenv("KATO_SEEDS", "1e3", 1);
  EXPECT_EQ(core::seed_list(3).size(), 3u);
  setenv("KATO_SEEDS", " 7", 1);  // leading whitespace: rejected too
  EXPECT_EQ(core::seed_list(3).size(), 3u);
  setenv("KATO_SEEDS", "7 ", 1);  // trailing whitespace is not
  EXPECT_EQ(core::seed_list(3).size(), 3u);
  setenv("KATO_SEEDS", "0", 1);
  EXPECT_EQ(core::seed_list(3).size(), 3u);
  setenv("KATO_SEEDS", "-5", 1);
  EXPECT_EQ(core::seed_list(3).size(), 3u);
  setenv("KATO_SEEDS", "", 1);
  EXPECT_EQ(core::seed_list(3).size(), 3u);
  // A fat-fingered huge count clamps instead of exploding the sweep.
  setenv("KATO_SEEDS", "999999999", 1);
  EXPECT_EQ(core::seed_list(3).size(), 1024u);
  setenv("KATO_SEEDS", "1024", 1);
  EXPECT_EQ(core::seed_list(3).size(), 1024u);
  unsetenv("KATO_SEEDS");
}

TEST(KatoOptimizer, FacadeEndToEnd) {
  auto circuit = ckt::make_circuit("opamp2", "180nm");
  KatoOptimizer opt(*circuit);
  opt.config().n_init = 80;
  opt.config().iterations = 4;
  const auto r = opt.optimize(1);
  EXPECT_EQ(r.trace.size(), 80u + 16u);
  EXPECT_EQ(r.x_history.size(), r.trace.size());
}

TEST(KatoOptimizer, SeedReproducibleTrace) {
  // Same seed => bit-identical simulation history and FOM/objective trace,
  // independent of the KATO_THREADS knob.  This pins the end-to-end
  // determinism contract: every stochastic component draws from explicit
  // seeded streams, and the threaded acquisition path must not reorder
  // arithmetic.
  auto circuit = ckt::make_circuit("opamp2", "180nm");

  auto run = [&](const char* threads) {
    if (threads == nullptr)
      unsetenv("KATO_THREADS");
    else
      setenv("KATO_THREADS", threads, 1);
    KatoOptimizer opt(*circuit);
    opt.config().n_init = 40;
    opt.config().iterations = 3;
    auto r = opt.optimize(7);
    unsetenv("KATO_THREADS");
    return r;
  };

  const auto r1 = run(nullptr);
  const auto r2 = run(nullptr);
  const auto r3 = run("4");

  ASSERT_EQ(r1.trace.size(), r2.trace.size());
  for (std::size_t i = 0; i < r1.trace.size(); ++i) {
    EXPECT_EQ(r1.trace[i], r2.trace[i]) << "sim " << i;
    EXPECT_EQ(r1.trace[i], r3.trace[i]) << "sim " << i << " (threaded)";
  }
  ASSERT_EQ(r1.x_history.size(), r2.x_history.size());
  for (std::size_t i = 0; i < r1.x_history.size(); ++i) {
    EXPECT_EQ(r1.x_history[i], r2.x_history[i]) << "sim " << i;
    EXPECT_EQ(r1.x_history[i], r3.x_history[i]) << "sim " << i << " (threaded)";
  }
  EXPECT_EQ(r1.best_x, r2.best_x);
}

TEST(Experiment, SeriesAggregationAndPrinting) {
  auto circuit = ckt::make_circuit("opamp2", "180nm");
  bo::BoConfig cfg;
  cfg.n_init = 40;
  cfg.iterations = 2;
  const auto series = core::run_constrained_series(
      *circuit, bo::ConstrainedMethod::mesmoc, cfg, {1, 2});
  EXPECT_EQ(series.runs.size(), 2u);
  EXPECT_EQ(series.band.median.size(), 48u);
  // All band values are finite after sanitization.
  for (double v : series.band.median) EXPECT_TRUE(std::isfinite(v));

  std::ostringstream os;
  core::print_series(os, "test", {series}, 12);
  EXPECT_NE(os.str().find("MESMOC"), std::string::npos);
  EXPECT_NE(os.str().find("48"), std::string::npos);
}

TEST(Experiment, SimsToReachAndBestRun) {
  core::MethodSeries series;
  series.name = "m";
  bo::RunResult r1;
  r1.trace = {5.0, 4.0, 3.0, 2.0};
  bo::RunResult r2;
  r2.trace = {5.0, 5.0, 5.0, 1.0};
  series.runs = {r1, r2};
  // Minimization: reach <= 3.0 at sim 3 (run 1) and sim 4 (run 2): median 3.5.
  EXPECT_DOUBLE_EQ(core::median_sims_to_reach(series, 3.0, true), 3.5);
  // Unreachable target counts as length + 1.
  EXPECT_DOUBLE_EQ(core::median_sims_to_reach(series, 0.0, true), 5.0);
  EXPECT_DOUBLE_EQ(core::best_run(series, true).trace.back(), 1.0);
}
