// Tests for the benchmark's own measurement pieces.  The timing decorator
// must not change what a sizing run computes: a tiny seeded run_constrained
// gives an identical RunResult with and without it, on a built-in circuit
// and on a netlist circuit (whose evaluate_batch fans out on the thread
// pool), at KATO_THREADS 1 and 4.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "circuits/factory.hpp"
#include "core/experiment.hpp"
#include "span_log.hpp"
#include "timed_circuit.hpp"
#include "workloads.hpp"

namespace {

/// Sets KATO_THREADS for one scope and restores the previous value.
class ThreadsEnv {
 public:
  explicit ThreadsEnv(const char* value) {
    if (const char* old = std::getenv("KATO_THREADS")) old_ = old;
    ::setenv("KATO_THREADS", value, 1);
  }
  ~ThreadsEnv() {
    if (old_)
      ::setenv("KATO_THREADS", old_->c_str(), 1);
    else
      ::unsetenv("KATO_THREADS");
  }

 private:
  std::optional<std::string> old_;
};

kato::bo::BoConfig tiny_config() {
  kato::bo::BoConfig cfg = kato::core::bench_config();
  cfg.n_init = 12;
  cfg.iterations = 2;
  cfg.nsga.population = 12;
  cfg.nsga.generations = 4;
  return cfg;
}

void expect_decorator_transparent(const std::string& kind) {
  const auto circuit = kato::ckt::make_circuit(kind, "180nm");
  const kato::bo::BoConfig cfg = tiny_config();
  for (const char* threads : {"1", "4"}) {
    SCOPED_TRACE(kind + " at KATO_THREADS=" + threads);
    ThreadsEnv env(threads);
    const auto plain = kato::bo::run_constrained(
        *circuit, kato::bo::ConstrainedMethod::kato, cfg, 5);

    pb::SpanLog log;
    log.set_enabled(true);
    pb::TimedCircuit timed(*circuit, &log);
    const auto decorated = kato::bo::run_constrained(
        timed, kato::bo::ConstrainedMethod::kato, cfg, 5);

    EXPECT_EQ(plain.trace, decorated.trace);
    EXPECT_EQ(plain.x_history, decorated.x_history);
    EXPECT_EQ(plain.best_x, decorated.best_x);
    EXPECT_EQ(plain.metrics_history, decorated.metrics_history);

    // The decorator saw every candidate, and one span per batch call.
    const pb::SimTally tally = timed.tally();
    std::size_t nullopts = 0;
    for (const auto& m : decorated.metrics_history) nullopts += m ? 0 : 1;
    EXPECT_EQ(tally.candidates, decorated.trace.size());
    EXPECT_EQ(tally.failed, nullopts);
    EXPECT_EQ(tally.batches, log.spans().size());
    EXPECT_EQ(tally.batches, cfg.iterations + 1);
    EXPECT_GT(tally.busy_s, 0.0);
  }
}

TEST(TimedCircuit, BuiltInCircuitResultUnchanged) {
  expect_decorator_transparent("opamp2");
}

TEST(TimedCircuit, NetlistCircuitResultUnchanged) {
  expect_decorator_transparent(std::string("netlist:") + PB_KATO_ROOT +
                               "/circuits/netlists/buffer_tran_corners.cir");
}

TEST(SpanLog, SelfTimeSubtractsDirectChildren) {
  pb::SpanLog log;
  log.set_enabled(true);
  {
    pb::ScopedSpan outer(&log, "outer");
    { pb::ScopedSpan a(&log, "a"); }
    {
      pb::ScopedSpan b(&log, "b");
      { pb::ScopedSpan c(&log, "c"); }
    }
  }
  const auto& s = log.spans();
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s[1].parent, 0);
  EXPECT_EQ(s[2].parent, 0);
  EXPECT_EQ(s[3].parent, 2);
  EXPECT_DOUBLE_EQ(log.self_time(0), s[0].dur() - s[1].dur() - s[2].dur());
  EXPECT_DOUBLE_EQ(log.self_time(2), s[2].dur() - s[3].dur());

  log.set_enabled(false);
  EXPECT_EQ(log.open("dropped"), -1);
  EXPECT_EQ(log.spans().size(), 4u);
}

TEST(SpanLog, ChromeTraceHasOneEventPerSpan) {
  pb::SpanLog log;
  log.set_enabled(true);
  log.set_run(3);
  { pb::ScopedSpan outer(&log, "sizing_run"); }
  const std::string path = ::testing::TempDir() + "perfbench_trace.json";
  ASSERT_TRUE(log.write_chrome_trace(path));
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  const std::string json = text.str();
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"name\":\"sizing_run\",\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"parent\":-1,\"run\":3}"), std::string::npos);
}

TEST(Workloads, SeedsDeriveDeterministically) {
  EXPECT_EQ(pb::derive_seed(7, 1), pb::derive_seed(7, 1));
  EXPECT_NE(pb::derive_seed(7, 1), pb::derive_seed(7, 2));
  EXPECT_NE(pb::derive_seed(7, 1), pb::derive_seed(8, 1));
  for (const char* name :
       {"transfer_opamp2", "scratch_opamp2", "buffer_tran", "corners_tran"})
    EXPECT_NE(pb::find_workload(name), nullptr) << name;
  EXPECT_EQ(pb::find_workload("nope"), nullptr);
}

}  // namespace
