// Sizing-run benchmark binary: one workload, one process.
//
//   sizing_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                [--out <dir>] [--setup-only]
//
// Untraced (--trace 0): set up once, then make the workload's seeded
// run_constrained calls back to back at KATO_THREADS as given, and report
// the end-to-end metrics (setup_s, sizing_s, peak_rss_mb); the share of
// failed candidate simulations goes into the result as fail_share.
//
// Traced (--trace 1): after the same set-up, three passes over one seed
// list — untraced at N threads and traced at N threads (interleaved seed by
// seed), then traced at 1 thread — and the per-layer metrics computed from
// the benchmark's spans (SpanLog) plus per-run deltas of the program's obs
// registry.  The spans are written to <out>/trace_<workload>_seed<n>.json.
//
// --setup-only stops after set-up and prints the set-up time; perfbench/
// run.py starts several such processes to report a median set-up time.
//
// Every seeded run is checked (trace length and monotonicity, a feasible
// design, decorator failures == nullopt entries); a violation exits with
// code 3 and prints no metrics.  The last stdout line is one JSON object.

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "circuits/factory.hpp"
#include "span_log.hpp"
#include "timed_circuit.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

using kato::obs::Stage;
using pb::now_s;

// Taken during static initialization: the closest the process can see to
// its own start.  setup_s runs from here to the first timed sizing run.
const double g_process_start_s = now_s();

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;
  std::string out = ".";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "sizing_bench: %s\nusage: sizing_bench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> [--out <dir>] "
               "[--setup-only]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      a.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) usage("bad --seed");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0.0)) usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace");
      a.trace = value == "1";
    } else if (flag == "--out") {
      a.out = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

// --- JSON output -------------------------------------------------------------

std::string json_str(const std::string& s) {
  std::string o = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      o += buf;
    } else {
      o += c;
    }
  }
  return o + "\"";
}

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Insertion-ordered JSON object builder.
class Obj {
 public:
  Obj& raw(const std::string& k, const std::string& v) {
    body_ += (body_.empty() ? "" : ", ") + json_str(k) + ": " + v;
    return *this;
  }
  Obj& num(const std::string& k, double v) { return raw(k, json_num(v)); }
  Obj& str(const std::string& k, const std::string& v) {
    return raw(k, json_str(v));
  }
  Obj& uint(const std::string& k, std::uint64_t v) {
    return raw(k, std::to_string(v));
  }
  std::string take() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// --- Set-up --------------------------------------------------------------------

struct Setup {
  std::unique_ptr<kato::ckt::SizingCircuit> target;
  std::unique_ptr<kato::ckt::SizingCircuit> source_circuit;
  std::optional<kato::bo::TransferSource> source;
  double load_ms = 0.0;        ///< make_circuit wall (target + source)
  double source_sim_s = 0.0;   ///< source evaluations, via the decorator
  double source_fit_s = 0.0;   ///< build_transfer_source minus source_sim_s
  double setup_s = 0.0;        ///< process start -> end of set-up
};

Setup set_up(const pb::Workload& w, std::uint64_t workload_seed,
             pb::SpanLog& log) {
  pb::ScopedSpan span(&log, "setup");
  Setup s;
  const double t0 = now_s();
  s.target = kato::ckt::make_circuit(w.kind, w.node);
  if (w.transfer())
    s.source_circuit = kato::ckt::make_circuit(w.source_kind, w.source_node);
  s.load_ms = (now_s() - t0) * 1e3;

  // Lazy first-use work belongs to set-up, not to the first timed run:
  // start the thread pool, and evaluate the expert design once (device
  // tables on the netlist path).
  kato::util::parallel_for(kato::util::thread_count(),
                           [](std::size_t, std::size_t) {});
  (void)s.target->evaluate_batch({s.target->expert_design()});

  if (w.transfer()) {
    pb::ScopedSpan src_span(&log, "source_build");
    pb::TimedCircuit timed(*s.source_circuit, &log);
    const double b0 = now_s();
    s.source = kato::bo::build_transfer_source(
        timed, w.source_samples, kato::bo::KernelKind::rbf,
        pb::derive_seed(workload_seed, 0));
    const double build_s = now_s() - b0;
    s.source_sim_s = timed.tally().busy_s;
    s.source_fit_s = build_s - s.source_sim_s;
  }
  s.setup_s = now_s() - g_process_start_s;
  return s;
}

// --- Sizing passes -------------------------------------------------------------

// Resident memory of a sizing run.  Before each run, free heap memory that
// earlier runs left in the allocator is returned to the kernel
// (malloc_trim) and the kernel's high-water mark (VmHWM) is reset to the
// current RSS; after the run the high-water mark is read back.  Where the
// reset is unavailable the reading is the process peak so far.

double status_mb(const char* key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::size_t n = std::char_traits<char>::length(key);
  while (std::getline(status, line))
    if (line.compare(0, n, key) == 0)
      return std::strtod(line.c_str() + n, nullptr) / 1024.0;  // kB
  return 0.0;
}

/// Trim and reset; returns the RSS the run starts from.
double reset_peak_rss() {
  ::malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
  return status_mb("VmRSS:");
}

struct RunRecord {
  std::uint64_t seed = 0;
  double wall_s = 0.0;
  std::size_t candidates = 0;  ///< decorator: designs simulated
  std::size_t failed = 0;      ///< decorator: nullopt results
  double sim_busy_s = 0.0;     ///< decorator: time in evaluate_batch
  std::vector<double> batch_s; ///< decorator: each batch's wall, DOE first
  double doe_eval_s = 0.0;     ///< eval-stage busy time inside the DOE batch
  double rss_start_mb = 0.0;   ///< resident set when the run started
  double peak_rss_mb = 0.0;    ///< resident-set peak during the run
  kato::bo::RunResult result;
};

struct Pass {
  Pass(std::string label_, std::size_t threads_, bool traced_, int lane_)
      : label(std::move(label_)), threads(threads_), traced(traced_),
        lane(lane_) {}

  std::string label;
  std::size_t threads = 1;
  bool traced = false;
  int lane = 0;
  std::vector<RunRecord> runs;
  pb::RegistrySnapshot reg;  ///< registry deltas summed over the runs

  double wall_s() const {
    double t = 0.0;
    for (const RunRecord& r : runs) t += r.wall_s;
    return t;
  }
  double sizing_s() const { return wall_s() / static_cast<double>(runs.size()); }
};

/// Set KATO_THREADS for the calls that follow (the library re-reads it on
/// every parallel_for).
void set_threads(std::size_t n) {
  ::setenv("KATO_THREADS", std::to_string(n).c_str(), 1);
}

/// One seeded sizing run in pass `p`'s configuration (threads, tracing,
/// trace lane), appended to p.runs; the run's registry delta is added to
/// p.reg.
void run_one(const pb::Workload& w, const Setup& s, std::size_t index,
             std::uint64_t seed, pb::SpanLog& log, Pass& p) {
  set_threads(p.threads);
  log.set_enabled(p.traced);
  log.set_lane(p.lane);
  log.set_run(static_cast<int>(index));
  pb::TimedCircuit timed(*s.target, &log);
  const auto before = pb::RegistrySnapshot::take();
  RunRecord r;
  r.seed = seed;
  r.rss_start_mb = reset_peak_rss();
  {
    pb::ScopedSpan span(&log, "sizing_run");
    const double start = now_s();
    r.result = kato::bo::run_constrained(timed,
                                         kato::bo::ConstrainedMethod::kato,
                                         w.config, seed,
                                         s.source ? &*s.source : nullptr);
    r.wall_s = now_s() - start;
  }
  r.peak_rss_mb = status_mb("VmHWM:");
  p.reg.add(pb::RegistrySnapshot::take().minus(before));
  const pb::SimTally t = timed.tally();
  r.candidates = t.candidates;
  r.failed = t.failed;
  r.sim_busy_s = t.busy_s;
  r.batch_s = t.batch_s;
  if (!t.batch_eval_s.empty()) r.doe_eval_s = t.batch_eval_s.front();
  p.runs.push_back(std::move(r));
  log.set_run(-1);
  log.set_enabled(false);
}

// --- Correctness -----------------------------------------------------------------

/// Empty when the run passes every check, else the first violation.
std::string check_run(const pb::Workload& w,
                      const kato::ckt::SizingCircuit& circuit,
                      const RunRecord& r) {
  const auto& res = r.result;
  const std::size_t expect = w.sims_per_run();
  std::ostringstream err;
  if (res.trace.size() != expect) {
    err << "trace length " << res.trace.size() << " != n_init + batch x "
        << "iterations = " << expect;
  } else if (res.x_history.size() != expect ||
             res.metrics_history.size() != expect) {
    err << "history length " << res.x_history.size() << "/"
        << res.metrics_history.size() << " != " << expect;
  } else if (r.candidates != expect) {
    err << "decorator saw " << r.candidates << " candidates, expected "
        << expect;
  } else {
    for (std::size_t i = 1; i < res.trace.size(); ++i)
      if (res.trace[i] > res.trace[i - 1]) {
        err << "trace increases at simulation " << i;
        break;
      }
  }
  if (err.tellp() == 0) {
    // The incumbent must be the best feasible design in the history.
    std::size_t nullopts = 0;
    std::size_t best = expect;
    for (std::size_t i = 0; i < expect; ++i) {
      const auto& m = res.metrics_history[i];
      nullopts += m ? 0 : 1;
      if (m && circuit.feasible(*m) &&
          (best == expect || (*m)[0] < (*res.metrics_history[best])[0]))
        best = i;
    }
    if (best == expect || res.best_metrics.empty() ||
        !circuit.feasible(res.best_metrics))
      err << "no feasible design found";
    else if (res.trace.back() != (*res.metrics_history[best])[0] ||
             res.best_metrics != *res.metrics_history[best] ||
             res.best_x != res.x_history[best])
      err << "best design is not the best feasible one simulated";
    else if (nullopts != r.failed)
      err << "decorator counted " << r.failed << " failures, metrics_history "
          << "has " << nullopts << " nullopt entries";
  }
  if (err.tellp() == 0) return "";
  return "seed " + std::to_string(r.seed) + ": " + err.str();
}

/// Same seed, same result at any thread count and traced or not (the
/// library's reproducibility contract).
std::string check_same(const Pass& a, const Pass& b) {
  for (std::size_t i = 0; i < a.runs.size() && i < b.runs.size(); ++i) {
    const auto& x = a.runs[i].result;
    const auto& y = b.runs[i].result;
    if (x.trace != y.trace || x.x_history != y.x_history ||
        x.best_x != y.best_x)
      return "seed " + std::to_string(a.runs[i].seed) + ": " + a.label +
             " and " + b.label + " passes disagree";
  }
  return "";
}

// --- Per-layer metrics -----------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Span-derived totals of one traced pass.  A sizing_run span's only
/// children are its evaluate_batch spans, so its self time is the model
/// side of the loop and the rest is simulation.
struct SpanTotals {
  double wall_s = 0.0;   ///< sum of sizing_run spans
  double model_s = 0.0;  ///< their self time
  double sim_s() const { return wall_s - model_s; }
};

SpanTotals span_totals(const pb::SpanLog& log, int lane) {
  SpanTotals t;
  const auto& spans = log.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].tid != lane || spans[i].name != "sizing_run") continue;
    t.wall_s += spans[i].dur();
    t.model_s += log.self_time(i);
  }
  return t;
}

std::vector<Metric> per_layer(const Setup& s, const Pass& untraced,
                              const Pass& tn, const Pass& t1,
                              const pb::SpanLog& log) {
  std::vector<Metric> m;
  auto add = [&](const char* name, double value, const char* unit) {
    m.push_back({name, value, unit});
  };
  const SpanTotals sn = span_totals(log, tn.lane);
  const SpanTotals s1 = span_totals(log, t1.lane);
  const double runs = static_cast<double>(tn.runs.size());
  std::size_t candidates = 0;
  std::size_t failed = 0;
  double doe_s = 0.0;
  double doe_eval_s = 0.0;
  std::vector<double> proposal_batch_s;
  for (const RunRecord& r : tn.runs) {
    candidates += r.candidates;
    failed += r.failed;
    doe_s += r.batch_s.front();
    doe_eval_s += r.doe_eval_s;
    proposal_batch_s.insert(proposal_batch_s.end(), r.batch_s.begin() + 1,
                            r.batch_s.end());
  }
  const pb::RegistrySnapshot& reg = tn.reg;
  auto per_run = [&](double v) { return v / runs; };
  auto counter = [&](const char* name) {
    return per_run(static_cast<double>(reg.counter(name)));
  };

  add("circuits.load_ms", s.load_ms, "ms");

  add("bo.source_sim_s", s.source_sim_s, "s");
  add("bo.source_fit_s", s.source_fit_s, "s");
  add("bo.model_s", per_run(sn.model_s), "s");
  add("bo.model_ms_per_sim",
      sn.model_s * 1e3 / static_cast<double>(candidates), "ms");
  add("bo.proposals", counter("proposals"), "count");
  add("bo.proposal_batches", counter("proposal_batches"), "count");
  add("bo.acq_calls",
      per_run(static_cast<double>(reg.hist(Stage::acquisition).count)),
      "count");
  add("bo.acq_busy_s", per_run(reg.hist_sum_s(Stage::acquisition)), "s");
  add("bo.acq_ms_p50", reg.hist_quantile_ms(Stage::acquisition, 0.5), "ms");
  add("bo.acq_ms_p90", reg.hist_quantile_ms(Stage::acquisition, 0.9), "ms");

  // 1-thread decomposition: stage sums there equal wall time, so the
  // remainder is time no stage or the decorator accounts for.
  const double w1 = s1.wall_s;
  const double gp1 = t1.reg.hist_sum_s(Stage::gp_fit);
  const double acq1 = t1.reg.hist_sum_s(Stage::acquisition);
  add("bo.unattributed_share", (w1 - s1.sim_s() - gp1 - acq1) / w1, "ratio");
  add("bo.acq_share_1t", acq1 / w1, "ratio");
  add("gp.fit_share_1t", gp1 / w1, "ratio");
  add("sim.share_1t", s1.sim_s() / w1, "ratio");

  add("sim.busy_s", per_run(sn.sim_s()), "s");
  add("sim.share", sn.sim_s() / sn.wall_s, "ratio");
  add("sim.doe_s", per_run(doe_s), "s");
  add("sim.batch_ms_p50",
      proposal_batch_s.empty() ? 0.0
                               : kato::util::median(proposal_batch_s) * 1e3,
      "ms");
  add("sim.candidates", per_run(static_cast<double>(candidates)), "count");
  add("sim.failed", per_run(static_cast<double>(failed)), "count");
  add("sim.fail_share",
      static_cast<double>(failed) / static_cast<double>(candidates), "ratio");
  add("sim.evals", counter("evals"), "count");
  add("sim.eval_ms_p50", reg.hist_quantile_ms(Stage::eval, 0.5), "ms");
  add("sim.eval_ms_p99", reg.hist_quantile_ms(Stage::eval, 0.99), "ms");
  const double eval_busy = reg.hist_sum_s(Stage::eval);
  add("sim.eval_busy_s", per_run(eval_busy), "s");
  add("sim.dc_busy_s", per_run(reg.hist_sum_s(Stage::dc)), "s");
  add("sim.ac_busy_s", per_run(reg.hist_sum_s(Stage::ac)), "s");
  add("sim.tran_busy_s", per_run(reg.hist_sum_s(Stage::tran)), "s");
  add("sim.newton_iters", counter("newton_iters"), "count");
  add("sim.tran_steps",
      counter("tran_steps_accepted") + counter("tran_steps_rejected"),
      "count");
  add("sim.lu_refactors", counter("lu_refactors"), "count");
  add("sim.device_table_misses", counter("device_table_misses"), "count");
  double recoveries = 0.0;
  for (const char* name : pb::k_recovery_counters) recoveries += counter(name);
  add("sim.recoveries", recoveries, "count");

  add("gp.fits", counter("gp_fits"), "count");
  add("gp.fit_iters", counter("gp_fit_iters"), "count");
  add("gp.fit_busy_s", per_run(reg.hist_sum_s(Stage::gp_fit)), "s");
  add("gp.warm_starts", counter("gp_warm_starts"), "count");
  add("gp.jitter_retries", counter("gp_jitter_retries"), "count");

  add("util.pool_parallelism", eval_busy / sn.sim_s(), "threads");
  add("util.doe_parallelism", doe_eval_s / doe_s, "threads");
  add("util.thread_speedup", t1.sizing_s() / tn.sizing_s(), "ratio");
  add("obs.trace_overhead", tn.sizing_s() / untraced.sizing_s(), "ratio");
  return m;
}

// --- Self-describing output ------------------------------------------------------

std::string env_json(const Args& a) {
  Obj kato_env;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("KATO_", 0) != 0) continue;
    const auto eq = kv.find('=');
    kato_env.str(kv.substr(0, eq), eq == std::string::npos ? "" : kv.substr(eq + 1));
  }
  Obj o;
  o.raw("kato_env", kato_env.take())
      .uint("kato_threads", kato::util::thread_count())
      .uint("nproc", std::thread::hardware_concurrency())
      .str("compiler", PB_COMPILER)
      .str("build_type", PB_BUILD_TYPE)
      .str("cxx_flags", PB_CXX_FLAGS)
      .uint("workload_seed", a.seed)
      .num("seconds", a.seconds)
      .uint("trace", a.trace ? 1 : 0);
  return o.take();
}


void print_pass(const Pass& p) {
  std::printf("pass %-10s threads=%zu runs=%zu sizing_s=%.4f\n",
              p.label.c_str(), p.threads, p.runs.size(), p.sizing_s());
  for (const RunRecord& r : p.runs)
    std::printf("  seed %20llu  wall %8.4f s  sim %8.4f s  rss %7.2f MB  "
                "sims %4zu  failed %3zu  best %.6g\n",
                static_cast<unsigned long long>(r.seed), r.wall_s,
                r.sim_busy_s, r.peak_rss_mb, r.candidates, r.failed,
                r.result.trace.back());
}

int fail(const std::string& why) {
  std::fprintf(stderr, "sizing_bench: CHECK FAILED: %s\n", why.c_str());
  std::fflush(stdout);
  return 3;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  const pb::Workload* w = pb::find_workload(a.workload);
  if (w == nullptr) usage(("unknown workload " + a.workload).c_str());

  const std::size_t n_threads = kato::util::thread_count();
  pb::SpanLog log;
  log.set_enabled(a.trace);
  log.set_lane(1);
  const int workload_span = log.open("workload");
  const Setup s = set_up(*w, a.seed, log);
  log.set_enabled(false);
  if (a.setup_only) {
    std::printf("%s\n", Obj().num("setup_s", s.setup_s).take().c_str());
    return 0;
  }

  const long n_runs = std::max(
      1L, std::lround(a.seconds * w->runs_per_second / (a.trace ? 4.0 : 1.0)));
  std::vector<std::uint64_t> seeds;
  for (long i = 0; i < n_runs; ++i)
    seeds.push_back(pb::derive_seed(a.seed, 1 + static_cast<std::uint64_t>(i)));

  std::vector<Pass> passes;
  passes.emplace_back("untraced", n_threads, false, 0);
  if (a.trace) {
    passes.emplace_back("traced", n_threads, true, 1);
    passes.emplace_back("traced_1t", 1, true, 2);
    // One discarded run keeps first-run effects out of the comparisons.
    (void)kato::bo::run_constrained(*s.target, kato::bo::ConstrainedMethod::kato,
                                    w->config, seeds[0],
                                    s.source ? &*s.source : nullptr);
  }
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    // Traced and untraced runs of a seed go back to back, alternating which
    // goes first, so drift in machine speed cancels in obs.trace_overhead.
    if (a.trace && i % 2 == 1) run_one(*w, s, i, seeds[i], log, passes[1]);
    run_one(*w, s, i, seeds[i], log, passes[0]);
    if (a.trace && i % 2 == 0) run_one(*w, s, i, seeds[i], log, passes[1]);
  }
  if (a.trace) {
    for (std::size_t i = 0; i < seeds.size(); ++i)
      run_one(*w, s, i, seeds[i], log, passes[2]);
    set_threads(n_threads);
  }
  log.set_enabled(a.trace);
  log.close(workload_span);

  for (const Pass& p : passes) print_pass(p);
  for (const Pass& p : passes)
    for (const RunRecord& r : p.runs)
      if (auto why = check_run(*w, *s.target, r); !why.empty())
        return fail(p.label + " pass, " + why);
  for (std::size_t i = 1; i < passes.size(); ++i)
    if (auto why = check_same(passes[0], passes[i]); !why.empty())
      return fail(why);

  const Pass& main_pass = passes[0];
  std::size_t candidates = 0;
  std::size_t failed = 0;
  for (const RunRecord& r : main_pass.runs) {
    candidates += r.candidates;
    failed += r.failed;
  }

  Obj metrics;
  auto metric = [&](const std::string& name, double v, const std::string& unit) {
    metrics.raw(name, Obj().num("value", v).str("unit", unit).take());
  };
  std::string trace_file;
  if (!a.trace) {
    metric("setup_s", s.setup_s, "s");
    metric("sizing_s", main_pass.sizing_s(), "s");
    // One sizing run from a freshly set-up process: the resident set the
    // first run starts from (set-up: program, circuit, device tables,
    // source) plus the mean peak growth of a run.  Growth is measured per
    // run so that memory one run leaves fragmented in the allocator does
    // not count against the runs after it.
    double growth = 0.0;
    for (const RunRecord& r : main_pass.runs)
      growth += r.peak_rss_mb - r.rss_start_mb;
    metric("peak_rss_mb",
           main_pass.runs.front().rss_start_mb +
               growth / static_cast<double>(main_pass.runs.size()),
           "MB");
  } else {
    std::printf("per-layer (per sizing run unless a ratio or percentile):\n");
    for (const Metric& pm : per_layer(s, passes[0], passes[1], passes[2], log)) {
      std::printf("  %-24s %14.6g %s\n", pm.name.c_str(), pm.value, pm.unit);
      metric(pm.name, pm.value, pm.unit);
    }
    trace_file = a.out + "/trace_" + w->name + "_seed" +
                 std::to_string(a.seed) + ".json";
    if (!log.write_chrome_trace(trace_file))
      return fail("cannot write trace file " + trace_file);
    std::printf("spans written to %s\n", trace_file.c_str());
  }

  std::string runs_json = "[";
  for (const RunRecord& r : main_pass.runs) {
    if (runs_json.size() > 1) runs_json += ", ";
    runs_json += Obj().uint("bo_seed", r.seed)
                     .num("wall_s", r.wall_s)
                     .num("rss_start_mb", r.rss_start_mb)
                     .num("peak_rss_mb", r.peak_rss_mb)
                     .uint("sims", r.candidates)
                     .uint("failed", r.failed)
                     .num("best", r.result.trace.back())
                     .take();
  }
  runs_json += "]";

  Obj out;
  out.raw("correct", "true")
      .uint("attempted", main_pass.runs.size())
      .uint("failed", 0)
      .raw("metrics", metrics.take())
      .num("fail_share",
           static_cast<double>(failed) / static_cast<double>(candidates))
      .str("workload", w->name)
      .uint("source_seed", w->transfer() ? pb::derive_seed(a.seed, 0) : 0)
      .raw("runs", runs_json)
      .raw("env", env_json(a));
  if (!trace_file.empty()) out.str("trace_file", trace_file);
  std::printf("%s\n", out.take().c_str());
  return 0;
}
