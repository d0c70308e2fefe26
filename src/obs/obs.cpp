#include "obs/obs.hpp"

#include <bit>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <mutex>
#include <ostream>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/journal.hpp"

namespace kato::obs {

namespace {

/// Registry field table: keeps SimStats members, their JSON names and the
/// atomic totals in one place so merge/dump/lookup cannot drift apart.
struct SimField {
  const char* name;
  std::uint64_t SimStats::*member;
};

constexpr SimField k_sim_fields[] = {
    {"newton_solves", &SimStats::newton_solves},
    {"newton_iters", &SimStats::newton_iters},
    {"damping_clamps", &SimStats::damping_clamps},
    {"gmin_rungs", &SimStats::gmin_rungs},
    {"dc_restarts", &SimStats::dc_restarts},
    {"dc_homotopy_escalations", &SimStats::dc_homotopy_escalations},
    {"dc_pseudo_transients", &SimStats::dc_pseudo_transients},
    {"lu_first_factors", &SimStats::lu_first_factors},
    {"lu_refactors", &SimStats::lu_refactors},
    {"lu_pivot_fallbacks", &SimStats::lu_pivot_fallbacks},
    {"ac_points", &SimStats::ac_points},
    {"ac_refactors", &SimStats::ac_refactors},
    {"tran_steps_accepted", &SimStats::tran_steps_accepted},
    {"tran_steps_rejected", &SimStats::tran_steps_rejected},
    {"tran_be_steps", &SimStats::tran_be_steps},
    {"tran_newton_rejects", &SimStats::tran_newton_rejects},
    {"tran_stepfloor_restarts", &SimStats::tran_stepfloor_restarts},
    {"tran_device_fallbacks", &SimStats::tran_device_fallbacks},
    {"deadline_kills", &SimStats::deadline_kills},
    {"device_table_hits", &SimStats::device_table_hits},
    {"device_table_misses", &SimStats::device_table_misses},
    {"device_table_evictions", &SimStats::device_table_evictions},
};
constexpr std::size_t k_n_sim = sizeof(k_sim_fields) / sizeof(k_sim_fields[0]);

constexpr const char* k_bo_names[] = {
    "gp_fits",   "gp_fit_iters", "gp_warm_starts",    "proposal_batches",
    "proposals", "evals",        "eval_failures",     "fail_dc",
    "fail_ac",   "fail_tran",    "fail_measure",      "gp_jitter_retries",
    "faults_injected",
};
constexpr std::size_t k_n_bo = static_cast<std::size_t>(BoCounter::count_);
static_assert(sizeof(k_bo_names) / sizeof(k_bo_names[0]) == k_n_bo);

/// Process-wide counter registry.  Leaked (never destroyed) so per-thread
/// buffer destructors and late increments can touch it at any point of
/// static teardown without ordering hazards.
struct Registry {
  std::atomic<std::uint64_t> sim[k_n_sim] = {};
  std::atomic<std::uint64_t> bo[k_n_bo] = {};
  std::optional<std::string> sink;  ///< parsed KATO_STATS, set at startup
};

Registry* registry() {
  static Registry* r = new Registry;
  return r;
}

// --- Histogram state -------------------------------------------------------

constexpr std::size_t k_n_stages = static_cast<std::size_t>(Stage::count_);
constexpr const char* k_stage_names[k_n_stages] = {
    "dc", "ac", "tran", "eval", "gp_fit", "acquisition", "kat_fit",
};

/// 2^(i/12) for i in 0..11: the geometric sub-bucket boundaries inside one
/// octave, written out as literals so bucketing never calls libm (exp2/log2
/// may differ across libm builds; constants plus IEEE compares cannot).
constexpr double k_sub_bounds[k_hist_sub] = {
    1.0,
    1.0594630943592953,
    1.122462048309373,
    1.189207115002721,
    1.2599210498948732,
    1.3348398541700344,
    1.4142135623730951,
    1.4983070768766815,
    1.5874010519681994,
    1.681792830507429,
    1.7817974362806785,
    1.8877486253633868,
};

struct HistShard;

/// Shared histogram state, leaked like the registry.  `retired` holds the
/// totals of shards whose threads have exited; live shards are summed on
/// top at snapshot time.
struct HistState {
  std::mutex mu;
  std::vector<HistShard*> shards;
  std::uint64_t retired[k_n_stages][k_hist_buckets] = {};
  std::uint64_t retired_sum[k_n_stages] = {};
};

HistState* hist_state() {
  static HistState* h = new HistState;
  return h;
}

thread_local HistShard* t_hist_ptr = nullptr;

/// Per-thread histogram shard: written only by its owner with relaxed
/// load+store pairs (a plain add on the owning core), read by snapshots
/// under the state mutex.  Registration mirrors ThreadBuf.
struct HistShard {
  std::atomic<std::uint64_t> cell[k_n_stages][k_hist_buckets] = {};
  std::atomic<std::uint64_t> sum[k_n_stages] = {};

  HistShard() {
    HistState* h = hist_state();
    std::lock_guard<std::mutex> lock(h->mu);
    h->shards.push_back(this);
    t_hist_ptr = this;
  }

  ~HistShard() {
    HistState* h = hist_state();
    std::lock_guard<std::mutex> lock(h->mu);
    for (std::size_t s = 0; s < k_n_stages; ++s) {
      for (int b = 0; b < k_hist_buckets; ++b)
        h->retired[s][b] += cell[s][b].load(std::memory_order_relaxed);
      h->retired_sum[s] += sum[s].load(std::memory_order_relaxed);
    }
    for (auto it = h->shards.begin(); it != h->shards.end(); ++it)
      if (*it == this) {
        h->shards.erase(it);
        break;
      }
    t_hist_ptr = nullptr;
  }
};

HistShard& local_hist() {
  if (t_hist_ptr != nullptr) return *t_hist_ptr;
  thread_local HistShard shard;
  return shard;
}

// --- Trace state -----------------------------------------------------------

/// One recorded event.  `name` must point at a string literal.
struct TraceEvent {
  const char* name;
  std::uint64_t t0;  ///< ns, steady clock
  std::uint64_t t1;  ///< ns; == t0 for counter samples
  double value;      ///< counter samples only
  std::uint32_t tid;
  char ph;  ///< 'X' complete span, 'C' counter
};

struct ThreadBuf;

/// Shared tracer state, leaked for the same teardown-ordering reason as the
/// registry.  `mu` guards everything except the owning-thread appends to a
/// ThreadBuf's event vector (see the quiescence contract in obs.hpp).
struct TraceState {
  std::mutex mu;
  std::vector<TraceEvent> events;           ///< flushed/collected events
  std::vector<ThreadBuf*> bufs;             ///< live per-thread buffers
  std::vector<std::pair<std::uint32_t, std::string>> thread_names;
  std::string path;
  std::uint64_t t0 = 0;         ///< session start, ns
  std::uint32_t next_tid = 0;   ///< 0 is reserved for process-scope counters
  std::size_t flush_cap = 1 << 16;  ///< per-thread events before a flush
  std::size_t max_events = 1 << 22; ///< global cap; beyond it events drop
  std::uint64_t dropped = 0;
  bool session = false;          ///< between trace_begin and trace_end
  bool dump_at_exit = false;     ///< session came from KATO_TRACE
};

TraceState* trace_state() {
  static TraceState* s = new TraceState;
  return s;
}

thread_local std::string t_thread_name;
thread_local ThreadBuf* t_buf_ptr = nullptr;

/// Per-thread event buffer: registered under the state mutex on first use,
/// appended lock-free by its owner, spliced out under the mutex when full,
/// at thread exit, and at trace_end().
struct ThreadBuf {
  std::vector<TraceEvent> ev;
  std::uint32_t tid = 0;
  /// Snapshot of TraceState::flush_cap, kept here so the per-event hot path
  /// touches only this buffer.  Updated under the state mutex (trace_begin /
  /// the test hook), read unlocked by the owner — both writers run while no
  /// thread is emitting (the quiescence contract).
  std::size_t flush_cap = 1 << 16;

  ThreadBuf() {
    TraceState* s = trace_state();
    std::lock_guard<std::mutex> lock(s->mu);
    tid = ++s->next_tid;
    flush_cap = s->flush_cap;
    ev.reserve(flush_cap < 4096 ? flush_cap : 4096);
    s->bufs.push_back(this);
    if (!t_thread_name.empty()) s->thread_names.emplace_back(tid, t_thread_name);
    t_buf_ptr = this;
  }

  ~ThreadBuf() {
    TraceState* s = trace_state();
    std::lock_guard<std::mutex> lock(s->mu);
    splice_locked(*s);
    for (auto it = s->bufs.begin(); it != s->bufs.end(); ++it)
      if (*it == this) {
        s->bufs.erase(it);
        break;
      }
    t_buf_ptr = nullptr;
  }

  /// Move this buffer's events into the shared store (mutex held).
  void splice_locked(TraceState& s) {
    for (auto& e : ev) {
      if (s.events.size() >= s.max_events) {
        s.dropped += 1;
        continue;
      }
      s.events.push_back(e);
    }
    ev.clear();
  }
};

ThreadBuf& local_buf() {
  // Fast path: a plain thread_local pointer read, no init-guard branch —
  // this sits under every event on the tran per-timestep ticker.
  if (t_buf_ptr != nullptr) return *t_buf_ptr;
  thread_local ThreadBuf buf;
  return buf;
}

void push_event(TraceEvent e) {
  ThreadBuf& b = local_buf();
  e.tid = b.tid;
  b.ev.push_back(e);
  if (b.ev.size() >= b.flush_cap) {
    TraceState* s = trace_state();
    std::lock_guard<std::mutex> lock(s->mu);
    b.splice_locked(*s);
  }
}

void write_trace_json_locked(TraceState& s, std::size_t n_events) {
  std::ostream* os = &std::cout;
  std::ofstream file;
  if (s.path != "-") {
    file.open(s.path, std::ios::trunc);
    if (!file) {
      std::fprintf(stderr, "KATO_TRACE: cannot write '%s'; trace dropped\n",
                   s.path.c_str());
      return;
    }
    os = &file;
  }
  char buf[192];
  *os << "{\"traceEvents\":[\n";
  bool first = true;
  auto emit = [&](const char* text) {
    if (!first) *os << ",\n";
    first = false;
    *os << text;
  };
  for (const auto& [tid, name] : s.thread_names) {
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0,\"pid\":1,"
                  "\"tid\":%u,\"args\":{\"name\":\"%s\"}}",
                  tid, name.c_str());
    emit(buf);
  }
  for (std::size_t i = 0; i < n_events; ++i) {
    const TraceEvent& e = s.events[i];
    const double ts = static_cast<double>(e.t0 - s.t0) / 1000.0;
    if (e.ph == 'C') {
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"%s\",\"ph\":\"C\",\"ts\":%.3f,\"pid\":1,"
                    "\"tid\":%u,\"args\":{\"value\":%g}}",
                    e.name, ts, e.tid, e.value);
    } else {
      const double dur = static_cast<double>(e.t1 - e.t0) / 1000.0;
      std::snprintf(buf, sizeof(buf),
                    "{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                    "\"pid\":1,\"tid\":%u}",
                    e.name, ts, dur, e.tid);
    }
    emit(buf);
  }
  *os << "\n],\"displayTimeUnit\":\"ms\"";
  if (s.dropped > 0) *os << ",\"droppedEventCount\":" << s.dropped;
  *os << "}\n";
}

/// Startup/teardown hook: parses KATO_STATS/KATO_TRACE before main() runs
/// (no other translation unit calls into obs during static initialization)
/// and dumps at static destruction.  Function-local statics constructed
/// during main — the thread pool included — are destroyed before this, so
/// worker buffers are flushed by the time the final trace is written.
struct ObsBoot {
  ObsBoot() {
    registry()->sink = sink_from_env("KATO_STATS");
    if (auto path = sink_from_env("KATO_TRACE")) {
      trace_begin(*path);
      trace_state()->dump_at_exit = true;
    }
    if (auto path = sink_from_env("KATO_RUN_LOG")) journal_begin(*path);
  }
  ~ObsBoot() {
    journal_end();  // no-op unless a session is open
    if (trace_state()->dump_at_exit) trace_end();
    const auto& sink = registry()->sink;
    if (!sink) return;
    if (*sink == "-") {
      stats_write_json(std::cout);
      std::cout.flush();
    } else {
      std::ofstream os(*sink, std::ios::trunc);
      if (!os)
        std::fprintf(stderr, "KATO_STATS: cannot write '%s'; stats dropped\n",
                     sink->c_str());
      else
        stats_write_json(os);
    }
  }
};
ObsBoot g_boot;

}  // namespace

void SimStats::merge(const SimStats& o) {
  for (const auto& f : k_sim_fields) this->*(f.member) += o.*(f.member);
}

void bo_count(BoCounter c, std::uint64_t n) {
  registry()->bo[static_cast<int>(c)].fetch_add(n, std::memory_order_relaxed);
}

void record_sim(const SimStats& s) {
  Registry* r = registry();
  for (std::size_t i = 0; i < k_n_sim; ++i) {
    const std::uint64_t v = s.*(k_sim_fields[i].member);
    if (v != 0) r->sim[i].fetch_add(v, std::memory_order_relaxed);
  }
}

bool stats_enabled() { return registry()->sink.has_value(); }

void stats_write_json(std::ostream& os) {
  Registry* r = registry();
  os << "{\n";
  for (std::size_t i = 0; i < k_n_sim; ++i)
    os << "  \"" << k_sim_fields[i].name
       << "\": " << r->sim[i].load(std::memory_order_relaxed) << ",\n";
  for (std::size_t i = 0; i < k_n_bo; ++i)
    os << "  \"" << k_bo_names[i]
       << "\": " << r->bo[i].load(std::memory_order_relaxed) << ",\n";
  // Per-stage latency summaries: exact bucket-quantiles of the merged
  // histogram, in the same flat namespace so every consumer of this dump
  // (CI's json.load check, kato_report, stats_value-style greps) keeps
  // working with plain key lookups.
  for (std::size_t s = 0; s < k_n_stages; ++s) {
    const HistSnapshot h = hist_snapshot(static_cast<Stage>(s));
    const char* name = k_stage_names[s];
    os << "  \"hist_" << name << "_count\": " << h.count << ",\n"
       << "  \"hist_" << name << "_sum_ns\": " << h.sum_ns << ",\n"
       << "  \"hist_" << name << "_p50_ns\": " << h.quantile_ns(0.50)
       << ",\n"
       << "  \"hist_" << name << "_p90_ns\": " << h.quantile_ns(0.90)
       << ",\n"
       << "  \"hist_" << name << "_p99_ns\": " << h.quantile_ns(0.99)
       << (s + 1 < k_n_stages ? ",\n" : "\n");
  }
  os << "}\n";
}

std::uint64_t stats_value(const char* name) {
  Registry* r = registry();
  const std::string_view key(name);
  for (std::size_t i = 0; i < k_n_sim; ++i)
    if (key == k_sim_fields[i].name)
      return r->sim[i].load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < k_n_bo; ++i)
    if (key == k_bo_names[i]) return r->bo[i].load(std::memory_order_relaxed);
  return 0;
}

void stats_reset() {
  Registry* r = registry();
  for (auto& a : r->sim) a.store(0, std::memory_order_relaxed);
  for (auto& a : r->bo) a.store(0, std::memory_order_relaxed);
  HistState* h = hist_state();
  std::lock_guard<std::mutex> lock(h->mu);
  for (std::size_t s = 0; s < k_n_stages; ++s) {
    for (int b = 0; b < k_hist_buckets; ++b) h->retired[s][b] = 0;
    h->retired_sum[s] = 0;
  }
  for (HistShard* sh : h->shards)
    for (std::size_t s = 0; s < k_n_stages; ++s) {
      for (int b = 0; b < k_hist_buckets; ++b)
        sh->cell[s][b].store(0, std::memory_order_relaxed);
      sh->sum[s].store(0, std::memory_order_relaxed);
    }
}

// --- Latency histograms ----------------------------------------------------

const char* stage_name(Stage s) {
  return k_stage_names[static_cast<std::size_t>(s)];
}

int hist_bucket_index(std::uint64_t ns) {
  if (ns == 0) return 0;
  const int octave = 63 - std::countl_zero(ns);
  // ratio in [1, 2): exact for ns < 2^53; above that the double rounding is
  // still a pure function of ns, which is all determinism needs.
  const double ratio = static_cast<double>(ns) /
                       static_cast<double>(std::uint64_t{1} << octave);
  int sub = k_hist_sub - 1;
  while (sub > 0 && ratio < k_sub_bounds[sub]) --sub;
  return octave * k_hist_sub + sub;
}

std::uint64_t hist_bucket_lower_ns(int bucket) {
  const int octave = bucket / k_hist_sub;
  const int sub = bucket % k_hist_sub;
  const double lower =
      static_cast<double>(std::uint64_t{1} << octave) * k_sub_bounds[sub];
  // The top octave's upper sub-buckets exceed 2^64 ns (>580 years); clamp
  // instead of hitting an out-of-range double->integer conversion.
  if (lower >= 18446744073709551615.0) return ~std::uint64_t{0};
  return static_cast<std::uint64_t>(lower);
}

void hist_record(Stage s, std::uint64_t ns) {
  HistShard& h = local_hist();
  const std::size_t si = static_cast<std::size_t>(s);
  auto& cell = h.cell[si][hist_bucket_index(ns)];
  cell.store(cell.load(std::memory_order_relaxed) + 1,
             std::memory_order_relaxed);
  auto& sum = h.sum[si];
  sum.store(sum.load(std::memory_order_relaxed) + ns,
            std::memory_order_relaxed);
}

HistSnapshot hist_snapshot(Stage s) {
  HistSnapshot out;
  HistState* h = hist_state();
  const std::size_t si = static_cast<std::size_t>(s);
  std::lock_guard<std::mutex> lock(h->mu);
  for (int b = 0; b < k_hist_buckets; ++b) out.buckets[b] = h->retired[si][b];
  out.sum_ns = h->retired_sum[si];
  for (HistShard* sh : h->shards) {
    for (int b = 0; b < k_hist_buckets; ++b)
      out.buckets[b] += sh->cell[si][b].load(std::memory_order_relaxed);
    out.sum_ns += sh->sum[si].load(std::memory_order_relaxed);
  }
  for (int b = 0; b < k_hist_buckets; ++b) out.count += out.buckets[b];
  return out;
}

std::uint64_t HistSnapshot::quantile_ns(double q) const {
  if (count == 0) return 0;
  const double rd = q * static_cast<double>(count);
  std::uint64_t rank = static_cast<std::uint64_t>(rd);
  if (static_cast<double>(rank) < rd) ++rank;  // ceil
  if (rank < 1) rank = 1;
  if (rank > count) rank = count;
  std::uint64_t cum = 0;
  for (int b = 0; b < k_hist_buckets; ++b) {
    cum += buckets[b];
    if (cum >= rank) return hist_bucket_lower_ns(b);
  }
  return hist_bucket_lower_ns(k_hist_buckets - 1);
}

void expose_metrics(std::ostream& os) {
  Registry* r = registry();
  const auto counter = [&os](const char* name, std::uint64_t v) {
    os << "# TYPE kato_" << name << "_total counter\n"
       << "kato_" << name << "_total " << v << "\n";
  };
  for (std::size_t i = 0; i < k_n_sim; ++i)
    counter(k_sim_fields[i].name, r->sim[i].load(std::memory_order_relaxed));
  for (std::size_t i = 0; i < k_n_bo; ++i)
    counter(k_bo_names[i], r->bo[i].load(std::memory_order_relaxed));
  os << "# TYPE kato_stage_latency_seconds histogram\n";
  char le[48];
  for (std::size_t s = 0; s < k_n_stages; ++s) {
    const HistSnapshot h = hist_snapshot(static_cast<Stage>(s));
    const char* name = k_stage_names[s];
    // Cumulative series over the occupied buckets only (sparse exposition
    // is legal as long as `le` increases); `le` is each bucket's upper
    // bound, i.e. the next bucket's lower bound, in seconds.
    std::uint64_t cum = 0;
    for (int b = 0; b < k_hist_buckets; ++b) {
      if (h.buckets[b] == 0) continue;
      cum += h.buckets[b];
      if (b + 1 < k_hist_buckets) {
        std::snprintf(le, sizeof(le), "%.9g",
                      static_cast<double>(hist_bucket_lower_ns(b + 1)) / 1e9);
        os << "kato_stage_latency_seconds_bucket{stage=\"" << name
           << "\",le=\"" << le << "\"} " << cum << "\n";
      }
    }
    os << "kato_stage_latency_seconds_bucket{stage=\"" << name
       << "\",le=\"+Inf\"} " << h.count << "\n";
    std::snprintf(le, sizeof(le), "%.9g",
                  static_cast<double>(h.sum_ns) / 1e9);
    os << "kato_stage_latency_seconds_sum{stage=\"" << name << "\"} " << le
       << "\n"
       << "kato_stage_latency_seconds_count{stage=\"" << name << "\"} "
       << h.count << "\n";
  }
}

std::optional<std::string> parse_sink_path(const char* value) {
  if (value == nullptr || *value == '\0') return std::nullopt;
  const std::string s(value);
  // Full-string discipline (KATO_SEEDS precedent): a path with leading or
  // trailing whitespace is a shell-quoting accident, not a request — reject
  // the whole value instead of trimming a guess out of it.
  const auto is_space = [](char c) {
    return c == ' ' || c == '\t' || c == '\n' || c == '\r';
  };
  if (is_space(s.front()) || is_space(s.back())) return std::nullopt;
  return s;
}

std::optional<std::string> sink_from_env(const char* var) {
  const char* value = std::getenv(var);
  if (value == nullptr) return std::nullopt;
  auto parsed = parse_sink_path(value);
  if (!parsed)
    std::fprintf(stderr,
                 "%s: ignoring unusable path '%s' (empty or surrounded by "
                 "whitespace); feature disabled\n",
                 var, value);
  return parsed;
}

// --- Tracer ----------------------------------------------------------------

namespace detail {

std::atomic<bool> g_trace_on{false};
#if defined(__x86_64__)
std::uint64_t g_tsc_t0 = 0;
std::uint64_t g_tsc_ns0 = 0;
double g_tsc_ns_per_tick = 0.0;
#endif

void push_span(const char* name, std::uint64_t t0_ns, std::uint64_t t1_ns) {
  push_event(TraceEvent{name, t0_ns, t1_ns, 0.0, 0, 'X'});
}

void push_span_batch(const SpanMark* marks, std::size_t n,
                     std::uint64_t t0_ns) {
  ThreadBuf& b = local_buf();
  b.ev.reserve(b.ev.size() + n);
  for (std::size_t i = 0; i < n; ++i) {
    b.ev.push_back(TraceEvent{marks[i].name, t0_ns, marks[i].t_ns, 0.0,
                              b.tid, 'X'});
    t0_ns = marks[i].t_ns;
  }
  if (b.ev.size() >= b.flush_cap) {
    TraceState* s = trace_state();
    std::lock_guard<std::mutex> lock(s->mu);
    b.splice_locked(*s);
  }
}

void push_counter(const char* name, double value) {
  const std::uint64_t now = trace_now_ns();
  push_event(TraceEvent{name, now, now, value, 0, 'C'});
}

}  // namespace detail

#if defined(__x86_64__)
/// One-time TSC-vs-steady_clock calibration over a ~2 ms spin.  Runs inside
/// the first trace_begin() — before the session flag is published, so no
/// emitter ever reads an uncalibrated conversion — and only when a session
/// actually starts (untraced processes never pay the spin).
void calibrate_tsc_locked() {
  if (detail::g_tsc_ns_per_tick != 0.0) return;
  const auto steady_ns = [] {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  };
  const std::uint64_t tsc_a = __builtin_ia32_rdtsc();
  const std::uint64_t ns_a = steady_ns();
  std::uint64_t ns_b = ns_a;
  while (ns_b - ns_a < 2000000) ns_b = steady_ns();
  const std::uint64_t tsc_b = __builtin_ia32_rdtsc();
  if (tsc_b <= tsc_a) return;  // non-invariant TSC: keep steady_clock
  detail::g_tsc_t0 = tsc_a;
  detail::g_tsc_ns0 = ns_a;
  detail::g_tsc_ns_per_tick =
      static_cast<double>(ns_b - ns_a) / static_cast<double>(tsc_b - tsc_a);
}
#endif

void trace_begin(const std::string& path) {
  TraceState* s = trace_state();
  {
    std::lock_guard<std::mutex> lock(s->mu);
#if defined(__x86_64__)
    calibrate_tsc_locked();
#endif
    s->events.clear();
    for (ThreadBuf* b : s->bufs) {
      b->ev.clear();
      b->flush_cap = s->flush_cap;
    }
    s->path = path;
    s->t0 = trace_now_ns();
    s->dropped = 0;
    s->session = true;
  }
  // Release pairs with trace_enabled()'s acquire: an emitter that sees the
  // flag also sees the calibration and the session state above.
  detail::g_trace_on.store(true, std::memory_order_release);
}

std::size_t trace_end() {
  TraceState* s = trace_state();
  detail::g_trace_on.store(false, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(s->mu);
  if (!s->session) return 0;
  for (ThreadBuf* b : s->bufs) b->splice_locked(*s);
  const std::size_t n = s->events.size();
  write_trace_json_locked(*s, n);
  s->events.clear();
  s->session = false;
  s->dump_at_exit = false;
  return n;
}

void trace_pause() {
  detail::g_trace_on.store(false, std::memory_order_relaxed);
}

void trace_resume() {
  if (trace_state()->session)
    detail::g_trace_on.store(true, std::memory_order_release);
}

void name_this_thread(std::string name) {
  t_thread_name = std::move(name);
  // If this thread already registered a buffer, label it now; otherwise
  // ThreadBuf's constructor picks the name up with the first event.
  if (t_buf_ptr != nullptr) {
    TraceState* s = trace_state();
    std::lock_guard<std::mutex> lock(s->mu);
    s->thread_names.emplace_back(t_buf_ptr->tid, t_thread_name);
  }
}

void set_trace_buffer_capacity_for_test(std::size_t cap) {
  TraceState* s = trace_state();
  std::lock_guard<std::mutex> lock(s->mu);
  s->flush_cap = cap == 0 ? 1 : cap;
  for (ThreadBuf* b : s->bufs) b->flush_cap = s->flush_cap;
}

}  // namespace kato::obs
