#pragma once
// Runtime observability: solver/BO counters and a scoped-span tracer.
//
// The BO driver cannot schedule, overlap or cache evaluation work it cannot
// measure, so this subsystem gives every layer of the stack a way to report
// what it did without perturbing what it computes:
//
//   * SimStats — plain per-analysis counters (Newton iterations, damping
//     clamps, LU first-factor vs numeric-refactor vs pivot-fallback, AC
//     refactors, transient accept/reject/BE, device-table cache hits).
//     Accumulated as ordinary integer adds next to the arithmetic they
//     describe — they never feed back into it, so every instrumented path
//     stays bit-identical to the uninstrumented one (pinned by obs_test).
//     DcResult/TranResult/AcSweep carry them per analysis;
//     NetlistCircuit::evaluate_single merges them per evaluation and folds
//     the total into a process-wide registry of relaxed atomics.  The
//     registry also holds the BO-side phase counters (GP fits and their
//     gradient iterations, warm-started refits, proposal batch sizes).
//     KATO_STATS=<path|-> dumps the registry as flat JSON at process exit.
//
//   * Tracer — scoped spans ("dc", "gp_fit", "pool_chunk", ...) recorded
//     into per-thread buffers and written as Chrome trace-event JSON
//     (chrome://tracing / Perfetto) when KATO_TRACE=<path> is set.  The
//     hot-path guard is one relaxed atomic load; with tracing off a span is
//     a null pointer store and nothing else.  Span names must be string
//     literals (the buffer stores the pointer).
//
//   * Latency histograms — always-on log2-bucketed duration histograms per
//     pipeline stage (dc/ac/tran/eval/gp_fit/acquisition/kat_fit), recorded
//     by the KATO_OBS_STAGE scoped timer, summarized as exact
//     bucket-quantiles in the KATO_STATS dump and as a Prometheus text
//     snapshot via expose_metrics().  See the "Latency histograms" section below.
//
//   The run journal (KATO_RUN_LOG, per-BO-iteration JSONL) lives in the
//   sibling header obs/journal.hpp.
//
// Both environment variables follow the KATO_SEEDS full-string discipline:
// an unset variable disables the feature silently, a set-but-unusable value
// (empty, or with leading/trailing whitespace) disables it with a one-line
// stderr warning instead of guessing at a path.
//
// Threading: per-thread trace buffers are appended without locks by their
// owning thread and spliced into the shared store under a mutex when full,
// at thread exit, and at trace_end(); trace_end()/trace_begin() themselves
// must be called while no other thread is emitting events (the pool is
// parked between parallel_for calls, so every call site in the repo
// satisfies this).  The registry is relaxed atomics and needs no such care.

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>

namespace kato::obs {

/// Counters for one MNA analysis (one DC solve, transient run or AC sweep),
/// merged upward into per-evaluation totals and the process registry.  All
/// counters are value-free observers: incrementing them never reorders or
/// changes a floating-point operation.
struct SimStats {
  // Newton (DC rungs and transient corrector solves alike).
  std::uint64_t newton_solves = 0;    ///< newton() invocations
  std::uint64_t newton_iters = 0;     ///< total iterations across solves
  std::uint64_t damping_clamps = 0;   ///< iterations where max_step clamped
  std::uint64_t gmin_rungs = 0;       ///< continuation rungs walked
  std::uint64_t dc_restarts = 0;      ///< cold restarts at the first rung
  // DC recovery ladder (escalations past the gmin ladder).
  std::uint64_t dc_homotopy_escalations = 0;  ///< source-stepping runs
  std::uint64_t dc_pseudo_transients = 0;     ///< pseudo-transient fallbacks
  // Linear solves.  First/refactor split both paths: the dense path counts
  // each full LU as a refactor after its first, the sparse path counts
  // in-place numeric refactorizations; pivot fallbacks (a refactor that had
  // to re-pivot) exist only on the sparse path.
  std::uint64_t lu_first_factors = 0;
  std::uint64_t lu_refactors = 0;
  std::uint64_t lu_pivot_fallbacks = 0;
  // AC sweep.
  std::uint64_t ac_points = 0;        ///< frequency points solved
  std::uint64_t ac_refactors = 0;     ///< sparse numeric refactors after the first
  // Transient step control.
  std::uint64_t tran_steps_accepted = 0;
  std::uint64_t tran_steps_rejected = 0;  ///< LTE rejections
  std::uint64_t tran_be_steps = 0;        ///< steps integrated with backward Euler
  std::uint64_t tran_newton_rejects = 0;  ///< step retries after Newton failure
  // Transient recovery ladder.
  std::uint64_t tran_stepfloor_restarts = 0;  ///< hmin cuts + BE restarts
  std::uint64_t tran_device_fallbacks = 0;    ///< table -> analytic rebuilds
  // Deadline enforcement (KATO_EVAL_DEADLINE_MS): analyses killed because
  // the candidate's wall-clock budget ran out.
  std::uint64_t deadline_kills = 0;
  // Device-table cache (per-assembler lookups at construction).
  std::uint64_t device_table_hits = 0;
  std::uint64_t device_table_misses = 0;
  std::uint64_t device_table_evictions = 0;  ///< LRU evictions on a miss

  /// Field-wise sum of `o` into *this.
  void merge(const SimStats& o);
};

/// BO-side phase counters held only in the process registry (the BO loop
/// has no per-evaluation result struct to carry them).
enum class BoCounter : int {
  gp_fits,           ///< GaussianProcess::fit calls
  gp_fit_iters,      ///< LML gradient iterations actually run
  gp_warm_starts,    ///< surrogate refits warm-started from a previous fit
  proposal_batches,  ///< simulate_batch calls issued by the drivers
  proposals,         ///< candidate designs across those batches
  evals,             ///< NetlistCircuit single-condition evaluations
  eval_failures,     ///< ... that ended infeasible/non-converged
  // Failure-reason breakdown: which stage an evaluation died in.  Summed
  // they equal eval_failures; kato_report turns them into the per-stage
  // failure table.
  fail_dc,       ///< DC operating point did not converge
  fail_ac,       ///< AC sweep failed after a good DC point
  fail_tran,     ///< transient run failed after a good DC point
  fail_measure,  ///< simulation finished but a measurement was unusable
  // Robustness layer (src/util/fault.hpp).
  gp_jitter_retries,  ///< GP Cholesky factorizations that needed jitter
  faults_injected,    ///< KATO_FAULT firings across all sites
  count_
};

/// Add `n` to one registry counter (relaxed; callable from any thread).
void bo_count(BoCounter c, std::uint64_t n = 1);

/// Fold one evaluation's SimStats into the process registry (relaxed).
void record_sim(const SimStats& s);

/// True when KATO_STATS parsed to a usable sink (the registry always
/// accumulates; this only says whether it will be dumped at exit).
bool stats_enabled();

/// Write the registry snapshot as one flat JSON object.
void stats_write_json(std::ostream& os);

/// Current value of one registry counter by its JSON name ("newton_iters",
/// "gp_fits", ...); 0 for unknown names.  Test/diagnostic hook.
std::uint64_t stats_value(const char* name);

/// Zero every registry counter (tests).
void stats_reset();

// --- Environment parsing ---------------------------------------------------

/// Strict sink-path validation: nullptr (unset), empty, or any value with
/// leading/trailing whitespace yields nullopt; everything else — including
/// "-" for stdout — is returned verbatim.  Pure (no warning, no getenv);
/// the env readers below layer the one-line stderr warning on top.
std::optional<std::string> parse_sink_path(const char* value);

/// Read environment variable `var` through parse_sink_path, warning once on
/// stderr (and returning nullopt) when it is set but unusable.  Used for
/// KATO_STATS/KATO_TRACE at startup; exposed so tests can pin the
/// discipline with setenv/unsetenv like core_test pins KATO_SEEDS.
std::optional<std::string> sink_from_env(const char* var);

// --- Tracer ----------------------------------------------------------------

/// One step-boundary mark in a batched span chain (see emit_spans).
/// `name` must be a string literal; `t_ns` is the chain's next boundary.
struct SpanMark {
  const char* name;
  std::uint64_t t_ns;
};

namespace detail {
extern std::atomic<bool> g_trace_on;
#if defined(__x86_64__)
// TSC-to-ns calibration, written once inside trace_begin() before the
// g_trace_on release-store, read (after an acquire-load of the flag) by
// every emitter: ns = g_tsc_ns0 + (rdtsc - g_tsc_t0) * g_tsc_ns_per_tick.
// Zero ns_per_tick means "not calibrated, fall back to steady_clock".
extern std::uint64_t g_tsc_t0;
extern std::uint64_t g_tsc_ns0;
extern double g_tsc_ns_per_tick;
#endif
void push_span(const char* name, std::uint64_t t0_ns, std::uint64_t t1_ns);
void push_span_batch(const SpanMark* marks, std::size_t n,
                     std::uint64_t t0_ns);
void push_counter(const char* name, double value);
}  // namespace detail

/// One load (acquire, free on x86); the only cost tracing adds to a
/// disabled hot path.  The acquire pairs with trace_begin's release-store
/// so an emitter that sees the flag also sees the clock calibration.
inline bool trace_enabled() {
  return detail::g_trace_on.load(std::memory_order_acquire);
}

/// Monotonic timestamp for manual span construction (tran's per-timestep
/// ticker reuses one call as both the end of a step and the start of the
/// next, halving the clock reads on that hot loop).  On x86-64 an active
/// trace session reads the TSC (~17 ns here vs ~34 ns for steady_clock) —
/// the invariant TSC is the kernel's own clocksource on the machines this
/// targets, and trace_begin calibrated it against steady_clock.
inline std::uint64_t trace_now_ns() {
#if defined(__x86_64__)
  if (detail::g_tsc_ns_per_tick != 0.0)
    return detail::g_tsc_ns0 +
           static_cast<std::uint64_t>(
               static_cast<double>(__builtin_ia32_rdtsc() -
                                   detail::g_tsc_t0) *
               detail::g_tsc_ns_per_tick);
#endif
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Record a complete span [t0, t1] on this thread.  No-op when disabled;
/// `name` must be a string literal (only the pointer is stored).
inline void emit_span(const char* name, std::uint64_t t0_ns,
                      std::uint64_t t1_ns) {
  if (trace_enabled()) detail::push_span(name, t0_ns, t1_ns);
}

/// Record a chain of back-to-back spans: span i covers
/// [marks[i-1].t_ns, marks[i].t_ns] (the first starts at t0_ns).  This is
/// the bulk path for the transient per-timestep ticker: recording a mark is
/// one clock read plus a push into a cache-hot local vector, and the whole
/// chain lands in the trace buffer through a single thread-local resolution
/// and flush check — emitting each step individually from the middle of the
/// simulation loop costs ~3x more per event (cold buffer lines every step).
/// No-op when disabled.
inline void emit_spans(const SpanMark* marks, std::size_t n,
                       std::uint64_t t0_ns) {
  if (n != 0 && trace_enabled()) detail::push_span_batch(marks, n, t0_ns);
}

/// Record an instantaneous counter sample (Chrome "C" event) — the pool
/// uses this for its queue-depth gauge.  No-op when disabled.
inline void trace_counter(const char* name, double value) {
  if (trace_enabled()) detail::push_counter(name, value);
}

/// Start tracing to `path` (truncating any previous session's buffers).
/// Called by startup for KATO_TRACE and by tests/benches directly.
void trace_begin(const std::string& path);

/// Flush every thread's buffer, write the Chrome trace-event JSON file and
/// disable tracing; returns the number of events written (0 when tracing
/// was not active).  Callers guarantee no concurrent emitters (see header
/// comment).
std::size_t trace_end();

/// Temporarily suppress / re-enable event capture without ending the
/// session — the traced-vs-untraced overhead bench toggles these between
/// interleaved measurement windows.
void trace_pause();
void trace_resume();

/// Label this thread in the trace (Chrome thread_name metadata).  Cheap and
/// safe to call with tracing disabled; the pool names its workers at spawn.
void name_this_thread(std::string name);

/// Shrink the per-thread buffer flush threshold so tests can force the
/// concurrent flush path without millions of events.
void set_trace_buffer_capacity_for_test(std::size_t cap);

/// Scoped span: measures construction to destruction.  With tracing
/// disabled the constructor stores one null pointer and the destructor
/// tests it — no clock reads, no buffer touch.
class TraceSpan {
 public:
  explicit TraceSpan(const char* name)
      : name_(trace_enabled() ? name : nullptr),
        t0_(name_ != nullptr ? trace_now_ns() : 0) {}
  ~TraceSpan() {
    if (name_ != nullptr) detail::push_span(name_, t0_, trace_now_ns());
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  std::uint64_t t0_;
};

// --- Latency histograms ----------------------------------------------------
//
// Fixed log2-bucketed duration histograms, one per pipeline stage.  Each
// octave [2^k, 2^(k+1)) is split into 12 geometric sub-buckets, so bucket
// width is 2^(1/12) ~ 1.0595 — about 6% relative resolution, constant from
// nanoseconds to hours, in 768 flat counters per stage.  Recording is a
// bucket-index computation (count-leading-zeros plus at most 11 double
// compares against constants — no libm, so the mapping is bit-deterministic
// across machines) and two plain adds into a thread-local shard, the same
// single-owner relaxed-atomic pattern as SimStats.  Snapshots sum the
// retired totals and every live shard under a mutex; integer addition
// commutes, so the merged histogram depends only on the multiset of
// recorded durations, never on which thread recorded what (pinned by
// obs_test at KATO_THREADS=1 vs 4).  Like the counters, histograms are
// value-free: they observe durations and feed nothing back.

/// Stages with a latency histogram.  `eval` wraps one full single-condition
/// circuit evaluation; dc/ac/tran are the analyses inside it; gp_fit and
/// acquisition are the BO-side phases; kat_fit is one KAT-GP alignment
/// (KatGp::fit: encoder/decoder training through the frozen source GPs).
enum class Stage : int {
  dc, ac, tran, eval, gp_fit, acquisition, kat_fit, count_
};

inline constexpr int k_hist_sub = 12;  ///< sub-buckets per octave (~6%)
inline constexpr int k_hist_buckets = 64 * k_hist_sub;

/// JSON/Prometheus label for one stage ("dc", "gp_fit", ...).
const char* stage_name(Stage s);

/// Bucket index for a duration — exposed so tests can pin goldens by hand.
int hist_bucket_index(std::uint64_t ns);

/// Inclusive lower bound of one bucket in ns (floor of 2^octave * 2^(s/12)).
std::uint64_t hist_bucket_lower_ns(int bucket);

/// Record one duration into `s`'s histogram (any thread, wait-free).
void hist_record(Stage s, std::uint64_t ns);

/// Deterministic merged view of one stage's histogram.
struct HistSnapshot {
  std::uint64_t count = 0;   ///< total recorded durations
  std::uint64_t sum_ns = 0;  ///< exact sum of recorded durations
  std::array<std::uint64_t, k_hist_buckets> buckets{};

  /// Exact bucket-quantile: the lower bound of the bucket holding rank
  /// ceil(q * count) (so the true duration is within +6% of the returned
  /// value).  0 when the histogram is empty.
  std::uint64_t quantile_ns(double q) const;
};

HistSnapshot hist_snapshot(Stage s);

/// Write every counter and stage histogram in Prometheus text exposition
/// format (counters as kato_<name>_total, histograms as the cumulative
/// kato_stage_latency_seconds series) — the future daemon's /metrics body.
void expose_metrics(std::ostream& os);

/// Scoped stage timer: records construction-to-destruction into the stage
/// histogram.  Two clock reads against the ms-scale stages it wraps; always
/// on (like the counters) unless compiled out via KATO_OBS_STAGE.
class StageTimer {
 public:
  explicit StageTimer(Stage s) : stage_(s), t0_(trace_now_ns()) {}
  ~StageTimer() {
    const std::uint64_t t1 = trace_now_ns();
    hist_record(stage_, t1 > t0_ ? t1 - t0_ : 0);
  }
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

 private:
  Stage stage_;
  std::uint64_t t0_;
};

}  // namespace kato::obs

// Scoped-span macro: a TraceSpan whose disabled-path cost is one branch.
#define KATO_OBS_CONCAT_IMPL_(a, b) a##b
#define KATO_OBS_CONCAT_(a, b) KATO_OBS_CONCAT_IMPL_(a, b)
#define KATO_OBS_SPAN(name) \
  ::kato::obs::TraceSpan KATO_OBS_CONCAT_(kato_obs_span_, __LINE__) { name }
// Scoped stage-latency timer: histogram counterpart of KATO_OBS_SPAN.
// `stage` is a bare Stage enumerator (dc, tran, gp_fit, ...).
#define KATO_OBS_STAGE(stage)                                        \
  ::kato::obs::StageTimer KATO_OBS_CONCAT_(kato_obs_stage_,          \
                                           __LINE__) {              \
    ::kato::obs::Stage::stage                                        \
  }
