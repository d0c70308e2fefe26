#pragma once
// The benchmark's own span recorder.
//
// Spans are opened and closed from the benchmark's driving thread only
// (workload, setup, source build, each seeded sizing run, each
// evaluate_batch call), so the log needs no locking.  Each span records its
// name, start, end, the span that was open when it started (its parent) and
// the sizing-run id it belongs to.  The log stays in memory while the
// benchmark runs and is written once, at exit, as Chrome trace-event JSON —
// the same shape KATO_TRACE emits, so both files open side by side in
// chrome://tracing or Perfetto.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace pb {

/// Seconds since an arbitrary fixed origin (steady clock).
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  double t0 = 0.0;  ///< seconds, now_s() origin
  double t1 = 0.0;
  int parent = -1;  ///< index into SpanLog::spans(), -1 for a root
  int run = -1;     ///< sizing-run id, -1 outside a run
  int tid = 0;      ///< trace lane (one per benchmark pass)

  double dur() const { return t1 - t0; }
};

class SpanLog {
 public:
  /// Disabled logs drop every span (the untraced passes).
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  /// Lane and sizing-run id stamped on spans opened from now on.
  void set_lane(int tid) { tid_ = tid; }
  void set_run(int run) { run_ = run; }

  /// Open a span under the innermost open one; returns its index, or -1
  /// when disabled.
  int open(std::string name);
  /// Close the span returned by open() (no-op for -1).
  void close(int index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Duration of span `index` minus the time its direct children cover.
  double self_time(std::size_t index) const;

  /// Write every span as Chrome trace-event JSON ("X" events, microsecond
  /// timestamps relative to the first span, parent and run id in args).
  /// Returns false when the file cannot be written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  bool enabled_ = false;
  int tid_ = 0;
  int run_ = -1;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span on a log; a null log or a disabled log records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name)
      : log_(log), index_(log != nullptr ? log->open(std::move(name)) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  int index_;
};

}  // namespace pb
