#pragma once
// Run journal: KATO_RUN_LOG=<path|-> streams one self-contained JSON object
// per line (JSONL) describing each optimization run — a `run_begin` record
// with the circuit/node/seed/config, one record per BO iteration (proposals,
// acquisition values, eval wall-time, feasibility, best-so-far objective and
// constraint-violation vector, GP refit hyperparameters/NLL, warm-start
// hits) and a `run_end` summary carrying the full regret curve.  The events
// are emitted by bo/drivers and core/experiment; tools/kato_report.py turns
// one or two journals into Markdown convergence/latency reports.
//
// Writer contract: journal_write appends exactly one line under a mutex and
// flushes before releasing it, so concurrent runs (the experiment harness
// fans seeds across the pool) interleave whole lines, never fragments, and
// a killed process leaves a parseable prefix.  Every event carries a
// process-unique `run` id so interleaved runs can be demultiplexed.
//
// Like the counters and histograms, journaling is value-free: emitters only
// read optimizer state, so a seeded run is bit-identical with KATO_RUN_LOG
// on vs. off (pinned by obs_test).  KATO_RUN_LOG is read through the
// environment table (util/env.hpp): unset disables silently, a
// set-but-unusable value disables with a one-line stderr warning.  The
// run_begin record carries every table variable and the worker count.

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace kato::obs {

namespace detail {
extern std::atomic<bool> g_journal_on;
}

/// One relaxed load; the only cost journaling adds when disabled.  Emitters
/// gate all event construction on this, so with the journal off the BO loop
/// never even formats a string.
inline bool journal_enabled() {
  return detail::g_journal_on.load(std::memory_order_acquire);
}

/// Open a journal session writing to `path` ("-" for stdout; files are
/// truncated).  Called by startup for KATO_RUN_LOG and by tests directly.
/// An unopenable path warns on stderr and leaves journaling disabled.
void journal_begin(const std::string& path);

/// Flush and close the session; returns the number of lines written (0 when
/// no session was open).  Safe to call redundantly.
std::size_t journal_end();

/// Append one pre-formatted JSON object as a single line (a trailing '\n'
/// is added) and flush.  Line-atomic under the writer mutex.  No-op when
/// disabled — but call sites should test journal_enabled() first and skip
/// building the line at all.
void journal_write(std::string_view line);

/// Process-unique id for one optimization run; stamped into every event the
/// run emits so concurrent runs can share one journal file.
std::uint64_t journal_next_run_id();

// --- JSON formatting helpers -----------------------------------------------
// Minimal builders for flat-ish event objects.  Numbers use %.17g (shortest
// round-trip for doubles); non-finite values — trace entries are +inf until
// the first feasible point — become JSON null, which json.load accepts and
// IEEE JSON emitters cannot represent any other way.

/// Escape for inclusion inside a JSON string literal (quotes not included).
std::string json_escape(std::string_view s);

/// "%.17g" for finite doubles, "null" otherwise.
std::string json_num(double v);

/// "[a,b,...]" via json_num.
std::string json_array(const std::vector<double>& v);

/// Incremental JSON object builder:
///   JsonObj o; o.str("event","run_begin").num("seed",5); journal_write(o.take());
class JsonObj {
 public:
  JsonObj() : s_("{") {}

  JsonObj& str(std::string_view key, std::string_view value) {
    return raw(key, '"' + json_escape(value) + '"');
  }
  JsonObj& num(std::string_view key, double value) {
    return raw(key, json_num(value));
  }
  JsonObj& uint(std::string_view key, std::uint64_t value) {
    return raw(key, std::to_string(value));
  }
  JsonObj& boolean(std::string_view key, bool value) {
    return raw(key, value ? "true" : "false");
  }
  /// Pre-serialized value (an array or nested object).
  JsonObj& raw(std::string_view key, std::string_view value) {
    if (s_.size() > 1) s_ += ',';
    s_ += '"';
    s_ += json_escape(key);
    s_ += "\":";
    s_ += value;
    return *this;
  }

  /// Close the object and surrender the string (builder is spent).
  std::string take() {
    s_ += '}';
    return std::move(s_);
  }

 private:
  std::string s_;
};

}  // namespace kato::obs
