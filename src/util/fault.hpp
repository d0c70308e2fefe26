#pragma once

// Fault injection, per-candidate evaluation deadlines, and the recovery
// toggle.  Three independent knobs, read once at startup through the
// environment table (util/env.hpp):
//
//   KATO_FAULT=<stage>:<kind>:<rate>:<seed>
//       Arms exactly one deterministic fault site (e.g. "dc:singular" or
//       "tran:nan_device").  Each potential firing consumes one index from
//       a dedicated counter-based splitmix64 stream, so a given
//       (seed, rate) pair fires at exactly the same draw indices on every
//       run — fault schedules are reproducible, not sampled from shared
//       process RNG state.
//
//   KATO_EVAL_DEADLINE_MS=<positive integer>
//       Per-candidate wall-clock budget.  NetlistCircuit::evaluate_single
//       arms a thread-local absolute deadline via the EvalDeadline RAII
//       guard; the Newton and timestep loops poll deadline_exceeded()
//       cooperatively.  Off (the default) costs one thread-local load.
//
//   KATO_RECOVERY=0|off|false|1|on|true
//       Off disables the recovery ladders (DC homotopy / pseudo-transient,
//       transient step-floor + device-eval fallback) so tests and bit-
//       identity checks can pin the pre-recovery failure behaviour.
//
// With no fault armed and no deadline set, every hook in the hot path is a
// single predicated load — seeded BO runs are bit-identical to a build
// without this module.

#include <cstdint>
#include <optional>

namespace kato::util {

/// Named injection sites.  The enumerator spelling (with '_' standing in
/// for the "stage:kind" separator) is the env-var spelling: dc_singular
/// parses from "dc:singular", and so on.
enum class FaultSite {
  dc_singular,      ///< DC system unsolvable at every gmin/source step
  tran_nan_device,  ///< table device eval returns NaN mid-transient
  lu_collapse,      ///< sparse refactor pivot collapse (forces re-pivot)
  gp_chol_fail,     ///< GP covariance Cholesky fails at zero jitter
  eval_slow,        ///< candidate evaluation stalls past any deadline
  eval_throw,       ///< candidate evaluation throws std::runtime_error
  count_,
};

struct FaultSpec {
  FaultSite site = FaultSite::count_;
  double rate = 0.0;       ///< firing probability per draw, in (0, 1]
  std::uint64_t seed = 0;  ///< seed of the dedicated splitmix64 stream
};

/// Strict full-string parse of "<stage>:<kind>:<rate>:<seed>".  The
/// stage:kind pair must name a FaultSite, rate must be a double in (0, 1]
/// consuming its whole token, seed a non-negative integer likewise.
/// Returns nullopt on any deviation — no trimming, no partial parses.
std::optional<FaultSpec> parse_fault_spec(const char* value);

/// Installs (or clears, with nullopt) the process-wide fault, resetting the
/// draw counter so schedules restart from index 0.  Test hook; startup
/// installs the env-derived spec before main().
void set_fault(const std::optional<FaultSpec>& spec);

/// True when the armed fault matches `site` and this draw fires.  Each call
/// against the armed site consumes one stream index.  When no fault is
/// armed this is one relaxed atomic load.
bool fault_fires(FaultSite site);

/// The underlying stream: uniform in [0, 1) as a pure function of
/// (seed, index) via splitmix64.  Exposed so tests can pin which draw
/// indices fire for a given spec.
double fault_uniform(std::uint64_t seed, std::uint64_t index);

// --- Recovery toggle -------------------------------------------------------

/// True unless KATO_RECOVERY (or set_recovery_enabled) turned the ladders
/// off.
bool recovery_enabled();
void set_recovery_enabled(bool on);

// --- Evaluation deadlines --------------------------------------------------

/// Process-wide per-candidate budget in ms; 0 means no deadline.
std::uint64_t eval_deadline_ms();
void set_eval_deadline_ms(std::uint64_t ms);

/// Arms the calling thread's deadline for one candidate evaluation:
/// ctor computes now + ms (ms == 0 leaves the thread unarmed), dtor
/// restores the previous value so nested scopes compose.
class EvalDeadline {
 public:
  explicit EvalDeadline(std::uint64_t ms);
  ~EvalDeadline();
  EvalDeadline(const EvalDeadline&) = delete;
  EvalDeadline& operator=(const EvalDeadline&) = delete;

 private:
  std::uint64_t prev_ns_;
};

/// True when the calling thread's armed deadline has passed.  Unarmed
/// threads pay one thread-local load and a branch.
bool deadline_exceeded();

/// Sleep helper for the eval:slow fault (kept here so sim code does not
/// need <thread>).
void fault_sleep_ms(std::uint64_t ms);

}  // namespace kato::util
