#pragma once
// Every environment variable the library reads, in one table, read through
// one strict parser: a set value counts only when the whole string parses
// under its row's rule (not empty, no whitespace at either end, nothing
// left over; integers at least lo, clamped to hi).  Anything else is
// treated as unset, with one stderr line per variable per process.
//
// Values are read at the point of use, so tests can setenv() KATO_THREADS
// / KATO_SEEDS mid-process.  Lookups neither allocate nor lock
// (thread_count() reads KATO_THREADS on every parallel_for), and the table
// is constant-initialised for the startup hooks that run before main().
// README's "Environment variables" table renders these rows (util_test
// pins it).

#include <optional>
#include <span>

namespace kato::util {

enum class EnvKind {
  integer,  ///< decimal integer >= lo; larger values clamp to hi
  toggle,   ///< 0|off|false or 1|on|true
  path,     ///< any string (a file or directory path, "-" for stdout)
  spec,     ///< a string the row's validator accepts
};

struct EnvVar {
  const char* name;
  EnvKind kind;
  const char* syntax;  ///< value form, as in `NAME=<syntax>`
  const char* def;     ///< value used when unset or unusable ("" = unset)
  const char* doc;     ///< one-line effect
  long long lo = 0;    ///< integer rows: smallest accepted value
  long long hi = 0;    ///< integer rows: larger values clamp to this
  bool (*valid)(const char*) = nullptr;  ///< spec rows: full-string check
};

/// Row index into env_table().
enum class Env {
  threads, seeds, netlist_dir, stats, trace, run_log, fault,
  eval_deadline_ms, recovery, count_,
};

/// Every row, indexed by Env.
std::span<const EnvVar> env_table();
const EnvVar& env_var(Env e);

/// The value when set and usable; nullptr when unset or unusable (which
/// warns once).
const char* env_get(Env e);

/// Integer rows: the parsed value clamped to hi; nullopt as for env_get.
std::optional<long long> env_int(Env e);

/// Toggle rows: the parsed value, or the row's default.
bool env_toggle(Env e);

/// Forget which variables have already warned (tests).
void env_reset_warnings();

}  // namespace kato::util
