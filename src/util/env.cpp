#include "util/env.hpp"

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>

#include "util/fault.hpp"

namespace kato::util {

namespace {

// Constant-initialised: the startup hooks in fault.cpp and obs.cpp read it
// before main().
constexpr EnvVar k_env[] = {
    {"KATO_THREADS", EnvKind::integer, "<n>", "1",
     "worker count for the persistent pool, clamped to max(nproc, 4)", 1,
     1024},
    {"KATO_SEEDS", EnvKind::integer, "<n>", "",
     "seed count for the figure/table benches, clamped at 1024 (unset: each "
     "binary's own)",
     1, 1024},
    {"KATO_NETLIST_DIR", EnvKind::path, "<dir>", "",
     "fallback root for relative deck paths"},
    {"KATO_STATS", EnvKind::path, "<path|->", "",
     "dump the process-wide counter registry as JSON at exit"},
    {"KATO_TRACE", EnvKind::path, "<path>", "",
     "write a Chrome trace-event JSON of the whole run at exit"},
    {"KATO_RUN_LOG", EnvKind::path, "<path|->", "",
     "stream the per-iteration BO run journal as JSONL"},
    {"KATO_FAULT", EnvKind::spec, "<stage>:<kind>:<rate>:<seed>", "",
     "deterministic fault injection, rate in (0,1] (see Robustness below)",
     0, 0, [](const char* v) { return parse_fault_spec(v).has_value(); }},
    {"KATO_EVAL_DEADLINE_MS", EnvKind::integer, "<n>", "",
     "per-candidate wall-clock budget in milliseconds", 1,
     1'000'000'000'000},
    {"KATO_RECOVERY", EnvKind::toggle, "0|off|false|1|on|true", "1",
     "recovery ladders on or off (off: solver failures stay terminal)"},
};
static_assert(std::size(k_env) == static_cast<std::size_t>(Env::count_));

constinit std::atomic<bool> g_warned[std::size(k_env)] = {};

/// -1: not a toggle value; 0 / 1: off / on.
int parse_toggle(const char* v) {
  for (const char* off : {"0", "off", "false"})
    if (std::strcmp(v, off) == 0) return 0;
  for (const char* on : {"1", "on", "true"})
    if (std::strcmp(v, on) == 0) return 1;
  return -1;
}

/// The one rule: the whole string, no whitespace at either end, in the
/// row's form.  Integer rows: digits with an optional '-', at least lo,
/// clamped to hi into `number` (strtoll saturates, so overflow clamps too).
bool usable(const EnvVar& row, const char* v, long long* number) {
  const auto space = [](char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  };
  if (*v == '\0' || space(v[0]) || space(v[std::strlen(v) - 1])) return false;
  switch (row.kind) {
    case EnvKind::integer: {
      if (*v != '-' && std::isdigit(static_cast<unsigned char>(*v)) == 0)
        return false;
      char* end = nullptr;
      const long long n = std::strtoll(v, &end, 10);
      if (*end != '\0' || n < row.lo) return false;
      *number = n > row.hi ? row.hi : n;
      return true;
    }
    case EnvKind::toggle:
      return parse_toggle(v) >= 0;
    case EnvKind::path:
      return true;
    case EnvKind::spec:
      return row.valid(v);
  }
  return false;
}

/// The set-and-usable value, or nullptr (after the one warning).
const char* lookup(Env e, long long* number) {
  const EnvVar& row = env_var(e);
  const char* v = std::getenv(row.name);
  if (v == nullptr || usable(row, v, number)) return v;
  if (!g_warned[static_cast<std::size_t>(e)].exchange(true)) {
    // One line: control characters echo as '?', long values are cut.
    char shown[64];
    std::size_t n = 0;
    for (; v[n] != '\0' && n + 1 < sizeof(shown); ++n)
      shown[n] = std::iscntrl(static_cast<unsigned char>(v[n])) ? '?' : v[n];
    shown[n] = '\0';
    char want[48];
    if (row.kind == EnvKind::integer)
      std::snprintf(want, sizeof(want), "an integer >= %lld", row.lo);
    else
      std::snprintf(want, sizeof(want), "%s", row.syntax);
    std::fprintf(stderr,
                 "%s: ignoring unusable value '%s%s' (want %s); treated as "
                 "unset%s%s%s\n",
                 row.name, shown, v[n] != '\0' ? "..." : "", want,
                 *row.def ? " (default " : "", row.def, *row.def ? ")" : "");
  }
  return nullptr;
}

}  // namespace

std::span<const EnvVar> env_table() { return k_env; }

const EnvVar& env_var(Env e) { return k_env[static_cast<std::size_t>(e)]; }

const char* env_get(Env e) {
  long long number = 0;
  return lookup(e, &number);
}

std::optional<long long> env_int(Env e) {
  long long number = 0;
  if (lookup(e, &number) == nullptr) return std::nullopt;
  return number;
}

bool env_toggle(Env e) {
  const char* v = env_get(e);
  return parse_toggle(v != nullptr ? v : env_var(e).def) == 1;
}

void env_reset_warnings() {
  for (auto& w : g_warned) w.store(false, std::memory_order_relaxed);
}

}  // namespace kato::util
