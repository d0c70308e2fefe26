#include "util/fault.hpp"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>

#include "obs/obs.hpp"
#include "util/env.hpp"

namespace kato::util {

namespace {

// Armed spec lives in three plain atomics so fault_fires stays lock-free:
// g_fault_site doubles as the "armed" flag (count_ == disarmed).  Writes
// happen at startup and from single-threaded test code, never concurrently
// with each other.
std::atomic<int> g_fault_site{static_cast<int>(FaultSite::count_)};
std::atomic<double> g_fault_rate{0.0};
std::atomic<std::uint64_t> g_fault_seed{0};
std::atomic<std::uint64_t> g_fault_draws{0};

std::atomic<bool> g_recovery{true};
std::atomic<std::uint64_t> g_deadline_ms{0};

// Per-thread absolute deadline (steady-clock ns); 0 == unarmed.
thread_local std::uint64_t t_deadline_ns = 0;

constexpr const char* k_site_names[] = {
    "dc:singular", "tran:nan_device", "lu:collapse",
    "gp:chol_fail", "eval:slow",      "eval:throw",
};
static_assert(sizeof(k_site_names) / sizeof(k_site_names[0]) ==
                  static_cast<std::size_t>(FaultSite::count_),
              "k_site_names must cover every FaultSite");

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Startup hook mirroring obs::ObsBoot: reads KATO_FAULT /
/// KATO_EVAL_DEADLINE_MS / KATO_RECOVERY before main() so the hot-path
/// checks never need a once-flag.
struct FaultBoot {
  FaultBoot() {
    if (const char* spec = env_get(Env::fault))
      set_fault(parse_fault_spec(spec));
    if (auto ms = env_int(Env::eval_deadline_ms))
      set_eval_deadline_ms(static_cast<std::uint64_t>(*ms));
    set_recovery_enabled(env_toggle(Env::recovery));
  }
};
FaultBoot g_fault_boot;

}  // namespace

std::optional<FaultSpec> parse_fault_spec(const char* value) {
  if (value == nullptr || *value == '\0') return std::nullopt;
  const std::string s(value);
  // Full-string discipline: any whitespace anywhere is a shell-quoting
  // accident (and would sneak past strtod/strtoull, which skip it).
  for (char c : s)
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') return std::nullopt;
  // "<stage>:<kind>:<rate>:<seed>" — stage:kind is itself colon-separated,
  // so split from the right: the last two fields are rate and seed.
  const auto p_seed = s.rfind(':');
  if (p_seed == std::string::npos || p_seed == 0) return std::nullopt;
  const auto p_rate = s.rfind(':', p_seed - 1);
  if (p_rate == std::string::npos || p_rate == 0) return std::nullopt;
  const std::string site_str = s.substr(0, p_rate);
  const std::string rate_str = s.substr(p_rate + 1, p_seed - p_rate - 1);
  const std::string seed_str = s.substr(p_seed + 1);
  if (rate_str.empty() || seed_str.empty()) return std::nullopt;

  FaultSpec spec;
  spec.site = FaultSite::count_;
  for (std::size_t i = 0; i < static_cast<std::size_t>(FaultSite::count_); ++i)
    if (site_str == k_site_names[i]) spec.site = static_cast<FaultSite>(i);
  if (spec.site == FaultSite::count_) return std::nullopt;

  // Full-token numeric parses: strtod/strtoull must consume every
  // character, and the seed must not be a negative number in disguise.
  char* end = nullptr;
  errno = 0;
  spec.rate = std::strtod(rate_str.c_str(), &end);
  if (errno != 0 || end != rate_str.c_str() + rate_str.size())
    return std::nullopt;
  if (!(spec.rate > 0.0) || spec.rate > 1.0) return std::nullopt;
  if (seed_str.front() == '-' || seed_str.front() == '+') return std::nullopt;
  errno = 0;
  spec.seed = std::strtoull(seed_str.c_str(), &end, 10);
  if (errno != 0 || end != seed_str.c_str() + seed_str.size())
    return std::nullopt;
  return spec;
}

void set_fault(const std::optional<FaultSpec>& spec) {
  g_fault_draws.store(0, std::memory_order_relaxed);
  if (!spec) {
    g_fault_site.store(static_cast<int>(FaultSite::count_),
                       std::memory_order_relaxed);
    return;
  }
  g_fault_rate.store(spec->rate, std::memory_order_relaxed);
  g_fault_seed.store(spec->seed, std::memory_order_relaxed);
  g_fault_site.store(static_cast<int>(spec->site), std::memory_order_relaxed);
}

double fault_uniform(std::uint64_t seed, std::uint64_t index) {
  // splitmix64 finalizer over a golden-ratio counter stream: a pure
  // function of (seed, index), so schedules replay exactly.
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}

bool fault_fires(FaultSite site) {
  if (g_fault_site.load(std::memory_order_relaxed) !=
      static_cast<int>(site))
    return false;
  const std::uint64_t idx = g_fault_draws.fetch_add(1,
                                                    std::memory_order_relaxed);
  const bool fire =
      fault_uniform(g_fault_seed.load(std::memory_order_relaxed), idx) <
      g_fault_rate.load(std::memory_order_relaxed);
  if (fire) obs::bo_count(obs::BoCounter::faults_injected);
  return fire;
}

bool recovery_enabled() {
  return g_recovery.load(std::memory_order_relaxed);
}

void set_recovery_enabled(bool on) {
  g_recovery.store(on, std::memory_order_relaxed);
}

std::uint64_t eval_deadline_ms() {
  return g_deadline_ms.load(std::memory_order_relaxed);
}

void set_eval_deadline_ms(std::uint64_t ms) {
  g_deadline_ms.store(ms, std::memory_order_relaxed);
}

EvalDeadline::EvalDeadline(std::uint64_t ms) : prev_ns_(t_deadline_ns) {
  if (ms > 0) t_deadline_ns = now_ns() + ms * 1000000ULL;
}

EvalDeadline::~EvalDeadline() { t_deadline_ns = prev_ns_; }

bool deadline_exceeded() {
  return t_deadline_ns != 0 && now_ns() >= t_deadline_ns;
}

void fault_sleep_ms(std::uint64_t ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

}  // namespace kato::util
