#pragma once
// Workload table and registry helpers for the sizing-run benchmark.
//
// A workload is one paper-shaped sizing run: a target circuit, an optional
// transfer source, and a BO budget.  The benchmark derives every seed the
// library sees (the source seed and one BO seed per sizing run) from the
// workload seed given on its command line; the library receives only those
// generated inputs.

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bo/drivers.hpp"
#include "obs/obs.hpp"

namespace pb {

struct Workload {
  std::string name;
  std::string kind;  ///< make_circuit kind of the target
  std::string node;
  std::string source_kind;  ///< empty: sizing from scratch
  std::string source_node;
  std::size_t source_samples = 0;
  kato::bo::BoConfig config;
  /// Sizing runs per benchmark second.  Fixes how many seeded runs one
  /// invocation makes from --seconds alone, so two builds measure the same
  /// work no matter how fast each is.
  double runs_per_second = 1.0;

  bool transfer() const { return !source_kind.empty(); }
  /// Simulations one seeded run makes: n_init + batch x iterations.
  std::size_t sims_per_run() const {
    return config.n_init + config.batch * config.iterations;
  }
};

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

/// Stream `stream` of the workload seed (splitmix64): stream 0 is the
/// source seed, stream 1 + i the BO seed of sizing run i.
std::uint64_t derive_seed(std::uint64_t workload_seed, std::uint64_t stream);

/// Point-in-time copy of the program's always-on obs registry: every
/// counter the benchmark reads plus the stage histograms.
struct RegistrySnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::array<kato::obs::HistSnapshot,
             static_cast<std::size_t>(kato::obs::Stage::count_)>
      hists{};

  static RegistrySnapshot take();
  /// Counter/bucket-wise difference *this - before.
  RegistrySnapshot minus(const RegistrySnapshot& before) const;
  /// Counter/bucket-wise sum into *this.
  void add(const RegistrySnapshot& other);

  std::uint64_t counter(const std::string& name) const;
  const kato::obs::HistSnapshot& hist(kato::obs::Stage s) const {
    return hists[static_cast<std::size_t>(s)];
  }
  double hist_sum_s(kato::obs::Stage s) const {
    return static_cast<double>(hist(s).sum_ns) * 1e-9;
  }
  double hist_quantile_ms(kato::obs::Stage s, double q) const {
    return static_cast<double>(hist(s).quantile_ns(q)) * 1e-6;
  }
};

/// Registry counters summed into sim.recoveries: every rung of the
/// recovery ladders past the plain solve.
inline constexpr std::array<const char*, 5> k_recovery_counters = {
    "dc_homotopy_escalations", "dc_pseudo_transients", "lu_pivot_fallbacks",
    "tran_stepfloor_restarts", "tran_device_fallbacks"};

}  // namespace pb
