#include "workloads.hpp"

#include "core/experiment.hpp"

namespace pb {

namespace {

std::vector<Workload> make_workloads() {
  std::vector<Workload> w;
  {
    Workload t;
    t.name = "transfer_opamp2";
    t.kind = "opamp2";
    t.node = "40nm";
    t.source_kind = "opamp2";
    t.source_node = "180nm";
    t.source_samples = 200;
    t.config = kato::core::bench_config();
    // The DOE is drawn from the RNG alone, so a DOE that holds a feasible
    // design makes "a feasible design was found" hold whatever the
    // surrogate numerics do.  200-design DOEs missed in 6 of 200 seeds
    // (about 1.7% of random 40nm designs are feasible); 1024 misses with
    // probability ~1e-6 to 1e-5.  Training sets sit at the max_gp_points
    // cap either way.
    t.config.n_init = 1024;
    t.config.iterations = 4;
    t.runs_per_second = 0.14;
    w.push_back(t);
  }
  {
    Workload s;
    s.name = "scratch_opamp2";
    s.kind = "opamp2";
    s.node = "180nm";
    s.config = kato::core::bench_config();
    // 256-design DOEs missed in 31 of 200 seeds (about 0.7% of random
    // 180nm designs are feasible), and at 768 one seed in ~150 ended with no
    // feasible design at all; 2000 misses with probability ~2e-6.
    s.config.n_init = 2000;
    s.config.iterations = 6;
    s.runs_per_second = 0.33;
    w.push_back(s);
  }
  {
    Workload b;
    b.name = "buffer_tran";
    b.kind = "netlist:circuits/netlists/buffer_tran.cir";
    b.node = "180nm";
    b.config = kato::core::bench_config();
    // About 21% of random designs are feasible (85 of 400); 80 makes a
    // DOE miss a ~1e-7 event.
    b.config.n_init = 80;
    b.config.iterations = 4;
    b.runs_per_second = 2.4;
    w.push_back(b);
  }
  {
    // Attribution only: BENCHMARK.json does not gate it.  Its per-seed wall
    // time spreads too widely (CV ~0.37 per run: 12 correlated transient
    // conditions per candidate) for a 30-second run to give a steady mean.
    Workload c;
    c.name = "corners_tran";
    c.kind = "netlist:circuits/netlists/buffer_tran_corners.cir";
    c.node = "180nm";
    c.config = kato::core::bench_config();
    // About 18% of random designs meet every corner (73 of 400); 64 makes
    // a DOE miss a ~1e-6 event.
    c.config.n_init = 64;
    c.config.iterations = 4;
    c.runs_per_second = 0.8;
    w.push_back(c);
  }
  return w;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> w = make_workloads();
  return w;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

std::uint64_t derive_seed(std::uint64_t workload_seed, std::uint64_t stream) {
  std::uint64_t z = workload_seed * 0x9e3779b97f4a7c15ULL + stream +
                    0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

const char* const k_counter_names[] = {
    "newton_iters",         "tran_steps_accepted",    "tran_steps_rejected",
    "lu_refactors",         "device_table_misses",    "dc_homotopy_escalations",
    "dc_pseudo_transients", "lu_pivot_fallbacks",     "tran_stepfloor_restarts",
    "tran_device_fallbacks", "gp_fits",               "gp_fit_iters",
    "gp_warm_starts",       "gp_jitter_retries",      "proposal_batches",
    "proposals",            "evals"};

}  // namespace

RegistrySnapshot RegistrySnapshot::take() {
  RegistrySnapshot s;
  for (const char* name : k_counter_names)
    s.counters[name] = kato::obs::stats_value(name);
  for (std::size_t i = 0; i < s.hists.size(); ++i)
    s.hists[i] = kato::obs::hist_snapshot(static_cast<kato::obs::Stage>(i));
  return s;
}

RegistrySnapshot RegistrySnapshot::minus(const RegistrySnapshot& before) const {
  RegistrySnapshot d;
  for (const auto& [name, value] : counters)
    d.counters[name] = value - before.counter(name);
  for (std::size_t i = 0; i < hists.size(); ++i) {
    d.hists[i].count = hists[i].count - before.hists[i].count;
    d.hists[i].sum_ns = hists[i].sum_ns - before.hists[i].sum_ns;
    for (std::size_t b = 0; b < hists[i].buckets.size(); ++b)
      d.hists[i].buckets[b] = hists[i].buckets[b] - before.hists[i].buckets[b];
  }
  return d;
}

void RegistrySnapshot::add(const RegistrySnapshot& other) {
  for (const auto& [name, value] : other.counters) counters[name] += value;
  for (std::size_t i = 0; i < hists.size(); ++i) {
    hists[i].count += other.hists[i].count;
    hists[i].sum_ns += other.hists[i].sum_ns;
    for (std::size_t b = 0; b < hists[i].buckets.size(); ++b)
      hists[i].buckets[b] += other.hists[i].buckets[b];
  }
}

std::uint64_t RegistrySnapshot::counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

}  // namespace pb
