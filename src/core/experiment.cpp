#include "core/experiment.hpp"

#include <algorithm>
#include <cmath>

#include "obs/journal.hpp"
#include "util/env.hpp"
#include "util/parallel.hpp"

namespace kato::core {

std::vector<std::uint64_t> seed_list(std::size_t fallback) {
  const auto env = util::env_int(util::Env::seeds);
  const std::size_t n = env ? static_cast<std::size_t>(*env) : fallback;
  std::vector<std::uint64_t> seeds(n);
  for (std::size_t i = 0; i < n; ++i) seeds[i] = i + 1;
  return seeds;
}

namespace {

/// Replace +-inf placeholders so the aggregation stays finite: infeasible
/// prefixes are reported as the worst finite value seen in any run.
void sanitize_traces(std::vector<std::vector<double>>& traces, bool minimize) {
  double worst = minimize ? -std::numeric_limits<double>::infinity()
                          : std::numeric_limits<double>::infinity();
  for (const auto& t : traces)
    for (double v : t)
      if (std::isfinite(v)) worst = minimize ? std::max(worst, v) : std::min(worst, v);
  if (!std::isfinite(worst)) worst = 0.0;
  const double fill = minimize ? 2.0 * std::abs(worst) + 1.0 : worst;
  for (auto& t : traces)
    for (double& v : t)
      if (!std::isfinite(v)) v = minimize ? fill : v;
}

/// Run fn(i) for every seed index, fanned out across the worker pool; each
/// run's inner parallelism (GP fits, batch candidate evaluation) goes to
/// whichever workers are idle.  Slot i is written from fn(i) only, so results
/// are identical at any thread count.
void for_each_seed(std::size_t count,
                   const std::function<void(std::size_t)>& fn) {
  util::parallel_for(count, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
  });
}

/// Bracket a seed series in the run journal: `series_begin` announces the
/// fan-out (the per-run events that follow carry their own run ids, so
/// interleaved runs demultiplex), `series_end` records the aggregate band's
/// final value.  Value-free like all journal emission.
void journal_series(const char* event, const std::string& name,
                    const ckt::SizingCircuit& circuit, const char* mode,
                    const std::vector<std::uint64_t>& seeds,
                    const MethodSeries* series) {
  if (!obs::journal_enabled()) return;
  obs::JsonObj o;
  o.str("event", event)
      .str("name", name)
      .str("circuit", circuit.name())
      .str("mode", mode)
      .uint("n_seeds", seeds.size());
  o.raw("seeds",
        obs::json_array(std::vector<double>(seeds.begin(), seeds.end())));
  if (series != nullptr && !series->band.median.empty())
    o.num("final_median", series->band.median.back())
        .num("final_q25", series->band.q25.back())
        .num("final_q75", series->band.q75.back());
  obs::journal_write(o.take());
}

}  // namespace

TransferComparison run_transfer_comparison(
    const ckt::SizingCircuit& source_circuit, const ckt::SizingCircuit& target,
    std::size_t source_samples, const bo::BoConfig& config,
    const std::vector<std::uint64_t>& seeds, bo::KernelKind source_kernel,
    std::uint64_t source_seed) {
  TransferComparison cmp;
  cmp.source = bo::build_transfer_source(source_circuit, source_samples,
                                         source_kernel, source_seed);
  cmp.with_transfer =
      run_constrained_series(target, bo::ConstrainedMethod::kato, config, seeds,
                             &cmp.source, "KATO-TL");
  cmp.without_transfer = run_constrained_series(
      target, bo::ConstrainedMethod::kato, config, seeds, nullptr, "KATO");
  return cmp;
}

MethodSeries run_constrained_series(const ckt::SizingCircuit& circuit,
                                    bo::ConstrainedMethod method,
                                    const bo::BoConfig& config,
                                    const std::vector<std::uint64_t>& seeds,
                                    const bo::TransferSource* source,
                                    const std::string& label) {
  MethodSeries series;
  series.name = label.empty() ? bo::to_string(method) : label;
  // Seeds are independent runs (each builds its own RNG from its seed and
  // the circuit is read-only), so the series fans out across the worker
  // pool; run i lands in slot i regardless of KATO_THREADS, keeping the
  // aggregate bit-identical to the sequential loop.
  series.runs.resize(seeds.size());
  journal_series("series_begin", series.name, circuit, "constrained", seeds,
                 nullptr);
  for_each_seed(seeds.size(), [&](std::size_t i) {
    series.runs[i] =
        bo::run_constrained(circuit, method, config, seeds[i], source);
  });
  std::vector<std::vector<double>> traces;
  for (const auto& run : series.runs) traces.push_back(run.trace);
  sanitize_traces(traces, /*minimize=*/true);
  series.band = util::aggregate_traces(traces);
  journal_series("series_end", series.name, circuit, "constrained", seeds,
                 &series);
  return series;
}

MethodSeries run_fom_series(const ckt::SizingCircuit& circuit,
                            const ckt::FomNormalization& norm,
                            bo::FomMethod method, const bo::BoConfig& config,
                            const std::vector<std::uint64_t>& seeds,
                            const bo::TransferSource* source,
                            const std::string& label) {
  MethodSeries series;
  series.name = label.empty() ? bo::to_string(method) : label;
  series.runs.resize(seeds.size());
  journal_series("series_begin", series.name, circuit, "fom", seeds, nullptr);
  for_each_seed(seeds.size(), [&](std::size_t i) {
    series.runs[i] = bo::run_fom(circuit, norm, method, config, seeds[i], source);
  });
  std::vector<std::vector<double>> traces;
  for (const auto& run : series.runs) traces.push_back(run.trace);
  sanitize_traces(traces, /*minimize=*/false);
  series.band = util::aggregate_traces(traces);
  journal_series("series_end", series.name, circuit, "fom", seeds, &series);
  return series;
}

void print_series(std::ostream& os, const std::string& title,
                  const std::vector<MethodSeries>& methods, std::size_t stride) {
  os << "--- " << title << " ---\n";
  std::vector<std::string> header{"sims"};
  for (const auto& m : methods) header.push_back(m.name + " med [q25,q75]");
  util::Table table(header);
  const std::size_t len = methods.front().band.median.size();
  for (std::size_t i = stride - 1; i < len; i += stride) {
    std::vector<std::string> row{std::to_string(i + 1)};
    for (const auto& m : methods) {
      row.push_back(util::fmt(m.band.median[i], 3) + " [" +
                    util::fmt(m.band.q25[i], 3) + "," +
                    util::fmt(m.band.q75[i], 3) + "]");
    }
    table.add_row(row);
  }
  os << table.to_string();
}

double median_sims_to_reach(const MethodSeries& series, double target,
                            bool minimize) {
  std::vector<double> counts;
  for (const auto& run : series.runs) {
    double c = static_cast<double>(run.trace.size()) + 1.0;
    for (std::size_t i = 0; i < run.trace.size(); ++i) {
      const bool hit = minimize ? run.trace[i] <= target : run.trace[i] >= target;
      if (hit) {
        c = static_cast<double>(i + 1);
        break;
      }
    }
    counts.push_back(c);
  }
  return util::median(counts);
}

const bo::RunResult& best_run(const MethodSeries& series, bool minimize) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < series.runs.size(); ++i) {
    const double a = series.runs[i].trace.back();
    const double b = series.runs[best].trace.back();
    if (minimize ? a < b : a > b) best = i;
  }
  return series.runs[best];
}

}  // namespace kato::core
