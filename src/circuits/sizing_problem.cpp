#include "circuits/sizing_problem.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/obs.hpp"
#include "util/parallel.hpp"

namespace kato::ckt {

void DesignSpace::add(const std::string& name, double lo_v, double hi_v,
                      bool log_v) {
  // Fail loudly here: a bad range would otherwise surface only as NaN/inf
  // physical values deep inside a sizing run.
  const std::string what = "DesignSpace::add('" + name + "'): ";
  if (!std::isfinite(lo_v) || !std::isfinite(hi_v))
    throw std::invalid_argument(what + "non-finite range [" +
                                std::to_string(lo_v) + ", " +
                                std::to_string(hi_v) + "]");
  if (!(hi_v > lo_v))
    throw std::invalid_argument(what + "need lo < hi, got [" +
                                std::to_string(lo_v) + ", " +
                                std::to_string(hi_v) + "]");
  if (log_v && !(lo_v > 0.0))
    throw std::invalid_argument(what + "log-scale variable needs lo > 0, got " +
                                std::to_string(lo_v));
  for (const auto& existing : names)
    if (existing == name)
      throw std::invalid_argument(what + "duplicate variable name");
  names.push_back(name);
  lo.push_back(lo_v);
  hi.push_back(hi_v);
  log_scale.push_back(log_v);
}

std::vector<double> DesignSpace::to_physical(const std::vector<double>& unit) const {
  if (unit.size() != dim())
    throw std::invalid_argument("DesignSpace::to_physical: dim mismatch");
  std::vector<double> x(dim());
  for (std::size_t i = 0; i < dim(); ++i) {
    const double u = std::clamp(unit[i], 0.0, 1.0);
    if (log_scale[i])
      x[i] = lo[i] * std::pow(hi[i] / lo[i], u);
    else
      x[i] = lo[i] + u * (hi[i] - lo[i]);
  }
  return x;
}

std::vector<std::optional<std::vector<double>>> SizingCircuit::evaluate_batch(
    const std::vector<std::vector<double>>& xs) const {
  KATO_OBS_SPAN("evaluate_batch");
  std::vector<std::optional<std::vector<double>>> out(xs.size());
  // Each candidate slot is a pure function of its unit-box point (evaluate
  // builds its own simulation state and writes only its own slot), so any
  // chunking of [0, n) yields bit-identical results.  A candidate whose
  // evaluation throws loses only its own slot — parallel_for would
  // otherwise rethrow and kill the whole batch.
  util::parallel_for(xs.size(), [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      try {
        out[i] = evaluate(xs[i]);
      } catch (...) {
        out[i] = std::nullopt;
      }
    }
  });
  return out;
}

bool SizingCircuit::feasible(const std::vector<double>& metrics) const {
  const auto& specs = constraints();
  if (metrics.size() != 1 + specs.size())
    throw std::invalid_argument("SizingCircuit::feasible: metric count mismatch");
  for (std::size_t i = 0; i < specs.size(); ++i)
    if (!specs[i].satisfied(metrics[1 + i])) return false;
  return true;
}

FomNormalization calibrate_fom(const SizingCircuit& circuit, std::size_t n,
                               util::Rng& rng) {
  const std::size_t m = circuit.n_metrics();
  FomNormalization norm;
  norm.f_min.assign(m, std::numeric_limits<double>::infinity());
  norm.f_max.assign(m, -std::numeric_limits<double>::infinity());
  norm.bound.assign(m, 0.0);
  norm.weight.assign(m, 1.0);

  // Draw the whole DOE first (same RNG stream as the historical one-by-one
  // loop), then evaluate as one thread-parallel batch.
  std::vector<std::vector<double>> points;
  points.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    points.push_back(rng.uniform_vec(circuit.dim()));
  const auto results = circuit.evaluate_batch(points);

  std::size_t got = 0;
  for (const auto& metrics : results) {
    if (!metrics) continue;
    ++got;
    for (std::size_t j = 0; j < m; ++j) {
      norm.f_min[j] = std::min(norm.f_min[j], (*metrics)[j]);
      norm.f_max[j] = std::max(norm.f_max[j], (*metrics)[j]);
    }
  }
  if (got < 3)
    throw std::runtime_error("calibrate_fom: too few successful simulations");
  for (std::size_t j = 0; j < m; ++j)
    if (!(norm.f_max[j] > norm.f_min[j])) norm.f_max[j] = norm.f_min[j] + 1.0;

  // Objective (index 0) is minimized and has no bound: clip at f_max.
  norm.weight[0] = -1.0;
  norm.bound[0] = norm.f_max[0];
  const auto& specs = circuit.constraints();
  for (std::size_t c = 0; c < specs.size(); ++c) {
    norm.weight[1 + c] = specs[c].is_lower_bound ? 1.0 : -1.0;
    norm.bound[1 + c] = specs[c].bound;
  }
  return norm;
}

double fom_value(const FomNormalization& norm, const std::vector<double>& metrics) {
  if (metrics.size() != norm.weight.size())
    throw std::invalid_argument("fom_value: metric count mismatch");
  double fom = 0.0;
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    // Eq. 2: w_i * (min(f_i, f_bound) - f_min) / (f_max - f_min).
    // For metrics that are minimized (w = -1) the clip keeps values from
    // rewarding overshoot below the bound; mirror the clip accordingly.
    const double span = norm.f_max[i] - norm.f_min[i];
    double clipped;
    if (norm.weight[i] > 0.0)
      clipped = std::min(metrics[i], norm.bound[i]);
    else
      clipped = std::max(metrics[i], i == 0 ? norm.f_min[i] : norm.bound[i]);
    fom += norm.weight[i] * (clipped - norm.f_min[i]) / span;
  }
  return fom;
}

}  // namespace kato::ckt
