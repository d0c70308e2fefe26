#pragma once
// Sizing-problem abstraction consumed by the BO drivers.
//
// A SizingCircuit maps a unit-box design vector to a metric vector
//   metrics[0]   — the objective (always MINIMIZED)
//   metrics[1..] — constrained quantities, one per MetricSpec
// and reports simulation failure via nullopt (non-convergent DC, degenerate
// AC) — the drivers treat failures as infeasible.
//
// Also implements the FOM of Eq. (2): each metric is normalized by min/max
// values calibrated from random samples, clipped at its bound, and combined
// with +-1 weights.

#include <optional>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace kato::ckt {

/// Box design space with per-variable linear or log interpolation.
struct DesignSpace {
  std::vector<std::string> names;
  std::vector<double> lo;
  std::vector<double> hi;
  std::vector<bool> log_scale;

  std::size_t dim() const { return names.size(); }
  /// Map a unit-box point to physical values.
  std::vector<double> to_physical(const std::vector<double>& unit) const;

  void add(const std::string& name, double lo_v, double hi_v, bool log_v = true);
};

/// Constraint on one metric: value >= bound (lower) or value <= bound (upper).
struct MetricSpec {
  std::string name;
  std::string unit;
  double bound = 0.0;
  bool is_lower_bound = true;

  bool satisfied(double value) const {
    return is_lower_bound ? value >= bound : value <= bound;
  }
  /// Violation as a positive number (0 when satisfied).
  double violation(double value) const {
    return is_lower_bound ? std::max(0.0, bound - value)
                          : std::max(0.0, value - bound);
  }
};

class SizingCircuit {
 public:
  virtual ~SizingCircuit() = default;

  virtual std::string name() const = 0;
  virtual const DesignSpace& space() const = 0;
  /// Objective metadata (name/unit of metrics[0], always minimized).
  virtual std::string objective_name() const = 0;
  /// Specs for metrics[1..].
  virtual const std::vector<MetricSpec>& constraints() const = 0;

  /// Simulate at a unit-box point.  nullopt = simulation failure.
  virtual std::optional<std::vector<double>> evaluate(
      const std::vector<double>& unit_x) const = 0;

  /// Simulate a batch of candidates; result[i] equals evaluate(xs[i]).
  /// The base implementation is the thread-parallel per-slot loop on the
  /// util/parallel pool: slot i runs evaluate(xs[i]) and writes only
  /// out[i], and a slot whose evaluate throws comes back nullopt without
  /// disturbing the others.  evaluate must therefore be safe to call
  /// concurrently on one object (read-only members, private simulation
  /// state per call).  Results are bit-identical to the serial loop at any
  /// KATO_THREADS — the BO drivers and the DOE stages rely on that for
  /// seed reproducibility.  Overrides (NetlistCircuit's corner/MC fan-out)
  /// must keep the same contract.
  virtual std::vector<std::optional<std::vector<double>>> evaluate_batch(
      const std::vector<std::vector<double>>& xs) const;

  /// A hand-tuned feasible reference sizing (the "Human Expert" rows of
  /// Tables 1-2), in unit-box coordinates.
  virtual std::vector<double> expert_design() const = 0;

  std::size_t dim() const { return space().dim(); }
  std::size_t n_metrics() const { return 1 + constraints().size(); }

  /// True iff all constraint entries of a metric vector meet their specs.
  bool feasible(const std::vector<double>& metrics) const;
};

/// FOM normalization constants (Eq. 2), calibrated from random samples.
struct FomNormalization {
  std::vector<double> f_min;   ///< per metric (objective first)
  std::vector<double> f_max;
  std::vector<double> bound;   ///< f^bound_i (objective: unbounded)
  std::vector<double> weight;  ///< +1 maximize / -1 minimize
};

/// Sample `n` random designs (skipping failures) and derive Eq. 2 constants.
/// The objective gets weight -1 (minimized, no bound); each constraint gets
/// weight +-1 by its direction and its spec value as f^bound.
FomNormalization calibrate_fom(const SizingCircuit& circuit, std::size_t n,
                               util::Rng& rng);

/// Eq. 2 value for one metric vector (higher is better).
double fom_value(const FomNormalization& norm, const std::vector<double>& metrics);

}  // namespace kato::ckt
