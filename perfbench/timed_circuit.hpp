#pragma once
// Timing decorator around the public ckt::SizingCircuit interface.
//
// TimedCircuit forwards every call to the wrapped circuit unchanged —
// evaluate_batch goes to the wrapped evaluate_batch, so a circuit's
// thread-parallel batch path (NetlistCircuit) is kept — and records, from
// outside, how long the simulation layer was busy, how many candidates it
// saw and how many of them failed (nullopt).  With a span log attached,
// each evaluate_batch call also becomes an "evaluate_batch" span.  Per
// batch it also reads how much single-condition evaluation time the
// program's always-on `eval` histogram recorded, so thread-pool
// parallelism can be computed batch by batch.

#include <mutex>
#include <vector>

#include "circuits/sizing_problem.hpp"
#include "span_log.hpp"

namespace pb {

/// Simulation-layer totals seen through the decorator.
struct SimTally {
  std::size_t batches = 0;     ///< evaluate_batch calls
  std::size_t candidates = 0;  ///< designs simulated (both entry points)
  std::size_t failed = 0;      ///< ... that returned nullopt
  double busy_s = 0.0;         ///< wall time inside the wrapped circuit
  std::vector<double> batch_s; ///< wall time of each evaluate_batch call
  /// Busy time the program's `eval` stage histogram gained during each
  /// evaluate_batch call, summed over threads (0 on built-in circuits).
  std::vector<double> batch_eval_s;
};

class TimedCircuit final : public kato::ckt::SizingCircuit {
 public:
  explicit TimedCircuit(const kato::ckt::SizingCircuit& inner,
                        SpanLog* spans = nullptr)
      : inner_(inner), spans_(spans) {}

  std::string name() const override { return inner_.name(); }
  const kato::ckt::DesignSpace& space() const override {
    return inner_.space();
  }
  std::string objective_name() const override {
    return inner_.objective_name();
  }
  const std::vector<kato::ckt::MetricSpec>& constraints() const override {
    return inner_.constraints();
  }
  std::vector<double> expert_design() const override {
    return inner_.expert_design();
  }

  std::optional<std::vector<double>> evaluate(
      const std::vector<double>& unit_x) const override;
  std::vector<std::optional<std::vector<double>>> evaluate_batch(
      const std::vector<std::vector<double>>& xs) const override;

  /// Totals since construction.
  SimTally tally() const;

 private:
  const kato::ckt::SizingCircuit& inner_;
  SpanLog* spans_;
  mutable std::mutex mu_;
  mutable SimTally tally_;
};

}  // namespace pb
