#include "timed_circuit.hpp"

#include "obs/obs.hpp"

namespace pb {

namespace {

std::uint64_t eval_busy_ns() {
  return kato::obs::hist_snapshot(kato::obs::Stage::eval).sum_ns;
}

}  // namespace

std::optional<std::vector<double>> TimedCircuit::evaluate(
    const std::vector<double>& unit_x) const {
  const double t0 = now_s();
  auto out = inner_.evaluate(unit_x);
  const double dt = now_s() - t0;
  std::lock_guard<std::mutex> lock(mu_);
  tally_.candidates += 1;
  tally_.failed += out ? 0 : 1;
  tally_.busy_s += dt;
  return out;
}

std::vector<std::optional<std::vector<double>>> TimedCircuit::evaluate_batch(
    const std::vector<std::vector<double>>& xs) const {
  std::vector<std::optional<std::vector<double>>> out;
  double dt = 0.0;
  const std::uint64_t eval_ns0 = eval_busy_ns();
  {
    ScopedSpan span(spans_, "evaluate_batch");
    const double t0 = now_s();
    out = inner_.evaluate_batch(xs);
    dt = now_s() - t0;
  }
  const double eval_s = static_cast<double>(eval_busy_ns() - eval_ns0) * 1e-9;
  std::size_t failed = 0;
  for (const auto& m : out) failed += m ? 0 : 1;
  std::lock_guard<std::mutex> lock(mu_);
  tally_.batches += 1;
  tally_.candidates += xs.size();
  tally_.failed += failed;
  tally_.busy_s += dt;
  tally_.batch_s.push_back(dt);
  tally_.batch_eval_s.push_back(eval_s);
  return out;
}

SimTally TimedCircuit::tally() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tally_;
}

}  // namespace pb
