#include "bo/mace.hpp"

#include <cmath>
#include <limits>

#include "obs/obs.hpp"

namespace kato::bo {

namespace {

/// Objective metric GP scale for violation normalization.
std::vector<double> constraint_scales(const Surrogate& surrogate,
                                      std::size_t n_constraints) {
  // Scales are folded into the GP standardization already; use unit scales.
  (void)surrogate;
  return std::vector<double>(n_constraints, 1.0);
}

/// Lift a per-candidate acquisition map (predictions -> objective vector)
/// into the NSGA batch evaluator.  The surrogate posterior — the expensive
/// stage — runs over the whole generation at once (one cross-covariance and
/// one triangular solve per metric) and splits across KATO_THREADS workers
/// inside predict_batch, writing per-candidate slots so any thread count
/// produces bit-identical proposals.  The remaining acquisition arithmetic
/// is a handful of flops per candidate: spawning threads for it would cost
/// more than the work, so it stays a plain loop.
template <typename AcqFn>
moo::BatchObjectiveFn batch_acquisition(const Surrogate& surrogate,
                                        AcqFn acquisition) {
  return [&surrogate, acquisition](const std::vector<std::vector<double>>& xs) {
    const la::Matrix xq = la::Matrix::from_points(xs);
    const auto preds = surrogate.predict_batch(xq);
    std::vector<std::vector<double>> out(xs.size());
    for (std::size_t q = 0; q < xs.size(); ++q) out[q] = acquisition(preds[q]);
    return out;
  };
}

}  // namespace

moo::ParetoSet mace_proposals(const Surrogate& surrogate,
                              const std::vector<ckt::MetricSpec>& specs,
                              double y_best, const MaceOptions& options,
                              util::Rng& rng,
                              const std::vector<std::vector<double>>& seeds) {
  KATO_OBS_SPAN("acquisition");
  KATO_OBS_STAGE(acquisition);
  const bool have_incumbent = std::isfinite(y_best);
  const std::size_t n_obj = options.variant == MaceVariant::modified ? 3 : 6;
  const auto scales = constraint_scales(surrogate, specs.size());

  auto acquisition = [&specs, &scales, &options, y_best,
                      have_incumbent](const std::vector<gp::GpPrediction>& preds) {
    const gp::GpPrediction obj = preds.front();
    const std::vector<gp::GpPrediction> cons(preds.begin() + 1, preds.end());
    const double pf = probability_of_feasibility(cons, specs);

    // Without a feasible incumbent the improvement acquisitions are
    // undefined; search feasibility (PF) with an exploration tiebreak.
    const double sigma = std::sqrt(std::max(obj.var, 1e-18));
    const double ei = have_incumbent ? expected_improvement(obj, y_best) : sigma;
    const double pi = have_incumbent ? probability_of_improvement(obj, y_best)
                                     : pf;
    const double ucb = have_incumbent
                           ? ucb_improvement(obj, y_best, options.ucb_beta)
                           : sigma;

    if (options.variant == MaceVariant::modified) {
      // Eq. 13: maximize {UCB, PI, EI} x PF  ==  minimize the negations.
      return std::vector<double>{-ei * pf, -pi * pf, -ucb * pf};
    }
    return std::vector<double>{-ei,
                               -pi,
                               -ucb,
                               -pf,
                               total_violation(cons, specs, scales),
                               total_violation_scaled(cons, specs)};
  };

  // NSGA genes = design variables in the unit box.
  const std::size_t dim = surrogate.input_dim();
  return moo::nsga2_batch(batch_acquisition(surrogate, acquisition), dim, n_obj,
                          options.nsga, rng, seeds);
}

std::vector<std::vector<double>> select_batch(const moo::ParetoSet& set,
                                              std::size_t count, std::size_t dim,
                                              util::Rng& rng) {
  std::vector<std::vector<double>> batch;
  if (!set.x.empty()) {
    const auto order = rng.permutation(set.x.size());
    for (std::size_t k = 0; k < order.size() && batch.size() < count; ++k) {
      const auto& cand = set.x[order[k]];
      bool duplicate = false;
      for (const auto& chosen : batch) {
        double d2 = 0.0;
        for (std::size_t j = 0; j < dim; ++j)
          d2 += (cand[j] - chosen[j]) * (cand[j] - chosen[j]);
        if (d2 < 1e-10) {
          duplicate = true;
          break;
        }
      }
      if (!duplicate) batch.push_back(cand);
    }
  }
  while (batch.size() < count) batch.push_back(rng.uniform_vec(dim));
  return batch;
}

}  // namespace kato::bo
