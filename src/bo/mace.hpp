#pragma once
// MACE batch-proposal machinery.
//
// Original constrained MACE (Zhang et al., TCAD 2021) searches the Pareto
// front of SIX objectives: {UCB, PI, EI, PF, total violation, scaled
// violation}.  KATO's modified MACE (paper Eq. 13) reduces this to THREE
// objectives, multiplying each improvement acquisition by the probability of
// feasibility: argmax {UCB, PI, EI} x PF.  Both variants are implemented so
// the ablation bench can compare them; the batch is drawn from the resulting
// non-dominated set.

#include "bo/acquisition.hpp"
#include "bo/surrogate.hpp"
#include "moo/nsga2.hpp"

namespace kato::bo {

enum class MaceVariant {
  modified,  ///< KATO's 3-objective form (Eq. 13)
  full,      ///< original 6-objective constrained MACE
};

struct MaceOptions {
  MaceVariant variant = MaceVariant::modified;
  double ucb_beta = 2.0;
  moo::Nsga2Options nsga;
};

/// Pareto proposal set for the constrained problem: the objective metric is
/// metrics[0] (minimized), the rest follow `specs`.  `y_best` is the
/// incumbent feasible objective (+inf if none yet: acquisitions then reduce
/// to feasibility search).  `seeds` inject incumbent designs into NSGA-II.
/// FOM mode passes empty `specs` for its single -FOM metric: PF is then
/// exactly 1, so the modified variant is the Pareto front of {EI, PI, UCB}.
moo::ParetoSet mace_proposals(const Surrogate& surrogate,
                              const std::vector<ckt::MetricSpec>& specs,
                              double y_best, const MaceOptions& options,
                              util::Rng& rng,
                              const std::vector<std::vector<double>>& seeds);

/// Draw `count` distinct points from a Pareto set (random without
/// replacement; uniform-random fill if the set is too small).
std::vector<std::vector<double>> select_batch(const moo::ParetoSet& set,
                                              std::size_t count, std::size_t dim,
                                              util::Rng& rng);

}  // namespace kato::bo
