#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>

#include "bo/acquisition.hpp"
#include "bo/drivers.hpp"
#include "bo/mace.hpp"
#include "bo/surrogate.hpp"
#include "circuits/factory.hpp"

namespace bo = kato::bo;
namespace gp = kato::gp;
namespace ckt = kato::ckt;
namespace la = kato::la;

namespace {

/// RAII guard for the KATO_THREADS knob.
class ThreadsEnv {
 public:
  explicit ThreadsEnv(const char* value) { setenv("KATO_THREADS", value, 1); }
  ~ThreadsEnv() { unsetenv("KATO_THREADS"); }
};

/// Byte-for-byte equality of two double sequences.
bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Every hyperparameter and noise variance of a MultiGp, in metric order.
std::vector<double> fitted_params(const gp::MultiGp& model) {
  std::vector<double> out;
  for (std::size_t m = 0; m < model.n_metrics(); ++m) {
    const auto theta = model.metric(m).kernel().params();
    out.insert(out.end(), theta.begin(), theta.end());
    out.push_back(model.metric(m).noise_var());
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Acquisition functions.

TEST(Acquisition, NormalHelpers) {
  EXPECT_NEAR(bo::norm_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(bo::norm_cdf(1.96), 0.975, 1e-3);
  EXPECT_NEAR(bo::norm_pdf(0.0), 0.39894, 1e-5);
}

TEST(Acquisition, EiPositiveAndMonotoneInMean) {
  gp::GpPrediction good{0.0, 0.04};   // mean well below incumbent
  gp::GpPrediction poor{2.0, 0.04};
  const double y_best = 1.0;
  EXPECT_GT(bo::expected_improvement(good, y_best),
            bo::expected_improvement(poor, y_best));
  EXPECT_GE(bo::expected_improvement(poor, y_best), 0.0);
}

TEST(Acquisition, EiGrowsWithUncertaintyAtIncumbent) {
  gp::GpPrediction narrow{1.0, 0.01};
  gp::GpPrediction wide{1.0, 1.0};
  EXPECT_GT(bo::expected_improvement(wide, 1.0),
            bo::expected_improvement(narrow, 1.0));
}

TEST(Acquisition, PiIsHalfAtIncumbent) {
  gp::GpPrediction p{1.0, 0.25};
  EXPECT_NEAR(bo::probability_of_improvement(p, 1.0), 0.5, 1e-12);
}

TEST(Acquisition, UcbClampedAtZero) {
  gp::GpPrediction hopeless{10.0, 0.01};
  EXPECT_DOUBLE_EQ(bo::ucb_improvement(hopeless, 0.0, 2.0), 0.0);
  gp::GpPrediction promising{0.5, 1.0};
  EXPECT_GT(bo::ucb_improvement(promising, 1.0, 2.0), 0.0);
}

TEST(Acquisition, PfRespectsDirectionsAndCertainty) {
  std::vector<ckt::MetricSpec> specs{{"Gain", "dB", 60.0, true},
                                     {"I", "uA", 6.0, false}};
  // Confidently feasible on both.
  std::vector<gp::GpPrediction> ok{{80.0, 1.0}, {3.0, 0.01}};
  EXPECT_GT(bo::probability_of_feasibility(ok, specs), 0.99);
  // Confidently infeasible on the first.
  std::vector<gp::GpPrediction> bad{{40.0, 1.0}, {3.0, 0.01}};
  EXPECT_LT(bo::probability_of_feasibility(bad, specs), 1e-6);
  // On the boundary with wide uncertainty: about half.
  std::vector<gp::GpPrediction> edge{{60.0, 25.0}, {3.0, 0.01}};
  EXPECT_NEAR(bo::probability_of_feasibility(edge, specs), 0.5, 0.01);
}

TEST(Acquisition, ViolationTerms) {
  std::vector<ckt::MetricSpec> specs{{"Gain", "dB", 60.0, true}};
  std::vector<gp::GpPrediction> pred{{50.0, 4.0}};
  EXPECT_DOUBLE_EQ(bo::total_violation(pred, specs, {1.0}), 10.0);
  EXPECT_DOUBLE_EQ(bo::total_violation_scaled(pred, specs), 5.0);
  std::vector<gp::GpPrediction> fine{{70.0, 4.0}};
  EXPECT_DOUBLE_EQ(bo::total_violation(fine, specs, {1.0}), 0.0);
}

// ---------------------------------------------------------------------------
// MACE proposals on a synthetic constrained problem.

namespace {

/// Toy constrained problem: minimize f0 = ||x - 0.7||^2 subject to
/// c(x) = x0 >= 0.5 (metric layout [obj, c]).
struct ToyProblem {
  static double objective(std::span<const double> x) {
    double s = 0.0;
    for (double v : x) s += (v - 0.7) * (v - 0.7);
    return s;
  }
  static std::vector<ckt::MetricSpec> specs() {
    return {{"c0", "", 0.5, true}};
  }
};

bo::GpSurrogate fitted_toy_surrogate(kato::util::Rng& rng, std::size_t n = 60) {
  gp::GpFitOptions fast{60, 0.05, 192, 1e-6};
  bo::GpSurrogate surr(2, 2, bo::KernelKind::rbf, fast, fast, rng);
  kato::la::Matrix x(n, 2);
  kato::la::Matrix y(n, 2);
  for (std::size_t i = 0; i < n; ++i) {
    const auto p = rng.uniform_vec(2);
    x.set_row(i, p);
    y(i, 0) = ToyProblem::objective(p);
    y(i, 1) = p[0];
  }
  surr.refit(x, y, rng);
  return surr;
}

}  // namespace

TEST(Mace, ProposalsConcentrateNearConstrainedOptimum) {
  kato::util::Rng rng(11);
  auto surr = fitted_toy_surrogate(rng);
  bo::MaceOptions opts;
  opts.nsga.population = 32;
  opts.nsga.generations = 25;
  const auto specs = ToyProblem::specs();
  const auto set = bo::mace_proposals(surr, specs, 0.05, opts, rng, {});
  ASSERT_FALSE(set.x.empty());
  // A healthy share of proposals should be near the optimum (0.7, 0.7) and
  // on the feasible side.
  int near = 0;
  for (const auto& x : set.x)
    if (x[0] > 0.45 && std::abs(x[0] - 0.7) < 0.25 && std::abs(x[1] - 0.7) < 0.25)
      ++near;
  EXPECT_GT(near, 0);
}

TEST(Mace, FullVariantProducesSixObjectives) {
  kato::util::Rng rng(12);
  auto surr = fitted_toy_surrogate(rng);
  bo::MaceOptions opts;
  opts.variant = bo::MaceVariant::full;
  opts.nsga.population = 16;
  opts.nsga.generations = 5;
  const auto set =
      bo::mace_proposals(surr, ToyProblem::specs(), 0.05, opts, rng, {});
  ASSERT_FALSE(set.f.empty());
  EXPECT_EQ(set.f.front().size(), 6u);
}

TEST(Mace, SelectBatchDistinctAndSized) {
  kato::util::Rng rng(13);
  kato::moo::ParetoSet set;
  set.x = {{0.1, 0.1}, {0.2, 0.2}, {0.1, 0.1}};  // contains a duplicate
  set.f = {{0.0}, {0.0}, {0.0}};
  const auto batch = bo::select_batch(set, 4, 2, rng);
  EXPECT_EQ(batch.size(), 4u);  // filled with random points as needed
  // No exact duplicates among the first picks.
  for (std::size_t i = 0; i < batch.size(); ++i)
    for (std::size_t j = i + 1; j < batch.size(); ++j)
      EXPECT_FALSE(batch[i] == batch[j]);
}

// ---------------------------------------------------------------------------
// Surrogates.

TEST(Surrogate, TrainingStreamsOnePerMetricWhenTraining) {
  // Surrogates::refit splits the self GP's streams off the shared RNG before
  // KAT-GP trains alongside it.  training_streams must hand out exactly the
  // draws refit(rng) takes: one stream per metric when hyperparameters
  // train (the first refit always does), none on a posterior-only refresh.
  const std::size_t n_metrics = 3;
  kato::util::Rng init(11);
  gp::GpFitOptions fit{5, 0.05, 64, 1e-6};
  bo::GpSurrogate surr(2, n_metrics, bo::KernelKind::neuk, fit, fit, init);
  la::Matrix x(12, 2);
  la::Matrix y(12, n_metrics);
  for (std::size_t i = 0; i < 12; ++i) {
    x(i, 0) = init.uniform();
    x(i, 1) = init.uniform();
    for (std::size_t m = 0; m < n_metrics; ++m)
      y(i, m) = std::sin(3.0 * x(i, 0) + static_cast<double>(m)) + x(i, 1);
  }
  auto expect_draws = [&](bool train_hyper, std::size_t count) {
    kato::util::Rng used(21);
    kato::util::Rng split = used;
    EXPECT_EQ(surr.training_streams(split, train_hyper).size(), count);
    surr.refit(x, y, used, train_hyper);
    EXPECT_TRUE(used.engine() == split.engine()) << "train_hyper=" << train_hyper;
  };
  expect_draws(false, n_metrics);  // the first refit always trains
  expect_draws(true, n_metrics);
  expect_draws(false, 0);
}

// ---------------------------------------------------------------------------
// End-to-end drivers on the real circuits (small budgets).

TEST(Drivers, KatoConstrainedFindsFeasibleTwoStage) {
  auto circuit = ckt::make_circuit("opamp2", "180nm");
  bo::BoConfig cfg;
  cfg.n_init = 120;
  cfg.iterations = 6;
  const auto r = bo::run_constrained(*circuit, bo::ConstrainedMethod::kato,
                                     cfg, 1);
  EXPECT_EQ(r.trace.size(), cfg.n_init + cfg.batch * cfg.iterations);
  ASSERT_FALSE(r.best_metrics.empty());
  EXPECT_TRUE(circuit->feasible(r.best_metrics));
  // Trace is monotone non-increasing once finite.
  for (std::size_t i = 1; i < r.trace.size(); ++i) {
    if (std::isfinite(r.trace[i - 1])) {
      EXPECT_LE(r.trace[i], r.trace[i - 1]);
    }
  }
}

TEST(Drivers, KatoBeatsRandomSearchOnFom) {
  // Averaged over seeds: a single head-to-head race is a coin flip on easy
  // landscapes, but BO must win in expectation.
  auto circuit = ckt::make_circuit("opamp2", "180nm");
  kato::util::Rng rng(3);
  const auto norm = ckt::calibrate_fom(*circuit, 150, rng);
  bo::BoConfig cfg;
  cfg.n_init = 10;
  cfg.iterations = 20;
  double kato_sum = 0.0;
  double rs_sum = 0.0;
  for (std::uint64_t seed : {5, 6, 7}) {
    kato_sum += bo::run_fom(*circuit, norm, bo::FomMethod::kato, cfg, seed)
                    .trace.back();
    rs_sum += bo::run_fom(*circuit, norm, bo::FomMethod::random_search, cfg,
                          seed)
                  .trace.back();
  }
  EXPECT_GE(kato_sum, rs_sum);
}

TEST(Drivers, AllConstrainedMethodsRun) {
  auto circuit = ckt::make_circuit("opamp2", "180nm");
  bo::BoConfig cfg;
  cfg.n_init = 60;
  cfg.iterations = 2;
  for (auto m : {bo::ConstrainedMethod::mace_full, bo::ConstrainedMethod::mesmoc,
                 bo::ConstrainedMethod::usemoc}) {
    const auto r = bo::run_constrained(*circuit, m, cfg, 2);
    EXPECT_EQ(r.trace.size(), cfg.n_init + cfg.batch * cfg.iterations)
        << bo::to_string(m);
  }
}

TEST(Drivers, SmacRfRuns) {
  auto circuit = ckt::make_circuit("opamp2", "180nm");
  kato::util::Rng rng(4);
  const auto norm = ckt::calibrate_fom(*circuit, 120, rng);
  bo::BoConfig cfg;
  cfg.n_init = 12;
  cfg.iterations = 3;
  const auto r = bo::run_fom(*circuit, norm, bo::FomMethod::smac_rf, cfg, 6);
  EXPECT_EQ(r.trace.size(), cfg.n_init + cfg.batch * cfg.iterations);
  EXPECT_TRUE(std::isfinite(r.trace.back()));
}

TEST(Drivers, TransferSourceAndStlRun) {
  auto src_circuit = ckt::make_circuit("opamp2", "180nm");
  auto tgt_circuit = ckt::make_circuit("opamp2", "40nm");
  const auto source =
      bo::build_transfer_source(*src_circuit, 60, bo::KernelKind::rbf, 7);
  EXPECT_EQ(source.x.rows(), 60u);
  EXPECT_EQ(source.y.cols(), src_circuit->n_metrics());

  bo::BoConfig cfg;
  cfg.n_init = 60;
  cfg.iterations = 3;
  cfg.kat.init_iterations = 60;  // keep the test fast
  const auto r = bo::run_constrained(*tgt_circuit, bo::ConstrainedMethod::kato,
                                     cfg, 8, &source);
  EXPECT_EQ(r.trace.size(), cfg.n_init + cfg.batch * cfg.iterations);
  // STL weights were initialized with the sample counts and only grow.
  EXPECT_GE(r.stl_w_kat, 60.0);
  EXPECT_GE(r.stl_w_self, 60.0);
}

TEST(Drivers, TransferRunBitIdenticalAcrossThreadCounts) {
  // The source's metric and FOM fits run at the same time, and so do the
  // self-GP and KAT-GP fits of every STL refit; both pairs share one RNG
  // stream, handed out in serial order before the fits start.  Everything a
  // transfer run produces must keep the same bits at 1, 2, 3 and 4 threads.
  auto src_circuit = ckt::make_circuit("opamp2", "180nm");
  auto tgt_circuit = ckt::make_circuit("opamp2", "40nm");
  bo::BoConfig cfg;
  cfg.n_init = 30;
  cfg.iterations = 3;
  cfg.gp_initial.iterations = 10;
  cfg.gp_refit.iterations = 4;
  cfg.kat.init_iterations = 20;
  cfg.kat.refit_iterations = 10;
  cfg.nsga.population = 16;
  cfg.nsga.generations = 4;
  struct Run {
    std::vector<double> source;  ///< source data, hyperparameters, noise
    std::vector<double> trace;
    std::vector<double> xs;      ///< x_history, flattened
    std::vector<double> weights;
  };
  auto run = [&](const char* threads) {
    ThreadsEnv env(threads);
    const auto src =
        bo::build_transfer_source(*src_circuit, 40, bo::KernelKind::rbf, 7);
    Run r;
    r.source = src.x.data();
    r.source.insert(r.source.end(), src.y.data().begin(), src.y.data().end());
    for (const auto* model : {src.metric_model.get(), src.fom_model.get()}) {
      const auto p = fitted_params(*model);
      r.source.insert(r.source.end(), p.begin(), p.end());
    }
    const auto res = bo::run_constrained(
        *tgt_circuit, bo::ConstrainedMethod::kato, cfg, 8, &src);
    r.trace = res.trace;
    for (const auto& x : res.x_history) r.xs.insert(r.xs.end(), x.begin(), x.end());
    r.weights = {res.stl_w_kat, res.stl_w_self};
    return r;
  };
  const Run serial = run("1");
  EXPECT_EQ(serial.trace.size(), cfg.n_init + cfg.batch * cfg.iterations);
  for (const char* threads : {"2", "3", "4"}) {
    SCOPED_TRACE(threads);
    const Run threaded = run(threads);
    EXPECT_TRUE(same_bits(serial.source, threaded.source));
    EXPECT_TRUE(same_bits(serial.trace, threaded.trace));
    EXPECT_TRUE(same_bits(serial.xs, threaded.xs));
    EXPECT_TRUE(same_bits(serial.weights, threaded.weights));
  }
}

TEST(Drivers, TlmboRequiresSource) {
  auto circuit = ckt::make_circuit("opamp2", "40nm");
  kato::util::Rng rng(5);
  const auto norm = ckt::calibrate_fom(*circuit, 120, rng);
  bo::BoConfig cfg;
  EXPECT_THROW(
      (void)bo::run_fom(*circuit, norm, bo::FomMethod::tlmbo, cfg, 1, nullptr),
      std::invalid_argument);
}
