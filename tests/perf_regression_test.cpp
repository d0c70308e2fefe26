// Guards for the batched/threaded hot paths: the fast implementations must
// be drop-in replacements for the reference per-point, single-thread code.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bo/mace.hpp"
#include "bo/surrogate.hpp"
#include "gp/gp.hpp"
#include "gp/kat_gp.hpp"
#include "kernel/neuk.hpp"
#include "kernel/stationary.hpp"
#include "linalg/cholesky.hpp"
#include "nn/mlp.hpp"
#include "util/parallel.hpp"

namespace gp = kato::gp;
namespace bo = kato::bo;
namespace la = kato::la;
namespace kern = kato::kern;

namespace {

la::Matrix random_points(std::size_t n, std::size_t d, kato::util::Rng& rng) {
  la::Matrix x(n, d);
  for (auto& v : x.data()) v = rng.uniform();
  return x;
}

gp::GaussianProcess fitted_neuk_gp(std::size_t n, std::size_t d,
                                   std::uint64_t seed) {
  kato::util::Rng rng(seed);
  kern::NeukConfig cfg;
  gp::GaussianProcess model(std::make_unique<kern::NeukKernel>(d, cfg, rng));
  const auto x = random_points(n, d, rng);
  la::Vector y(n);
  for (std::size_t i = 0; i < n; ++i)
    y[i] = std::sin(3.0 * x(i, 0)) + 0.5 * x(i, 1);
  model.set_data(x, y);
  gp::GpFitOptions opts;
  opts.iterations = 15;
  model.fit(opts, rng);
  return model;
}

/// RAII guard for the KATO_THREADS knob.
class ThreadsEnv {
 public:
  explicit ThreadsEnv(const char* value) {
    if (value == nullptr)
      unsetenv("KATO_THREADS");
    else
      setenv("KATO_THREADS", value, 1);
  }
  ~ThreadsEnv() { unsetenv("KATO_THREADS"); }
};

bo::GpSurrogate fitted_surrogate(std::uint64_t seed, std::size_t n_metrics = 2) {
  kato::util::Rng rng(seed);
  gp::GpFitOptions fit{30, 0.05, 192, 1e-6};
  bo::GpSurrogate surr(3, n_metrics, bo::KernelKind::neuk, fit, fit, rng);
  const std::size_t n = 50;
  la::Matrix x = random_points(n, 3, rng);
  la::Matrix y(n, n_metrics);
  for (std::size_t i = 0; i < n; ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < 3; ++j) s += (x(i, j) - 0.6) * (x(i, j) - 0.6);
    y(i, 0) = s;
    if (n_metrics > 1) y(i, 1) = x(i, 0);
  }
  surr.refit(x, y, rng);
  return surr;
}

}  // namespace

TEST(PredictBatch, AgreesWithPerPointLoop) {
  const auto model = fitted_neuk_gp(80, 6, 41);
  kato::util::Rng rng(42);
  const auto q = random_points(33, 6, rng);

  const auto batch = model.predict_batch(q);
  ASSERT_EQ(batch.size(), q.rows());
  for (std::size_t i = 0; i < q.rows(); ++i) {
    const auto ref = model.predict(q.row(i));
    EXPECT_NEAR(batch[i].mean, ref.mean, 1e-10) << "query " << i;
    EXPECT_NEAR(batch[i].var, ref.var, 1e-10) << "query " << i;
  }
}

TEST(PredictBatch, StdVariantAgreesToo) {
  const auto model = fitted_neuk_gp(60, 4, 43);
  kato::util::Rng rng(44);
  const auto q = random_points(17, 4, rng);
  const auto batch = model.predict_std_batch(q);
  for (std::size_t i = 0; i < q.rows(); ++i) {
    const auto ref = model.predict_std(q.row(i));
    EXPECT_NEAR(batch[i].mean, ref.mean, 1e-10);
    EXPECT_NEAR(batch[i].var, ref.var, 1e-10);
  }
}

TEST(PredictBatch, ThreadCountDoesNotChangeResults) {
  const auto model = fitted_neuk_gp(70, 5, 45);
  kato::util::Rng rng(46);
  const auto q = random_points(29, 5, rng);

  std::vector<gp::GpPrediction> single;
  {
    ThreadsEnv env("1");
    single = model.predict_batch(q);
  }
  std::vector<gp::GpPrediction> threaded;
  {
    ThreadsEnv env("4");
    threaded = model.predict_batch(q);
  }
  ASSERT_EQ(single.size(), threaded.size());
  for (std::size_t i = 0; i < single.size(); ++i) {
    // Bit-identical, not just close: chunking must not reorder arithmetic.
    EXPECT_EQ(single[i].mean, threaded[i].mean) << "query " << i;
    EXPECT_EQ(single[i].var, threaded[i].var) << "query " << i;
  }
}

TEST(PredictBatch, MultiGpMatchesPerMetric) {
  kato::util::Rng rng(47);
  gp::MultiGp multi(2, [&] {
    kern::NeukConfig cfg;
    return std::make_unique<kern::NeukKernel>(3, cfg, rng);
  });
  const std::size_t n = 40;
  la::Matrix x = random_points(n, 3, rng);
  la::Matrix y(n, 2);
  for (std::size_t i = 0; i < n; ++i) {
    y(i, 0) = std::cos(2.0 * x(i, 0));
    y(i, 1) = x(i, 1) * x(i, 2);
  }
  multi.set_data(x, y);

  const auto q = random_points(11, 3, rng);
  const auto batch = multi.predict_batch(q);
  ASSERT_EQ(batch.size(), q.rows());
  for (std::size_t i = 0; i < q.rows(); ++i) {
    ASSERT_EQ(batch[i].size(), 2u);
    const auto ref = multi.predict(q.row(i));
    for (std::size_t m = 0; m < 2; ++m) {
      EXPECT_NEAR(batch[i][m].mean, ref[m].mean, 1e-10);
      EXPECT_NEAR(batch[i][m].var, ref[m].var, 1e-10);
    }
  }
}

TEST(PredictBatch, MultiGpOneDispatchBitIdenticalToPerMetricBatches) {
  // MultiGp::predict_batch runs every metric's rows in one dispatch; each
  // value must equal that metric's own predict_batch at any thread count,
  // including splits where a chunk straddles two metrics.
  kato::util::Rng rng(48);
  gp::MultiGp multi(3, [&] {
    return std::make_unique<kern::StationaryArd>(kern::StationaryType::rbf, 3);
  });
  const std::size_t n = 50;
  la::Matrix x = random_points(n, 3, rng);
  la::Matrix y(n, 3);
  for (std::size_t i = 0; i < n; ++i) {
    y(i, 0) = std::cos(2.0 * x(i, 0));
    y(i, 1) = 4.0 * x(i, 1) * x(i, 2) + 1.0;
    y(i, 2) = std::sin(3.0 * x(i, 2)) - x(i, 0);
  }
  multi.set_data(x, y);
  const auto q = random_points(13, 3, rng);
  std::vector<std::vector<gp::GpPrediction>> ref;
  for (std::size_t m = 0; m < 3; ++m) ref.push_back(multi.metric(m).predict_batch(q));
  for (const char* threads : {"1", "2", "3", "4"}) {
    SCOPED_TRACE(threads);
    ThreadsEnv env(threads);
    const auto batch = multi.predict_batch(q);
    ASSERT_EQ(batch.size(), q.rows());
    for (std::size_t i = 0; i < q.rows(); ++i) {
      ASSERT_EQ(batch[i].size(), 3u);
      for (std::size_t m = 0; m < 3; ++m) {
        EXPECT_EQ(batch[i][m].mean, ref[m][i].mean) << i << "," << m;
        EXPECT_EQ(batch[i][m].var, ref[m][i].var) << i << "," << m;
      }
    }
  }
}

TEST(PredictBatch, KatGpAgreesWithPerPointLoop) {
  kato::util::Rng rng(53);
  // Fitted single-metric RBF source model on a 2-d toy function.
  auto source = std::make_unique<gp::MultiGp>(1, [] {
    return std::make_unique<kern::StationaryArd>(kern::StationaryType::rbf, 2);
  });
  const std::size_t n_src = 60;
  la::Matrix xs = random_points(n_src, 2, rng);
  la::Matrix ys(n_src, 1);
  for (std::size_t i = 0; i < n_src; ++i)
    ys(i, 0) = std::sin(4.0 * xs(i, 0)) + xs(i, 1);
  source->set_data(xs, ys);
  gp::GpFitOptions fit;
  fit.iterations = 30;
  source->fit(fit, rng);

  gp::KatGpConfig cfg;
  cfg.init_iterations = 40;
  gp::KatGp kat(source.get(), 2, 1, cfg, rng);
  const std::size_t n_tgt = 20;
  la::Matrix xt = random_points(n_tgt, 2, rng);
  la::Matrix yt(n_tgt, 1);
  for (std::size_t i = 0; i < n_tgt; ++i)
    yt(i, 0) = std::sin(4.0 * xt(i, 0)) + 1.2 * xt(i, 1);
  kat.set_target_data(xt, yt);
  kat.fit(rng);

  const auto q = random_points(13, 2, rng);
  const auto batch = kat.predict_batch(q);
  ASSERT_EQ(batch.size(), q.rows());
  for (std::size_t i = 0; i < q.rows(); ++i) {
    const auto ref = kat.predict(q.row(i));
    ASSERT_EQ(batch[i].size(), ref.size());
    for (std::size_t m = 0; m < ref.size(); ++m) {
      EXPECT_NEAR(batch[i][m].mean, ref[m].mean, 1e-10) << i;
      EXPECT_NEAR(batch[i][m].var, ref[m].var, 1e-10) << i;
    }
  }
}

TEST(PredictBatch, KatGpFitAndRefitBitIdenticalAcrossThreadCounts) {
  // KAT-GP's source stage, per-point gradient stage, exact-NLL sweeps and
  // predict_batch each run one parallel_for (the source stages over
  // (source metric x query rows), with chunks straddling metric
  // boundaries).  An initial fit plus one warm refit must give the same
  // predict_batch bits at 1, 2, 3 and 4 threads.
  auto run = [](const char* threads) {
    ThreadsEnv env(threads);
    kato::util::Rng rng(54);
    const std::size_t d = 3;
    const std::size_t m_s = 3;
    auto source = std::make_unique<gp::MultiGp>(m_s, [] {
      return std::make_unique<kern::StationaryArd>(kern::StationaryType::rbf, 3);
    });
    const std::size_t n_src = 90;
    la::Matrix xs = random_points(n_src, d, rng);
    la::Matrix ys(n_src, m_s);
    for (std::size_t i = 0; i < n_src; ++i) {
      ys(i, 0) = std::sin(4.0 * xs(i, 0)) + xs(i, 1);
      ys(i, 1) = xs(i, 1) * xs(i, 2);
      ys(i, 2) = std::cos(3.0 * xs(i, 2)) - xs(i, 0);
    }
    source->set_data(xs, ys);
    gp::GpFitOptions fit;
    fit.iterations = 10;
    source->fit(fit, rng);

    gp::KatGpConfig cfg;
    cfg.init_iterations = 20;
    cfg.refit_iterations = 10;
    cfg.eval_every = 5;
    cfg.batch_size = 25;
    gp::KatGp kat(source.get(), d, 2, cfg, rng);
    auto target = [&](std::size_t n) {
      la::Matrix xt = random_points(n, d, rng);
      la::Matrix yt(n, 2);
      for (std::size_t i = 0; i < n; ++i) {
        yt(i, 0) = std::sin(4.0 * xt(i, 0)) + 1.2 * xt(i, 1);
        yt(i, 1) = xt(i, 1) * xt(i, 2) + 0.1;
      }
      kat.set_target_data(xt, yt);
    };
    target(30);
    kat.fit(rng);
    target(41);
    kat.fit(rng);
    std::vector<double> out;
    for (const auto& row : kat.predict_batch(random_points(37, d, rng)))
      for (const auto& p : row) {
        out.push_back(p.mean);
        out.push_back(p.var);
      }
    return out;
  };
  const auto serial = run("1");
  ASSERT_EQ(serial.size(), 37u * 2u * 2u);
  // 2 and 3 threads split the 25-point minibatch and the 30/41-point NLL
  // sweeps into uneven chunks.
  for (const char* threads : {"2", "3", "4"}) {
    SCOPED_TRACE(threads);
    const auto threaded = run(threads);
    ASSERT_EQ(threaded.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
      EXPECT_EQ(serial[i], threaded[i]) << i;
  }
}

TEST(ThreadedMace, ProposalsBitIdenticalToSingleThread) {
  const auto surr = fitted_surrogate(48);
  const std::vector<kato::ckt::MetricSpec> specs{{"c0", "", 0.5, true}};
  bo::MaceOptions opts;
  opts.nsga.population = 16;
  opts.nsga.generations = 6;

  auto run = [&] {
    kato::util::Rng rng(49);
    return bo::mace_proposals(surr, specs, 0.1, opts, rng, {});
  };

  kato::moo::ParetoSet single;
  {
    ThreadsEnv env("1");
    single = run();
  }
  kato::moo::ParetoSet threaded;
  {
    ThreadsEnv env("4");
    threaded = run();
  }
  // The proposal set must be bit-identical: same designs, same acquisition
  // values, same order.
  ASSERT_EQ(single.x.size(), threaded.x.size());
  for (std::size_t i = 0; i < single.x.size(); ++i) {
    EXPECT_EQ(single.x[i], threaded.x[i]) << "design " << i;
    EXPECT_EQ(single.f[i], threaded.f[i]) << "objective " << i;
  }
}

// FOM mode's proposals: one metric, no specs.
TEST(ThreadedMace, UnconstrainedVariantBitIdenticalToo) {
  const auto surr = fitted_surrogate(50, 1);
  bo::MaceOptions opts;
  opts.nsga.population = 12;
  opts.nsga.generations = 4;
  auto run = [&] {
    kato::util::Rng rng(51);
    return bo::mace_proposals(surr, {}, 0.2, opts, rng, {});
  };
  kato::moo::ParetoSet single;
  {
    ThreadsEnv env(nullptr);  // unset: defaults to 1
    single = run();
  }
  kato::moo::ParetoSet threaded;
  {
    ThreadsEnv env("3");
    threaded = run();
  }
  ASSERT_EQ(single.x.size(), threaded.x.size());
  for (std::size_t i = 0; i < single.x.size(); ++i) {
    EXPECT_EQ(single.x[i], threaded.x[i]);
    EXPECT_EQ(single.f[i], threaded.f[i]);
  }
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadsEnv env("5");
  std::vector<int> hits(1001, 0);
  kato::util::parallel_for(hits.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i] += 1;
  });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i], 1);
}

TEST(ParallelFor, PropagatesExceptions) {
  ThreadsEnv env("4");
  EXPECT_THROW(
      kato::util::parallel_for(100,
                               [&](std::size_t b, std::size_t) {
                                 if (b == 0) throw std::runtime_error("boom");
                               }),
      std::runtime_error);
}

TEST(ThreadCount, ParsesEnvironment) {
  const std::size_t cap = kato::util::thread_cap();
  EXPECT_GE(cap, 4u);  // floor keeps oversubscription tests meaningful
  {
    ThreadsEnv env(nullptr);
    EXPECT_EQ(kato::util::thread_count(), 1u);
  }
  {
    ThreadsEnv env("");
    EXPECT_EQ(kato::util::thread_count(), 1u);
  }
  {
    ThreadsEnv env("2");
    EXPECT_EQ(kato::util::thread_count(), 2u);
  }
  {
    // Clamped to [1, thread_cap()].
    ThreadsEnv env("6");
    EXPECT_EQ(kato::util::thread_count(), std::min<std::size_t>(6, cap));
  }
  {
    ThreadsEnv env("1000");
    EXPECT_EQ(kato::util::thread_count(), cap);
  }
  {
    ThreadsEnv env("0");
    EXPECT_EQ(kato::util::thread_count(), 1u);
  }
  {
    ThreadsEnv env("-3");
    EXPECT_EQ(kato::util::thread_count(), 1u);
  }
  {
    ThreadsEnv env("garbage");
    EXPECT_EQ(kato::util::thread_count(), 1u);
  }
  {
    // Trailing junk is rejected outright, not best-effort parsed.
    ThreadsEnv env("6abc");
    EXPECT_EQ(kato::util::thread_count(), 1u);
  }
  {
    ThreadsEnv env("2 ");
    EXPECT_EQ(kato::util::thread_count(), 1u);
  }
}

TEST(ParallelFor, NestedCallsRunInlineWithoutDeadlock) {
  ThreadsEnv env("4");
  const std::size_t outer = 24;
  const std::size_t inner = 16;
  std::vector<int> hits(outer * inner, 0);
  kato::util::parallel_for(outer, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i)
      kato::util::parallel_for(inner, [&](std::size_t jb, std::size_t je) {
        for (std::size_t j = jb; j < je; ++j) hits[i * inner + j] += 1;
      });
  });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i], 1) << i;
}

// ---------------------------------------------------------------------------
// Fused kernel workspace path: matrix_ws/backward_ws must be drop-in
// replacements for the per-entry matrix()/backward() pair.

namespace {

/// Relative comparison: |a - b| <= tol * max(1, |a|).
void expect_rel_near(double a, double b, double tol, const char* what,
                     std::size_t idx) {
  EXPECT_NEAR(a, b, tol * std::max(1.0, std::abs(a))) << what << " [" << idx
                                                      << "]";
}

void check_fused_matches_reference(kern::Kernel& k, std::size_t n,
                                   std::uint64_t seed) {
  kato::util::Rng rng(seed);
  const la::Matrix x = random_points(n, k.input_dim(), rng);
  // Randomize hyperparameters so the ARD/shape code paths are exercised away
  // from their exact init values.
  for (auto& p : k.params()) p = 0.3 * rng.normal();

  const la::Matrix k_ref = k.matrix(x);
  auto ws = k.fit_workspace(x);
  la::Matrix k_ws;
  k.matrix_ws(*ws, k_ws);
  ASSERT_EQ(k_ws.rows(), n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      expect_rel_near(k_ref(i, j), k_ws(i, j), 1e-12, "K", i * n + j);

  // Arbitrary (asymmetric) upstream gradient.
  la::Matrix dk(n, n);
  for (auto& v : dk.data()) v = rng.normal();
  std::vector<double> grad_ref(k.n_params(), 0.0);
  k.backward(x, dk, grad_ref);
  std::vector<double> grad_ws(k.n_params(), 0.0);
  k.backward_ws(*ws, dk, grad_ws);
  for (std::size_t p = 0; p < grad_ref.size(); ++p)
    expect_rel_near(grad_ref[p], grad_ws[p], 1e-12, "grad", p);
}

}  // namespace

TEST(FusedKernel, StationaryRbfMatchesReference) {
  kern::StationaryArd k(kern::StationaryType::rbf, 5);
  check_fused_matches_reference(k, 40, 60);
}

TEST(FusedKernel, StationaryRqMatchesReference) {
  kern::StationaryArd k(kern::StationaryType::rq, 4);
  check_fused_matches_reference(k, 35, 61);
}

TEST(FusedKernel, StationaryMatern32MatchesReference) {
  kern::StationaryArd k(kern::StationaryType::matern32, 3);
  check_fused_matches_reference(k, 30, 62);
}

TEST(FusedKernel, StationaryMatern52MatchesReference) {
  kern::StationaryArd k(kern::StationaryType::matern52, 6);
  check_fused_matches_reference(k, 30, 63);
}

TEST(FusedKernel, NeukMatchesReference) {
  kato::util::Rng rng(64);
  kern::NeukConfig cfg;
  kern::NeukKernel k(6, cfg, rng);
  check_fused_matches_reference(k, 40, 65);
}

TEST(FusedKernel, PeriodicFallsBackToGenericPath) {
  kern::PeriodicArd k(3);
  check_fused_matches_reference(k, 25, 66);
}

namespace {

/// NLL and gradient through the per-entry kernel path (matrix/backward)
/// and the dense solve-based inverse: the reference the fit's fused
/// workspace path is checked against.
double reference_nll_and_grad(const kern::Kernel& k, double log_noise,
                              const la::Matrix& x, const la::Vector& y,
                              std::vector<double>& grad) {
  const std::size_t n = x.rows();
  la::Matrix km = k.matrix(x);
  const double noise = std::max(std::exp(log_noise), 1e-12);
  for (std::size_t i = 0; i < n; ++i) km(i, i) += noise;
  const auto chol = la::cholesky_jittered(km);
  const la::Vector alpha = la::cholesky_solve(chol.l, y);
  const double nll = 0.5 * la::dot(y, alpha) +
                     0.5 * la::cholesky_logdet(chol.l) +
                     0.5 * static_cast<double>(n) * std::log(6.283185307179586);
  la::Matrix dk = la::cholesky_inverse(chol.l);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      dk(i, j) = 0.5 * (dk(i, j) - alpha[i] * alpha[j]);
  grad.assign(k.n_params() + 1, 0.0);
  k.backward(x, dk, std::span<double>(grad.data(), k.n_params()));
  double trace = 0.0;
  for (std::size_t i = 0; i < n; ++i) trace += dk(i, i);
  grad.back() = trace * noise;
  return nll;
}

struct ReferenceFit {
  std::unique_ptr<kern::Kernel> kernel;  ///< at the best parameters
  double log_noise = 0.0;
  double best_nll = 0.0;
};

/// GaussianProcess::fit's Adam loop (full data, no subsampling) over
/// reference_nll_and_grad, from the model's current hyperparameters.
ReferenceFit reference_fit(const gp::GaussianProcess& m, const la::Vector& y,
                           const gp::GpFitOptions& opts) {
  ReferenceFit out{m.kernel().clone(), std::log(m.noise_var()),
                   std::numeric_limits<double>::infinity()};
  auto kp = out.kernel->params();
  const std::size_t np = kp.size() + 1;
  std::vector<double> theta(kp.begin(), kp.end());
  theta.push_back(out.log_noise);
  std::vector<double> best = theta;
  std::vector<double> grad;
  kato::nn::Adam adam(np, opts.lr);
  for (int it = 0; it < opts.iterations; ++it) {
    std::copy(theta.begin(), theta.end() - 1, kp.begin());
    const double nll = reference_nll_and_grad(*out.kernel, theta.back(),
                                              m.train_x(), y, grad);
    if (nll < out.best_nll) {
      out.best_nll = nll;
      best = theta;
    }
    adam.step(theta, grad);
    theta.back() = std::max(theta.back(), std::log(opts.min_noise));
  }
  std::copy(best.begin(), best.end() - 1, kp.begin());
  out.log_noise = best.back();
  return out;
}

}  // namespace

TEST(FusedKernel, GpFitAgreesWithReferencePath) {
  // A fit through the fused workspace path and the reference loop above,
  // from the same warm start, must land on the same model (the paths agree
  // to ~1e-12 per step).
  auto m = fitted_neuk_gp(48, 4, 67);
  la::Vector y_std(m.n_data());
  for (std::size_t i = 0; i < y_std.size(); ++i) {
    const auto x = m.train_x().row(i);
    y_std[i] = (std::sin(3.0 * x[0]) + 0.5 * x[1] - m.y_mean()) / m.y_std();
  }
  gp::GpFitOptions opts;
  opts.iterations = 5;
  const ReferenceFit ref = reference_fit(m, y_std, opts);
  kato::util::Rng rng(68);
  m.fit(opts, rng);
  EXPECT_EQ(m.last_fit_info().iterations, 5);
  expect_rel_near(ref.best_nll, m.last_fit_info().best_nll, 1e-9, "best nll",
                  0);

  // The Neuk primitive biases are flat directions of the likelihood (the
  // primitives are stationary in u, so K is invariant to them): their exact
  // gradient is 0 and Adam steps them on cancellation noise in *both* paths.
  // Compare what is actually determined by the data — the NLL, the noise
  // and the kernel values — rather than raw parameters.
  std::vector<double> grad;
  expect_rel_near(
      reference_nll_and_grad(*ref.kernel, ref.log_noise, m.train_x(), y_std,
                             grad),
      reference_nll_and_grad(m.kernel(), std::log(m.noise_var()),
                             m.train_x(), y_std, grad),
      1e-9, "nll", 0);
  expect_rel_near(std::exp(ref.log_noise), m.noise_var(), 1e-9, "noise", 0);
  kato::util::Rng qrng(69);
  const auto q = random_points(7, 4, qrng);
  const la::Matrix k_ref = ref.kernel->cross(q, m.train_x());
  const la::Matrix k_fit = m.kernel().cross(q, m.train_x());
  for (std::size_t i = 0; i < k_ref.data().size(); ++i)
    expect_rel_near(k_ref.data()[i], k_fit.data()[i], 1e-9, "k(q, x)", i);
}

// ---------------------------------------------------------------------------
// Parallel MultiGp training: bit-identical at any thread count.

namespace {

gp::MultiGp fitted_multi(const char* threads, std::uint64_t seed,
                         const gp::GpFitOptions& opts) {
  kato::util::Rng rng(seed);
  gp::MultiGp multi(3, [&] {
    kern::NeukConfig cfg;
    return std::make_unique<kern::NeukKernel>(4, cfg, rng);
  });
  const std::size_t n = 230;  // above max_train_points: subsampling draws RNG
  la::Matrix x = random_points(n, 4, rng);
  la::Matrix y(n, 3);
  for (std::size_t i = 0; i < n; ++i) {
    y(i, 0) = std::sin(4.0 * x(i, 0));
    y(i, 1) = x(i, 1) * x(i, 2);
    y(i, 2) = std::cos(2.0 * x(i, 3));
  }
  ThreadsEnv env(threads);
  multi.set_data(x, y);
  kato::util::Rng fit_rng(seed + 1);
  multi.fit(opts, fit_rng);
  return multi;
}

}  // namespace

TEST(ParallelMultiGpFit, BitIdenticalAcrossThreadCounts) {
  gp::GpFitOptions opts;
  opts.iterations = 4;
  opts.max_train_points = 96;  // force the RNG-driven subsample
  const auto serial = fitted_multi("1", 70, opts);
  for (const char* threads : {"2", "4"}) {
    const auto par = fitted_multi(threads, 70, opts);
    for (std::size_t m = 0; m < serial.n_metrics(); ++m) {
      const auto ps = serial.metric(m).kernel().params();
      const auto pp = par.metric(m).kernel().params();
      ASSERT_EQ(ps.size(), pp.size());
      for (std::size_t i = 0; i < ps.size(); ++i)
        EXPECT_EQ(ps[i], pp[i]) << "metric " << m << " param " << i << " at "
                                << threads << " threads";
      EXPECT_EQ(serial.metric(m).noise_var(), par.metric(m).noise_var())
          << "metric " << m << " at " << threads << " threads";
    }
  }
}

// ---------------------------------------------------------------------------
// Warm-started refits.

TEST(WarmStartRefit, SurrogateHonorsRefitBudgetAndKeepsParams) {
  kato::util::Rng rng(80);
  const gp::GpFitOptions initial{20, 0.05, 192, 1e-6};
  const gp::GpFitOptions refit{4, 0.03, 128, 1e-6};
  bo::GpSurrogate surr(3, 2, bo::KernelKind::rbf, initial, refit, rng);

  const std::size_t n = 40;
  la::Matrix x = random_points(n, 3, rng);
  la::Matrix y(n, 2);
  for (std::size_t i = 0; i < n; ++i) {
    y(i, 0) = std::sin(3.0 * x(i, 0));
    y(i, 1) = x(i, 1);
  }
  // First refit: the full initial budget.
  surr.refit(x, y, rng);
  EXPECT_EQ(surr.model().metric(0).last_fit_info().iterations, 20);

  // Posterior-only update must not touch hyperparameters.
  const std::vector<double> before(
      surr.model().metric(0).kernel().params().begin(),
      surr.model().metric(0).kernel().params().end());
  surr.refit(x, y, rng, /*train_hyper=*/false);
  const auto after = surr.model().metric(0).kernel().params();
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_EQ(before[i], after[i]) << i;

  // Hyper refit: warm-started, smaller budget.
  surr.refit(x, y, rng, /*train_hyper=*/true);
  EXPECT_EQ(surr.model().metric(0).last_fit_info().iterations, 4);
}

TEST(WarmStartRefit, ZeroIterationFitPreservesHyperparameters) {
  auto model = fitted_neuk_gp(30, 3, 81);
  const std::vector<double> before(model.kernel().params().begin(),
                                   model.kernel().params().end());
  const double noise_before = model.noise_var();
  gp::GpFitOptions opts;
  opts.iterations = 0;  // refresh-only fit: the warm start must survive
  kato::util::Rng rng(82);
  model.fit(opts, rng);
  const auto after = model.kernel().params();
  for (std::size_t i = 0; i < before.size(); ++i)
    EXPECT_EQ(before[i], after[i]) << i;
  EXPECT_EQ(noise_before, model.noise_var());
}

TEST(WarmStartRefit, RefitTraceSeedReproducible) {
  // A BO-style refit sequence (grow data, alternate posterior-only and
  // hyper refits) must be bit-identical when replayed with the same seed,
  // at any thread count.
  auto run = [](const char* threads) {
    ThreadsEnv env(threads);
    kato::util::Rng rng(83);
    const gp::GpFitOptions initial{12, 0.05, 192, 1e-6};
    const gp::GpFitOptions refit{3, 0.03, 128, 1e-6};
    bo::GpSurrogate surr(2, 2, bo::KernelKind::neuk, initial, refit, rng);
    kato::util::Rng data_rng(84);
    std::vector<double> trace;
    for (int step = 0; step < 4; ++step) {
      const std::size_t n = 20 + 8 * static_cast<std::size_t>(step);
      la::Matrix x = random_points(n, 2, data_rng);
      la::Matrix y(n, 2);
      for (std::size_t i = 0; i < n; ++i) {
        y(i, 0) = std::sin(5.0 * x(i, 0)) + x(i, 1);
        y(i, 1) = x(i, 0) * x(i, 1);
      }
      surr.refit(x, y, rng, step % 2 == 0);
      const auto p = surr.predict(std::vector<double>{0.3, 0.7});
      trace.push_back(p[0].mean);
      trace.push_back(p[0].var);
      trace.push_back(p[1].mean);
    }
    return trace;
  };
  const auto t1 = run(nullptr);
  const auto t2 = run(nullptr);
  const auto t3 = run("4");
  ASSERT_EQ(t1.size(), t2.size());
  for (std::size_t i = 0; i < t1.size(); ++i) {
    EXPECT_EQ(t1[i], t2[i]) << i;
    EXPECT_EQ(t1[i], t3[i]) << i << " (threaded)";
  }
}

// ---------------------------------------------------------------------------
// Batched source-GP gradients (the KAT-GP training hot path).

namespace {

/// A Neuk GP and stationary source GPs of the transfer workload's shape
/// (n = 200): Neuk contracts input_grad() in the default
/// posterior_input_grad, RBF takes its gradient from the cross row, RQ and
/// Matern 5/2 recompute r2.
std::vector<std::pair<const char*, gp::GaussianProcess>> source_models() {
  std::vector<std::pair<const char*, gp::GaussianProcess>> models;
  models.emplace_back("neuk", fitted_neuk_gp(50, 4, 90));
  for (const auto& [name, type] :
       {std::pair{"rbf", kern::StationaryType::rbf},
        std::pair{"rq", kern::StationaryType::rq},
        std::pair{"matern52", kern::StationaryType::matern52}}) {
    kato::util::Rng rng(92);
    gp::GaussianProcess model(std::make_unique<kern::StationaryArd>(type, 6));
    const auto x = random_points(200, 6, rng);
    la::Vector y(x.rows());
    for (std::size_t i = 0; i < x.rows(); ++i)
      y[i] = std::sin(4.0 * x(i, 0)) + x(i, 1) * x(i, 2);
    model.set_data(x, y);
    gp::GpFitOptions opts;
    opts.iterations = 10;
    model.fit(opts, rng);
    models.emplace_back(name, std::move(model));
  }
  return models;
}

}  // namespace

TEST(PredictStdGradBatch, BitIdenticalToPerPointCalls) {
  // Query counts cover a single query, partial and whole contraction
  // blocks, and thread chunks that are not block multiples.
  for (const auto& [name, model] : source_models()) {
    for (const std::size_t m : {1, 7, 8, 9, 21, 130}) {
      kato::util::Rng rng(91 + m);
      const auto q = random_points(m, model.input_dim(), rng);

      // Per-point references: predict_std_grad keeps the la::matvec algebra.
      std::vector<gp::GpPrediction> ref(m);
      std::vector<gp::GpPrediction> std_ref(m);
      la::Matrix dm_ref(m, q.cols());
      la::Matrix dv_ref(m, q.cols());
      for (std::size_t i = 0; i < m; ++i) {
        la::Vector dm;
        la::Vector dv;
        model.predict_std_grad(q.row(i), ref[i], dm, dv);
        dm_ref.set_row(i, dm);
        dv_ref.set_row(i, dv);
        std_ref[i] = model.predict_std(q.row(i));
      }

      for (const char* threads : {"1", "4"}) {
        SCOPED_TRACE(std::string(name) + " m=" + std::to_string(m) +
                     " threads=" + threads);
        ThreadsEnv env(threads);
        std::vector<gp::GpPrediction> preds;
        la::Matrix dmean;
        la::Matrix dvar;
        model.predict_std_grad_batch(q, preds, dmean, dvar);
        ASSERT_EQ(preds.size(), m);
        std::vector<gp::GpPrediction> preds_exact;
        model.predict_std_batch_exact(q, preds_exact);
        ASSERT_EQ(preds_exact.size(), m);

        // Bit-identical: the blocked K^-1 contraction keeps every query's
        // summation order, so KAT-GP training results are unchanged by the
        // batching at any thread count.
        for (std::size_t i = 0; i < m; ++i) {
          EXPECT_EQ(preds[i].mean, ref[i].mean) << i;
          EXPECT_EQ(preds[i].var, ref[i].var) << i;
          EXPECT_EQ(preds_exact[i].mean, ref[i].mean) << i;
          EXPECT_EQ(preds_exact[i].var, ref[i].var) << i;
          EXPECT_EQ(preds_exact[i].mean, std_ref[i].mean) << i;
          EXPECT_EQ(preds_exact[i].var, std_ref[i].var) << i;
          for (std::size_t j = 0; j < q.cols(); ++j) {
            EXPECT_EQ(dmean(i, j), dm_ref(i, j)) << i << "," << j;
            EXPECT_EQ(dvar(i, j), dv_ref(i, j)) << i << "," << j;
          }
        }
      }
    }
  }
}

TEST(PredictStdGradBatch, MeanOnlyRowsMatchFullCoreBytes) {
  // KAT-GP's warm-up runs the K^-1 row core without d var/dx: it must
  // return exactly the bytes of the full core's mean and d mean/dx, and
  // mark the skipped variance as NaN.
  for (const auto& [name, model] : source_models()) {
    for (const std::size_t m : {1, 9, 21}) {
      SCOPED_TRACE(std::string(name) + " m=" + std::to_string(m));
      kato::util::Rng rng(191 + m);
      const auto q = random_points(m, model.input_dim(), rng);
      std::vector<gp::GpPrediction> full(m);
      la::Matrix dmean(m, q.cols());
      la::Matrix dvar(m, q.cols());
      model.predict_std_kinv_rows(q, 0, m, full, &dmean, &dvar);
      std::vector<gp::GpPrediction> mean_only(m);
      la::Matrix dmean_only(m, q.cols());
      // Two calls over split row ranges, as pool chunks make them.
      model.predict_std_kinv_rows(q, 0, m / 2, mean_only, &dmean_only, nullptr);
      model.predict_std_kinv_rows(q, m / 2, m, mean_only, &dmean_only, nullptr);
      for (std::size_t i = 0; i < m; ++i) {
        EXPECT_EQ(std::memcmp(&mean_only[i].mean, &full[i].mean,
                              sizeof(double)), 0) << i;
        EXPECT_TRUE(std::isnan(mean_only[i].var)) << i;
      }
      EXPECT_EQ(std::memcmp(dmean_only.data().data(), dmean.data().data(),
                            m * q.cols() * sizeof(double)), 0);
    }
  }
}

TEST(SolveLowerMulti, MatchesColumnwiseSolves) {
  kato::util::Rng rng(52);
  const std::size_t n = 30;
  la::Matrix b = random_points(n, n, rng);
  la::Matrix spd = la::matmul_nt(b, b);
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += static_cast<double>(n);
  const auto l = la::cholesky(spd);
  ASSERT_TRUE(l.has_value());

  const std::size_t m = 7;
  la::Matrix rhs = random_points(n, m, rng);
  const la::Matrix x = la::solve_lower_multi(*l, rhs);
  for (std::size_t j = 0; j < m; ++j) {
    la::Vector col(n);
    for (std::size_t i = 0; i < n; ++i) col[i] = rhs(i, j);
    const auto ref = la::solve_lower(*l, col);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x(i, j), ref[i], 1e-12);
  }
}
