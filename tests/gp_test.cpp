#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include "gp/gp.hpp"
#include "gp/kat_gp.hpp"
#include "kernel/neuk.hpp"
#include "kernel/stationary.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/isa.hpp"
#include "nn/mlp.hpp"
#include "util/rng.hpp"
#include "util/sampling.hpp"

namespace gp = kato::gp;
namespace kern = kato::kern;
namespace la = kato::la;

namespace {

std::unique_ptr<kern::Kernel> rbf(std::size_t d) {
  return std::make_unique<kern::StationaryArd>(kern::StationaryType::rbf, d);
}

std::unique_ptr<kern::Kernel> neuk(std::size_t d, std::uint64_t seed) {
  kato::util::Rng rng(seed);
  kern::NeukConfig cfg;
  cfg.latent_dim = 3;
  return std::make_unique<kern::NeukKernel>(d, cfg, rng);
}

/// Smooth 2-D test function on the unit square.
double smooth_fn(std::span<const double> x) {
  return std::sin(3.0 * x[0]) + 0.5 * std::cos(5.0 * x[1]) + x[0] * x[1];
}

struct Dataset {
  la::Matrix x;
  la::Vector y;
};

Dataset sample_dataset(std::size_t n, std::uint64_t seed) {
  kato::util::Rng rng(seed);
  auto design = kato::util::latin_hypercube(n, 2, rng);
  Dataset d{la::Matrix(n, 2), la::Vector(n)};
  for (std::size_t i = 0; i < n; ++i) {
    d.x.set_row(i, std::span<const double>(design.row(i), 2));
    d.y[i] = smooth_fn(d.x.row(i));
  }
  return d;
}

}  // namespace

TEST(GaussianProcess, InterpolatesTrainingData) {
  auto data = sample_dataset(30, 100);
  gp::GaussianProcess model(rbf(2));
  model.set_data(data.x, data.y);
  kato::util::Rng rng(1);
  gp::GpFitOptions opts;
  opts.iterations = 120;
  model.fit(opts, rng);
  for (std::size_t i = 0; i < 30; i += 5) {
    const auto p = model.predict(data.x.row(i));
    EXPECT_NEAR(p.mean, data.y[i], 0.15) << "train point " << i;
  }
}

TEST(GaussianProcess, GeneralizesToHeldOut) {
  auto train = sample_dataset(60, 101);
  auto test = sample_dataset(20, 202);
  gp::GaussianProcess model(rbf(2));
  model.set_data(train.x, train.y);
  kato::util::Rng rng(2);
  gp::GpFitOptions opts;
  opts.iterations = 150;
  model.fit(opts, rng);
  double rmse = 0.0;
  for (std::size_t i = 0; i < 20; ++i) {
    const auto p = model.predict(test.x.row(i));
    rmse += (p.mean - test.y[i]) * (p.mean - test.y[i]);
  }
  rmse = std::sqrt(rmse / 20.0);
  EXPECT_LT(rmse, 0.15);
}

TEST(GaussianProcess, VarianceSmallAtDataLargeAway) {
  auto data = sample_dataset(40, 103);
  gp::GaussianProcess model(rbf(2));
  model.set_data(data.x, data.y);
  kato::util::Rng rng(3);
  gp::GpFitOptions opts;
  opts.iterations = 100;
  model.fit(opts, rng);
  const auto at_data = model.predict_std(data.x.row(0));
  // Far outside the unit box, far from all samples.
  std::vector<double> far{4.0, -3.0};
  const auto away = model.predict_std(far);
  EXPECT_LT(at_data.var, away.var);
  EXPECT_GT(away.var, 0.3);  // should approach the prior amplitude
}

TEST(GaussianProcess, FitReducesNll) {
  auto data = sample_dataset(50, 104);
  gp::GaussianProcess model(rbf(2));
  model.set_data(data.x, data.y);
  const double before = model.nll();
  kato::util::Rng rng(4);
  gp::GpFitOptions opts;
  opts.iterations = 100;
  model.fit(opts, rng);
  EXPECT_LT(model.nll(), before);
}

TEST(GaussianProcess, NeukSurrogateFitsToo) {
  auto train = sample_dataset(60, 105);
  auto test = sample_dataset(15, 206);
  gp::GaussianProcess model(neuk(2, 55));
  model.set_data(train.x, train.y);
  kato::util::Rng rng(5);
  gp::GpFitOptions opts;
  opts.iterations = 200;
  opts.lr = 0.03;
  model.fit(opts, rng);
  double rmse = 0.0;
  for (std::size_t i = 0; i < 15; ++i) {
    const auto p = model.predict(test.x.row(i));
    rmse += (p.mean - test.y[i]) * (p.mean - test.y[i]);
  }
  rmse = std::sqrt(rmse / 15.0);
  EXPECT_LT(rmse, 0.25);
}

TEST(GaussianProcess, PredictStdGradMatchesFiniteDifference) {
  auto data = sample_dataset(25, 106);
  gp::GaussianProcess model(rbf(2));
  model.set_data(data.x, data.y);
  kato::util::Rng rng(6);
  gp::GpFitOptions opts;
  opts.iterations = 60;
  model.fit(opts, rng);

  std::vector<double> x{0.37, 0.61};
  gp::GpPrediction pred;
  la::Vector dmean, dvar;
  model.predict_std_grad(x, pred, dmean, dvar);

  const double h = 1e-6;
  for (std::size_t j = 0; j < 2; ++j) {
    auto xp = x;
    auto xm = x;
    xp[j] += h;
    xm[j] -= h;
    const auto pp = model.predict_std(xp);
    const auto pm = model.predict_std(xm);
    EXPECT_NEAR(dmean[j], (pp.mean - pm.mean) / (2 * h), 1e-5);
    EXPECT_NEAR(dvar[j], (pp.var - pm.var) / (2 * h), 1e-5);
  }
}

TEST(GaussianProcess, HandlesConstantTargets) {
  la::Matrix x(5, 1);
  for (std::size_t i = 0; i < 5; ++i) x(i, 0) = 0.2 * static_cast<double>(i);
  la::Vector y(5, 3.0);
  gp::GaussianProcess model(rbf(1));
  model.set_data(x, y);
  const auto p = model.predict(std::vector<double>{0.5});
  EXPECT_NEAR(p.mean, 3.0, 1e-6);
}

TEST(GaussianProcess, RejectsBadData) {
  gp::GaussianProcess model(rbf(2));
  la::Matrix x(3, 1);  // wrong dim
  la::Vector y(3, 0.0);
  EXPECT_THROW(model.set_data(x, y), std::invalid_argument);
  la::Matrix x2(3, 2);
  la::Vector y2(2, 0.0);  // wrong n
  EXPECT_THROW(model.set_data(x2, y2), std::invalid_argument);
}

TEST(MultiGp, IndependentMetrics) {
  kato::util::Rng rng(7);
  const std::size_t n = 40;
  auto design = kato::util::latin_hypercube(n, 2, rng);
  la::Matrix x(n, 2);
  la::Matrix y(n, 2);
  for (std::size_t i = 0; i < n; ++i) {
    x.set_row(i, std::span<const double>(design.row(i), 2));
    y(i, 0) = x(i, 0) + x(i, 1);          // metric 0: linear
    y(i, 1) = std::sin(4.0 * x(i, 0));    // metric 1: nonlinear in x0 only
  }
  gp::MultiGp model(2, [] { return rbf(2); });
  model.set_data(x, y);
  gp::GpFitOptions opts;
  opts.iterations = 100;
  model.fit(opts, rng);
  std::vector<double> q{0.3, 0.7};
  auto preds = model.predict(q);
  ASSERT_EQ(preds.size(), 2u);
  EXPECT_NEAR(preds[0].mean, 1.0, 0.1);
  EXPECT_NEAR(preds[1].mean, std::sin(1.2), 0.15);
}

// ---------------------------------------------------------------------------
// KAT-GP transfer tests: source and target are related nonlinear functions on
// different input spaces (3-D source, 2-D target), mimicking transfer between
// circuit topologies with different design variables.

namespace {

/// Aligned ("technology node") transfer: same design space, the target is an
/// affine warp of a wiggly source response.
double node_source_fn(std::span<const double> x) {
  return std::sin(6.0 * x[0]) + std::cos(4.0 * x[1]) * x[1];
}
double node_target_fn(std::span<const double> x) {
  return 1.4 * node_source_fn(x) + 0.5;
}

/// Cross-dimensional ("topology") transfer: 3-D source, 2-D target; the ideal
/// encoder maps (t0, t1) -> (t0, t1, 0.3) and the decoder scales and shifts.
double topo_source_fn(std::span<const double> x) {
  return std::sin(3.0 * x[0]) + x[1] * x[1] - 0.5 * x[2];
}
double topo_target_fn(std::span<const double> x) {
  std::vector<double> s{x[0], x[1], 0.3};
  return 1.5 * topo_source_fn(s) + 0.7;
}

struct TransferSetup {
  std::unique_ptr<gp::MultiGp> source;
  la::Matrix xt;
  la::Matrix yt;
};

TransferSetup make_transfer(std::size_t src_dim, std::size_t n_src,
                            std::size_t n_tgt, std::uint64_t seed,
                            double (*src_fn)(std::span<const double>),
                            double (*tgt_fn)(std::span<const double>)) {
  kato::util::Rng rng(seed);
  TransferSetup ts;
  auto src_design = kato::util::latin_hypercube(n_src, src_dim, rng);
  la::Matrix xs(n_src, src_dim);
  la::Matrix ys(n_src, 1);
  for (std::size_t i = 0; i < n_src; ++i) {
    xs.set_row(i, std::span<const double>(src_design.row(i), src_dim));
    ys(i, 0) = src_fn(xs.row(i));
  }
  ts.source = std::make_unique<gp::MultiGp>(1, [src_dim] { return rbf(src_dim); });
  ts.source->set_data(xs, ys);
  gp::GpFitOptions opts;
  opts.iterations = 120;
  ts.source->fit(opts, rng);

  auto tgt_design = kato::util::latin_hypercube(n_tgt, 2, rng);
  ts.xt = la::Matrix(n_tgt, 2);
  ts.yt = la::Matrix(n_tgt, 1);
  for (std::size_t i = 0; i < n_tgt; ++i) {
    ts.xt.set_row(i, std::span<const double>(tgt_design.row(i), 2));
    ts.yt(i, 0) = tgt_fn(ts.xt.row(i));
  }
  return ts;
}

double test_rmse(const std::function<double(std::span<const double>)>& model,
                 double (*truth)(std::span<const double>), std::uint64_t seed) {
  kato::util::Rng rng(seed);
  double se = 0.0;
  const int n = 50;
  for (int i = 0; i < n; ++i) {
    std::vector<double> q = rng.uniform_vec(2);
    se += std::pow(model(q) - truth(q), 2);
  }
  return std::sqrt(se / n);
}

}  // namespace

TEST(KatGp, TrainingReducesExactNll) {
  auto ts = make_transfer(3, 80, 40, 300, topo_source_fn, topo_target_fn);
  kato::util::Rng rng(8);
  gp::KatGpConfig cfg;
  cfg.init_iterations = 120;
  gp::KatGp kat(ts.source.get(), 2, 1, cfg, rng);
  kat.set_target_data(ts.xt, ts.yt);
  const double before = kat.nll();
  kat.fit(rng);
  const double after = kat.nll();
  EXPECT_LE(after, before);
}

TEST(KatGp, NodeTransferBeatsScratchGp) {
  // Aligned transfer with 12 target points: KAT-GP leaning on a 100-point
  // source model must beat a from-scratch GP trained on the same 12 points.
  auto ts = make_transfer(2, 100, 12, 301, node_source_fn, node_target_fn);
  kato::util::Rng rng(9);

  gp::KatGpConfig cfg;
  gp::KatGp kat(ts.source.get(), 2, 1, cfg, rng);
  kat.set_target_data(ts.xt, ts.yt);
  kat.fit(rng);

  gp::GaussianProcess scratch(rbf(2));
  la::Vector yt(ts.yt.rows());
  for (std::size_t i = 0; i < yt.size(); ++i) yt[i] = ts.yt(i, 0);
  scratch.set_data(ts.xt, yt);
  gp::GpFitOptions opts;
  opts.iterations = 120;
  scratch.fit(opts, rng);

  const double kat_rmse = test_rmse(
      [&](std::span<const double> q) { return kat.predict(q)[0].mean; },
      node_target_fn, 555);
  const double gp_rmse = test_rmse(
      [&](std::span<const double> q) { return scratch.predict(q).mean; },
      node_target_fn, 555);
  EXPECT_LT(kat_rmse, gp_rmse);
  EXPECT_LT(kat_rmse, 0.3);  // absolute quality, target std is ~1
}

TEST(KatGp, TopologyTransferLearnsCrossDimensionalMap) {
  // 3-D source -> 2-D target.  The encoder must discover the embedding; the
  // identity-biased init plus training should land near the truth.
  auto ts = make_transfer(3, 150, 12, 302, topo_source_fn, topo_target_fn);
  kato::util::Rng rng(10);
  gp::KatGpConfig cfg;
  gp::KatGp kat(ts.source.get(), 2, 1, cfg, rng);
  kat.set_target_data(ts.xt, ts.yt);
  kat.fit(rng);
  const double kat_rmse = test_rmse(
      [&](std::span<const double> q) { return kat.predict(q)[0].mean; },
      topo_target_fn, 556);
  EXPECT_LT(kat_rmse, 0.3);
}

TEST(KatGp, PredictShapesAndFiniteValues) {
  auto ts = make_transfer(3, 40, 20, 303, topo_source_fn, topo_target_fn);
  kato::util::Rng rng(11);
  gp::KatGpConfig cfg;
  cfg.init_iterations = 50;
  gp::KatGp kat(ts.source.get(), 2, 1, cfg, rng);
  kat.set_target_data(ts.xt, ts.yt);
  kat.fit(rng);
  auto preds = kat.predict(std::vector<double>{0.4, 0.6});
  ASSERT_EQ(preds.size(), 1u);
  EXPECT_TRUE(std::isfinite(preds[0].mean));
  EXPECT_GT(preds[0].var, 0.0);
}

TEST(KatGp, RefitAfterNewDataImproves) {
  auto ts = make_transfer(2, 100, 10, 304, node_source_fn, node_target_fn);
  kato::util::Rng rng(12);
  gp::KatGpConfig cfg;
  gp::KatGp kat(ts.source.get(), 2, 1, cfg, rng);
  kat.set_target_data(ts.xt, ts.yt);
  kat.fit(rng);

  // Add 10 more points (BO-style growth) and refit warm-started.
  auto more = make_transfer(2, 4, 20, 305, node_source_fn, node_target_fn);
  la::Matrix x2(20, 2);
  la::Matrix y2(20, 1);
  for (std::size_t i = 0; i < 10; ++i) {
    x2.set_row(i, ts.xt.row(i));
    y2(i, 0) = ts.yt(i, 0);
  }
  for (std::size_t i = 0; i < 10; ++i) {
    x2.set_row(10 + i, more.xt.row(i));
    y2(10 + i, 0) = more.yt(i, 0);
  }
  kat.set_target_data(x2, y2);
  kat.fit(rng);
  const double rmse = test_rmse(
      [&](std::span<const double> q) { return kat.predict(q)[0].mean; },
      node_target_fn, 557);
  EXPECT_LT(rmse, 0.35);
}

TEST(KatGp, RejectsMismatchedData) {
  auto ts = make_transfer(3, 30, 10, 306, topo_source_fn, topo_target_fn);
  kato::util::Rng rng(13);
  gp::KatGpConfig cfg;
  gp::KatGp kat(ts.source.get(), 2, 1, cfg, rng);
  la::Matrix bad_x(10, 3);  // wrong target dim
  EXPECT_THROW(kat.set_target_data(bad_x, ts.yt), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// KAT-GP training pins: a first fit (12 mean-only warm-up steps of 30) and
// one warm refit of 8 steps must reproduce these NLLs, parameters and
// predictions bit for bit.  The values come from the fully serial
// per-point backward pass; the per-point gradient work now runs on the
// pool while the additions into the shared gradients stay serial in point
// order, so any reordering of those additions (or a change to the
// mean-only source stage) shows up here.  The 30-step fit ends on an
// exact-NLL evaluation (every 5 steps past the warm-up); the 8-step refit
// ends between two, and its final parameters are its best, so the closing
// sweep that only that case needs is pinned too.

namespace {

struct KatPin {
  double nll;
  std::vector<double> params;   ///< encoder, decoder, log sigma_t^2
  std::vector<double> predict;  ///< predict_batch (mean, var) per query/metric
};

std::vector<KatPin> pinned_kat_run() {
  kato::util::Rng rng(81);
  const std::size_t d_s = 3;
  const std::size_t m_s = 2;
  const std::size_t n_src = 48;
  gp::MultiGp source(m_s, [] { return rbf(3); });
  la::Matrix xs(n_src, d_s);
  for (auto& v : xs.data()) v = rng.uniform();
  la::Matrix ys(n_src, m_s);
  for (std::size_t i = 0; i < n_src; ++i) {
    ys(i, 0) = std::sin(3.0 * xs(i, 0)) + xs(i, 1) * xs(i, 2);
    ys(i, 1) = std::cos(2.0 * xs(i, 1)) - 0.5 * xs(i, 0);
  }
  source.set_data(xs, ys);
  gp::GpFitOptions fit;
  fit.iterations = 20;
  source.fit(fit, rng);

  gp::KatGpConfig cfg;
  cfg.hidden = 4;
  cfg.init_iterations = 30;
  cfg.refit_iterations = 8;
  cfg.eval_every = 5;
  cfg.batch_size = 16;
  gp::KatGp kat(&source, 2, 2, cfg, rng);
  auto target = [&](std::size_t n) {
    la::Matrix xt(n, 2);
    for (auto& v : xt.data()) v = rng.uniform();
    la::Matrix yt(n, 2);
    for (std::size_t i = 0; i < n; ++i) {
      yt(i, 0) = 1.3 * std::sin(3.0 * xt(i, 0)) + xt(i, 1) * 0.4;
      yt(i, 1) = std::cos(2.0 * xt(i, 1)) - 0.6 * xt(i, 0) + 0.2;
    }
    kat.set_target_data(xt, yt);
  };
  la::Matrix q(3, 2);
  for (auto& v : q.data()) v = rng.uniform();
  std::vector<KatPin> out;
  for (const std::size_t n : {24, 30}) {
    target(n);
    kat.fit(rng);
    KatPin pin{kat.nll(), kat.params(), {}};
    for (const auto& row : kat.predict_batch(q))
      for (const auto& p : row) {
        pin.predict.push_back(p.mean);
        pin.predict.push_back(p.var);
      }
    out.push_back(std::move(pin));
  }
  return out;
}

void expect_kat_pin(const KatPin& got, const KatPin& want) {
  EXPECT_EQ(got.nll, want.nll);
  ASSERT_EQ(got.params.size(), want.params.size());
  for (std::size_t i = 0; i < got.params.size(); ++i)
    EXPECT_EQ(got.params[i], want.params[i]) << "param " << i;
  ASSERT_EQ(got.predict.size(), want.predict.size());
  for (std::size_t i = 0; i < got.predict.size(); ++i)
    EXPECT_EQ(got.predict[i], want.predict[i]) << "prediction " << i;
}

}  // namespace

TEST(KatGp, FitAndRefitPinnedBitForBit) {
  const KatPin first_fit{
      -0x1.c3c21a88f138fp+0,
      {
          0x1.082740127e31dp-1, 0x1.88ac032f6161dp-7, 0x1.c70368713c8fcp-6,
          0x1.f069dd3d05acdp-2, -0x1.e46319fe8e92fp-4, -0x1.df581b5bf0a91p-7,
          -0x1.e82fe06697beap-6, -0x1.a7a7a037716adp-4, -0x1.1a9144246381dp-2,
          -0x1.0bf0777a7ed62p-2, -0x1.3ea670fd450b3p-4, -0x1.bb350058fcc9dp-4,
          0x1.fea42cdba9438p+2, 0x1.f42342d61d1a7p-5, 0x1.e0e5950942f2ep-5,
          0x1.22114b241c396p-6, -0x1.1ab1988d2b2bep-5, 0x1.ff26e8c2cd945p+2,
          -0x1.4d7ebe0a73bep-5, -0x1.63a793d223804p-4, -0x1.8cd0e515a3cecp-4,
          0x1.bd95f363433aep-5, -0x1.3752e4d63b44ep-4, 0x1.5e06eb0237303p-7,
          -0x1.c339721333035p+1, -0x1.c1682528c68c9p+1, 0x1.dcd1533fba626p-2,
          0x1.2d82a1573700ap-1, 0x1.60945b793c6b2p-5, 0x1.659a4e88998fcp-7,
          0x1.f2063759e94d3p-2, -0x1.7f11ef0bf1b2bp-5, -0x1.916d6611c827cp-4,
          0x1.03b47ba578788p-6, 0x1.207dce1b6c541p-4, 0x1.692ca424a9097p-6,
          0x1.ebf4f5b45d5b4p-5, 0x1.171c25e1b033cp-5, -0x1.e8e460bae89a3p-4,
          0x1.01442569ebc96p+3, 0x1.5aec3f98b7ab8p-4, -0x1.2e518b20ade68p-5,
          0x1.ecfab07b010fep-8, 0x1.eb1383c5ad2fp-6, 0x1.026396ac9048cp+3,
          0x1.2458539ddd706p-3, 0x1.573eab30436b6p-7, -0x1.fc99e0931e3a7p+1,
          -0x1.f733927ed051cp+1, -0x1.1ecbef5e805cdp+2,
      },
      {
          0x1.56ca9c39109d7p+0, 0x1.d23b4e65523a6p-10, 0x1.f0df1bf81189p-2,
          0x1.73f63e80edefdp-9, 0x1.8dcce1a5e985p+0, 0x1.c439be08b4316p-10,
          0x1.94e1f892e4c32p-2, 0x1.70ec51dfd5422p-9, 0x1.b9f3541be973ep-1,
          0x1.f1f947b9f239p-10, 0x1.fc573687ab35ap-2, 0x1.8054dd34635b1p-9,
      }};
  const KatPin refit{
      -0x1.1c0100bc9533cp+0,
      {
          0x1.071e5726f78d2p-1, 0x1.daa66e3591134p-12, 0x1.928ed36a34a6cp-6,
          0x1.f7a5088ad052dp-2, -0x1.0219892c7087cp-3, -0x1.08b20bc2c9864p-5,
          -0x1.2fc1aaf0ec71bp-5, -0x1.eac983e6da09fp-4, -0x1.1eaec33c40193p-2,
          -0x1.0908a35fac9bap-2, -0x1.6bd6d1f8565cp-4, -0x1.ea91ffeb42f59p-4,
          0x1.fe634a9cec0bdp+2, 0x1.cc6415a3bbc53p-5, 0x1.bdd08a48b8a8cp-5,
          0x1.c3299b3a8acf3p-7, -0x1.0892b12e54e41p-5, 0x1.ff5b72c0875c4p+2,
          -0x1.32796f0a64933p-5, -0x1.56eff488b76fcp-4, -0x1.7e6204db21341p-4,
          0x1.d7b3ea509f683p-5, -0x1.28592b5624222p-4, 0x1.d5b200db80622p-7,
          -0x1.c3bbd04833a2bp+1, -0x1.c109f9afedf4p+1, 0x1.e034e029d31ep-2,
          0x1.2af09c097a9bfp-1, 0x1.6f0cdfa444044p-5, 0x1.150d3162984f9p-7,
          0x1.f4bdea1f081bp-2, -0x1.1e46ffb5014f7p-4, -0x1.7ef5b9c89345ep-4,
          0x1.8c179e205a5f5p-10, 0x1.1b0d7061f26fdp-3, 0x1.b31346d7680bap-6,
          0x1.f78c4d2e7cb82p-5, 0x1.08610d2789667p-5, -0x1.7857b7812509dp-3,
          0x1.015e3608d7ec9p+3, 0x1.72b7ce253ebbfp-4, -0x1.08b4d222e3a43p-5,
          0x1.8b46c3eff549ap-7, 0x1.0648d38092a93p-5, 0x1.0277bacf9b0b4p+3,
          0x1.2824a24e84908p-3, 0x1.9a813a6c68557p-7, -0x1.fc0afaca8aa86p+1,
          -0x1.f6ec8e5055603p+1, -0x1.1a2933bbdc95dp+2,
      },
      {
          0x1.601b683ca6459p+0, 0x1.cbfd0810284dp-10, 0x1.03aeea74b4f12p-1,
          0x1.8013f9e715ce3p-9, 0x1.8400d2bc26cdcp+0, 0x1.c35d4a8491f7ap-10,
          0x1.9eb622aa253fcp-2, 0x1.7e4c3dc6709f7p-9, 0x1.81911e2d5b342p-1,
          0x1.eed51ed3854ebp-10, 0x1.fd8e54b6ffb4cp-2, 0x1.9203f90292781p-9,
      }};
  const auto run = pinned_kat_run();
  ASSERT_EQ(run.size(), 2u);
  {
    SCOPED_TRACE("first fit");
    expect_kat_pin(run[0], first_fit);
  }
  {
    SCOPED_TRACE("refit");
    expect_kat_pin(run[1], refit);
  }
}

// ---------------------------------------------------------------------------
// Seeded training pins: a full fit at the hyper-training cap (n = 192,
// 80 Adam steps) must reproduce these best NLLs and hyperparameters bit for
// bit.  Every step runs the whole dense algebra (Cholesky, triangular
// inverse, inverse Gram), so any change to an entry's summation order in
// those kernels shows up here.

namespace {

gp::GaussianProcess pinned_fit(bool use_neuk) {
  kato::util::Rng rng(71);
  const std::size_t n = 192;
  const std::size_t d = 4;
  std::unique_ptr<kern::Kernel> k;
  if (use_neuk)
    k = std::make_unique<kern::NeukKernel>(d, kern::NeukConfig{}, rng);
  else
    k = rbf(d);
  gp::GaussianProcess model(std::move(k));
  la::Matrix x(n, d);
  for (auto& v : x.data()) v = rng.uniform();
  la::Vector y(n);
  for (std::size_t i = 0; i < n; ++i)
    y[i] = std::sin(3.0 * x(i, 0)) + x(i, 1) * x(i, 2) +
           0.1 * std::cos(5.0 * x(i, 3));
  model.set_data(x, y, false);
  gp::GpFitOptions opts;
  opts.iterations = 80;
  kato::util::Rng fit_rng(72);
  model.fit(opts, fit_rng);
  return model;
}

void expect_pinned(const gp::GaussianProcess& model, double best_nll,
                   double noise, const std::vector<double>& params) {
  EXPECT_EQ(model.last_fit_info().iterations, 80);
  EXPECT_EQ(model.last_fit_info().best_nll, best_nll);
  EXPECT_EQ(model.noise_var(), noise);
  const auto p = model.kernel().params();
  ASSERT_EQ(p.size(), params.size());
  for (std::size_t i = 0; i < p.size(); ++i)
    EXPECT_EQ(p[i], params[i]) << "param " << i;
}

}  // namespace

TEST(GaussianProcess, RbfFitPinnedAtTrainingCap) {
  expect_pinned(pinned_fit(false), -0x1.aaa86d250dabap+8,
                0x1.93f3bfc611549p-13,
                {
                    0x1.3705a200a394bp+1, -0x1.6a860de131bd5p-2,
                    -0x1.23c69764155fbp+1, -0x1.219f4348ae178p+1,
                    -0x1.0353cdd3afc27p-1,
                });
}

TEST(GaussianProcess, NeukFitPinnedAtTrainingCap) {
  expect_pinned(pinned_fit(true), -0x1.00e5714d184ap+9,
                0x1.d29999c7c9bb4p-14,
                {
                    0x1.4d464c0e17863p-5, -0x1.6219e3ddb907cp-9,
                    -0x1.a0a78514f9f98p-11, 0x1.9ff2d2c45562ep-10,
                    0x1.d19d5e3410c22p-3, 0x1.fffb54b0b4c5ap-9,
                    -0x1.b53c114757e7cp-8, -0x1.25f4afa70bf4p-7,
                    0x1.782af27f0d9a4p-7, 0x1.b3ea071bf8094p-11,
                    0x1.b18e4c4ed98bcp-10, -0x1.931b5782d8b04p-7,
                    -0x1.0ce7c03336798p-1, -0x1.980fd2c2d5534p-10,
                    0x1.77973891ffe06p-8, 0x1.f2e10e34924fp-10,
                    0x1.bcfb5a9ae4bf7p-5, 0x1.269abcbbd4a1ap-4,
                    -0x1.a2083a98abae9p-3, 0x1.167889229668cp-7,
                    0x1.4154ca4f78b21p-9, -0x1.a35a35fb24a6ap-5,
                    -0x1.8bae8dd762dd8p-5, 0x1.048a33ea3fbe2p-4,
                    0x1.b87de7fd3ab9p-11, 0x1.e7db518b59cdp-5,
                    0x1.f4d3285a354a1p-5, 0x1.6c7f79ff661a7p-2,
                    0x1.4e4511e8550cfp-9, -0x1.02de38364f59ep-3,
                    -0x1.ccfd836a95dc3p-4, 0x1.43b489215edd8p-3,
                    -0x1.02ccabf8dadf1p-6, 0x1.5239e5f51f351p-5,
                    0x1.5817eb031cb8bp-5, 0x1.792c38c220579p-3,
                    -0x1.526f581cc405ep-6, 0x1.53cf63e6f9f97p-5,
                    0x1.20cf1eb5e2087p-4, -0x1.d5756c4c9244cp-5,
                    -0x1.57d96d8740a8ep+0, 0x1.245c4853f7da2p-8,
                    0x1.27f702d676ddfp-3, -0x1.2b1b2a89eebdap-3,
                    0x1.a1071fe67c46p-9, -0x1.667cd57c9ab34p-10,
                    -0x1.9b3ae7fd5e207p-9, -0x1.28a8fe7cbff56p-8,
                    0x1.b6bab694d7ceep-8, 0x1.5b5bd0d5e3ff8p-8,
                    -0x1.9ee6c8a96c07ep-8, 0x1.77458d02e0331p-7,
                    -0x1.836886e0db8d5p-8, 0x1.153e38a721473p-8,
                    0x1.484b159a176fp-7, -0x1.ba14b9408e89ep-10,
                    -0x1.a981a9ff6754cp-10, 0x1.7d342f381bb39p-3,
                    -0x1.881ba2621d164p-3, 0x1.06f7ae6cf0e47p-3,
                    -0x1.3f97943de5f73p-3, 0x1.70d0cb64eb276p+0,
                    -0x1.1e392099e0f7bp+0, -0x1.3d762aac46eabp+0,
                    -0x1.c727e5d8989abp+0, -0x1.192cb43d17c93p+0,
                    -0x1.657f18ba374a6p+0, -0x1.022a612342961p+1,
                    0x1.96c7130e07e66p+0, 0x1.96c7130e07e66p+0,
                    -0x1.9ceb4a4df0d91p-3,
                });
}

// The K^-1 contraction under predict_std_kinv_rows (KAT-GP's source stage):
// its AVX2 build against its SSE2 build, byte for byte, on an RBF posterior's
// K^-1 with 1-8 queries per block, at sizes on both sides of the tiles' row
// and lane edges.
TEST(GaussianProcess, KinvContractionAvx2MatchesSse2Bytes) {
  if (!la::isa_supported(la::Isa::avx2))
    GTEST_SKIP() << "CPU without AVX2: the AVX2 build cannot run; the SSE2 "
                    "build is checked against la::matvec in linalg_test";
  const std::size_t sizes[] = {1,  2,  3,  4,  5,  6,  7,  8,  9,
                               10, 11, 12, 13, 14, 15, 16, 17, 18,
                               19, 20, 47, 48, 49, 192, 200, 256};
  kato::util::Rng rng(81);
  const auto kernel = rbf(3);
  la::Matrix l;
  la::Matrix kinv;
  la::Matrix t;
  la::Matrix out2;
  la::Matrix out4;
  for (const std::size_t n : sizes) {
    la::Matrix x(n, 3);
    for (auto& v : x.data()) v = rng.uniform();
    la::Matrix k = kernel->matrix(x);
    for (std::size_t i = 0; i < n; ++i) k(i, i) += 1e-2;
    la::cholesky_jittered_into(k, l);
    la::cholesky_inverse_into(l, kinv, t);
    la::Matrix xq(la::k_contract_block, 3);
    for (auto& v : xq.data()) v = rng.uniform();
    const la::Matrix kx = kernel->cross(xq, x);
    for (std::size_t w = 1; w <= la::k_contract_block; ++w) {
      // The block as predict_std_kinv_rows lays it out: kx transposed, the
      // lanes past w zero.
      std::vector<double> tile(n * la::k_contract_block, 0.0);
      for (std::size_t kk = 0; kk < n; ++kk)
        for (std::size_t j = 0; j < w; ++j)
          tile[kk * la::k_contract_block + j] = kx(j, kk);
      la::contract_block(kinv, tile, w, out2, la::Isa::sse2);
      la::contract_block(kinv, tile, w, out4, la::Isa::avx2);
      for (std::size_t j = 0; j < w; ++j)
        EXPECT_EQ(std::memcmp(out2.row(j).data(), out4.row(j).data(),
                              n * sizeof(double)),
                  0)
            << "n=" << n << " w=" << w << " query " << j;
    }
  }
}
