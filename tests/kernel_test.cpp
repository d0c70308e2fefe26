#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "kernel/neuk.hpp"
#include "kernel/stationary.hpp"
#include "linalg/cholesky.hpp"
#include "nn/mlp.hpp"
#include "util/rng.hpp"

namespace kern = kato::kern;
namespace la = kato::la;

namespace {

la::Matrix random_points(std::size_t n, std::size_t d, kato::util::Rng& rng) {
  la::Matrix x(n, d);
  for (auto& v : x.data()) v = rng.uniform();
  return x;
}

/// Scalar loss L = sum_ij W_ij K_ij with a fixed random weight matrix — a
/// generic linear functional of the kernel matrix for gradient checking.
double weighted_sum(const la::Matrix& k, const la::Matrix& w) {
  double s = 0.0;
  for (std::size_t i = 0; i < k.rows(); ++i)
    for (std::size_t j = 0; j < k.cols(); ++j) s += w(i, j) * k(i, j);
  return s;
}

void check_param_gradient(kern::Kernel& k, const la::Matrix& x,
                          kato::util::Rng& rng, double tol) {
  la::Matrix w(x.rows(), x.rows());
  for (auto& v : w.data()) v = rng.normal();

  std::vector<double> analytic(k.n_params(), 0.0);
  k.backward(x, w, analytic);

  auto loss = [&] { return weighted_sum(k.matrix(x), w); };
  auto numeric = kato::nn::numeric_gradient(loss, k.params(), 1e-6);
  for (std::size_t i = 0; i < analytic.size(); ++i)
    EXPECT_NEAR(analytic[i], numeric[i], tol) << k.name() << " param " << i;
}

void check_input_gradient(kern::Kernel& k, const la::Matrix& x2,
                          kato::util::Rng& rng, double tol) {
  std::vector<double> x = rng.uniform_vec(k.input_dim());
  const la::Matrix g = k.input_grad(x, x2);
  la::Matrix xq(1, x.size());
  const double h = 1e-6;
  for (std::size_t m = 0; m < x.size(); ++m) {
    auto xp = x;
    auto xm = x;
    xp[m] += h;
    xm[m] -= h;
    la::Matrix q(1, x.size());
    q.set_row(0, xp);
    const la::Matrix kp = k.cross(q, x2);
    q.set_row(0, xm);
    const la::Matrix km = k.cross(q, x2);
    for (std::size_t j = 0; j < x2.rows(); ++j)
      EXPECT_NEAR(g(j, m), (kp(0, j) - km(0, j)) / (2 * h), tol)
          << k.name() << " dim " << m << " point " << j;
  }
}

/// posterior_input_grad is GaussianProcess's one gradient path: it must
/// equal the i-outer, j-inner contraction of input_grad() bit for bit, at a
/// random query and at a query sitting on a training point (r = 0).
void check_posterior_input_grad(const kern::Kernel& k, const la::Matrix& x2,
                                kato::util::Rng& rng) {
  const std::size_t n = x2.rows();
  const std::size_t d = k.input_dim();
  la::Vector alpha(n);
  la::Vector kinv_k(n);
  for (std::size_t i = 0; i < n; ++i) {
    alpha[i] = rng.normal();
    kinv_k[i] = rng.normal();
  }
  for (const auto& x : {rng.uniform_vec(d), x2.row_vec(0)}) {
    la::Matrix xq(1, d);
    xq.set_row(0, x);
    const la::Matrix kx = k.cross(xq, x2);
    const la::Matrix g = k.input_grad(x, x2);
    // Both sides start from nonzero values to pin the "+=" semantics.
    la::Vector dm_ref(d, 1.0);
    la::Vector dv_ref(d, -1.0);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < d; ++j) {
        dm_ref[j] += g(i, j) * alpha[i];
        dv_ref[j] += -2.0 * g(i, j) * kinv_k[i];
      }
    la::Vector dm(d, 1.0);
    la::Vector dv(d, -1.0);
    k.posterior_input_grad(x, x2, kx.row(0), alpha, kinv_k, dm, dv);
    for (std::size_t j = 0; j < d; ++j) {
      EXPECT_EQ(dm[j], dm_ref[j]) << k.name() << " dim " << j;
      EXPECT_EQ(dv[j], dv_ref[j]) << k.name() << " dim " << j;
    }
    // Mean-only mode: empty dvar and kinv_k.
    la::Vector dm_only(d, 1.0);
    k.posterior_input_grad(x, x2, kx.row(0), alpha, {}, dm_only, {});
    for (std::size_t j = 0; j < d; ++j)
      EXPECT_EQ(dm_only[j], dm_ref[j]) << k.name() << " mean-only dim " << j;
  }
}

void check_psd(const kern::Kernel& k, const la::Matrix& x) {
  la::Matrix m = k.matrix(x);
  // Symmetric?
  for (std::size_t i = 0; i < m.rows(); ++i)
    for (std::size_t j = 0; j < m.cols(); ++j)
      ASSERT_NEAR(m(i, j), m(j, i), 1e-10);
  // PSD: jittered Cholesky must succeed with tiny jitter.
  const auto jc = la::cholesky_jittered(m);
  EXPECT_LE(jc.jitter, 1e-6 * m(0, 0));
}

std::unique_ptr<kern::NeukKernel> make_neuk(std::size_t d, kato::util::Rng& rng) {
  kern::NeukConfig cfg;
  cfg.latent_dim = 3;
  cfg.mix_width = 2;
  return std::make_unique<kern::NeukKernel>(d, cfg, rng);
}

}  // namespace

// ---------------------------------------------------------------------------
// Stationary kernels: parameterized over type.

class StationaryTest : public ::testing::TestWithParam<kern::StationaryType> {};

TEST_P(StationaryTest, DiagonalEqualsAmplitude) {
  kern::StationaryArd k(GetParam(), 3);
  k.params()[0] = std::log(2.5);
  std::vector<double> x{0.1, 0.5, 0.9};
  EXPECT_NEAR(k.diag(x), 2.5, 1e-12);
  la::Matrix xq(1, 3);
  xq.set_row(0, x);
  EXPECT_NEAR(k.cross(xq, xq)(0, 0), 2.5, 1e-9);
}

TEST_P(StationaryTest, DecaysWithDistance) {
  kern::StationaryArd k(GetParam(), 2);
  la::Matrix a(1, 2);
  a.set_row(0, std::vector<double>{0.0, 0.0});
  la::Matrix b(1, 2);
  b.set_row(0, std::vector<double>{0.1, 0.1});
  la::Matrix c(1, 2);
  c.set_row(0, std::vector<double>{2.0, 2.0});
  const double near = k.cross(a, b)(0, 0);
  const double far = k.cross(a, c)(0, 0);
  EXPECT_GT(near, far);
  EXPECT_GT(near, 0.0);
}

TEST_P(StationaryTest, ParamGradientMatchesFiniteDifference) {
  kato::util::Rng rng(21);
  kern::StationaryArd k(GetParam(), 3);
  // Nontrivial hyperparameters.
  for (auto& p : k.params()) p = rng.uniform(-0.5, 0.5);
  auto x = random_points(7, 3, rng);
  check_param_gradient(k, x, rng, 1e-5);
}

TEST_P(StationaryTest, InputGradientMatchesFiniteDifference) {
  kato::util::Rng rng(22);
  kern::StationaryArd k(GetParam(), 3);
  for (auto& p : k.params()) p = rng.uniform(-0.5, 0.5);
  auto x2 = random_points(6, 3, rng);
  check_input_gradient(k, x2, rng, 1e-6);
}

TEST_P(StationaryTest, PosteriorInputGradEqualsInputGradContraction) {
  kato::util::Rng rng(24);
  // The dims cover the register passes (two lanes and four, one or two
  // registers per pass) and their scalar tails; 70 dims also exceeds the
  // on-stack ARD weight buffer, whose heap fallback must give the same
  // bits.  The row counts cross the 64-row coefficient chunks.
  for (const std::size_t d : {1, 2, 3, 4, 5, 7, 8, 9, 12, 16, 70})
    for (const std::size_t n : {9, 64, 65, 130}) {
      kern::StationaryArd k(GetParam(), d);
      for (auto& p : k.params()) p = rng.uniform(-0.5, 0.5);
      check_posterior_input_grad(k, random_points(n, d, rng), rng);
    }
}

TEST_P(StationaryTest, MatrixIsPsd) {
  kato::util::Rng rng(23);
  kern::StationaryArd k(GetParam(), 4);
  auto x = random_points(20, 4, rng);
  check_psd(k, x);
}

INSTANTIATE_TEST_SUITE_P(AllTypes, StationaryTest,
                         ::testing::Values(kern::StationaryType::rbf,
                                           kern::StationaryType::rq,
                                           kern::StationaryType::matern32,
                                           kern::StationaryType::matern52));

// ---------------------------------------------------------------------------
// Periodic kernel.

TEST(PeriodicKernel, PeriodicityHolds) {
  kern::PeriodicArd k(1);
  // period p = 0.5.
  k.params()[2] = std::log(0.5);
  la::Matrix a(1, 1);
  a.set_row(0, std::vector<double>{0.1});
  la::Matrix b(1, 1);
  b.set_row(0, std::vector<double>{0.1 + 0.5});
  EXPECT_NEAR(k.cross(a, b)(0, 0), k.diag(std::vector<double>{0.1}), 1e-9);
}

TEST(PeriodicKernel, ParamGradient) {
  kato::util::Rng rng(24);
  kern::PeriodicArd k(2);
  for (auto& p : k.params()) p = rng.uniform(-0.3, 0.3);
  auto x = random_points(6, 2, rng);
  check_param_gradient(k, x, rng, 1e-5);
}

TEST(PeriodicKernel, InputGradient) {
  kato::util::Rng rng(25);
  kern::PeriodicArd k(2);
  for (auto& p : k.params()) p = rng.uniform(-0.3, 0.3);
  auto x2 = random_points(5, 2, rng);
  check_input_gradient(k, x2, rng, 1e-6);
}

TEST(PeriodicKernel, PosteriorInputGradEqualsInputGradContraction) {
  kato::util::Rng rng(34);
  kern::PeriodicArd k(3);
  for (auto& p : k.params()) p = rng.uniform(-0.5, 0.5);
  check_posterior_input_grad(k, random_points(9, 3, rng), rng);
}

TEST(PeriodicKernel, MatrixIsPsd) {
  kato::util::Rng rng(26);
  kern::PeriodicArd k(3);
  auto x = random_points(15, 3, rng);
  check_psd(k, x);
}

// ---------------------------------------------------------------------------
// Neural kernel (Neuk).

TEST(NeukKernel, ConstantDiagonal) {
  kato::util::Rng rng(31);
  auto k = make_neuk(4, rng);
  std::vector<double> x1 = rng.uniform_vec(4);
  std::vector<double> x2 = rng.uniform_vec(4);
  EXPECT_NEAR(k->diag(x1), k->diag(x2), 1e-12);
  // diag matches cross(x,x).
  la::Matrix xq(1, 4);
  xq.set_row(0, x1);
  EXPECT_NEAR(k->cross(xq, xq)(0, 0), k->diag(x1), 1e-9);
}

TEST(NeukKernel, InitialDiagonalNearOne) {
  // Constructor calibrates b_k so that k(x,x) ~= 1 at init (standardized y).
  kato::util::Rng rng(32);
  auto k = make_neuk(5, rng);
  EXPECT_NEAR(k->diag(std::vector<double>(5, 0.5)), 1.0, 1e-9);
}

TEST(NeukKernel, SymmetricAndPsd) {
  kato::util::Rng rng(33);
  auto k = make_neuk(3, rng);
  // Perturb all parameters to a generic position.
  for (auto& p : k->params()) p += rng.uniform(-0.4, 0.4);
  auto x = random_points(18, 3, rng);
  check_psd(*k, x);
}

TEST(NeukKernel, PsdSurvivesLargeMixingWeights) {
  kato::util::Rng rng(34);
  auto k = make_neuk(2, rng);
  // Drive mixing weights up: softplus keeps them positive, so PSD must hold.
  for (auto& p : k->params()) p += rng.uniform(0.0, 2.0);
  auto x = random_points(12, 2, rng);
  check_psd(*k, x);
}

TEST(NeukKernel, ParamGradientMatchesFiniteDifference) {
  kato::util::Rng rng(35);
  auto k = make_neuk(3, rng);
  for (auto& p : k->params()) p += rng.uniform(-0.2, 0.2);
  auto x = random_points(6, 3, rng);
  check_param_gradient(*k, x, rng, 2e-5);
}

TEST(NeukKernel, InputGradientMatchesFiniteDifference) {
  kato::util::Rng rng(36);
  auto k = make_neuk(3, rng);
  for (auto& p : k->params()) p += rng.uniform(-0.2, 0.2);
  auto x2 = random_points(5, 3, rng);
  check_input_gradient(*k, x2, rng, 1e-6);
}

TEST(NeukKernel, PosteriorInputGradEqualsInputGradContraction) {
  kato::util::Rng rng(44);
  auto k = make_neuk(3, rng);
  check_posterior_input_grad(*k, random_points(9, 3, rng), rng);
}

TEST(NeukKernel, CloneIsIndependent) {
  kato::util::Rng rng(37);
  auto k = make_neuk(2, rng);
  auto c = k->clone();
  ASSERT_EQ(c->n_params(), k->n_params());
  const double before = c->params()[0];
  k->params()[0] += 1.0;
  EXPECT_DOUBLE_EQ(c->params()[0], before);
}

TEST(NeukKernel, SimilarityDecreasesWithDistance) {
  kato::util::Rng rng(38);
  auto k = make_neuk(3, rng);
  std::vector<double> base(3, 0.5);
  la::Matrix xb(1, 3);
  xb.set_row(0, base);
  double prev = k->diag(base) + 1e-9;
  for (double step : {0.05, 0.2, 0.6}) {
    std::vector<double> moved{0.5 + step, 0.5 + step, 0.5 + step};
    la::Matrix xm(1, 3);
    xm.set_row(0, moved);
    const double v = k->cross(xb, xm)(0, 0);
    EXPECT_LT(v, prev);
    prev = v;
  }
}

TEST(NeukKernel, RejectsEmptyPrimitives) {
  kato::util::Rng rng(39);
  kern::NeukConfig cfg;
  cfg.primitives.clear();
  EXPECT_THROW(kern::NeukKernel(2, cfg, rng), std::invalid_argument);
}

namespace {

/// Neuk with every parameter pinned by hand: identity transforms, zero
/// biases, unit shape parameters (alpha = p = 1) and known mixing weights.
/// In this configuration the kernel has the closed form
///   k(x,y) = exp(c + a_rbf h_rbf + a_rq h_rq + a_per h_per)
/// with r2 = ||x-y||^2, h_rbf = exp(-r2), h_rq = 1/(1+r2/2),
/// h_per = exp(-2 sum_m sin^2(pi (x_m-y_m))) — evaluated independently in
/// the tests below as a golden reference.
std::unique_ptr<kern::NeukKernel> pinned_neuk(kato::util::Rng& rng) {
  kern::NeukConfig cfg;
  cfg.latent_dim = 2;
  cfg.mix_width = 1;
  auto k = std::make_unique<kern::NeukKernel>(2, cfg, rng);
  auto p = k->params();
  std::fill(p.begin(), p.end(), 0.0);
  // Per-primitive blocks: W (2x2 row-major), b (2), then shape (rq/per only).
  p[0] = 1.0;  // rbf W = I
  p[3] = 1.0;
  p[6] = 1.0;  // rq W = I
  p[9] = 1.0;
  p[13] = 1.0;  // periodic W = I
  p[16] = 1.0;
  // Mixing: w_z = [0.2, -0.3, 0.4], b_z = 0.1, b_k = -1.0.
  p[20] = 0.2;
  p[21] = -0.3;
  p[22] = 0.4;
  p[23] = 0.1;
  p[24] = -1.0;
  return k;
}

double pinned_neuk_reference(std::span<const double> x,
                             std::span<const double> y) {
  double r2 = 0.0;
  double per = 0.0;
  for (std::size_t m = 0; m < x.size(); ++m) {
    const double d = x[m] - y[m];
    r2 += d * d;
    const double s = std::sin(M_PI * d);
    per += s * s;
  }
  const double h_rbf = std::exp(-r2);
  const double h_rq = 1.0 / (1.0 + 0.5 * r2);
  const double h_per = std::exp(-2.0 * per);
  const double c = 0.1 - 1.0;
  return std::exp(c + kern::softplus(0.2) * h_rbf +
                  kern::softplus(-0.3) * h_rq + kern::softplus(0.4) * h_per);
}

}  // namespace

TEST(NeukKernel, GoldenValuesAtPinnedParameters) {
  kato::util::Rng rng(61);
  auto k = pinned_neuk(rng);
  ASSERT_EQ(k->n_params(), 25u);

  const std::vector<std::vector<double>> pts{
      {0.0, 0.0}, {0.25, 0.75}, {0.5, 0.5}, {0.9, 0.1}};
  const la::Matrix x = la::Matrix::from_points(pts);
  const la::Matrix km = k->matrix(x);
  for (std::size_t i = 0; i < pts.size(); ++i)
    for (std::size_t j = 0; j < pts.size(); ++j)
      EXPECT_NEAR(km(i, j), pinned_neuk_reference(pts[i], pts[j]), 1e-12)
          << "pair " << i << "," << j;

  // Spot-check two precomputed constants so a silent change in the closed
  // form itself cannot slip through the reference function.
  // k(x,x) = exp(-0.9 + softplus(0.2) + softplus(-0.3) + softplus(0.4)).
  EXPECT_NEAR(k->diag(pts[0]), 3.9177180972212517, 1e-10);
  EXPECT_NEAR(km(0, 2), pinned_neuk_reference(pts[0], pts[2]), 1e-12);
  EXPECT_NEAR(km(0, 2), 1.045298351217701, 1e-10);
}

TEST(NeukKernel, PinnedParamGradientMatchesFiniteDifference) {
  kato::util::Rng rng(62);
  auto k = pinned_neuk(rng);
  auto x = random_points(6, 2, rng);
  check_param_gradient(*k, x, rng, 2e-5);
}

TEST(NeukKernel, PinnedInputGradientMatchesFiniteDifference) {
  kato::util::Rng rng(63);
  auto k = pinned_neuk(rng);
  auto x2 = random_points(5, 2, rng);
  check_input_gradient(*k, x2, rng, 1e-6);
}

TEST(NeukKernel, MatrixOverrideMatchesCross) {
  kato::util::Rng rng(64);
  auto k = make_neuk(4, rng);
  for (auto& p : k->params()) p += rng.uniform(-0.3, 0.3);
  auto x = random_points(14, 4, rng);
  const la::Matrix fast = k->matrix(x);
  const la::Matrix ref = k->cross(x, x);
  for (std::size_t i = 0; i < x.rows(); ++i)
    for (std::size_t j = 0; j < x.rows(); ++j)
      EXPECT_DOUBLE_EQ(fast(i, j), ref(i, j));
}

TEST_P(StationaryTest, MatrixOverrideMatchesCross) {
  kato::util::Rng rng(65);
  kern::StationaryArd k(GetParam(), 3);
  for (auto& p : k.params()) p = rng.uniform(-0.5, 0.5);
  auto x = random_points(12, 3, rng);
  const la::Matrix fast = k.matrix(x);
  const la::Matrix ref = k.cross(x, x);
  for (std::size_t i = 0; i < x.rows(); ++i)
    for (std::size_t j = 0; j < x.rows(); ++j)
      EXPECT_DOUBLE_EQ(fast(i, j), ref(i, j));
}

TEST(Softplus, ValueAndDerivative) {
  EXPECT_NEAR(kern::softplus(0.0), std::log(2.0), 1e-12);
  EXPECT_NEAR(kern::softplus(40.0), 40.0, 1e-9);
  EXPECT_NEAR(kern::softplus(-40.0), std::exp(-40.0), 1e-20);
  for (double x : {-3.0, 0.0, 2.0}) {
    const double h = 1e-6;
    const double num = (kern::softplus(x + h) - kern::softplus(x - h)) / (2 * h);
    EXPECT_NEAR(kern::softplus_deriv(x), num, 1e-8);
  }
}
