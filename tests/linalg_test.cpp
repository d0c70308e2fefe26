#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <vector>

#include "linalg/cholesky.hpp"
#include "linalg/isa.hpp"
#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "util/rng.hpp"

namespace la = kato::la;

TEST(Matrix, ConstructionAndIndexing) {
  la::Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 1) = -2.0;
  EXPECT_DOUBLE_EQ(m(0, 1), -2.0);
}

TEST(Matrix, FromRowsRejectsRagged) {
  EXPECT_THROW(la::Matrix::from_rows({{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Matrix, Transpose) {
  auto m = la::Matrix::from_rows({{1, 2, 3}, {4, 5, 6}});
  auto t = m.transpose();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
  EXPECT_DOUBLE_EQ(t(0, 0), 1.0);
}

TEST(Matrix, MatmulAgainstKnown) {
  auto a = la::Matrix::from_rows({{1, 2}, {3, 4}});
  auto b = la::Matrix::from_rows({{5, 6}, {7, 8}});
  auto c = la::matmul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, MatmulVariantsConsistent) {
  kato::util::Rng rng(1);
  la::Matrix a(4, 3);
  la::Matrix b(4, 5);
  for (auto& v : a.data()) v = rng.normal();
  for (auto& v : b.data()) v = rng.normal();
  auto tn = la::matmul_tn(a, b);                    // a^T b : 3x5
  auto ref = la::matmul(a.transpose(), b);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 5; ++j) EXPECT_NEAR(tn(i, j), ref(i, j), 1e-12);

  auto nt = la::matmul_nt(a.transpose(), b.transpose());  // (3x4)*(4x5)
  auto ref2 = la::matmul(a.transpose(), b);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 5; ++j) EXPECT_NEAR(nt(i, j), ref2(i, j), 1e-12);
}

TEST(Matrix, MatvecAndOuter) {
  auto a = la::Matrix::from_rows({{1, 2}, {3, 4}});
  la::Vector x{1.0, -1.0};
  auto y = la::matvec(a, x);
  EXPECT_DOUBLE_EQ(y[0], -1.0);
  EXPECT_DOUBLE_EQ(y[1], -1.0);
  auto yt = la::matvec_t(a, x);
  EXPECT_DOUBLE_EQ(yt[0], -2.0);
  EXPECT_DOUBLE_EQ(yt[1], -2.0);
  auto o = la::outer(x, x);
  EXPECT_DOUBLE_EQ(o(0, 1), -1.0);
  EXPECT_DOUBLE_EQ(o(1, 1), 1.0);
}

TEST(Cholesky, FactorsSpdMatrix) {
  auto a = la::Matrix::from_rows({{4, 2}, {2, 3}});
  auto l = la::cholesky(a);
  ASSERT_TRUE(l.has_value());
  // Reconstruct.
  auto rec = la::matmul_nt(*l, *l);
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 2; ++j) EXPECT_NEAR(rec(i, j), a(i, j), 1e-12);
}

TEST(Cholesky, RejectsIndefinite) {
  auto a = la::Matrix::from_rows({{1, 2}, {2, 1}});  // eigenvalues 3, -1
  EXPECT_FALSE(la::cholesky(a).has_value());
}

TEST(Cholesky, JitterLadderRecoversSingular) {
  // Rank-deficient PSD matrix: ones(3,3).
  la::Matrix a(3, 3, 1.0);
  auto jc = la::cholesky_jittered(a);
  EXPECT_GT(jc.jitter, 0.0);
  EXPECT_EQ(jc.l.rows(), 3u);
}

TEST(Cholesky, SolveMatchesDirect) {
  kato::util::Rng rng(2);
  const std::size_t n = 12;
  la::Matrix b(n, n);
  for (auto& v : b.data()) v = rng.normal();
  la::Matrix a = la::matmul_nt(b, b);  // SPD
  for (std::size_t i = 0; i < n; ++i) a(i, i) += 1.0;
  la::Vector rhs = rng.normal_vec(n);
  auto l = la::cholesky(a);
  ASSERT_TRUE(l.has_value());
  auto x = la::cholesky_solve(*l, rhs);
  auto ax = la::matvec(a, x);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(ax[i], rhs[i], 1e-8);
}

TEST(Cholesky, InverseAndLogdet) {
  auto a = la::Matrix::from_rows({{2, 0.5}, {0.5, 1}});
  auto l = la::cholesky(a);
  ASSERT_TRUE(l.has_value());
  auto inv = la::cholesky_inverse(*l);
  auto prod = la::matmul(a, inv);
  EXPECT_NEAR(prod(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(prod(0, 1), 0.0, 1e-12);
  EXPECT_NEAR(prod(1, 0), 0.0, 1e-12);
  EXPECT_NEAR(prod(1, 1), 1.0, 1e-12);
  EXPECT_NEAR(la::cholesky_logdet(*l), std::log(2.0 * 1.0 - 0.25), 1e-12);
}

TEST(Lu, SolvesGeneralSystem) {
  auto a = la::Matrix::from_rows({{0, 2, 1}, {1, -2, -3}, {-1, 1, 2}});
  la::Vector b{-8, 0, 3};
  auto x = la::lu_solve(a, b);
  ASSERT_TRUE(x.has_value());
  auto ax = la::matvec(a, *x);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(ax[i], b[i], 1e-10);
}

TEST(Lu, DetectsSingular) {
  auto a = la::Matrix::from_rows({{1, 2}, {2, 4}});
  la::Vector b{1, 2};
  EXPECT_FALSE(la::lu_solve(a, b).has_value());
}

TEST(Lu, ComplexSolve) {
  using cd = std::complex<double>;
  la::CMatrix a(2, 2);
  a(0, 0) = cd(1, 1);
  a(0, 1) = cd(0, -1);
  a(1, 0) = cd(2, 0);
  a(1, 1) = cd(1, -1);
  la::CVector b{cd(1, 0), cd(0, 1)};
  auto x = la::lu_solve_complex(a, b);
  ASSERT_TRUE(x.has_value());
  // Verify residual.
  for (std::size_t i = 0; i < 2; ++i) {
    cd r = -b[i];
    for (std::size_t j = 0; j < 2; ++j) r += a(i, j) * (*x)[j];
    EXPECT_NEAR(std::abs(r), 0.0, 1e-12);
  }
}

TEST(Lu, ComplexSingularDetected) {
  using cd = std::complex<double>;
  la::CMatrix a(2, 2);
  a(0, 0) = cd(1, 0);
  a(0, 1) = cd(2, 0);
  a(1, 0) = cd(2, 0);
  a(1, 1) = cd(4, 0);
  la::CVector b{cd(1, 0), cd(1, 0)};
  EXPECT_FALSE(la::lu_solve_complex(a, b).has_value());
}

TEST(VectorOps, DotNormAxpySqdist) {
  la::Vector a{1, 2, 3};
  la::Vector b{4, 5, 6};
  EXPECT_DOUBLE_EQ(la::dot(a, b), 32.0);
  EXPECT_DOUBLE_EQ(la::norm2(a), std::sqrt(14.0));
  la::axpy(2.0, a, b);
  EXPECT_DOUBLE_EQ(b[2], 12.0);
  EXPECT_DOUBLE_EQ(la::sq_dist(a, la::Vector{1, 2, 4}), 1.0);
}

// ---------------------------------------------------------------------------
// Large-matrix paths: the tiled matmul crosses its 64-wide k tile and the
// blocked Cholesky crosses its 48-wide panel only above those sizes, so the
// small-matrix tests above never execute the multi-block code.

namespace {

la::Matrix random_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  kato::util::Rng rng(seed);
  la::Matrix m(r, c);
  for (auto& v : m.data()) v = rng.uniform(-1.0, 1.0);
  return m;
}

/// Reference triple loop, deliberately independent of the tiled kernel.
la::Matrix naive_matmul(const la::Matrix& a, const la::Matrix& b) {
  la::Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double s = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) s += a(i, k) * b(k, j);
      c(i, j) = s;
    }
  return c;
}

}  // namespace

TEST(Matmul, TiledPathMatchesNaiveAcrossTileBoundary) {
  // Inner dimension 150 spans three k tiles (64 + 64 + 22).
  const auto a = random_matrix(37, 150, 101);
  const auto b = random_matrix(150, 41, 102);
  const auto c = la::matmul(a, b);
  const auto ref = naive_matmul(a, b);
  for (std::size_t i = 0; i < c.rows(); ++i)
    for (std::size_t j = 0; j < c.cols(); ++j)
      EXPECT_NEAR(c(i, j), ref(i, j), 1e-10) << i << "," << j;
}

TEST(Cholesky, BlockedPathReconstructsLargeSpd) {
  // n = 96 exercises two panels: diagonal factor, panel solve and trailing
  // update all run at least once.
  const std::size_t n = 96;
  const auto b = random_matrix(n, n, 103);
  la::Matrix spd = la::matmul_nt(b, b);
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += static_cast<double>(n);

  const auto l = la::cholesky(spd);
  ASSERT_TRUE(l.has_value());
  // Strictly lower triangular factor: upper part must stay zero.
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      EXPECT_DOUBLE_EQ((*l)(i, j), 0.0);
  // L L^T reproduces the input.
  const la::Matrix rec = la::matmul_nt(*l, *l);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      EXPECT_NEAR(rec(i, j), spd(i, j), 1e-9) << i << "," << j;
}

TEST(Cholesky, BlockedSolveMatchesDirectResidual) {
  const std::size_t n = 80;
  const auto b = random_matrix(n, n, 104);
  la::Matrix spd = la::matmul_nt(b, b);
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += static_cast<double>(n);
  const auto l = la::cholesky(spd);
  ASSERT_TRUE(l.has_value());

  kato::util::Rng rng(105);
  const la::Vector rhs = rng.normal_vec(n);
  const la::Vector x = la::cholesky_solve(*l, rhs);
  const la::Vector ax = la::matvec(spd, x);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(ax[i], rhs[i], 1e-8);
}

// ---------------------------------------------------------------------------
// The register-tiled triangular kernels against scalar references.  Each
// reference below is the plain loop the tiled routine replaces: one
// accumulator per entry, summed in increasing k.  The tiles only change
// which entries share registers, so the outputs must match byte for byte
// (memcmp), including the sign of every exact zero.

namespace {

constexpr std::size_t k_ref_block = 48;

bool ref_cholesky(const la::Matrix& a, la::Matrix& l) {
  const std::size_t n = a.rows();
  l = la::Matrix(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j) l(i, j) = a(i, j);
  for (std::size_t j0 = 0; j0 < n; j0 += k_ref_block) {
    const std::size_t j1 = std::min(n, j0 + k_ref_block);
    for (std::size_t j = j0; j < j1; ++j) {
      double diag = l(j, j);
      for (std::size_t k = j0; k < j; ++k) diag -= l(j, k) * l(j, k);
      if (!(diag > 0.0) || !std::isfinite(diag)) return false;
      const double ljj = std::sqrt(diag);
      l(j, j) = ljj;
      for (std::size_t i = j + 1; i < j1; ++i) {
        double s = l(i, j);
        for (std::size_t k = j0; k < j; ++k) s -= l(i, k) * l(j, k);
        l(i, j) = s / ljj;
      }
    }
    for (std::size_t i = j1; i < n; ++i)
      for (std::size_t c = j0; c < j1; ++c) {
        double s = l(i, c);
        for (std::size_t k = j0; k < c; ++k) s -= l(i, k) * l(c, k);
        l(i, c) = s / l(c, c);
      }
    for (std::size_t i = j1; i < n; ++i)
      for (std::size_t j = j1; j <= i; ++j) {
        double s = 0.0;
        for (std::size_t k = j0; k < j1; ++k) s += l(i, k) * l(j, k);
        l(i, j) -= s;
      }
  }
  return true;
}

/// t = (L^{-1})^T with columns in pairs: a pair's first column seeds its
/// sums with -(l t), its second with 0.0 - l t.
la::Matrix ref_lower_inverse_transposed(const la::Matrix& l) {
  const std::size_t n = l.rows();
  la::Matrix t(n, n);
  std::size_t j = 0;
  for (; j + 1 < n; j += 2) {
    t(j, j) = 1.0 / l(j, j);
    t(j, j + 1) = -l(j + 1, j) * t(j, j) / l(j + 1, j + 1);
    t(j + 1, j + 1) = 1.0 / l(j + 1, j + 1);
    for (std::size_t i = j + 2; i < n; ++i) {
      double s0 = -l(i, j) * t(j, j);
      double s1 = 0.0;
      for (std::size_t k = j + 1; k < i; ++k) {
        s0 -= l(i, k) * t(j, k);
        s1 -= l(i, k) * t(j + 1, k);
      }
      t(j, i) = s0 / l(i, i);
      t(j + 1, i) = s1 / l(i, i);
    }
  }
  for (; j < n; ++j) {
    t(j, j) = 1.0 / l(j, j);
    for (std::size_t i = j + 1; i < n; ++i) {
      double s = 0.0;
      for (std::size_t k = j; k < i; ++k) s -= l(i, k) * t(j, k);
      t(j, i) = s / l(i, i);
    }
  }
  return t;
}

la::Matrix ref_cholesky_inverse(const la::Matrix& l) {
  const std::size_t n = l.rows();
  const la::Matrix t = ref_lower_inverse_transposed(l);
  la::Matrix inv(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j) {
      double s = 0.0;
      for (std::size_t k = i; k < n; ++k) s += t(i, k) * t(j, k);
      inv(i, j) = s;
      inv(j, i) = s;
    }
  return inv;
}

la::Matrix ref_solve_lower_multi(const la::Matrix& l, const la::Matrix& b) {
  la::Matrix x = b;
  for (std::size_t i = 0; i < l.rows(); ++i) {
    for (std::size_t k = 0; k < i; ++k) {
      if (l(i, k) == 0.0) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) x(i, j) -= l(i, k) * x(k, j);
    }
    const double inv = 1.0 / l(i, i);
    for (std::size_t j = 0; j < b.cols(); ++j) x(i, j) *= inv;
  }
  return x;
}

bool same_bytes(const la::Matrix& a, const la::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(double)) == 0;
}

const std::size_t k_tile_sizes[] = {1,  2,  3,  4,   5,   7,   47,  48,  49, 50,
                                    95, 96, 97, 191, 192, 193, 255, 256, 257};

/// SPD test matrices of size n: dense (random B B^T + n I), and one whose
/// entries vanish between indices of different parity, so its factor, its
/// inverse and the solves see exact zeros of both signs.
std::vector<la::Matrix> tile_test_matrices(std::size_t n) {
  const auto b = random_matrix(n, n, 300 + n);
  la::Matrix dense = la::matmul_nt(b, b);
  for (std::size_t i = 0; i < n; ++i) dense(i, i) += static_cast<double>(n);
  la::Matrix split = dense;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      if ((i + j) % 2 == 1) split(i, j) = 0.0;
  return {dense, split};
}

/// The builds of the tiled kernels this CPU can run: SSE2 always, AVX2 when
/// supported.
std::vector<la::Isa> runnable_isas() {
  std::vector<la::Isa> isas{la::Isa::sse2};
  if (la::isa_supported(la::Isa::avx2)) isas.push_back(la::Isa::avx2);
  return isas;
}

/// A right-hand side for the multi-solve tests.  Column j < 2: -0.0 on rows
/// of parity 1 - j, negative on the others.  Against the split matrix those
/// rows of the solution stay exact zeros whose sign depends on skipping the
/// l(i, k) == 0 terms.
la::Matrix solve_rhs(std::size_t n, std::size_t m) {
  la::Matrix rhs = random_matrix(n, m, 400 + n * 31 + m);
  for (std::size_t j = 0; j < std::min<std::size_t>(m, 2); ++j)
    for (std::size_t i = 0; i < n; ++i)
      rhs(i, j) = (i + j) % 2 == 1 ? -0.0 : -1.0 - std::abs(rhs(i, j));
  return rhs;
}

const std::size_t k_solve_widths[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 24};

}  // namespace

TEST(TriangularTiles, CholeskyMatchesScalarReferenceBytes) {
  for (const la::Isa isa : runnable_isas())
    for (const std::size_t n : k_tile_sizes)
      for (const auto& a : tile_test_matrices(n)) {
        la::Matrix ref;
        la::Matrix l;
        ASSERT_TRUE(ref_cholesky(a, ref));
        ASSERT_TRUE(la::cholesky_into(a, l, 0.0, isa));
        EXPECT_TRUE(same_bytes(l, ref)) << la::isa_name(isa) << " n=" << n;
      }
}

TEST(TriangularTiles, InversesMatchScalarReferenceBytes) {
  for (const la::Isa isa : runnable_isas())
    for (const std::size_t n : k_tile_sizes)
      for (const auto& a : tile_test_matrices(n)) {
        la::Matrix l;
        ASSERT_TRUE(ref_cholesky(a, l));
        la::Matrix t;
        la::lower_inverse_transposed_into(l, t, isa);
        EXPECT_TRUE(same_bytes(t, ref_lower_inverse_transposed(l)))
            << la::isa_name(isa) << " n=" << n;
        la::Matrix inv;
        la::Matrix scratch;
        la::cholesky_inverse_into(l, inv, scratch, isa);
        EXPECT_TRUE(same_bytes(inv, ref_cholesky_inverse(l)))
            << la::isa_name(isa) << " n=" << n;
      }
}

TEST(TriangularTiles, MultiSolveMatchesScalarReferenceBytes) {
  for (const la::Isa isa : runnable_isas())
    for (const std::size_t n : k_tile_sizes)
      for (const auto& a : tile_test_matrices(n)) {
        la::Matrix l;
        ASSERT_TRUE(ref_cholesky(a, l));
        for (const std::size_t m : k_solve_widths) {
          const la::Matrix rhs = solve_rhs(n, m);
          EXPECT_TRUE(same_bytes(la::solve_lower_multi(l, rhs, isa),
                                 ref_solve_lower_multi(l, rhs)))
              << la::isa_name(isa) << " n=" << n << " m=" << m;
        }
      }
}

TEST(TriangularTiles, ContractMatchesMatvecBytes) {
  la::Matrix out;
  for (const la::Isa isa : runnable_isas())
    for (const std::size_t n : k_tile_sizes)
      for (const auto& a : tile_test_matrices(n)) {
        const la::Matrix b = random_matrix(n, la::k_contract_block, 500 + n);
        const std::size_t w = n % la::k_contract_block + 1;
        la::contract_block(a, b.data(), w, out, isa);
        for (std::size_t j = 0; j < w; ++j) {
          la::Vector col(n);
          for (std::size_t k = 0; k < n; ++k) col[k] = b(k, j);
          const la::Vector ref = la::matvec(a, col);
          EXPECT_EQ(std::memcmp(out.row(j).data(), ref.data(),
                                n * sizeof(double)),
                    0)
              << la::isa_name(isa) << " n=" << n << " query " << j;
        }
      }
}

TEST(TriangularTiles, SmallInverseMatchesColumnSolves) {
  // cholesky_inverse_small_into against the allocating per-column solves it
  // replaced in KAT-GP: solve_lower, solve_lower_transposed, then the
  // averaged mirror.
  la::Matrix inv;
  la::Vector tmp;
  for (std::size_t n = 1; n <= 9; ++n)
    for (const auto& a : tile_test_matrices(n)) {
      la::Matrix l;
      ASSERT_TRUE(ref_cholesky(a, l));
      la::Matrix ref(n, n);
      for (std::size_t j = 0; j < n; ++j) {
        la::Vector e(n, 0.0);
        e[j] = 1.0;
        const la::Vector col =
            la::solve_lower_transposed(l, la::solve_lower(l, e));
        for (std::size_t i = 0; i < n; ++i) ref(i, j) = col[i];
      }
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = i + 1; j < n; ++j) {
          const double avg = 0.5 * (ref(i, j) + ref(j, i));
          ref(i, j) = avg;
          ref(j, i) = avg;
        }
      la::cholesky_inverse_small_into(l, inv, tmp);
      EXPECT_TRUE(same_bytes(inv, ref)) << "n=" << n;
      EXPECT_TRUE(same_bytes(la::cholesky_inverse(l), ref)) << "n=" << n;
    }
}

// ---------------------------------------------------------------------------
// The AVX2 build of each tiled kernel against its SSE2 build, byte for byte,
// at sizes that hit every tile and remainder edge of both (panels of 48, row
// blocks of four, sweeps of eight columns, column tiles of two, four and
// eight).  Skipped on a CPU without AVX2, where only the SSE2 build runs (and
// is checked against the scalar references above).

namespace {

const std::size_t k_isa_sizes[] = {1,  2,  3,  4,  5,  6,  7,  8,  9,  10,
                                   11, 12, 13, 14, 15, 16, 17, 18, 19, 20,
                                   47, 48, 49, 192, 200, 256};

#define SKIP_WITHOUT_AVX2()                                         \
  if (!la::isa_supported(la::Isa::avx2))                            \
  GTEST_SKIP() << "CPU without AVX2: the AVX2 build cannot run; the " \
                  "SSE2 build is checked by TriangularTiles.*"

}  // namespace

TEST(IsaTiles, CholeskyAvx2MatchesSse2Bytes) {
  SKIP_WITHOUT_AVX2();
  for (const std::size_t n : k_isa_sizes)
    for (const auto& a : tile_test_matrices(n)) {
      la::Matrix l2;
      la::Matrix l4;
      ASSERT_TRUE(la::cholesky_into(a, l2, 0.0, la::Isa::sse2));
      ASSERT_TRUE(la::cholesky_into(a, l4, 0.0, la::Isa::avx2));
      EXPECT_TRUE(same_bytes(l2, l4)) << "n=" << n;
    }
}

TEST(IsaTiles, InversesAvx2MatchSse2Bytes) {
  SKIP_WITHOUT_AVX2();
  for (const std::size_t n : k_isa_sizes)
    for (const auto& a : tile_test_matrices(n)) {
      la::Matrix l;
      ASSERT_TRUE(la::cholesky_into(a, l, 0.0, la::Isa::sse2));
      la::Matrix t2;
      la::Matrix t4;
      la::lower_inverse_transposed_into(l, t2, la::Isa::sse2);
      la::lower_inverse_transposed_into(l, t4, la::Isa::avx2);
      EXPECT_TRUE(same_bytes(t2, t4)) << "n=" << n;
      la::Matrix inv2;
      la::Matrix inv4;
      la::cholesky_inverse_into(l, inv2, t2, la::Isa::sse2);
      la::cholesky_inverse_into(l, inv4, t4, la::Isa::avx2);
      EXPECT_TRUE(same_bytes(inv2, inv4)) << "n=" << n;
    }
}

TEST(IsaTiles, MultiSolveAvx2MatchesSse2Bytes) {
  SKIP_WITHOUT_AVX2();
  for (const std::size_t n : k_isa_sizes)
    for (const auto& a : tile_test_matrices(n)) {
      la::Matrix l;
      ASSERT_TRUE(la::cholesky_into(a, l, 0.0, la::Isa::sse2));
      for (const std::size_t m : k_solve_widths) {
        const la::Matrix rhs = solve_rhs(n, m);
        EXPECT_TRUE(same_bytes(la::solve_lower_multi(l, rhs, la::Isa::sse2),
                               la::solve_lower_multi(l, rhs, la::Isa::avx2)))
            << "n=" << n << " m=" << m;
      }
    }
}

TEST(IsaTiles, ContractAvx2MatchesSse2Bytes) {
  SKIP_WITHOUT_AVX2();
  la::Matrix out2;
  la::Matrix out4;
  for (const std::size_t n : k_isa_sizes)
    for (const auto& a : tile_test_matrices(n)) {
      const la::Matrix b = random_matrix(n, la::k_contract_block, 500 + n);
      for (std::size_t w = 1; w <= la::k_contract_block; ++w) {
        la::contract_block(a, b.data(), w, out2, la::Isa::sse2);
        la::contract_block(a, b.data(), w, out4, la::Isa::avx2);
        for (std::size_t j = 0; j < w; ++j)
          EXPECT_EQ(std::memcmp(out2.row(j).data(), out4.row(j).data(),
                                n * sizeof(double)),
                    0)
              << "n=" << n << " w=" << w << " query " << j;
      }
    }
}
