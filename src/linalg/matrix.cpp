#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "linalg/lanes.hpp"

namespace kato::la {

namespace {

constexpr std::size_t k_cb = k_contract_block;

/// acc[r][j] = sum_k a[r * n + k] b[k * 8 + j] for the R rows at a, from 0.0
/// in increasing k.  Each load of b feeds all R rows.
template <class L, std::size_t R>
KATO_LA_INLINE void contract_sweep(const double* a, std::size_t n,
                                   const double* b, double (&acc)[R][k_cb]) {
  using V = typename L::V;
  constexpr std::size_t nv = k_cb / L::width;
  V s[R][nv] = {};
  for (std::size_t k = 0; k < n; ++k, b += k_cb) {
    V t[nv];
#pragma GCC unroll 8
    for (std::size_t v = 0; v < nv; ++v) t[v] = at<L>(b + v * L::width);
#pragma GCC unroll 8
    for (std::size_t r = 0; r < R; ++r) {
      const double ar = a[r * n + k];
#pragma GCC unroll 8
      for (std::size_t v = 0; v < nv; ++v) s[r][v] += ar * t[v];
    }
  }
  for (std::size_t r = 0; r < R; ++r)
    for (std::size_t v = 0; v < nv; ++v) at<L>(acc[r] + v * L::width) = s[r][v];
}

/// R rows of a per sweep, then single rows.
template <class L, std::size_t R>
KATO_LA_INLINE void contract_rows(const Matrix& a, const double* b,
                                  std::size_t w, Matrix& out) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  const double* ap = a.data().data();
  std::size_t i = 0;
  for (; i + R <= m; i += R) {
    double acc[R][k_cb];
    contract_sweep<L, R>(ap + i * n, n, b, acc);
    for (std::size_t r = 0; r < R; ++r)
      for (std::size_t j = 0; j < w; ++j) out(j, i + r) = acc[r][j];
  }
  for (; i < m; ++i) {
    double acc[1][k_cb];
    contract_sweep<L, 1>(ap + i * n, n, b, acc);
    for (std::size_t j = 0; j < w; ++j) out(j, i) = acc[0][j];
  }
}

// One row per sweep on two lanes: the four accumulators already fill the
// multiply/add ports.  Four lanes take three rows (six accumulators); one
// row spills and two measured slower.
void contract_sse2(const Matrix& a, const double* b, std::size_t w,
                   Matrix& out) {
  contract_rows<L2, 1>(a, b, w, out);
}

#if KATO_LA_AVX2
KATO_LA_TARGET_AVX2 void contract_avx2(const Matrix& a, const double* b,
                                       std::size_t w, Matrix& out) {
  contract_rows<L4, 3>(a, b, w, out);
}
#endif

}  // namespace

Matrix::Matrix(std::size_t rows, std::size_t cols, std::vector<double> data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {
  if (data_.size() != rows_ * cols_)
    throw std::invalid_argument("Matrix: data size != rows*cols");
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::from_rows(std::initializer_list<std::initializer_list<double>> rows) {
  const std::size_t r = rows.size();
  const std::size_t c = r > 0 ? rows.begin()->size() : 0;
  Matrix m(r, c);
  std::size_t i = 0;
  for (const auto& row : rows) {
    if (row.size() != c)
      throw std::invalid_argument("Matrix::from_rows: ragged rows");
    std::size_t j = 0;
    for (double v : row) m(i, j++) = v;
    ++i;
  }
  return m;
}

Matrix Matrix::from_points(const std::vector<std::vector<double>>& pts) {
  const std::size_t n = pts.size();
  const std::size_t d = n > 0 ? pts.front().size() : 0;
  Matrix m(n, d);
  for (std::size_t i = 0; i < n; ++i) {
    if (pts[i].size() != d)
      throw std::invalid_argument("Matrix::from_points: ragged points");
    for (std::size_t j = 0; j < d; ++j) m(i, j) = pts[i][j];
  }
  return m;
}

void Matrix::set_row(std::size_t i, std::span<const double> values) {
  if (values.size() != cols_)
    throw std::invalid_argument("Matrix::set_row: size mismatch");
  for (std::size_t j = 0; j < cols_; ++j) (*this)(i, j) = values[j];
}

Matrix Matrix::transpose() const {
  Matrix t(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j) t(j, i) = (*this)(i, j);
  return t;
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
  if (rows_ != rhs.rows_ || cols_ != rhs.cols_)
    throw std::invalid_argument("Matrix::operator+=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
  if (rows_ != rhs.rows_ || cols_ != rhs.cols_)
    throw std::invalid_argument("Matrix::operator-=: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (auto& v : data_) v *= s;
  return *this;
}

Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
Matrix operator*(Matrix a, double s) { return a *= s; }
Matrix operator*(double s, Matrix a) { return a *= s; }

namespace {

// Cache tile for the triple loops below.  Row-major i-k-j order streams both
// operands, but once b's k-panel outgrows L1/L2 each i-row walk evicts it;
// tiling k (outermost) keeps a k_tile x cols panel of b hot across all rows
// of a.  Accumulation per output element stays in ascending-k order, so the
// tiled product is bit-identical to the naive loop.
constexpr std::size_t k_tile = 64;

}  // namespace

Matrix matmul(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.rows())
    throw std::invalid_argument("matmul: inner dimension mismatch");
  Matrix c(a.rows(), b.cols());
  for (std::size_t k0 = 0; k0 < a.cols(); k0 += k_tile) {
    const std::size_t k1 = std::min(k0 + k_tile, a.cols());
    for (std::size_t i = 0; i < a.rows(); ++i) {
      double* ci = c.data().data() + i * b.cols();
      for (std::size_t k = k0; k < k1; ++k) {
        const double aik = a(i, k);
        if (aik == 0.0) continue;
        const double* bk = b.data().data() + k * b.cols();
        for (std::size_t j = 0; j < b.cols(); ++j) ci[j] += aik * bk[j];
      }
    }
  }
  return c;
}

Matrix matmul_tn(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows())
    throw std::invalid_argument("matmul_tn: inner dimension mismatch");
  Matrix c(a.cols(), b.cols());
  for (std::size_t k = 0; k < a.rows(); ++k)
    for (std::size_t i = 0; i < a.cols(); ++i) {
      const double aki = a(k, i);
      if (aki == 0.0) continue;
      const double* bk = b.data().data() + k * b.cols();
      double* ci = c.data().data() + i * b.cols();
      for (std::size_t j = 0; j < b.cols(); ++j) ci[j] += aki * bk[j];
    }
  return c;
}

Matrix matmul_nt(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.cols())
    throw std::invalid_argument("matmul_nt: inner dimension mismatch");
  Matrix c(a.rows(), b.rows());
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < b.rows(); ++j)
      c(i, j) = dot(a.row(i), b.row(j));
  return c;
}

Vector matvec(const Matrix& a, const Vector& x) {
  if (a.cols() != x.size())
    throw std::invalid_argument("matvec: dimension mismatch");
  Vector y(a.rows(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) y[i] = dot(a.row(i), x);
  return y;
}

void contract_block(const Matrix& a, std::span<const double> b, std::size_t w,
                    Matrix& out, Isa isa) {
  if (b.size() != a.cols() * k_cb || w > k_cb)
    throw std::invalid_argument("contract_block: dimension mismatch");
  require_isa(isa, "contract_block");
  if (out.rows() != k_cb || out.cols() != a.rows()) out = Matrix(k_cb, a.rows());
#if KATO_LA_AVX2
  if (isa == Isa::avx2) return contract_avx2(a, b.data(), w, out);
#endif
  contract_sse2(a, b.data(), w, out);
}

Vector matvec_t(const Matrix& a, const Vector& x) {
  if (a.rows() != x.size())
    throw std::invalid_argument("matvec_t: dimension mismatch");
  Vector y(a.cols(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double xi = x[i];
    if (xi == 0.0) continue;
    auto row = a.row(i);
    for (std::size_t j = 0; j < a.cols(); ++j) y[j] += xi * row[j];
  }
  return y;
}

Matrix outer(const Vector& x, const Vector& y) {
  Matrix m(x.size(), y.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    for (std::size_t j = 0; j < y.size(); ++j) m(i, j) = x[i] * y[j];
  return m;
}

double dot(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) throw std::invalid_argument("dot: size mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double norm2(std::span<const double> a) { return std::sqrt(dot(a, a)); }

void axpy(double alpha, std::span<const double> x, std::span<double> y) {
  if (x.size() != y.size()) throw std::invalid_argument("axpy: size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

double sq_dist(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) throw std::invalid_argument("sq_dist: size mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double diff = a[i] - b[i];
    s += diff * diff;
  }
  return s;
}

}  // namespace kato::la
