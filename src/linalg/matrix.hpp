#pragma once
// Dense row-major matrix/vector types used throughout the library.
//
// The GP stack and the circuit simulator only need small-to-medium dense
// algebra (N up to a few hundred), so a simple cache-friendly row-major
// implementation is sufficient and keeps the library dependency-free.

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

#include "linalg/isa.hpp"

namespace kato::la {

using Vector = std::vector<double>;

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}
  Matrix(std::size_t rows, std::size_t cols, std::vector<double> data);

  static Matrix identity(std::size_t n);
  /// Build from nested initializer list (row major), for tests.
  static Matrix from_rows(std::initializer_list<std::initializer_list<double>> rows);
  /// Build an n x d matrix from n points of dimension d.
  static Matrix from_points(const std::vector<std::vector<double>>& pts);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t i, std::size_t j) { return data_[i * cols_ + j]; }
  double operator()(std::size_t i, std::size_t j) const { return data_[i * cols_ + j]; }

  std::span<double> row(std::size_t i) { return {data_.data() + i * cols_, cols_}; }
  std::span<const double> row(std::size_t i) const {
    return {data_.data() + i * cols_, cols_};
  }
  std::vector<double> row_vec(std::size_t i) const {
    return {data_.data() + i * cols_, data_.data() + (i + 1) * cols_};
  }
  void set_row(std::size_t i, std::span<const double> values);

  std::vector<double>& data() { return data_; }
  const std::vector<double>& data() const { return data_; }

  Matrix transpose() const;

  Matrix& operator+=(const Matrix& rhs);
  Matrix& operator-=(const Matrix& rhs);
  Matrix& operator*=(double s);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

Matrix operator+(Matrix a, const Matrix& b);
Matrix operator-(Matrix a, const Matrix& b);
Matrix operator*(Matrix a, double s);
Matrix operator*(double s, Matrix a);

/// General matrix product a(m x k) * b(k x n).
Matrix matmul(const Matrix& a, const Matrix& b);
/// a^T * b without forming the transpose.
Matrix matmul_tn(const Matrix& a, const Matrix& b);
/// a * b^T without forming the transpose.
Matrix matmul_nt(const Matrix& a, const Matrix& b);

/// Matrix-vector product.
Vector matvec(const Matrix& a, const Vector& x);
/// a^T * x.
Vector matvec_t(const Matrix& a, const Vector& x);

/// Columns of the block operand of contract_block.
constexpr std::size_t k_contract_block = 8;

/// a (m x n) times an n x 8 column block b stored by row (b[k * 8 + j]),
/// written transposed: out(j, i) = sum_k a(i, k) b[k * 8 + j] for j < w.
/// out is resized to 8 x m; its rows j >= w are left unspecified.  Each
/// entry sums from 0.0 in increasing k with a separate multiply and add, so
/// row j of out is bit-identical to matvec(a, column j of b).  The GP
/// posterior's K^-1 k contraction: several rows of a share each load of b.
void contract_block(const Matrix& a, std::span<const double> b, std::size_t w,
                    Matrix& out, Isa isa = active_isa());

/// Rank-one outer product x y^T.
Matrix outer(const Vector& x, const Vector& y);

double dot(std::span<const double> a, std::span<const double> b);
double norm2(std::span<const double> a);
/// y += alpha * x
void axpy(double alpha, std::span<const double> x, std::span<double> y);

/// Squared Euclidean distance between two equal-length vectors.
double sq_dist(std::span<const double> a, std::span<const double> b);

}  // namespace kato::la
