#include "linalg/cholesky.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "linalg/v2.hpp"

namespace kato::la {

namespace {

/// Factor the nb x nb block of `l` anchored at (j0, j0) in place, reading the
/// partially updated values already stored there.  Returns false when the
/// block is not positive definite.  Below each diagonal entry, four rows
/// run their independent sums side by side.
bool factor_diag_block(Matrix& l, std::size_t j0, std::size_t nb) {
  const std::size_t n = l.cols();
  const std::size_t j1 = j0 + nb;
  for (std::size_t j = j0; j < j1; ++j) {
    double* lj = l.data().data() + j * n;
    double diag = lj[j];
    for (std::size_t k = j0; k < j; ++k) diag -= lj[k] * lj[k];
    if (!(diag > 0.0) || !std::isfinite(diag)) return false;
    const double ljj = std::sqrt(diag);
    lj[j] = ljj;
    std::size_t i = j + 1;
    for (; i + 4 <= j1; i += 4) {
      double* r0 = l.data().data() + i * n;
      double* r1 = r0 + n;
      double* r2 = r1 + n;
      double* r3 = r2 + n;
      double s0 = r0[j];
      double s1 = r1[j];
      double s2 = r2[j];
      double s3 = r3[j];
      for (std::size_t k = j0; k < j; ++k) {
        const double v = lj[k];
        s0 -= r0[k] * v;
        s1 -= r1[k] * v;
        s2 -= r2[k] * v;
        s3 -= r3[k] * v;
      }
      r0[j] = s0 / ljj;
      r1[j] = s1 / ljj;
      r2[j] = s2 / ljj;
      r3[j] = s3 / ljj;
    }
    for (; i < j1; ++i) {
      double* li = l.data().data() + i * n;
      double s = li[j];
      for (std::size_t k = j0; k < j; ++k) s -= li[k] * lj[k];
      li[j] = s / ljj;
    }
  }
  return true;
}

/// Right-looking blocked Cholesky: factor a panel, triangular-solve the rows
/// below it, then subtract the panel's outer product from the trailing
/// submatrix.
constexpr std::size_t k_chol_block = 48;

/// The rows below a panel are packed in blocks of four: block b holds rows
/// 4b..4b+3 (counted from the first row below the panel), and for each panel
/// column c the four rows' values sit side by side at [b][c][0..3].  A row
/// block is then two V2 loads per column, and a block is contiguous, so the
/// tiles below stream through it.  Rows past the matrix are zero padding:
/// their lanes are computed and never written back.
template <class T>
T* panel_block(T* p, std::size_t nb, std::size_t b) {
  return p + b * nb * 4;
}

/// Triangular solve of the packed rows against the factored diagonal block
/// (rows j0..j0+nb of l), eight rows per sweep.  Each lane runs the scalar
/// recurrence of its row: s = l(i, c), minus l(i, k) l(c, k) for k = j0..c-1
/// in order, divided by l(c, c).
void panel_solve(const Matrix& l, std::size_t j0, std::size_t nb,
                 std::vector<double>& p, std::size_t blocks) {
  const std::size_t n = l.cols();
  for (std::size_t b = 0; b < blocks; b += 2) {
    double* p0 = panel_block(p.data(), nb, b);
    double* p1 = panel_block(p.data(), nb, b + 1);
    for (std::size_t c = 0; c < nb; ++c) {
      const double* lc = l.data().data() + (j0 + c) * n + j0;
      V2 s0 = load2(p0 + c * 4);
      V2 s1 = load2(p0 + c * 4 + 2);
      V2 s2 = load2(p1 + c * 4);
      V2 s3 = load2(p1 + c * 4 + 2);
      for (std::size_t k = 0; k < c; ++k) {
        const V2 v = bcast(lc[k]);
        s0 -= load2(p0 + k * 4) * v;
        s1 -= load2(p0 + k * 4 + 2) * v;
        s2 -= load2(p1 + k * 4) * v;
        s3 -= load2(p1 + k * 4 + 2) * v;
      }
      const V2 d = bcast(lc[c]);
      store2(p0 + c * 4, s0 / d);
      store2(p0 + c * 4 + 2, s1 / d);
      store2(p1 + c * 4, s2 / d);
      store2(p1 + c * 4 + 2, s3 / d);
    }
  }
}

/// l(i, j) -= sum_c l(i, c) l(j, c) over the panel's columns, for every
/// j1 <= j <= i, in 4 x 4 tiles (rows i: broadcasts, columns j: two V2
/// loads).  Each entry's sum starts at 0.0 and runs over c in order, as in
/// the scalar update, and is subtracted once.
void trailing_update(Matrix& l, std::size_t j1, std::size_t nb,
                     const std::vector<double>& p, std::size_t blocks) {
  const std::size_t n = l.cols();
  for (std::size_t bi = 0; bi < blocks; ++bi) {
    const double* pi = panel_block(p.data(), nb, bi);
    const std::size_t i0 = j1 + bi * 4;
    if (i0 >= n) break;
    for (std::size_t bj = 0; bj <= bi; ++bj) {
      const double* pj = panel_block(p.data(), nb, bj);
      V2 a00 = {0.0, 0.0};
      V2 a01 = a00, a10 = a00, a11 = a00, a20 = a00, a21 = a00, a30 = a00,
         a31 = a00;
      for (std::size_t c = 0; c < nb; ++c) {
        const V2 c0 = load2(pj + c * 4);
        const V2 c1 = load2(pj + c * 4 + 2);
        const double* r = pi + c * 4;
        const V2 v0 = bcast(r[0]);
        a00 += v0 * c0;
        a01 += v0 * c1;
        const V2 v1 = bcast(r[1]);
        a10 += v1 * c0;
        a11 += v1 * c1;
        const V2 v2 = bcast(r[2]);
        a20 += v2 * c0;
        a21 += v2 * c1;
        const V2 v3 = bcast(r[3]);
        a30 += v3 * c0;
        a31 += v3 * c1;
      }
      double acc[4][4];
      store2(acc[0], a00);
      store2(acc[0] + 2, a01);
      store2(acc[1], a10);
      store2(acc[1] + 2, a11);
      store2(acc[2], a20);
      store2(acc[2] + 2, a21);
      store2(acc[3], a30);
      store2(acc[3] + 2, a31);
      const std::size_t jt = j1 + bj * 4;
      for (std::size_t r = 0; r < 4 && i0 + r < n; ++r)
        for (std::size_t q = 0; q < 4 && jt + q <= i0 + r; ++q)
          l(i0 + r, jt + q) -= acc[r][q];
    }
  }
}

/// Terms k = c .. k1-1 of entry (i, c) of X = L^{-1}, whose row i of L is li
/// and whose column c is tc (row c of t).  Even columns seed with -(l t) and
/// odd ones with 0.0 - l t: the two seeds differ only in the sign of an
/// exact zero, and each column keeps the one it has always had.
double inverse_partial(const double* li, const double* tc, std::size_t c,
                       std::size_t k1) {
  double s = c % 2 == 0 ? -li[c] * tc[c] : 0.0 - li[c] * tc[c];
  for (std::size_t k = c + 1; k < k1; ++k) s -= li[k] * tc[k];
  return s;
}

/// Columns per sweep of lower_inverse_transposed_into (four V2 lanes).
constexpr std::size_t k_inv_cols = 8;

/// Head terms k = c0+q .. c0+7 of the eight entries (i, c0+q), q < 8, of a
/// sweep's row i: li points at l(i, c0) and wh at the sweep's own rows of
/// w (wh[q][p] = X(c0 + q, c0 + p)).  Lane pair h (columns c0+2h, c0+2h+1)
/// joins at k = c0+2h: its even column seeds there with -(l t), and its odd
/// column starts from 0.0 and takes 0.0 - l t at its own k = c0+2h+1, so
/// each lane runs inverse_partial's recurrence.
void inverse_heads(const double* li, const double* wh, V2& a0, V2& a1,
                   V2& a2, V2& a3) {
  auto seed = [&](std::size_t q) {
    return V2{-li[q] * wh[q * k_inv_cols + q], 0.0};
  };
  auto step = [&](V2& a, std::size_t h, std::size_t q) {
    a -= bcast(li[q]) * load2(wh + q * k_inv_cols + 2 * h);
  };
  a0 = seed(0);
  step(a0, 0, 1);
  step(a0, 0, 2);
  a1 = seed(2);
  for (std::size_t q = 3; q < 5; ++q) {
    step(a0, 0, q);
    step(a1, 1, q);
  }
  a2 = seed(4);
  for (std::size_t q = 5; q < 7; ++q) {
    step(a0, 0, q);
    step(a1, 1, q);
    step(a2, 2, q);
  }
  a3 = seed(6);
  step(a0, 0, 7);
  step(a1, 1, 7);
  step(a2, 2, 7);
  step(a3, 3, 7);
}

/// sum_{k = k0}^{k1-1} ti[k] tj[k], from 0.0 in increasing k.
double gram_partial(const double* ti, const double* tj, std::size_t k0,
                    std::size_t k1) {
  double s = 0.0;
  for (std::size_t k = k0; k < k1; ++k) s += ti[k] * tj[k];
  return s;
}

/// Forward sweep of L X = B over query columns [j, j + 2 nv) of x (nv = 1
/// or 2 V2 lanes per row), two rows at a time.  Row i+1 runs its k < i
/// terms alongside row i and takes its k = i term once row i is final.
/// Every entry starts from b, subtracts l(i, k) x(k, j) in increasing k
/// (skipping l(i, k) == 0) and is scaled by 1 / l(i, i).
template <std::size_t nv>
void solve_lower_tile(const Matrix& l, Matrix& x, std::size_t j) {
  static_assert(nv == 1 || nv == 2);
  const std::size_t n = l.rows();
  const std::size_t m = x.cols();
  const double* lp = l.data().data();
  double* xp = x.data().data();
  for (std::size_t i = 0; i < n; i += 2) {
    const bool pair = i + 1 < n;
    const double* l0 = lp + i * n;
    const double* l1 = pair ? l0 + n : l0;
    double* x0 = xp + i * m + j;
    double* x1 = pair ? x0 + m : x0;
    V2 a0 = load2(x0);
    V2 b0 = load2(x1);
    V2 a1 = nv == 2 ? load2(x0 + 2) : a0;
    V2 b1 = nv == 2 ? load2(x1 + 2) : b0;
    for (std::size_t k = 0; k < i; ++k) {
      const double* xk = xp + k * m + j;
      const V2 v0 = load2(xk);
      const V2 v1 = nv == 2 ? load2(xk + 2) : v0;
      if (l0[k] != 0.0) {
        const V2 s = bcast(l0[k]);
        a0 -= s * v0;
        if constexpr (nv == 2) a1 -= s * v1;
      }
      if (l1[k] != 0.0) {
        const V2 s = bcast(l1[k]);
        b0 -= s * v0;
        if constexpr (nv == 2) b1 -= s * v1;
      }
    }
    const V2 inv0 = bcast(1.0 / l0[i]);
    a0 *= inv0;
    store2(x0, a0);
    if constexpr (nv == 2) {
      a1 *= inv0;
      store2(x0 + 2, a1);
    }
    if (!pair) break;
    if (l1[i] != 0.0) {
      const V2 s = bcast(l1[i]);
      b0 -= s * a0;
      if constexpr (nv == 2) b1 -= s * a1;
    }
    const V2 inv1 = bcast(1.0 / l1[i + 1]);
    store2(x1, b0 * inv1);
    if constexpr (nv == 2) store2(x1 + 2, b1 * inv1);
  }
}

}  // namespace

std::optional<Matrix> cholesky(const Matrix& a) {
  Matrix l;
  if (!cholesky_into(a, l)) return std::nullopt;
  return l;
}

JitteredCholesky cholesky_jittered(const Matrix& a, int start_attempt) {
  JitteredCholesky result;
  result.jitter = cholesky_jittered_into(a, result.l, start_attempt);
  return result;
}

Vector solve_lower(const Matrix& l, const Vector& b) {
  const std::size_t n = l.rows();
  if (b.size() != n) throw std::invalid_argument("solve_lower: size mismatch");
  Vector x(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= l(i, k) * x[k];
    x[i] = s / l(i, i);
  }
  return x;
}

Matrix solve_lower_multi(const Matrix& l, const Matrix& b) {
  const std::size_t n = l.rows();
  if (b.rows() != n)
    throw std::invalid_argument("solve_lower_multi: size mismatch");
  const std::size_t m = b.cols();
  Matrix x = b;
  std::size_t j = 0;
  for (; j + 4 <= m; j += 4) solve_lower_tile<2>(l, x, j);
  if (j + 2 <= m) {
    solve_lower_tile<1>(l, x, j);
    j += 2;
  }
  if (j < m) {  // a last odd column: the same recurrence, one lane
    for (std::size_t i = 0; i < n; ++i) {
      const double* li = l.data().data() + i * n;
      double s = x(i, j);
      for (std::size_t k = 0; k < i; ++k)
        if (li[k] != 0.0) s -= li[k] * x(k, j);
      x(i, j) = s * (1.0 / li[i]);
    }
  }
  return x;
}

Vector solve_lower_transposed(const Matrix& l, const Vector& b) {
  const std::size_t n = l.rows();
  if (b.size() != n)
    throw std::invalid_argument("solve_lower_transposed: size mismatch");
  Vector x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double s = b[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= l(k, ii) * x[k];
    x[ii] = s / l(ii, ii);
  }
  return x;
}

Vector cholesky_solve(const Matrix& l, const Vector& b) {
  return solve_lower_transposed(l, solve_lower(l, b));
}

Matrix cholesky_inverse(const Matrix& l) {
  const std::size_t n = l.rows();
  Matrix inv(n, n);
  Vector e(n, 0.0);
  for (std::size_t j = 0; j < n; ++j) {
    e[j] = 1.0;
    Vector col = cholesky_solve(l, e);
    for (std::size_t i = 0; i < n; ++i) inv(i, j) = col[i];
    e[j] = 0.0;
  }
  // Symmetrize to remove round-off asymmetry.
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) {
      const double avg = 0.5 * (inv(i, j) + inv(j, i));
      inv(i, j) = avg;
      inv(j, i) = avg;
    }
  return inv;
}

double cholesky_logdet(const Matrix& l) {
  double s = 0.0;
  for (std::size_t i = 0; i < l.rows(); ++i) s += std::log(l(i, i));
  return 2.0 * s;
}

bool cholesky_into(const Matrix& a, Matrix& l, double jitter) {
  if (a.rows() != a.cols())
    throw std::invalid_argument("cholesky_into: matrix must be square");
  const std::size_t n = a.rows();
  if (l.rows() != n || l.cols() != n) l = Matrix(n, n);
  // Copy the lower triangle (plus jitter); factored in place panel by panel.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) l(i, j) = a(i, j);
    l(i, i) += jitter;
    for (std::size_t j = i + 1; j < n; ++j) l(i, j) = 0.0;
  }
  std::vector<double> p;  // packed rows below the current panel
  for (std::size_t j0 = 0; j0 < n; j0 += k_chol_block) {
    const std::size_t nb = std::min(k_chol_block, n - j0);
    const std::size_t j1 = j0 + nb;
    if (!factor_diag_block(l, j0, nb)) return false;
    if (j1 == n) break;
    const std::size_t rows = n - j1;
    const std::size_t blocks = (rows + 7) / 8 * 2;  // pairs for panel_solve
    p.assign(blocks * nb * 4, 0.0);
    for (std::size_t ii = 0; ii < rows; ++ii) {
      double* pb = panel_block(p.data(), nb, ii / 4) + ii % 4;
      const double* li = l.data().data() + (j1 + ii) * n + j0;
      for (std::size_t c = 0; c < nb; ++c) pb[c * 4] = li[c];
    }
    panel_solve(l, j0, nb, p, blocks);
    for (std::size_t ii = 0; ii < rows; ++ii) {
      const double* pb = panel_block(p.data(), nb, ii / 4) + ii % 4;
      double* li = l.data().data() + (j1 + ii) * n + j0;
      for (std::size_t c = 0; c < nb; ++c) li[c] = pb[c * 4];
    }
    trailing_update(l, j1, nb, p, blocks);
  }
  return true;
}

double cholesky_jittered_into(const Matrix& a, Matrix& l, int start_attempt) {
  const std::size_t n = a.rows();
  double mean_diag = 0.0;
  for (std::size_t i = 0; i < n; ++i) mean_diag += a(i, i);
  mean_diag = n > 0 ? mean_diag / static_cast<double>(n) : 1.0;
  if (mean_diag <= 0.0) mean_diag = 1.0;

  double jitter = 0.0;
  for (int attempt = 0; attempt < 8; ++attempt) {
    // start_attempt > 0 skips the first rungs as if they had failed — the
    // gp:chol_fail injection path; 0 (the default) is bit-identical to the
    // historical ladder.
    if (attempt >= start_attempt && cholesky_into(a, l, jitter)) return jitter;
    jitter = (jitter == 0.0) ? 1e-10 * mean_diag : jitter * 10.0;
  }
  throw std::runtime_error("cholesky_jittered_into: matrix not PD at max jitter");
}

void cholesky_solve_into(const Matrix& l, const Vector& b, Vector& x,
                         Vector& tmp) {
  const std::size_t n = l.rows();
  if (b.size() != n)
    throw std::invalid_argument("cholesky_solve_into: size mismatch");
  tmp.resize(n);
  x.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= l(i, k) * tmp[k];
    tmp[i] = s / l(i, i);
  }
  for (std::size_t ii = n; ii-- > 0;) {
    double s = tmp[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= l(k, ii) * x[k];
    x[ii] = s / l(ii, ii);
  }
}

void lower_inverse_transposed_into(const Matrix& l, Matrix& t) {
  const std::size_t n = l.rows();
  if (t.rows() != n || t.cols() != n) t = Matrix(n, n);
  // Column c of X = L^{-1} satisfies L x = e_c; exploiting x_i = 0 for i < c
  // the forward substitution costs n^3/6 MACs total.  Stored transposed
  // (t(c, i) = X(i, c)) so each column is built along a contiguous row.
  double* tp = t.data().data();
  for (std::size_t c = 0; c < n; ++c)
    std::fill(tp + c * n, tp + c * n + c, 0.0);
  auto entry = [&](std::size_t c, std::size_t i) {
    const double* li = l.data().data() + i * n;
    tp[c * n + i] = c == i ? 1.0 / li[i]
                           : inverse_partial(li, tp + c * n, c, i) / li[i];
  };
  // Sweeps of k_inv_cols columns c0.. .  Rows inside the sweep's own
  // triangle run one entry at a time.  Below it, rows go two at a time
  // through w, the sweep's columns of X stored by row (w[k][q] = X(k,
  // c0 + q)), as four V2 lanes per row; row i+1 takes its k = i term once
  // row i is final.
  std::vector<double> w;
  std::size_t c0 = 0;
  for (; c0 + k_inv_cols <= n; c0 += k_inv_cols) {
    const std::size_t ch = c0 + k_inv_cols;
    w.resize(n * k_inv_cols);
    for (std::size_t i = c0; i < ch; ++i)
      for (std::size_t c = c0; c <= i; ++c) {
        entry(c, i);
        w[i * k_inv_cols + (c - c0)] = tp[c * n + i];
      }
    const double* wh = w.data() + c0 * k_inv_cols;
    for (std::size_t i = ch; i < n; i += 2) {
      const bool pair = i + 1 < n;
      const double* l0 = l.data().data() + i * n;
      const double* l1 = pair ? l0 + n : l0;
      V2 a0, a1, a2, a3, b0, b1, b2, b3;
      inverse_heads(l0 + c0, wh, a0, a1, a2, a3);
      inverse_heads(l1 + c0, wh, b0, b1, b2, b3);
      const double* wk = w.data() + ch * k_inv_cols;
      for (std::size_t k = ch; k < i; ++k, wk += k_inv_cols) {
        const V2 w0 = load2(wk);
        const V2 w1 = load2(wk + 2);
        const V2 w2 = load2(wk + 4);
        const V2 w3 = load2(wk + 6);
        const V2 u = bcast(l0[k]);
        a0 -= u * w0;
        a1 -= u * w1;
        a2 -= u * w2;
        a3 -= u * w3;
        const V2 v = bcast(l1[k]);
        b0 -= v * w0;
        b1 -= v * w1;
        b2 -= v * w2;
        b3 -= v * w3;
      }
      const V2 d0 = bcast(l0[i]);
      double* wi = w.data() + i * k_inv_cols;
      store2(wi, a0 / d0);
      store2(wi + 2, a1 / d0);
      store2(wi + 4, a2 / d0);
      store2(wi + 6, a3 / d0);
      for (std::size_t q = 0; q < k_inv_cols; ++q)
        tp[(c0 + q) * n + i] = wi[q];
      if (!pair) break;
      const V2 v = bcast(l1[i]);
      const V2 d1 = bcast(l1[i + 1]);
      double* wj = wi + k_inv_cols;
      store2(wj, (b0 - v * load2(wi)) / d1);
      store2(wj + 2, (b1 - v * load2(wi + 2)) / d1);
      store2(wj + 4, (b2 - v * load2(wi + 4)) / d1);
      store2(wj + 6, (b3 - v * load2(wi + 6)) / d1);
      for (std::size_t q = 0; q < k_inv_cols; ++q)
        tp[(c0 + q) * n + i + 1] = wj[q];
    }
  }
  for (std::size_t c = c0; c < n; ++c)
    for (std::size_t i = c; i < n; ++i) entry(c, i);
}

void cholesky_inverse_into(const Matrix& l, Matrix& inv, Matrix& t_scratch) {
  const std::size_t n = l.rows();
  lower_inverse_transposed_into(l, t_scratch);
  if (inv.rows() != n || inv.cols() != n) inv = Matrix(n, n);
  // inv(i, j) = sum_k X(k, i) X(k, j) with X = L^{-1}: the sum starts at
  // k = max(i, j) because X is lower triangular, and both factors are
  // contiguous rows of the transposed storage.  Mirrored, so exactly
  // symmetric — no post-hoc symmetrization needed.
  const double* t = t_scratch.data().data();
  auto set = [&](std::size_t i, std::size_t j, double v) {
    inv(i, j) = v;
    inv(j, i) = v;
  };
  // Blocks of four rows i0..i0+3 against four columns j..j+3 < i0.
  // Row i0 + r owns the head terms k = i0 + r .. i0 + 2 alone; from
  // k = i0 + 3 on the four rows run as two V2 lanes over p, the block's
  // rows of t stored by k (p[k][r] = t(i0 + r, k)).
  std::vector<double> p(4 * n);
  std::size_t i0 = 0;
  for (; i0 + 4 <= n; i0 += 4) {
    const double* ti = t + i0 * n;
    const std::size_t kb = i0 + 3;
    for (std::size_t k = kb; k < n; ++k)
      for (std::size_t r = 0; r < 4; ++r) p[k * 4 + r] = ti[r * n + k];
    auto heads = [&](const double* tj, V2& lo, V2& hi) {
      lo = V2{gram_partial(ti, tj, i0, kb), gram_partial(ti + n, tj, i0 + 1, kb)};
      hi = V2{gram_partial(ti + 2 * n, tj, i0 + 2, kb), 0.0};
    };
    std::size_t j = 0;
    for (; j + 4 <= i0; j += 4) {
      const double* tj0 = t + j * n;
      const double* tj1 = tj0 + n;
      const double* tj2 = tj1 + n;
      const double* tj3 = tj2 + n;
      V2 a0, a1, b0, b1, c0, c1, d0, d1;
      heads(tj0, a0, a1);
      heads(tj1, b0, b1);
      heads(tj2, c0, c1);
      heads(tj3, d0, d1);
      for (std::size_t k = kb; k < n; ++k) {
        const V2 x0 = load2(p.data() + k * 4);
        const V2 x1 = load2(p.data() + k * 4 + 2);
        const V2 u0 = bcast(tj0[k]);
        a0 += x0 * u0;
        a1 += x1 * u0;
        const V2 u1 = bcast(tj1[k]);
        b0 += x0 * u1;
        b1 += x1 * u1;
        const V2 u2 = bcast(tj2[k]);
        c0 += x0 * u2;
        c1 += x1 * u2;
        const V2 u3 = bcast(tj3[k]);
        d0 += x0 * u3;
        d1 += x1 * u3;
      }
      double acc[4][4];
      store2(acc[0], a0);
      store2(acc[0] + 2, a1);
      store2(acc[1], b0);
      store2(acc[1] + 2, b1);
      store2(acc[2], c0);
      store2(acc[2] + 2, c1);
      store2(acc[3], d0);
      store2(acc[3] + 2, d1);
      for (std::size_t q = 0; q < 4; ++q)
        for (std::size_t r = 0; r < 4; ++r) set(i0 + r, j + q, acc[q][r]);
    }
    {  // column j = i0, the last one every row of the block reaches
      const double* tj = t + j * n;
      V2 a0, a1;
      heads(tj, a0, a1);
      for (std::size_t k = kb; k < n; ++k) {
        const V2 u = bcast(tj[k]);
        a0 += load2(p.data() + k * 4) * u;
        a1 += load2(p.data() + k * 4 + 2) * u;
      }
      double acc[4];
      store2(acc, a0);
      store2(acc + 2, a1);
      for (std::size_t r = 0; r < 4; ++r) set(i0 + r, j, acc[r]);
    }
    for (std::size_t r = 1; r < 4; ++r)  // the block's own triangle
      for (std::size_t c = i0 + 1; c <= i0 + r; ++c)
        set(i0 + r, c, gram_partial(ti + r * n, t + c * n, i0 + r, n));
  }
  for (std::size_t i = i0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j)
      set(i, j, gram_partial(t + i * n, t + j * n, i, n));
}

}  // namespace kato::la
