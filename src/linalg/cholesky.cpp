#include "linalg/cholesky.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "linalg/lanes.hpp"

namespace kato::la {

namespace {

/// Factor the nb x nb block of `l` anchored at (j0, j0) in place, reading the
/// partially updated values already stored there.  Returns false when the
/// block is not positive definite.  Below each diagonal entry, four rows
/// run their independent sums side by side.
KATO_LA_INLINE bool factor_diag_block(Matrix& l, std::size_t j0,
                                     std::size_t nb) {
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
/// block is then one or two register loads per column, and a block is
/// contiguous, so the tiles below stream through it.  Rows past the matrix
/// are zero padding: their lanes are computed and never written back.
template <class T>
KATO_LA_INLINE T* panel_block(T* p, std::size_t nb, std::size_t b) {
  return p + b * nb * 4;
}

/// Row blocks per panel-solve sweep: four registers of L::width lanes each,
/// so 4 L::width rows (two blocks on two lanes, four on four).
template <class L>
constexpr std::size_t k_panel_sweep = L::width;

/// Triangular solve of the packed rows against the factored diagonal block
/// (rows j0..j0+nb of l), k_panel_sweep<L> blocks per sweep.  Each lane runs
/// the scalar recurrence of its row: s = l(i, c), minus l(i, k) l(c, k) for
/// k = j0..c-1 in order, divided by l(c, c).
template <class L>
KATO_LA_INLINE void panel_solve(const Matrix& l, std::size_t j0,
                                std::size_t nb, double* p,
                                std::size_t blocks) {
  using V = typename L::V;
  constexpr std::size_t w = L::width;
  const std::size_t n = l.cols();
  for (std::size_t b = 0; b < blocks; b += k_panel_sweep<L>) {
    // Register r holds lanes (r w) % 4 .. of block b + r w / 4.
    double* q[4];
    for (std::size_t r = 0; r < 4; ++r)
      q[r] = panel_block(p, nb, b + r * w / 4) + r * w % 4;
    for (std::size_t c = 0; c < nb; ++c) {
      const double* lc = l.data().data() + (j0 + c) * n + j0;
      V s[4];
#pragma GCC unroll 4
      for (std::size_t r = 0; r < 4; ++r) s[r] = at<L>(q[r] + c * 4);
      for (std::size_t k = 0; k < c; ++k) {
        const double v = lc[k];
#pragma GCC unroll 4
        for (std::size_t r = 0; r < 4; ++r) s[r] -= at<L>(q[r] + k * 4) * v;
      }
      const double d = lc[c];
#pragma GCC unroll 4
      for (std::size_t r = 0; r < 4; ++r) at<L>(q[r] + c * 4) = s[r] / d;
    }
  }
}

/// l(i, j) -= sum_c l(i, c) l(j, c) over the panel's columns for the tile of
/// row block bi (rows i: broadcasts) and cb column blocks from bj (columns
/// j: loads), entries with j <= i only.  Each entry's sum starts at 0.0 and
/// runs over c in order, as in the scalar update, and is subtracted once.
template <class L, std::size_t cb>
KATO_LA_INLINE void trailing_tile(Matrix& l, std::size_t j1, std::size_t nb,
                                  const double* p, std::size_t bi,
                                  std::size_t bj) {
  using V = typename L::V;
  constexpr std::size_t w = L::width;
  constexpr std::size_t nv = 4 * cb / w;  // registers per row
  const std::size_t n = l.cols();
  const double* pi = panel_block(p, nb, bi);
  const double* pj[nv];
  for (std::size_t v = 0; v < nv; ++v)
    pj[v] = panel_block(p, nb, bj + v * w / 4) + v * w % 4;
  V a[4][nv] = {};
  for (std::size_t c = 0; c < nb; ++c) {
    V col[nv];
#pragma GCC unroll 4
    for (std::size_t v = 0; v < nv; ++v) col[v] = at<L>(pj[v] + c * 4);
    const double* r = pi + c * 4;
#pragma GCC unroll 4
    for (std::size_t rr = 0; rr < 4; ++rr) {
      const double x = r[rr];
#pragma GCC unroll 4
      for (std::size_t v = 0; v < nv; ++v) a[rr][v] += x * col[v];
    }
  }
  double acc[4][4 * cb];
  for (std::size_t rr = 0; rr < 4; ++rr)
    for (std::size_t v = 0; v < nv; ++v) at<L>(acc[rr] + v * w) = a[rr][v];
  const std::size_t i0 = j1 + bi * 4;
  const std::size_t jt = j1 + bj * 4;
  for (std::size_t r = 0; r < 4 && i0 + r < n; ++r)
    for (std::size_t q = 0; q < 4 * cb && jt + q <= i0 + r; ++q)
      l(i0 + r, jt + q) -= acc[r][q];
}

/// The trailing update below a panel: for every row block, tiles of
/// L::width / 2 column blocks (eight registers), then single blocks.
template <class L>
KATO_LA_INLINE void trailing_update(Matrix& l, std::size_t j1, std::size_t nb,
                                    const double* p, std::size_t blocks) {
  constexpr std::size_t cb = L::width / 2;
  for (std::size_t bi = 0; bi < blocks && j1 + bi * 4 < l.cols(); ++bi) {
    std::size_t bj = 0;
    for (; bj + cb <= bi + 1; bj += cb)
      trailing_tile<L, cb>(l, j1, nb, p, bi, bj);
    for (; bj <= bi; ++bj) trailing_tile<L, 1>(l, j1, nb, p, bi, bj);
  }
}

template <class L>
KATO_LA_INLINE bool cholesky_tiled(const Matrix& a, Matrix& l, double jitter) {
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
    constexpr std::size_t sweep = k_panel_sweep<L>;
    const std::size_t blocks = (rows + 4 * sweep - 1) / (4 * sweep) * sweep;
    p.assign(blocks * nb * 4, 0.0);
    for (std::size_t ii = 0; ii < rows; ++ii) {
      double* pb = panel_block(p.data(), nb, ii / 4) + ii % 4;
      const double* li = l.data().data() + (j1 + ii) * n + j0;
      for (std::size_t c = 0; c < nb; ++c) pb[c * 4] = li[c];
    }
    panel_solve<L>(l, j0, nb, p.data(), blocks);
    for (std::size_t ii = 0; ii < rows; ++ii) {
      const double* pb = panel_block(p.data(), nb, ii / 4) + ii % 4;
      double* li = l.data().data() + (j1 + ii) * n + j0;
      for (std::size_t c = 0; c < nb; ++c) li[c] = pb[c * 4];
    }
    trailing_update<L>(l, j1, nb, p.data(), blocks);
  }
  return true;
}

/// Terms k = c .. k1-1 of entry (i, c) of X = L^{-1}, whose row i of L is li
/// and whose column c is read from xc[k * stride] (row c of t, or column
/// c - c0 of a sweep's w).  Even columns seed with -(l x) and odd ones with
/// 0.0 - l x: the two seeds differ only in the sign of an exact zero, and
/// each column keeps the one it has always had.
template <std::size_t stride>
KATO_LA_INLINE double inverse_partial(const double* li, const double* xc,
                                      std::size_t c, std::size_t k1) {
  const double x = xc[c * stride];
  double s = c % 2 == 0 ? -li[c] * x : 0.0 - li[c] * x;
  for (std::size_t k = c + 1; k < k1; ++k) s -= li[k] * xc[k * stride];
  return s;
}

/// Columns per sweep of lower_inverse_transposed_into.
constexpr std::size_t k_inv_cols = 8;

template <class L>
KATO_LA_INLINE void lower_inverse_tiled(const Matrix& l, Matrix& t) {
  using V = typename L::V;
  constexpr std::size_t w = L::width;
  constexpr std::size_t nv = k_inv_cols / w;  // registers per row
  constexpr std::size_t rows = w;             // rows per step: 8 registers
  const std::size_t n = l.rows();
  if (t.rows() != n || t.cols() != n) t = Matrix(n, n);
  // Column c of X = L^{-1} satisfies L x = e_c; exploiting x_i = 0 for i < c
  // the forward substitution costs n^3/6 MACs total.  Stored transposed
  // (t(c, i) = X(i, c)) so each column is built along a contiguous row.
  const double* lp = l.data().data();
  double* tp = t.data().data();
  for (std::size_t c = 0; c < n; ++c)
    std::fill(tp + c * n, tp + c * n + c, 0.0);
  auto entry = [&](std::size_t c, std::size_t i) {
    const double* li = lp + i * n;
    tp[c * n + i] = c == i ? 1.0 / li[i]
                           : inverse_partial<1>(li, tp + c * n, c, i) / li[i];
  };
  // Sweeps of k_inv_cols columns c0.. .  Rows inside the sweep's own
  // triangle run one entry at a time.  Below it, `rows` rows at a time go
  // through w, the sweep's columns of X stored by row (w[k][q] = X(k,
  // c0 + q)): each row's head terms k < ch (the lanes of a register join
  // the recurrence at different k, see below), then its terms ch <= k < i
  // as registers, and row i+r takes its terms k = i .. i+r-1 once the rows
  // above it are final.
  std::vector<double> wbuf;
  std::size_t c0 = 0;
  for (; c0 + k_inv_cols <= n; c0 += k_inv_cols) {
    const std::size_t ch = c0 + k_inv_cols;
    wbuf.resize(n * k_inv_cols);
    double* wp = wbuf.data();
    for (std::size_t i = c0; i < ch; ++i)
      for (std::size_t c = c0; c <= i; ++c) {
        entry(c, i);
        wp[i * k_inv_cols + (c - c0)] = tp[c * n + i];
      }
    for (std::size_t i = ch; i < n; i += rows) {
      const double* lr[rows];
      for (std::size_t r = 0; r < rows; ++r)
        lr[r] = lp + std::min(i + r, n - 1) * n;
      V a[rows][nv];
#pragma GCC unroll 4
      for (std::size_t r = 0; r < rows; ++r)
#pragma GCC unroll 4
        for (std::size_t v = 0; v < nv; ++v) {
          // Head terms k < ch of register v, columns cg + j.  Lane j < w-1
          // runs its terms up to the group's last column cg + w - 1 scalar.
          // That column is odd, so its lane seeds with 0.0 - l x: it starts
          // from 0.0 and joins the register loop from its own k on.
          const std::size_t cg = c0 + v * w;
          double h[w];
          for (std::size_t j = 0; j + 1 < w; ++j)
            h[j] = inverse_partial<k_inv_cols>(lr[r], wp + v * w + j, cg + j,
                                               cg + w - 1);
          h[w - 1] = 0.0;
          V head;
          set_lanes<L>(head, h);
          for (std::size_t k = cg + w - 1; k < ch; ++k)
            head -= lr[r][k] * at<L>(wp + k * k_inv_cols + v * w);
          a[r][v] = head;
        }
      const double* wk = wp + ch * k_inv_cols;
      for (std::size_t k = ch; k < i; ++k, wk += k_inv_cols) {
        double u[rows];
#pragma GCC unroll 4
        for (std::size_t r = 0; r < rows; ++r) u[r] = lr[r][k];
#pragma GCC unroll 4
        for (std::size_t v = 0; v < nv; ++v) {
          const V x = at<L>(wk + v * w);
#pragma GCC unroll 4
          for (std::size_t r = 0; r < rows; ++r) a[r][v] -= u[r] * x;
        }
      }
#pragma GCC unroll 4
      for (std::size_t r = 0; r < rows; ++r) {
        if (i + r >= n) break;
#pragma GCC unroll 4
        for (std::size_t p = 0; p < r; ++p) {
          const double u = lr[r][i + p];
          const double* wq = wp + (i + p) * k_inv_cols;
#pragma GCC unroll 4
          for (std::size_t v = 0; v < nv; ++v) a[r][v] -= u * at<L>(wq + v * w);
        }
        const double d = lr[r][i + r];
        double* wr = wp + (i + r) * k_inv_cols;
#pragma GCC unroll 4
        for (std::size_t v = 0; v < nv; ++v) at<L>(wr + v * w) = a[r][v] / d;
        for (std::size_t q = 0; q < k_inv_cols; ++q)
          tp[(c0 + q) * n + i + r] = wr[q];
      }
    }
  }
  for (std::size_t c = c0; c < n; ++c)
    for (std::size_t i = c; i < n; ++i) entry(c, i);
}

/// sum_{k = k0}^{k1-1} ti[k] tj[k], from 0.0 in increasing k.
KATO_LA_INLINE double gram_partial(const double* ti, const double* tj,
                                   std::size_t k0, std::size_t k1) {
  double s = 0.0;
  for (std::size_t k = k0; k < k1; ++k) s += ti[k] * tj[k];
  return s;
}

/// Entries (i0 + r, j + q), r < 4, q < nc, of T T^T for a block of four rows
/// i0.. against nc columns j.. <= i0, into acc[q * 4 + r].  Row i0 + r owns
/// its head terms k = i0 + r .. i0 + 2 alone (scalar); from k = i0 + 3 on
/// the four rows run as registers over p, the block's rows of t stored by k
/// (p[k][r] = t(i0 + r, k)), each against a broadcast of t(j + q, k).
template <class L, std::size_t nc>
KATO_LA_INLINE void gram_tile(const double* t, std::size_t n, std::size_t i0,
                              std::size_t j, const double* p, double* acc) {
  using V = typename L::V;
  constexpr std::size_t w = L::width;
  constexpr std::size_t nv = 4 / w;  // registers per column
  const double* ti = t + i0 * n;
  const std::size_t kb = i0 + 3;
  V a[nc][nv];
#pragma GCC unroll 8
  for (std::size_t q = 0; q < nc; ++q) {
    const double* tj = t + (j + q) * n;
    const double h[4] = {gram_partial(ti, tj, i0, kb),
                         gram_partial(ti + n, tj, i0 + 1, kb),
                         gram_partial(ti + 2 * n, tj, i0 + 2, kb), 0.0};
#pragma GCC unroll 2
    for (std::size_t v = 0; v < nv; ++v) set_lanes<L>(a[q][v], h + v * w);
  }
  for (std::size_t k = kb; k < n; ++k) {
    V x[nv];
#pragma GCC unroll 2
    for (std::size_t v = 0; v < nv; ++v) x[v] = at<L>(p + k * 4 + v * w);
#pragma GCC unroll 8
    for (std::size_t q = 0; q < nc; ++q) {
      const double u = t[(j + q) * n + k];
#pragma GCC unroll 2
      for (std::size_t v = 0; v < nv; ++v) a[q][v] += x[v] * u;
    }
  }
  for (std::size_t q = 0; q < nc; ++q)
    for (std::size_t v = 0; v < nv; ++v) at<L>(acc + q * 4 + v * w) = a[q][v];
}

template <class L>
KATO_LA_INLINE void gram_tiled(const Matrix& t_scratch, Matrix& inv) {
  const std::size_t n = t_scratch.rows();
  // inv(i, j) = sum_k X(k, i) X(k, j) with X = L^{-1}: the sum starts at
  // k = max(i, j) because X is lower triangular, and both factors are
  // contiguous rows of the transposed storage.  Mirrored, so exactly
  // symmetric — no post-hoc symmetrization needed.
  const double* t = t_scratch.data().data();
  auto set = [&](std::size_t i, std::size_t j, double v) {
    inv(i, j) = v;
    inv(j, i) = v;
  };
  // Blocks of four rows i0..i0+3 against columns j <= i0: gram_tile in
  // tiles of 2 L::width columns (eight registers), then 4, then 1.
  constexpr std::size_t wide = 2 * L::width;
  std::vector<double> p(4 * n);
  std::size_t i0 = 0;
  for (; i0 + 4 <= n; i0 += 4) {
    const double* ti = t + i0 * n;
    for (std::size_t k = i0 + 3; k < n; ++k)
      for (std::size_t r = 0; r < 4; ++r) p[k * 4 + r] = ti[r * n + k];
    double acc[wide * 4];
    auto put = [&](std::size_t j, std::size_t nc) {
      for (std::size_t q = 0; q < nc; ++q)
        for (std::size_t r = 0; r < 4; ++r)
          set(i0 + r, j + q, acc[q * 4 + r]);
    };
    std::size_t j = 0;
    for (; j + wide <= i0 + 1; j += wide) {
      gram_tile<L, wide>(t, n, i0, j, p.data(), acc);
      put(j, wide);
    }
    if constexpr (wide > 4) {
      for (; j + 4 <= i0 + 1; j += 4) {
        gram_tile<L, 4>(t, n, i0, j, p.data(), acc);
        put(j, 4);
      }
    }
    for (; j <= i0; ++j) {
      gram_tile<L, 1>(t, n, i0, j, p.data(), acc);
      put(j, 1);
    }
    for (std::size_t r = 1; r < 4; ++r)  // the block's own triangle
      for (std::size_t c = i0 + 1; c <= i0 + r; ++c)
        set(i0 + r, c, gram_partial(ti + r * n, t + c * n, i0 + r, n));
  }
  for (std::size_t i = i0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j)
      set(i, j, gram_partial(t + i * n, t + j * n, i, n));
}

/// Forward sweep of L X = B over query columns [j, j + nv L::width) of x,
/// `rows` rows at a time.  Row i+r runs its k < i terms alongside row i and
/// takes its terms k = i .. i+r-1 once the rows above it are final.  Every
/// entry starts from b, subtracts l(i, k) x(k, j) in increasing k (skipping
/// l(i, k) == 0) and is scaled by 1 / l(i, i).
template <class L, std::size_t rows, std::size_t nv>
KATO_LA_INLINE void solve_lower_tile(const Matrix& l, Matrix& x,
                                     std::size_t j) {
  using V = typename L::V;
  constexpr std::size_t w = L::width;
  const std::size_t n = l.rows();
  const std::size_t m = x.cols();
  const double* lp = l.data().data();
  double* xp = x.data().data();
  for (std::size_t i = 0; i < n; i += rows) {
    const double* lr[rows];
    double* xr[rows];
    for (std::size_t r = 0; r < rows; ++r) {
      lr[r] = lp + std::min(i + r, n - 1) * n;
      xr[r] = xp + std::min(i + r, n - 1) * m + j;
    }
    V a[rows][nv];
#pragma GCC unroll 4
    for (std::size_t r = 0; r < rows; ++r)
#pragma GCC unroll 2
      for (std::size_t v = 0; v < nv; ++v) a[r][v] = at<L>(xr[r] + v * w);
    for (std::size_t k = 0; k < i; ++k) {
      const double* xk = xp + k * m + j;
      V xv[nv];
#pragma GCC unroll 2
      for (std::size_t v = 0; v < nv; ++v) xv[v] = at<L>(xk + v * w);
#pragma GCC unroll 4
      for (std::size_t r = 0; r < rows; ++r) {
        const double s = lr[r][k];
        if (s == 0.0) continue;
#pragma GCC unroll 2
        for (std::size_t v = 0; v < nv; ++v) a[r][v] -= s * xv[v];
      }
    }
#pragma GCC unroll 4
    for (std::size_t r = 0; r < rows; ++r) {
      if (i + r >= n) break;
#pragma GCC unroll 4
      for (std::size_t p = 0; p < r; ++p) {
        const double s = lr[r][i + p];
        if (s == 0.0) continue;
#pragma GCC unroll 2
        for (std::size_t v = 0; v < nv; ++v) a[r][v] -= s * a[p][v];
      }
      const double inv = 1.0 / lr[r][i + r];
#pragma GCC unroll 2
      for (std::size_t v = 0; v < nv; ++v) {
        a[r][v] *= inv;
        at<L>(xr[r] + v * w) = a[r][v];
      }
    }
  }
}

/// solve_lower_multi's column tiles: 2 L::width columns, then L::width, then
/// two, each tile L::width rows deep; a last odd column runs the same
/// recurrence on one lane.
template <class L>
KATO_LA_INLINE void solve_lower_tiled(const Matrix& l, Matrix& x) {
  constexpr std::size_t w = L::width;
  constexpr std::size_t rows = L::width;
  const std::size_t n = l.rows();
  const std::size_t m = x.cols();
  std::size_t j = 0;
  for (; j + 2 * w <= m; j += 2 * w) solve_lower_tile<L, rows, 2>(l, x, j);
  if (j + w <= m) {
    solve_lower_tile<L, rows, 1>(l, x, j);
    j += w;
  }
  if constexpr (w > 2) {
    if (j + 2 <= m) {
      solve_lower_tile<L2, 2, 1>(l, x, j);
      j += 2;
    }
  }
  if (j < m) {
    for (std::size_t i = 0; i < n; ++i) {
      const double* li = l.data().data() + i * n;
      double s = x(i, j);
      for (std::size_t k = 0; k < i; ++k)
        if (li[k] != 0.0) s -= li[k] * x(k, j);
      x(i, j) = s * (1.0 / li[i]);
    }
  }
}

// The two builds of each tiled kernel (see linalg/lanes.hpp).
bool cholesky_sse2(const Matrix& a, Matrix& l, double jitter) {
  return cholesky_tiled<L2>(a, l, jitter);
}
void lower_inverse_sse2(const Matrix& l, Matrix& t) {
  lower_inverse_tiled<L2>(l, t);
}
void gram_sse2(const Matrix& t, Matrix& inv) { gram_tiled<L2>(t, inv); }
void solve_lower_sse2(const Matrix& l, Matrix& x) {
  solve_lower_tiled<L2>(l, x);
}

#if KATO_LA_AVX2
KATO_LA_TARGET_AVX2 bool cholesky_avx2(const Matrix& a, Matrix& l,
                                       double jitter) {
  return cholesky_tiled<L4>(a, l, jitter);
}
KATO_LA_TARGET_AVX2 void lower_inverse_avx2(const Matrix& l, Matrix& t) {
  lower_inverse_tiled<L4>(l, t);
}
KATO_LA_TARGET_AVX2 void gram_avx2(const Matrix& t, Matrix& inv) {
  gram_tiled<L4>(t, inv);
}
KATO_LA_TARGET_AVX2 void solve_lower_avx2(const Matrix& l, Matrix& x) {
  solve_lower_tiled<L4>(l, x);
}
#endif

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

Matrix solve_lower_multi(const Matrix& l, const Matrix& b, Isa isa) {
  if (b.rows() != l.rows())
    throw std::invalid_argument("solve_lower_multi: size mismatch");
  require_isa(isa, "solve_lower_multi");
  Matrix x = b;
#if KATO_LA_AVX2
  if (isa == Isa::avx2) {
    solve_lower_avx2(l, x);
    return x;
  }
#endif
  solve_lower_sse2(l, x);
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
  Matrix inv;
  Vector tmp;
  cholesky_inverse_small_into(l, inv, tmp);
  return inv;
}

void cholesky_inverse_small_into(const Matrix& l, Matrix& inv, Vector& tmp) {
  const std::size_t n = l.rows();
  if (inv.rows() != n || inv.cols() != n) inv = Matrix(n, n);
  tmp.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    // L y = e_j into tmp, then L^T x = y into column j of inv.
    for (std::size_t i = 0; i < n; ++i) {
      double s = i == j ? 1.0 : 0.0;
      for (std::size_t k = 0; k < i; ++k) s -= l(i, k) * tmp[k];
      tmp[i] = s / l(i, i);
    }
    for (std::size_t ii = n; ii-- > 0;) {
      double s = tmp[ii];
      for (std::size_t k = ii + 1; k < n; ++k) s -= l(k, ii) * inv(k, j);
      inv(ii, j) = s / l(ii, ii);
    }
  }
  // Symmetrize to remove round-off asymmetry.
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) {
      const double avg = 0.5 * (inv(i, j) + inv(j, i));
      inv(i, j) = avg;
      inv(j, i) = avg;
    }
}

double cholesky_logdet(const Matrix& l) {
  double s = 0.0;
  for (std::size_t i = 0; i < l.rows(); ++i) s += std::log(l(i, i));
  return 2.0 * s;
}

bool cholesky_into(const Matrix& a, Matrix& l, double jitter, Isa isa) {
  if (a.rows() != a.cols())
    throw std::invalid_argument("cholesky_into: matrix must be square");
  require_isa(isa, "cholesky_into");
#if KATO_LA_AVX2
  if (isa == Isa::avx2) return cholesky_avx2(a, l, jitter);
#endif
  return cholesky_sse2(a, l, jitter);
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

void lower_inverse_transposed_into(const Matrix& l, Matrix& t, Isa isa) {
  require_isa(isa, "lower_inverse_transposed_into");
#if KATO_LA_AVX2
  if (isa == Isa::avx2) return lower_inverse_avx2(l, t);
#endif
  lower_inverse_sse2(l, t);
}

void cholesky_inverse_into(const Matrix& l, Matrix& inv, Matrix& t_scratch,
                           Isa isa) {
  const std::size_t n = l.rows();
  lower_inverse_transposed_into(l, t_scratch, isa);
  if (inv.rows() != n || inv.cols() != n) inv = Matrix(n, n);
#if KATO_LA_AVX2
  if (isa == Isa::avx2) return gram_avx2(t_scratch, inv);
#endif
  gram_sse2(t_scratch, inv);
}

}  // namespace kato::la
