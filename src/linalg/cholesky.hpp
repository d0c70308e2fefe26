#pragma once
// Cholesky factorization and solves for symmetric positive-definite systems.
//
// The GP stack relies on these for the marginal likelihood (Eq. 3 in the
// paper) and the predictive posterior (Eq. 4).  `cholesky_jittered` walks a
// jitter ladder so that nearly-singular kernel matrices (duplicated designs,
// tiny lengthscales) still factor.

#include <optional>

#include "linalg/isa.hpp"
#include "linalg/matrix.hpp"

namespace kato::la {

/// Lower-triangular Cholesky factor of an SPD matrix, or nullopt if the
/// matrix is not numerically positive definite.
std::optional<Matrix> cholesky(const Matrix& a);

struct JitteredCholesky {
  Matrix l;        ///< lower factor of (a + jitter * I)
  double jitter;   ///< jitter actually applied (0 when none was needed)
};

/// Cholesky with an escalating diagonal jitter ladder (0, 1e-10, ... 1e-4,
/// scaled by the mean diagonal).  Throws std::runtime_error if the matrix
/// cannot be factored even at the largest jitter.  `start_attempt` skips
/// that many leading rungs as if they had failed (fault-injection hook;
/// 0 is the historical behaviour).
JitteredCholesky cholesky_jittered(const Matrix& a, int start_attempt = 0);

/// Solve L x = b (forward substitution) with L lower triangular.
Vector solve_lower(const Matrix& l, const Vector& b);
/// Solve L X = B for an n x m right-hand-side block in one forward sweep —
/// the batched-prediction path shares this single triangular solve across
/// all query columns instead of re-solving per candidate.  Tiled two rows
/// by four query columns on SSE2, four rows by eight on AVX2 (see the order
/// contract below).
Matrix solve_lower_multi(const Matrix& l, const Matrix& b,
                         Isa isa = active_isa());
/// Solve L^T x = b (back substitution) with L lower triangular.
Vector solve_lower_transposed(const Matrix& l, const Vector& b);
/// Solve (L L^T) x = b.
Vector cholesky_solve(const Matrix& l, const Vector& b);
/// Inverse of (L L^T) formed explicitly, one forward and back solve per unit
/// column, then symmetrized by averaging mirrored entries.
Matrix cholesky_inverse(const Matrix& l);
/// cholesky_inverse into caller buffers, with the same arithmetic bit for
/// bit and no allocation once `inv` (n x n) and `tmp` (n) have their size.
/// O(n^3) solves: for small factors, such as KAT-GP's per-point predictive
/// covariance; cholesky_inverse_into below serves the GP-sized ones.
void cholesky_inverse_small_into(const Matrix& l, Matrix& inv, Vector& tmp);
/// log det(L L^T) = 2 * sum(log diag L).
double cholesky_logdet(const Matrix& l);

// --- Workspace-aware variants for the GP training loop ---
// The LML loop factors, solves and inverts once per Adam step; these
// overloads write into caller-owned buffers (resized on first use, reused
// afterwards), and the inverse runs through a triangular inversion instead
// of 2n dense triangular solves (~3x fewer flops, contiguous row access).
//
// Order contract of the register-tiled kernels (cholesky_into,
// lower_inverse_transposed_into, cholesky_inverse_into, solve_lower_multi).
// Each output entry is one scalar recurrence: it starts from 0.0 or its seed
// value (the input entry, or the right-hand side), takes its terms in
// increasing k, and applies each as a separate multiply and add (no FMA).
// A tile only changes which entries share registers and loads, never an
// entry's own k order, so the outputs are bit-identical to the plain loops
// (pinned byte for byte in tests/linalg_test.cpp).  The same holds between
// the SSE2 and AVX2 builds that `isa` selects (linalg/isa.hpp): only the
// tile shapes differ.  Two seed details only
// change the sign of an exact zero, and both are kept as they have always
// been:
//   - lower_inverse_transposed_into seeds even columns with -(l t) and odd
//     columns with 0.0 - l t (they differ when l t is a zero);
//   - solve_lower_multi skips terms with l(i, k) == 0, which keeps a -0.0
//     right-hand side entry at -0.0 and a non-finite x(k, j) out of row i.

/// Factor a (+ jitter on the diagonal) into the caller's buffer `l`.
/// Returns false when not numerically positive definite; `a` is unchanged.
/// Blocked in 48-column panels: four rows at a time in the diagonal block;
/// eight rows (SSE2) or sixteen (AVX2) in the panel solve; 4 x 4 (SSE2) or
/// 4 x 8 (AVX2) tiles in the trailing update.
bool cholesky_into(const Matrix& a, Matrix& l, double jitter = 0.0,
                   Isa isa = active_isa());

/// Jitter-ladder factorization into `l` (same ladder as cholesky_jittered).
/// Returns the jitter applied; throws std::runtime_error when the matrix
/// cannot be factored at the largest jitter.
double cholesky_jittered_into(const Matrix& a, Matrix& l,
                              int start_attempt = 0);

/// Solve (L L^T) x = b using `tmp` as the forward-solve scratch.
void cholesky_solve_into(const Matrix& l, const Vector& b, Vector& x,
                         Vector& tmp);

/// t = (L^{-1})^T, upper triangular, row-major (row r holds column r of
/// L^{-1}).  Eight columns per sweep, two rows (SSE2) or four (AVX2) at a
/// time.
void lower_inverse_transposed_into(const Matrix& l, Matrix& t,
                                   Isa isa = active_isa());

/// inv = (L L^T)^{-1} via T = (L^{-1})^T and inv = T T^T restricted to the
/// triangular support, in 4 x 4 (SSE2) or 4 x 8 (AVX2) tiles.  Exactly
/// symmetric by construction.
/// `t_scratch` is a caller-owned buffer.
void cholesky_inverse_into(const Matrix& l, Matrix& inv, Matrix& t_scratch,
                           Isa isa = active_isa());

}  // namespace kato::la
