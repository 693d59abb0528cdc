// Dense factorizations: Cholesky (LL^T), LDL^T with symmetric pivoting-free
// Bunch-Kaufman-lite fallback, and a pivoted LU solve for general systems.
//
// Used by the interior-point SDP solver (Schur complement systems, search
// directions) and by the simplex basis refactorization.
#pragma once

#include <optional>

#include "linalg/matrix.hpp"

namespace linalg {

/// Cholesky factorization A = L L^T of a symmetric positive definite matrix.
/// Returns std::nullopt if A is not (numerically) positive definite.
///
/// The static kernels below work on caller-owned storage and allocate
/// nothing once that storage has its size; factor(), solve() and the
/// interior point's Z^{-1} all run through them, so every path computes
/// the same terms in the same order.
class Cholesky {
public:
    /// Factorize; fails (returns nullopt) on a non-PD pivot <= tol.
    static std::optional<Cholesky> factor(const Matrix& a, double tol = 1e-12);

    /// The kernel of factor(): overwrites the lower triangle of the square
    /// matrix `a` with L, reading only that triangle and leaving the strict
    /// upper triangle as it was. Returns false on a pivot <= tol, with `a`
    /// partly overwritten.
    static bool factorInPlace(Matrix& a, double tol = 1e-12);

    /// x <- A^{-1} x for the L in the lower triangle of `l`.
    static void solveInPlace(const Matrix& l, Vector& x);

    /// inv <- A^{-1} for the L in the lower triangle of `l`, column j
    /// bit for bit what solveInPlace() gives for e_j. Four columns run
    /// interleaved; their forward solve starts at the first one's row,
    /// because every term it skips is an exact zero, and the back solve
    /// reads rows of `lt`, a transposed copy of L. `lt` and `y` are
    /// scratch.
    static void inverseInto(const Matrix& l, Matrix& inv, Matrix& lt,
                            Vector& y);

    /// Solve A x = b.
    Vector solve(const Vector& b) const;

    /// log(det(A)) = 2 * sum log L_ii.
    double logDet() const;

    const Matrix& lower() const { return l_; }

private:
    explicit Cholesky(Matrix l) : l_(std::move(l)) {}
    Matrix l_;
};

/// Solve a general square linear system A x = b by LU with partial pivoting.
/// Returns std::nullopt if A is (numerically) singular.
std::optional<Vector> luSolve(const Matrix& a, const Vector& b, double tol = 1e-12);

/// Invert a general square matrix by LU with partial pivoting.
/// Returns std::nullopt if singular.
std::optional<Matrix> luInverse(const Matrix& a, double tol = 1e-12);

/// Check positive semidefiniteness via Cholesky of A + eps*I.
bool isPositiveSemidefinite(const Matrix& a, double eps = 1e-9);

}  // namespace linalg
