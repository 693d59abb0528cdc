#include "linalg/factor.hpp"

#include <cmath>

namespace linalg {

bool Cholesky::factorInPlace(Matrix& a, double tol) {
    assert(a.rows() == a.cols());
    const std::size_t n = a.rows();
    for (std::size_t j = 0; j < n; ++j) {
        const double* lj = a.rowPtr(j);
        double d = lj[j];
        for (std::size_t k = 0; k < j; ++k) d -= lj[k] * lj[k];
        if (d <= tol) return false;
        const double ljj = std::sqrt(d);
        a(j, j) = ljj;
        // Rows below j, four at a time: each row's sum keeps its own term
        // order, and the four independent sums overlap in the pipeline.
        std::size_t i = j + 1;
        for (; i + 4 <= n; i += 4) {
            double* l0 = a.rowPtr(i);
            double* l1 = a.rowPtr(i + 1);
            double* l2 = a.rowPtr(i + 2);
            double* l3 = a.rowPtr(i + 3);
            double s0 = l0[j], s1 = l1[j], s2 = l2[j], s3 = l3[j];
            for (std::size_t k = 0; k < j; ++k) {
                const double ljk = lj[k];
                s0 -= l0[k] * ljk;
                s1 -= l1[k] * ljk;
                s2 -= l2[k] * ljk;
                s3 -= l3[k] * ljk;
            }
            l0[j] = s0 / ljj;
            l1[j] = s1 / ljj;
            l2[j] = s2 / ljj;
            l3[j] = s3 / ljj;
        }
        for (; i < n; ++i) {
            double* li = a.rowPtr(i);
            double s = li[j];
            for (std::size_t k = 0; k < j; ++k) s -= li[k] * lj[k];
            li[j] = s / ljj;
        }
    }
    return true;
}

std::optional<Cholesky> Cholesky::factor(const Matrix& a, double tol) {
    Matrix l = a;
    if (!factorInPlace(l, tol)) return std::nullopt;
    for (std::size_t i = 0; i < l.rows(); ++i)
        for (std::size_t j = i + 1; j < l.cols(); ++j) l(i, j) = 0.0;
    return Cholesky(std::move(l));
}

void Cholesky::solveInPlace(const Matrix& l, Vector& x) {
    const std::size_t n = l.rows();
    assert(x.size() == n);
    // Forward substitution L y = x.
    for (std::size_t i = 0; i < n; ++i) {
        const double* li = l.rowPtr(i);
        double s = x[i];
        for (std::size_t k = 0; k < i; ++k) s -= li[k] * x[k];
        x[i] = s / li[i];
    }
    // Back substitution L^T x = y.
    for (std::size_t ii = n; ii-- > 0;) {
        double s = x[ii];
        for (std::size_t k = ii + 1; k < n; ++k) s -= l(k, ii) * x[k];
        x[ii] = s / l(ii, ii);
    }
}

void Cholesky::inverseInto(const Matrix& l, Matrix& inv, Matrix& lt,
                           Vector& y) {
    const std::size_t n = l.rows();
    if (lt.rows() != n || lt.cols() != n) lt.assign(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t k = i; k < n; ++k) lt(i, k) = l(k, i);
    if (inv.rows() != n || inv.cols() != n) inv.assign(n, n);
    // Columns j0..j0+3 at once, interleaved in y (y[4*i + c] is row i of
    // column j0 + c; a lane past n solves for a zero right-hand side).
    // Every lane adds its terms in solveInPlace's order.
    constexpr std::size_t W = 4;
    y.resize(W * n);
    for (std::size_t j0 = 0; j0 < n; j0 += W) {
        // Forward substitution L y = e_j from row j0: the rows of column j
        // above j come out +0, and their products only subtract zeros from
        // the rows below, so the result is that of the full solve.
        for (std::size_t i = 0; i < W * j0; ++i) y[i] = 0.0;
        for (std::size_t i = j0; i < n; ++i) {
            const double* li = l.rowPtr(i);
            double s[W];
            for (std::size_t c = 0; c < W; ++c) s[c] = i == j0 + c ? 1.0 : 0.0;
            for (std::size_t k = j0; k < i; ++k) {
                const double lik = li[k];
                const double* yk = &y[W * k];
                for (std::size_t c = 0; c < W; ++c) s[c] -= lik * yk[c];
            }
            for (std::size_t c = 0; c < W; ++c) y[W * i + c] = s[c] / li[i];
        }
        // Back substitution L^T x = y over the rows of L^T.
        for (std::size_t ii = n; ii-- > 0;) {
            const double* ltr = lt.rowPtr(ii);
            double s[W];
            for (std::size_t c = 0; c < W; ++c) s[c] = y[W * ii + c];
            for (std::size_t k = ii + 1; k < n; ++k) {
                const double ltk = ltr[k];
                const double* yk = &y[W * k];
                for (std::size_t c = 0; c < W; ++c) s[c] -= ltk * yk[c];
            }
            for (std::size_t c = 0; c < W; ++c) y[W * ii + c] = s[c] / ltr[ii];
        }
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t c = 0; c < W && j0 + c < n; ++c)
                inv(i, j0 + c) = y[W * i + c];
    }
}

Vector Cholesky::solve(const Vector& b) const {
    Vector x = b;
    solveInPlace(l_, x);
    return x;
}

double Cholesky::logDet() const {
    double s = 0.0;
    for (std::size_t i = 0; i < l_.rows(); ++i) s += std::log(l_(i, i));
    return 2.0 * s;
}

namespace {

/// In-place LU with partial pivoting; returns pivot rows, or nullopt if
/// singular.
std::optional<std::vector<std::size_t>> luFactor(Matrix& a, double tol) {
    const std::size_t n = a.rows();
    std::vector<std::size_t> piv(n);
    for (std::size_t i = 0; i < n; ++i) piv[i] = i;
    for (std::size_t k = 0; k < n; ++k) {
        std::size_t best = k;
        double bestAbs = std::fabs(a(k, k));
        for (std::size_t i = k + 1; i < n; ++i) {
            const double v = std::fabs(a(i, k));
            if (v > bestAbs) {
                bestAbs = v;
                best = i;
            }
        }
        if (bestAbs <= tol) return std::nullopt;
        if (best != k) {
            for (std::size_t j = 0; j < n; ++j) std::swap(a(k, j), a(best, j));
            std::swap(piv[k], piv[best]);
        }
        const double akk = a(k, k);
        for (std::size_t i = k + 1; i < n; ++i) {
            const double m = a(i, k) / akk;
            a(i, k) = m;
            if (m == 0.0) continue;
            for (std::size_t j = k + 1; j < n; ++j) a(i, j) -= m * a(k, j);
        }
    }
    return piv;
}

Vector luBacksolve(const Matrix& lu, const std::vector<std::size_t>& piv,
                   const Vector& b) {
    const std::size_t n = lu.rows();
    Vector x(n);
    for (std::size_t i = 0; i < n; ++i) x[i] = b[piv[i]];
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t k = 0; k < i; ++k) x[i] -= lu(i, k) * x[k];
    for (std::size_t ii = n; ii-- > 0;) {
        for (std::size_t k = ii + 1; k < n; ++k) x[ii] -= lu(ii, k) * x[k];
        x[ii] /= lu(ii, ii);
    }
    return x;
}

}  // namespace

std::optional<Vector> luSolve(const Matrix& a, const Vector& b, double tol) {
    assert(a.rows() == a.cols() && a.rows() == b.size());
    Matrix lu = a;
    auto piv = luFactor(lu, tol);
    if (!piv) return std::nullopt;
    return luBacksolve(lu, *piv, b);
}

std::optional<Matrix> luInverse(const Matrix& a, double tol) {
    assert(a.rows() == a.cols());
    const std::size_t n = a.rows();
    Matrix lu = a;
    auto piv = luFactor(lu, tol);
    if (!piv) return std::nullopt;
    Matrix inv(n, n);
    Vector e(n, 0.0);
    for (std::size_t j = 0; j < n; ++j) {
        e[j] = 1.0;
        Vector col = luBacksolve(lu, *piv, e);
        e[j] = 0.0;
        for (std::size_t i = 0; i < n; ++i) inv(i, j) = col[i];
    }
    return inv;
}

bool isPositiveSemidefinite(const Matrix& a, double eps) {
    Matrix shifted = a;
    for (std::size_t i = 0; i < a.rows(); ++i) shifted(i, i) += eps;
    return Cholesky::factorInPlace(shifted, 0.0);
}

}  // namespace linalg
