#include "linalg/eigen.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace linalg {

namespace {

/// Cyclic Jacobi on d (symmetric, overwritten): the diagonal converges to
/// the eigenvalues. Rotations are accumulated into *v when v is given;
/// they never feed back into d, so d comes out the same either way.
void jacobi(Matrix& d, Matrix* v, int maxSweeps) {
    const std::size_t n = d.rows();
    for (int sweep = 0; sweep < maxSweeps; ++sweep) {
        // Off-diagonal Frobenius norm as convergence measure.
        double off = 0.0;
        for (std::size_t p = 0; p < n; ++p)
            for (std::size_t q = p + 1; q < n; ++q) off += d(p, q) * d(p, q);
        if (off < 1e-24) break;

        for (std::size_t p = 0; p < n; ++p) {
            for (std::size_t q = p + 1; q < n; ++q) {
                const double apq = d(p, q);
                if (std::fabs(apq) < 1e-300) continue;
                const double app = d(p, p);
                const double aqq = d(q, q);
                const double tau = (aqq - app) / (2.0 * apq);
                // Stable computation of tan(theta).
                const double t = (tau >= 0.0)
                                     ? 1.0 / (tau + std::sqrt(1.0 + tau * tau))
                                     : 1.0 / (tau - std::sqrt(1.0 + tau * tau));
                const double c = 1.0 / std::sqrt(1.0 + t * t);
                const double s = t * c;

                for (std::size_t k = 0; k < n; ++k) {
                    const double dkp = d(k, p);
                    const double dkq = d(k, q);
                    d(k, p) = c * dkp - s * dkq;
                    d(k, q) = s * dkp + c * dkq;
                }
                for (std::size_t k = 0; k < n; ++k) {
                    const double dpk = d(p, k);
                    const double dqk = d(q, k);
                    d(p, k) = c * dpk - s * dqk;
                    d(q, k) = s * dpk + c * dqk;
                }
                if (!v) continue;
                for (std::size_t k = 0; k < n; ++k) {
                    const double vkp = (*v)(k, p);
                    const double vkq = (*v)(k, q);
                    (*v)(k, p) = c * vkp - s * vkq;
                    (*v)(k, q) = s * vkp + c * vkq;
                }
            }
        }
    }
}

/// Diagonal positions of d, sorted ascending by value.
std::vector<std::size_t> ascendingDiagonal(const Matrix& d) {
    std::vector<std::size_t> order(d.rows());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t i, std::size_t j) { return d(i, i) < d(j, j); });
    return order;
}

/// a, made exactly symmetric (the matrix Jacobi starts from).
Matrix symmetrized(const Matrix& a) {
    assert(a.rows() == a.cols());
    assert(a.symmetryError() < 1e-7);
    Matrix d = a;
    d.symmetrize();
    return d;
}

}  // namespace

EigenSystem symmetricEigen(const Matrix& a, int maxSweeps) {
    const std::size_t n = a.rows();
    Matrix d = symmetrized(a);
    Matrix v = Matrix::identity(n);
    jacobi(d, &v, maxSweeps);

    // Sort eigenpairs ascending by eigenvalue.
    const std::vector<std::size_t> order = ascendingDiagonal(d);
    EigenSystem sys;
    sys.values.resize(n);
    sys.vectors = Matrix(n, n);
    for (std::size_t j = 0; j < n; ++j) {
        sys.values[j] = d(order[j], order[j]);
        for (std::size_t i = 0; i < n; ++i) sys.vectors(i, j) = v(i, order[j]);
    }
    return sys;
}

double smallestEigenvalue(const Matrix& a) {
    Matrix d = symmetrized(a);
    jacobi(d, nullptr, kDefaultJacobiSweeps);
    const std::size_t first = ascendingDiagonal(d).front();
    return d(first, first);
}

}  // namespace linalg
