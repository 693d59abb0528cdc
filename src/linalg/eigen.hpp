// Symmetric eigendecomposition via the cyclic Jacobi rotation method.
//
// The MISDP eigenvector-cut separator (Sherali-Fraticelli cuts) and the SDP
// interior-point step-length computation both need full eigensystems of
// small symmetric matrices; Jacobi is simple, robust and accurate at these
// sizes.
#pragma once

#include "linalg/matrix.hpp"

namespace linalg {

/// Result of a symmetric eigendecomposition A = V diag(values) V^T.
/// Eigenvalues are sorted ascending; eigenvectors() column j corresponds to
/// values[j].
struct EigenSystem {
    Vector values;
    Matrix vectors;  ///< columns are orthonormal eigenvectors

    /// Eigenvector for the j-th (ascending) eigenvalue.
    Vector vector(std::size_t j) const {
        Vector v(vectors.rows());
        for (std::size_t i = 0; i < vectors.rows(); ++i) v[i] = vectors(i, j);
        return v;
    }
};

inline constexpr int kDefaultJacobiSweeps = 64;

/// Full eigendecomposition of a symmetric matrix (cyclic Jacobi).
/// `a` must be symmetric; asymmetry beyond ~1e-8 is asserted in debug builds.
EigenSystem symmetricEigen(const Matrix& a,
                           int maxSweeps = kDefaultJacobiSweeps);

/// Smallest eigenvalue of a symmetric matrix: the same Jacobi sweeps as
/// symmetricEigen without accumulating eigenvectors, so it equals
/// symmetricEigen(a).values.front() bit for bit.
double smallestEigenvalue(const Matrix& a);

}  // namespace linalg
