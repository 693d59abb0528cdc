#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <random>

#include "linalg/eigen.hpp"
#include "linalg/factor.hpp"
#include "linalg/matrix.hpp"

using linalg::Cholesky;
using linalg::Matrix;
using linalg::Vector;

namespace {

Matrix randomSymmetric(std::size_t n, std::mt19937& rng) {
    std::uniform_real_distribution<double> dist(-1.0, 1.0);
    Matrix a(n, n);
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = i; j < n; ++j) {
            const double v = dist(rng);
            a(i, j) = v;
            a(j, i) = v;
        }
    return a;
}

Matrix randomSpd(std::size_t n, std::mt19937& rng, double shift = 0.5) {
    Matrix a = randomSymmetric(n, rng);
    Matrix spd = a * a.transposed();
    for (std::size_t i = 0; i < n; ++i) spd(i, i) += shift;
    return spd;
}

}  // namespace

TEST(Matrix, InitializerListAndAccess) {
    Matrix m{{1, 2, 3}, {4, 5, 6}};
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_DOUBLE_EQ(m(1, 2), 6.0);
    m(0, 0) = -1.0;
    EXPECT_DOUBLE_EQ(m(0, 0), -1.0);
}

TEST(Matrix, RaggedInitializerThrows) {
    EXPECT_THROW((Matrix{{1, 2}, {3}}), std::invalid_argument);
}

TEST(Matrix, Identity) {
    Matrix i = Matrix::identity(3);
    for (std::size_t r = 0; r < 3; ++r)
        for (std::size_t c = 0; c < 3; ++c)
            EXPECT_DOUBLE_EQ(i(r, c), r == c ? 1.0 : 0.0);
}

TEST(Matrix, Product) {
    Matrix a{{1, 2}, {3, 4}};
    Matrix b{{5, 6}, {7, 8}};
    Matrix c = a * b;
    EXPECT_DOUBLE_EQ(c(0, 0), 19.0);
    EXPECT_DOUBLE_EQ(c(0, 1), 22.0);
    EXPECT_DOUBLE_EQ(c(1, 0), 43.0);
    EXPECT_DOUBLE_EQ(c(1, 1), 50.0);
}

TEST(Matrix, MatVec) {
    Matrix a{{1, 2}, {3, 4}};
    Vector x{1.0, -1.0};
    Vector y = a * x;
    EXPECT_DOUBLE_EQ(y[0], -1.0);
    EXPECT_DOUBLE_EQ(y[1], -1.0);
}

TEST(Matrix, TransposeAndSymmetry) {
    Matrix a{{1, 2}, {3, 4}};
    Matrix t = a.transposed();
    EXPECT_DOUBLE_EQ(t(0, 1), 3.0);
    EXPECT_GT(a.symmetryError(), 0.0);
    a.symmetrize();
    EXPECT_DOUBLE_EQ(a.symmetryError(), 0.0);
    EXPECT_DOUBLE_EQ(a(0, 1), 2.5);
}

TEST(Matrix, QuadFormAndRankOne) {
    Matrix a = Matrix::identity(3);
    Vector v{1.0, 2.0, 3.0};
    EXPECT_DOUBLE_EQ(linalg::quadForm(a, v), 14.0);
    linalg::rankOneUpdate(a, 2.0, v);
    EXPECT_DOUBLE_EQ(a(1, 2), 12.0);
    EXPECT_DOUBLE_EQ(a(0, 0), 3.0);
}

TEST(Matrix, FrobeniusDot) {
    Matrix a{{1, 0}, {0, 2}};
    Matrix b{{3, 1}, {1, 4}};
    EXPECT_DOUBLE_EQ(linalg::frobeniusDot(a, b), 11.0);
}

TEST(VectorOps, DotNormAxpy) {
    Vector a{1, 2, 3};
    Vector b{4, 5, 6};
    EXPECT_DOUBLE_EQ(linalg::dot(a, b), 32.0);
    EXPECT_DOUBLE_EQ(linalg::norm2(Vector{3, 4}), 5.0);
    EXPECT_DOUBLE_EQ(linalg::normInf(Vector{-7, 2}), 7.0);
    linalg::axpy(2.0, a, b);
    EXPECT_DOUBLE_EQ(b[2], 12.0);
}

TEST(Cholesky, SolvesSpdSystem) {
    Matrix a{{4, 2}, {2, 3}};
    auto chol = Cholesky::factor(a);
    ASSERT_TRUE(chol.has_value());
    Vector x = chol->solve(Vector{8, 7});
    // 4x + 2y = 8, 2x + 3y = 7 -> x = 1.25, y = 1.5
    EXPECT_NEAR(x[0], 1.25, 1e-12);
    EXPECT_NEAR(x[1], 1.5, 1e-12);
}

TEST(Cholesky, RejectsIndefinite) {
    Matrix a{{1, 2}, {2, 1}};  // eigenvalues 3, -1
    EXPECT_FALSE(Cholesky::factor(a).has_value());
}

TEST(Cholesky, LogDet) {
    Matrix a{{4, 0}, {0, 9}};
    auto chol = Cholesky::factor(a);
    ASSERT_TRUE(chol.has_value());
    EXPECT_NEAR(chol->logDet(), std::log(36.0), 1e-12);
}

TEST(Lu, SolveAndInverse) {
    Matrix a{{0, 1}, {2, 0}};  // needs pivoting
    auto x = linalg::luSolve(a, Vector{3, 4});
    ASSERT_TRUE(x.has_value());
    EXPECT_NEAR((*x)[0], 2.0, 1e-12);
    EXPECT_NEAR((*x)[1], 3.0, 1e-12);
    auto inv = linalg::luInverse(a);
    ASSERT_TRUE(inv.has_value());
    Matrix prod = (*inv) * a;
    EXPECT_NEAR((prod - Matrix::identity(2)).frobeniusNorm(), 0.0, 1e-12);
}

TEST(Lu, DetectsSingular) {
    Matrix a{{1, 2}, {2, 4}};
    EXPECT_FALSE(linalg::luSolve(a, Vector{1, 1}).has_value());
    EXPECT_FALSE(linalg::luInverse(a).has_value());
}

TEST(Eigen, DiagonalMatrix) {
    Matrix a{{3, 0}, {0, -1}};
    auto sys = linalg::symmetricEigen(a);
    EXPECT_NEAR(sys.values[0], -1.0, 1e-12);
    EXPECT_NEAR(sys.values[1], 3.0, 1e-12);
}

TEST(Eigen, KnownEigenpair) {
    Matrix a{{2, 1}, {1, 2}};
    auto sys = linalg::symmetricEigen(a);
    EXPECT_NEAR(sys.values[0], 1.0, 1e-10);
    EXPECT_NEAR(sys.values[1], 3.0, 1e-10);
    // Residual check A v = lambda v.
    for (std::size_t k = 0; k < 2; ++k) {
        Vector v = sys.vector(k);
        Vector av = a * v;
        for (std::size_t i = 0; i < 2; ++i)
            EXPECT_NEAR(av[i], sys.values[k] * v[i], 1e-10);
    }
}

TEST(Eigen, SmallestEigenvalueOfPsdIsNonneg) {
    std::mt19937 rng(7);
    Matrix spd = randomSpd(6, rng, 0.1);
    EXPECT_GT(linalg::smallestEigenvalue(spd), 0.0);
    EXPECT_TRUE(linalg::isPositiveSemidefinite(spd));
}

// Property-style sweep: random symmetric matrices of several sizes must give
// orthonormal eigenvectors and tiny residuals.
class EigenProperty : public ::testing::TestWithParam<int> {};

TEST_P(EigenProperty, ResidualAndOrthonormality) {
    const int n = GetParam();
    std::mt19937 rng(1234 + n);
    for (int rep = 0; rep < 5; ++rep) {
        Matrix a = randomSymmetric(n, rng);
        auto sys = linalg::symmetricEigen(a);
        // Residuals.
        for (int k = 0; k < n; ++k) {
            Vector v = sys.vector(k);
            Vector av = a * v;
            for (int i = 0; i < n; ++i)
                EXPECT_NEAR(av[i], sys.values[k] * v[i], 1e-8);
        }
        // Orthonormality of V.
        Matrix vtv = sys.vectors.transposed() * sys.vectors;
        EXPECT_NEAR((vtv - Matrix::identity(n)).frobeniusNorm(), 0.0, 1e-8);
        // Trace preservation.
        double trA = 0.0, sumLam = 0.0;
        for (int i = 0; i < n; ++i) trA += a(i, i);
        for (double l : sys.values) sumLam += l;
        EXPECT_NEAR(trA, sumLam, 1e-8);
        // Eigenvalues sorted ascending.
        for (int k = 1; k < n; ++k)
            EXPECT_LE(sys.values[k - 1], sys.values[k] + 1e-12);
    }
}

// Property: smallestEigenvalue runs symmetricEigen's sweeps without the
// eigenvectors, so both give the same double, zero signs included. Every
// fourth matrix is diagonal with a +0/-0 tie.
TEST_P(EigenProperty, SmallestEigenvalueIsBitwiseFront) {
    const int n = GetParam();
    std::mt19937 rng(77 + n);
    for (int rep = 0; rep < 20; ++rep) {
        Matrix a = randomSymmetric(n, rng);
        if (rep % 4 == 0) {
            a = Matrix(n, n);
            for (int i = 0; i < n; ++i) a(i, i) = i % 2 ? -0.0 : 0.0;
        }
        EXPECT_EQ(std::bit_cast<std::uint64_t>(linalg::smallestEigenvalue(a)),
                  std::bit_cast<std::uint64_t>(
                      linalg::symmetricEigen(a).values.front()))
            << "n=" << n << " rep=" << rep;
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21));

// Property: Cholesky solve of random SPD systems reproduces the RHS.
class CholeskyProperty : public ::testing::TestWithParam<int> {};

TEST_P(CholeskyProperty, SolveResidual) {
    const int n = GetParam();
    std::mt19937 rng(99 + n);
    std::uniform_real_distribution<double> dist(-2.0, 2.0);
    for (int rep = 0; rep < 5; ++rep) {
        Matrix a = randomSpd(n, rng);
        Vector b(n);
        for (double& v : b) v = dist(rng);
        auto chol = Cholesky::factor(a);
        ASSERT_TRUE(chol.has_value());
        Vector x = chol->solve(b);
        Vector ax = a * x;
        for (int i = 0; i < n; ++i) EXPECT_NEAR(ax[i], b[i], 1e-7);
    }
}

// Property: the in-place kernels reproduce factor() and solve() bit for
// bit: factorInPlace writes factor()'s lower triangle and keeps the upper
// one, and inverseInto's column j is solve(e_j).
TEST_P(CholeskyProperty, InPlaceKernelsMatchFactorAndSolve) {
    const int n = GetParam();
    std::mt19937 rng(5 + n);
    for (int rep = 0; rep < 5; ++rep) {
        const Matrix a = randomSpd(n, rng);
        auto chol = Cholesky::factor(a);
        ASSERT_TRUE(chol.has_value());
        Matrix l = a;
        ASSERT_TRUE(Cholesky::factorInPlace(l));
        for (int i = 0; i < n; ++i)
            for (int j = 0; j < n; ++j)
                EXPECT_EQ(std::bit_cast<std::uint64_t>(l(i, j)),
                          std::bit_cast<std::uint64_t>(
                              j <= i ? chol->lower()(i, j) : a(i, j)));
        Matrix inv, lt;
        Vector scratch;
        Cholesky::inverseInto(l, inv, lt, scratch);
        for (int j = 0; j < n; ++j) {
            Vector e(n, 0.0);
            e[j] = 1.0;
            const Vector x = chol->solve(e);
            for (int i = 0; i < n; ++i)
                EXPECT_EQ(std::bit_cast<std::uint64_t>(inv(i, j)),
                          std::bit_cast<std::uint64_t>(x[i]))
                    << "n=" << n << " (" << i << "," << j << ")";
        }
    }
}

TEST(Cholesky, FactorInPlaceRejectsIndefinite) {
    Matrix a{{1.0, 2.0}, {2.0, 1.0}};
    EXPECT_FALSE(Cholesky::factorInPlace(a));
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskyProperty,
                         ::testing::Values(1, 2, 4, 9, 16, 25));
