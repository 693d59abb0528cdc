// Dense row-major matrix and basic vector operations.
//
// This is the shared numerical substrate for the LP simplex solver
// (src/lp), the interior-point SDP solver (src/sdp) and the eigenvector-cut
// separator of the MISDP solver (src/misdp). All storage is
// std::vector<double>; matrices are small-to-medium dense blocks.
#pragma once

#include <cassert>
#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <vector>

namespace linalg {

using Vector = std::vector<double>;

/// Dense row-major matrix of doubles.
class Matrix {
public:
    Matrix() = default;
    Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
        : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

    /// Construct from nested initializer list (rows of values).
    Matrix(std::initializer_list<std::initializer_list<double>> init);

    /// n x n identity.
    static Matrix identity(std::size_t n);

    /// Reshape to rows x cols filled with `fill`, reusing the storage.
    void assign(std::size_t rows, std::size_t cols, double fill = 0.0) {
        rows_ = rows;
        cols_ = cols;
        data_.assign(rows * cols, fill);
    }

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    bool empty() const { return data_.empty(); }

    double& operator()(std::size_t r, std::size_t c) {
        assert(r < rows_ && c < cols_);
        return data_[r * cols_ + c];
    }
    double operator()(std::size_t r, std::size_t c) const {
        assert(r < rows_ && c < cols_);
        return data_[r * cols_ + c];
    }

    double* rowPtr(std::size_t r) { return data_.data() + r * cols_; }
    const double* rowPtr(std::size_t r) const { return data_.data() + r * cols_; }

    Matrix& operator+=(const Matrix& rhs);
    Matrix& operator-=(const Matrix& rhs);
    Matrix& operator*=(double s);

    friend Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
    friend Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
    friend Matrix operator*(Matrix a, double s) { return a *= s; }
    friend Matrix operator*(double s, Matrix a) { return a *= s; }

    /// Matrix-matrix product (through multiplyInto).
    friend Matrix operator*(const Matrix& a, const Matrix& b);

    /// Matrix-vector product.
    friend Vector operator*(const Matrix& a, const Vector& x);

    Matrix transposed() const;

    /// Frobenius norm.
    double frobeniusNorm() const;

    /// Maximum absolute deviation from symmetry; 0 for symmetric matrices.
    double symmetryError() const;

    /// Make exactly symmetric: A <- (A + A^T)/2 (must be square).
    void symmetrize();

    const std::vector<double>& data() const { return data_; }
    std::vector<double>& data() { return data_; }

private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

std::ostream& operator<<(std::ostream& os, const Matrix& m);

// ---- vector helpers -------------------------------------------------------

double dot(const Vector& a, const Vector& b);
double norm2(const Vector& a);
double normInf(const Vector& a);
/// y += alpha * x
void axpy(double alpha, const Vector& x, Vector& y);
/// x *= alpha
void scale(Vector& x, double alpha);

/// c <- a * b, reusing c's storage. Row i of c adds a(i,k) * row k of b
/// for k ascending, skipping a(i,k) == 0.
void multiplyInto(const Matrix& a, const Matrix& b, Matrix& c);

/// Inner product of symmetric matrices <A, B> = trace(A*B) = sum a_ij b_ij.
double frobeniusDot(const Matrix& a, const Matrix& b);

/// Rank-one update: A += alpha * v v^T (A square, v.size() == A.rows()).
void rankOneUpdate(Matrix& a, double alpha, const Vector& v);

/// Quadratic form v^T A v.
double quadForm(const Matrix& a, const Vector& v);

}  // namespace linalg
