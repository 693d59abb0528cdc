#include "linalg/matrix.hpp"

#include <cmath>
#include <ostream>
#include <stdexcept>

namespace linalg {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> init) {
    rows_ = init.size();
    cols_ = rows_ == 0 ? 0 : init.begin()->size();
    data_.reserve(rows_ * cols_);
    for (const auto& row : init) {
        if (row.size() != cols_)
            throw std::invalid_argument("Matrix: ragged initializer list");
        data_.insert(data_.end(), row.begin(), row.end());
    }
}

Matrix Matrix::identity(std::size_t n) {
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
    return m;
}

Matrix& Matrix::operator+=(const Matrix& rhs) {
    assert(rows_ == rhs.rows_ && cols_ == rhs.cols_);
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += rhs.data_[i];
    return *this;
}

Matrix& Matrix::operator-=(const Matrix& rhs) {
    assert(rows_ == rhs.rows_ && cols_ == rhs.cols_);
    for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= rhs.data_[i];
    return *this;
}

Matrix& Matrix::operator*=(double s) {
    for (double& v : data_) v *= s;
    return *this;
}

void multiplyInto(const Matrix& a, const Matrix& b, Matrix& c) {
    assert(a.cols() == b.rows() && &c != &a && &c != &b);
    c.assign(a.rows(), b.cols());
    for (std::size_t i = 0; i < a.rows(); ++i) {
        const double* ai = a.rowPtr(i);
        double* ci = c.rowPtr(i);
        for (std::size_t k = 0; k < a.cols(); ++k) {
            const double aik = ai[k];
            if (aik == 0.0) continue;
            const double* bk = b.rowPtr(k);
            for (std::size_t j = 0; j < b.cols(); ++j) ci[j] += aik * bk[j];
        }
    }
}

Matrix operator*(const Matrix& a, const Matrix& b) {
    Matrix c;
    multiplyInto(a, b, c);
    return c;
}

Vector operator*(const Matrix& a, const Vector& x) {
    assert(a.cols() == x.size());
    Vector y(a.rows(), 0.0);
    for (std::size_t i = 0; i < a.rows(); ++i) {
        const double* ai = a.rowPtr(i);
        double s = 0.0;
        for (std::size_t j = 0; j < a.cols(); ++j) s += ai[j] * x[j];
        y[i] = s;
    }
    return y;
}

Matrix Matrix::transposed() const {
    Matrix t(cols_, rows_);
    for (std::size_t i = 0; i < rows_; ++i)
        for (std::size_t j = 0; j < cols_; ++j) t(j, i) = (*this)(i, j);
    return t;
}

double Matrix::frobeniusNorm() const {
    double s = 0.0;
    for (double v : data_) s += v * v;
    return std::sqrt(s);
}

double Matrix::symmetryError() const {
    assert(rows_ == cols_);
    double err = 0.0;
    for (std::size_t i = 0; i < rows_; ++i)
        for (std::size_t j = i + 1; j < cols_; ++j)
            err = std::max(err, std::fabs((*this)(i, j) - (*this)(j, i)));
    return err;
}

void Matrix::symmetrize() {
    assert(rows_ == cols_);
    for (std::size_t i = 0; i < rows_; ++i)
        for (std::size_t j = i + 1; j < cols_; ++j) {
            const double v = 0.5 * ((*this)(i, j) + (*this)(j, i));
            (*this)(i, j) = v;
            (*this)(j, i) = v;
        }
}

std::ostream& operator<<(std::ostream& os, const Matrix& m) {
    for (std::size_t i = 0; i < m.rows(); ++i) {
        os << (i == 0 ? "[" : " ");
        for (std::size_t j = 0; j < m.cols(); ++j)
            os << (j == 0 ? "" : " ") << m(i, j);
        os << (i + 1 == m.rows() ? "]" : "\n");
    }
    return os;
}

double dot(const Vector& a, const Vector& b) {
    assert(a.size() == b.size());
    double s = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
    return s;
}

double norm2(const Vector& a) { return std::sqrt(dot(a, a)); }

double normInf(const Vector& a) {
    double m = 0.0;
    for (double v : a) m = std::max(m, std::fabs(v));
    return m;
}

void axpy(double alpha, const Vector& x, Vector& y) {
    assert(x.size() == y.size());
    for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

void scale(Vector& x, double alpha) {
    for (double& v : x) v *= alpha;
}

double frobeniusDot(const Matrix& a, const Matrix& b) {
    assert(a.rows() == b.rows() && a.cols() == b.cols());
    double s = 0.0;
    for (std::size_t i = 0; i < a.data().size(); ++i) s += a.data()[i] * b.data()[i];
    return s;
}

void rankOneUpdate(Matrix& a, double alpha, const Vector& v) {
    assert(a.rows() == a.cols() && a.rows() == v.size());
    for (std::size_t i = 0; i < v.size(); ++i) {
        double* ai = a.rowPtr(i);
        const double avi = alpha * v[i];
        for (std::size_t j = 0; j < v.size(); ++j) ai[j] += avi * v[j];
    }
}

double quadForm(const Matrix& a, const Vector& v) {
    assert(a.rows() == a.cols() && a.rows() == v.size());
    double s = 0.0;
    for (std::size_t i = 0; i < v.size(); ++i) {
        const double* ai = a.rowPtr(i);
        double r = 0.0;
        for (std::size_t j = 0; j < v.size(); ++j) r += ai[j] * v[j];
        s += v[i] * r;
    }
    return s;
}

}  // namespace linalg
