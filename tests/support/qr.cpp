#include "qr.hpp"

#include <cmath>

#include "util/logging.hpp"

namespace chaos {

QrDecomposition::QrDecomposition(const Matrix &a)
    : qrData(a), diagonal(a.cols())
{
    const size_t m = a.rows();
    const size_t n = a.cols();
    panicIf(m < n, "QR requires rows >= cols");

    // Classic packed Householder QR (cf. Golub & Van Loan / JAMA).
    for (size_t k = 0; k < n; ++k) {
        double norm = 0.0;
        for (size_t i = k; i < m; ++i)
            norm = std::hypot(norm, qrData(i, k));

        if (norm != 0.0) {
            if (qrData(k, k) < 0.0)
                norm = -norm;
            for (size_t i = k; i < m; ++i)
                qrData(i, k) /= norm;
            qrData(k, k) += 1.0;

            for (size_t j = k + 1; j < n; ++j) {
                double s = 0.0;
                for (size_t i = k; i < m; ++i)
                    s += qrData(i, k) * qrData(i, j);
                s = -s / qrData(k, k);
                for (size_t i = k; i < m; ++i)
                    qrData(i, j) += s * qrData(i, k);
            }
        }
        diagonal[k] = -norm;
    }
}

std::vector<double>
QrDecomposition::solve(const std::vector<double> &b) const
{
    const size_t m = qrData.rows();
    const size_t n = qrData.cols();
    panicIf(b.size() != m, "QR solve size mismatch");

    std::vector<double> y(b);
    // Apply Q^T to b.
    for (size_t k = 0; k < n; ++k) {
        if (qrData(k, k) == 0.0)
            continue;
        double s = 0.0;
        for (size_t i = k; i < m; ++i)
            s += qrData(i, k) * y[i];
        s = -s / qrData(k, k);
        for (size_t i = k; i < m; ++i)
            y[i] += s * qrData(i, k);
    }
    // Back-substitute R x = y.
    std::vector<double> x(n, 0.0);
    for (size_t kk = n; kk-- > 0;) {
        double value = y[kk];
        for (size_t j = kk + 1; j < n; ++j)
            value -= qrData(kk, j) * x[j];
        // A zero diagonal means a rank-deficient column; return a
        // zero coefficient for it (minimum-norm-ish fallback).
        x[kk] = diagonal[kk] != 0.0 ? value / diagonal[kk] : 0.0;
    }
    return x;
}

Matrix
QrDecomposition::r() const
{
    const size_t n = qrData.cols();
    Matrix out(n, n);
    for (size_t i = 0; i < n; ++i) {
        out(i, i) = diagonal[i];
        for (size_t j = i + 1; j < n; ++j)
            out(i, j) = qrData(i, j);
    }
    return out;
}

bool
QrDecomposition::rankDeficient(double tol) const
{
    double max_diag = 0.0;
    for (double d : diagonal)
        max_diag = std::max(max_diag, std::fabs(d));
    if (max_diag == 0.0)
        return true;
    for (double d : diagonal) {
        if (std::fabs(d) < tol * max_diag)
            return true;
    }
    return false;
}

std::vector<double>
qrLeastSquares(const Matrix &x, const std::vector<double> &y)
{
    return QrDecomposition(x).solve(y);
}

} // namespace chaos
