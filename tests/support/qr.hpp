/**
 * @file
 * Householder QR factorization and QR-based least squares: the
 * reference the linear-algebra tests check the normal-equation path
 * in linalg/solve.hpp against. Slower but numerically more robust
 * than the Cholesky solve the library uses.
 */
#ifndef CHAOS_TESTS_SUPPORT_QR_HPP
#define CHAOS_TESTS_SUPPORT_QR_HPP

#include <vector>

#include "linalg/matrix.hpp"

namespace chaos {

/** Householder QR of an m x n matrix with m >= n. */
class QrDecomposition
{
  public:
    /**
     * Factor @p a (m x n, m >= n). panic()s on a wide matrix.
     */
    explicit QrDecomposition(const Matrix &a);

    /**
     * Minimum-norm-residual solution of the least-squares problem
     * min ||a x - b||_2.
     *
     * @param b Right-hand side of length m.
     * @return Coefficient vector of length n.
     */
    std::vector<double> solve(const std::vector<double> &b) const;

    /** Upper-triangular factor R (n x n). */
    Matrix r() const;

    /**
     * True if any diagonal of R is (relatively) negligible, i.e. the
     * columns of the input were numerically rank deficient.
     */
    bool rankDeficient(double tol = 1e-12) const;

  private:
    Matrix qrData;                  // Householder vectors + R, packed.
    std::vector<double> diagonal;   // Diagonal of R.
};

/** Convenience wrapper: least squares via Householder QR. */
std::vector<double> qrLeastSquares(const Matrix &x,
                                   const std::vector<double> &y);

} // namespace chaos

#endif // CHAOS_TESTS_SUPPORT_QR_HPP
