/**
 * @file
 * L1-regularized linear regression (LASSO) by cyclic coordinate
 * descent — step 3 of the paper's Algorithm 1, used to discard
 * irrelevant counters in the high-dimensional screening stage.
 */
#ifndef CHAOS_MODELS_LASSO_HPP
#define CHAOS_MODELS_LASSO_HPP

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"

namespace chaos {

/** Result of one LASSO fit at a fixed lambda. */
struct LassoFit
{
    double intercept = 0.0;             ///< On the original scale.
    std::vector<double> coefficients;   ///< On the original scale.
    double lambda = 0.0;                ///< Penalty used.
    size_t iterations = 0;              ///< CD sweeps to converge.

    /** Indices of features with non-zero coefficients. */
    std::vector<size_t> support(double tol = 1e-10) const;
};

/**
 * Cyclic coordinate-descent LASSO solver in covariance form: the
 * problem is standardized once and reduced to G = Z'Z/n and Z'y, so
 * each coordinate update costs O(p), independent of the row count.
 */
class LassoSolver
{
  public:
    /** @param maxSweeps CD sweep cap. @param tol Convergence tol. */
    explicit LassoSolver(size_t maxSweeps = 1000, double tol = 1e-7)
        : maxSweeps(maxSweeps), tol(tol)
    {}

    /**
     * Solve min 1/(2n) ||y - b0 - X b||^2 + lambda ||b||_1 with
     * features standardized internally (coefficients are returned on
     * the original scale; constant columns get zero coefficients).
     */
    LassoFit fit(const Matrix &x, const std::vector<double> &y,
                 double lambda) const;

    /**
     * Smallest lambda that drives every coefficient to zero; the
     * natural top of a regularization path.
     */
    double lambdaMax(const Matrix &x, const std::vector<double> &y) const;

    /**
     * Walk a geometric lambda path downward from lambdaMax and
     * return the first fit whose support size is at most
     * @p maxSupport (the paper targets on the order of 10 features),
     * preferring the densest such fit. If even the smallest lambda
     * stays under the cap, that fit is returned.
     *
     * @param pathLength Number of lambda values on the path.
     * @param minRatio Smallest lambda as a fraction of lambdaMax.
     */
    LassoFit fitWithTargetSupport(const Matrix &x,
                                  const std::vector<double> &y,
                                  size_t maxSupport,
                                  size_t pathLength = 40,
                                  double minRatio = 1e-3) const;

  private:
    size_t maxSweeps;
    double tol;
};

} // namespace chaos

#endif // CHAOS_MODELS_LASSO_HPP
