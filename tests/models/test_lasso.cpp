/**
 * @file
 * Tests for the coordinate-descent LASSO (Algorithm 1, step 3).
 */
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "models/lasso.hpp"
#include "util/logging.hpp"
#include "util/random.hpp"

namespace chaos {
namespace {

// --- Residual-form reference solver ---------------------------------
//
// The textbook residual-form coordinate descent: every coordinate
// update takes an n-long dot product with the residual and then
// updates it. The library solver runs the same iteration in
// covariance form (an O(p) gradient update per step); this copy is
// the oracle it must agree with.

/** Column means and standard deviations of @p x. */
void
columnMoments(const Matrix &x, std::vector<double> &mu,
              std::vector<double> &sigma)
{
    const size_t n = x.rows();
    const size_t p = x.cols();
    mu.assign(p, 0.0);
    sigma.assign(p, 0.0);
    for (size_t r = 0; r < n; ++r) {
        const double *row = x.rowPtr(r);
        for (size_t c = 0; c < p; ++c)
            mu[c] += row[c];
    }
    for (double &m : mu)
        m /= static_cast<double>(n);
    for (size_t r = 0; r < n; ++r) {
        const double *row = x.rowPtr(r);
        for (size_t c = 0; c < p; ++c) {
            const double d = row[c] - mu[c];
            sigma[c] += d * d;
        }
    }
    for (double &s : sigma)
        s = std::sqrt(s / static_cast<double>(n));
}

/** Standardized copy of @p x; constant columns become all-zero. */
Matrix
standardize(const Matrix &x, const std::vector<double> &mu,
            const std::vector<double> &sigma)
{
    Matrix z(x.rows(), x.cols());
    for (size_t r = 0; r < x.rows(); ++r) {
        const double *src = x.rowPtr(r);
        double *dst = z.rowPtr(r);
        for (size_t c = 0; c < x.cols(); ++c) {
            dst[c] = sigma[c] > 1e-12 ? (src[c] - mu[c]) / sigma[c]
                                      : 0.0;
        }
    }
    return z;
}

inline double
softThreshold(double value, double threshold)
{
    if (value > threshold)
        return value - threshold;
    if (value < -threshold)
        return value + threshold;
    return 0.0;
}

LassoFit
referenceLassoFit(const Matrix &x, const std::vector<double> &y,
                  double lambda, size_t maxSweeps = 1000,
                  double tol = 1e-7)
{
    panicIf(x.rows() != y.size(), "LassoSolver::fit shape mismatch");
    panicIf(lambda < 0.0, "LassoSolver::fit negative lambda");
    const size_t n = x.rows();
    const size_t p = x.cols();
    panicIf(n == 0 || p == 0, "LassoSolver::fit empty problem");

    std::vector<double> mu, sigma;
    columnMoments(x, mu, sigma);
    const Matrix z = standardize(x, mu, sigma);

    double y_mean = 0.0;
    for (double v : y)
        y_mean += v;
    y_mean /= static_cast<double>(n);

    // Residual starts as centered y; beta at zero.
    std::vector<double> beta(p, 0.0);
    std::vector<double> residual(n);
    for (size_t i = 0; i < n; ++i)
        residual[i] = y[i] - y_mean;

    // With standardized columns, each column's 1/n * z_c'z_c == 1,
    // so the coordinate update is a soft-threshold of the column-
    // residual correlation.
    LassoFit result;
    result.lambda = lambda;
    const double inv_n = 1.0 / static_cast<double>(n);

    for (size_t sweep = 0; sweep < maxSweeps; ++sweep) {
        double max_delta = 0.0;
        for (size_t c = 0; c < p; ++c) {
            if (sigma[c] <= 1e-12)
                continue;  // Constant column stays at zero.
            double rho = 0.0;
            for (size_t i = 0; i < n; ++i)
                rho += z(i, c) * residual[i];
            rho = rho * inv_n + beta[c];

            const double updated = softThreshold(rho, lambda);
            const double delta = updated - beta[c];
            if (delta != 0.0) {
                for (size_t i = 0; i < n; ++i)
                    residual[i] -= delta * z(i, c);
                beta[c] = updated;
                max_delta = std::max(max_delta, std::fabs(delta));
            }
        }
        result.iterations = sweep + 1;
        if (max_delta < tol)
            break;
    }

    // Back-transform to the original scale.
    result.coefficients.assign(p, 0.0);
    double intercept = y_mean;
    for (size_t c = 0; c < p; ++c) {
        if (sigma[c] > 1e-12) {
            result.coefficients[c] = beta[c] / sigma[c];
            intercept -= result.coefficients[c] * mu[c];
        }
    }
    result.intercept = intercept;
    return result;
}

/** y depends on features 0 and 3 only; 10 features total. */
void
sparseProblem(Matrix &x, std::vector<double> &y, Rng &rng,
              size_t n = 400)
{
    x = Matrix(n, 10);
    y.assign(n, 0.0);
    for (size_t i = 0; i < n; ++i) {
        for (size_t c = 0; c < 10; ++c)
            x(i, c) = rng.normal();
        y[i] = 3.0 * x(i, 0) - 2.0 * x(i, 3) + rng.normal(0, 0.1);
    }
}

TEST(Lasso, RecoversSparseSupport)
{
    Rng rng(1);
    Matrix x;
    std::vector<double> y;
    sparseProblem(x, y, rng);

    LassoSolver solver;
    const LassoFit fit = solver.fit(x, y, 0.2);
    const auto support = fit.support();
    ASSERT_EQ(support.size(), 2u);
    EXPECT_EQ(support[0], 0u);
    EXPECT_EQ(support[1], 3u);
    EXPECT_GT(fit.coefficients[0], 1.5);
    EXPECT_LT(fit.coefficients[3], -1.0);
}

TEST(Lasso, LambdaMaxKillsEveryCoefficient)
{
    Rng rng(2);
    Matrix x;
    std::vector<double> y;
    sparseProblem(x, y, rng);

    LassoSolver solver;
    const double top = solver.lambdaMax(x, y);
    const LassoFit fit = solver.fit(x, y, top * 1.0001);
    EXPECT_TRUE(fit.support().empty());
}

TEST(Lasso, ZeroLambdaApproachesLeastSquares)
{
    Rng rng(3);
    Matrix x;
    std::vector<double> y;
    sparseProblem(x, y, rng);

    LassoSolver solver;
    const LassoFit fit = solver.fit(x, y, 0.0);
    EXPECT_NEAR(fit.coefficients[0], 3.0, 0.05);
    EXPECT_NEAR(fit.coefficients[3], -2.0, 0.05);
}

TEST(Lasso, CoefficientsShrinkMonotonicallyInLambda)
{
    Rng rng(4);
    Matrix x;
    std::vector<double> y;
    sparseProblem(x, y, rng);

    LassoSolver solver;
    double prev_norm = 1e300;
    for (double lambda : {0.01, 0.1, 0.5, 1.0, 2.0}) {
        const LassoFit fit = solver.fit(x, y, lambda);
        double norm = 0.0;
        for (double c : fit.coefficients)
            norm += std::fabs(c);
        EXPECT_LE(norm, prev_norm + 1e-9);
        prev_norm = norm;
    }
}

TEST(Lasso, InterceptAbsorbsTargetMean)
{
    Rng rng(5);
    const size_t n = 300;
    Matrix x(n, 2);
    std::vector<double> y(n);
    for (size_t i = 0; i < n; ++i) {
        x(i, 0) = rng.normal();
        x(i, 1) = rng.normal();
        y[i] = 250.0 + 0.5 * x(i, 0);  // Server-scale static power.
    }
    const LassoFit fit = LassoSolver().fit(x, y, 5.0);
    EXPECT_TRUE(fit.support().empty());
    EXPECT_NEAR(fit.intercept, 250.0, 0.2);
}

TEST(Lasso, TargetSupportRespectsCap)
{
    Rng rng(6);
    const size_t n = 400, p = 30;
    Matrix x(n, p);
    std::vector<double> y(n, 0.0);
    for (size_t i = 0; i < n; ++i) {
        for (size_t c = 0; c < p; ++c)
            x(i, c) = rng.normal();
        // Many weak signals: unconstrained support would be large.
        for (size_t c = 0; c < p; ++c)
            y[i] += 0.5 * x(i, c);
        y[i] += rng.normal(0, 0.05);
    }
    const LassoFit fit =
        LassoSolver().fitWithTargetSupport(x, y, 12);
    EXPECT_LE(fit.support().size(), 12u);
    EXPECT_GE(fit.support().size(), 1u);
}

TEST(Lasso, TargetSupportFindsTrueSparseSet)
{
    Rng rng(7);
    Matrix x;
    std::vector<double> y;
    sparseProblem(x, y, rng);
    const LassoFit fit = LassoSolver().fitWithTargetSupport(x, y, 5);
    const auto support = fit.support();
    ASSERT_LE(support.size(), 5u);
    // Must contain the two true features.
    EXPECT_NE(std::find(support.begin(), support.end(), 0u),
              support.end());
    EXPECT_NE(std::find(support.begin(), support.end(), 3u),
              support.end());
}

TEST(Lasso, ConstantColumnsNeverEnterTheSupport)
{
    Rng rng(8);
    const size_t n = 200;
    Matrix x(n, 3);
    std::vector<double> y(n);
    for (size_t i = 0; i < n; ++i) {
        x(i, 0) = rng.normal();
        x(i, 1) = 42.0;      // Constant.
        x(i, 2) = rng.normal();
        y[i] = x(i, 0) + rng.normal(0, 0.1);
    }
    const LassoFit fit = LassoSolver().fit(x, y, 0.05);
    for (size_t s : fit.support())
        EXPECT_NE(s, 1u);
}

TEST(Lasso, ShapeAndParameterChecksPanic)
{
    Matrix x(3, 1);
    LassoSolver solver;
    EXPECT_DEATH(solver.fit(x, {1.0, 2.0}, 0.1), "shape mismatch");
    EXPECT_DEATH(solver.fit(x, {1.0, 2.0, 3.0}, -0.1),
                 "negative lambda");
}

/** Shape of one seeded problem for the oracle comparison. */
struct OracleProblem
{
    size_t n;
    size_t p;
    uint64_t seed;
    size_t collinearBlock = 0;  ///< Leading near-duplicate columns.
    size_t constantColumns = 0; ///< Trailing constant columns.
};

/**
 * Random features with a sparse signal; the first collinearBlock
 * columns are one base column plus tiny noise, and the last
 * constantColumns columns are constant.
 */
void
oracleProblem(const OracleProblem &shape, Matrix &x,
              std::vector<double> &y)
{
    Rng rng(shape.seed);
    x = Matrix(shape.n, shape.p);
    y.assign(shape.n, 0.0);
    for (size_t i = 0; i < shape.n; ++i) {
        const double base = rng.normal();
        for (size_t c = 0; c < shape.p; ++c) {
            if (c < shape.collinearBlock)
                x(i, c) = base + rng.normal(0.0, 1e-3);
            else if (c + shape.constantColumns >= shape.p)
                x(i, c) = 7.0;
            else
                x(i, c) = 10.0 * rng.normal() + 3.0 * c;
        }
        y[i] = 40.0 + rng.normal(0.0, 0.5);
        for (size_t c = 0; c < shape.p; c += 3)
            y[i] += (c % 2 ? -0.4 : 0.7) * x(i, c) / (1.0 + c % 5);
    }
}

TEST(Lasso, CovarianceFormMatchesResidualFormAlongPath)
{
    const std::vector<OracleProblem> problems = {
        {50, 5, 11},          {50, 40, 12},
        {50, 120, 13},        // p > n.
        {800, 5, 14},         {800, 40, 15, 0, 3},
        {800, 120, 16, 0, 2}, {200, 12, 17, 6, 1},
    };
    const LassoSolver solver;
    const size_t path_length = 40;
    const double min_ratio = 1e-3;
    bool hit_sweep_cap = false;

    for (const OracleProblem &shape : problems) {
        SCOPED_TRACE("n=" + std::to_string(shape.n) +
                     " p=" + std::to_string(shape.p) +
                     " seed=" + std::to_string(shape.seed));
        Matrix x;
        std::vector<double> y;
        oracleProblem(shape, x, y);

        std::vector<double> sigma(shape.p, 0.0);
        {
            std::vector<double> mu;
            columnMoments(x, mu, sigma);
        }

        // The same geometric path fitWithTargetSupport walks.
        const double top = solver.lambdaMax(x, y);
        ASSERT_GT(top, 0.0);
        for (size_t k = 0; k < path_length; ++k) {
            const double frac = static_cast<double>(k) /
                                static_cast<double>(path_length - 1);
            const double lambda = std::exp(
                std::log(top) +
                frac * (std::log(top * min_ratio) - std::log(top)));
            const LassoFit fast = solver.fit(x, y, lambda);
            const LassoFit ref = referenceLassoFit(x, y, lambda);
            ASSERT_EQ(fast.support(), ref.support()) << "lambda " << k;
            for (size_t c = 0; c < shape.p; ++c) {
                EXPECT_LE(std::fabs(fast.coefficients[c] -
                                    ref.coefficients[c]) *
                              sigma[c],
                          1e-9)
                    << "lambda " << k << " column " << c;
            }
            for (size_t c = shape.p - shape.constantColumns;
                 c < shape.p; ++c)
                EXPECT_EQ(fast.coefficients[c], 0.0);
            if (ref.iterations == 1000)
                hit_sweep_cap = true;
        }
    }
    // The collinear block must exercise the sweep cap.
    EXPECT_TRUE(hit_sweep_cap);
}

} // namespace
} // namespace chaos
