#include "models/lasso.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/logging.hpp"

namespace chaos {

std::vector<size_t>
LassoFit::support(double tol) const
{
    std::vector<size_t> out;
    for (size_t i = 0; i < coefficients.size(); ++i) {
        if (std::fabs(coefficients[i]) > tol)
            out.push_back(i);
    }
    return out;
}

namespace {

/** Columns with a smaller standard deviation count as constant. */
constexpr double kConstantSigma = 1e-12;

/**
 * One regression problem prepared for coordinate descent: columns
 * standardized once, then reduced to the covariance-form statistics
 * G = Z'Z/n and Z'y. Every lambda of a path reuses them.
 */
struct Standardized
{
    size_t n = 0;
    size_t p = 0;
    std::vector<double> mu;     ///< Column means.
    std::vector<double> sigma;  ///< Column standard deviations.
    double yMean = 0.0;
    /** Sum over rows of z(i, c) * (y_i - yMean), per column. Left
     *  unscaled: lambdaMax is fabs(sum) / n in that order, which
     *  keeps the lambda grid bit-identical to the residual form. */
    std::vector<double> zty;
    /** G = Z'Z/n, p x p row-major; constant columns are all-zero. */
    std::vector<double> gram;
};

void
checkProblem(const Matrix &x, const std::vector<double> &y,
             const char *what)
{
    if (x.rows() != y.size())
        panic(std::string(what) + " shape mismatch");
    if (x.rows() == 0 || x.cols() == 0)
        panic(std::string(what) + " empty problem");
}

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

/**
 * Standardize @p x into a column-major Z (constant columns become
 * all-zero), center @p y, and form Z'y and G = Z'Z/n: O(n p^2) once,
 * so that each coordinate update costs O(p) instead of O(n).
 */
Standardized
standardize(const Matrix &x, const std::vector<double> &y)
{
    Standardized s;
    s.n = x.rows();
    s.p = x.cols();
    const size_t n = s.n;
    const size_t p = s.p;
    columnMoments(x, s.mu, s.sigma);

    std::vector<double> z(n * p, 0.0);
    for (size_t r = 0; r < n; ++r) {
        const double *row = x.rowPtr(r);
        for (size_t c = 0; c < p; ++c) {
            if (s.sigma[c] > kConstantSigma)
                z[c * n + r] = (row[c] - s.mu[c]) / s.sigma[c];
        }
    }

    for (double v : y)
        s.yMean += v;
    s.yMean /= static_cast<double>(n);
    std::vector<double> centered(n);
    for (size_t i = 0; i < n; ++i)
        centered[i] = y[i] - s.yMean;

    s.zty.assign(p, 0.0);
    for (size_t c = 0; c < p; ++c) {
        const double *zc = &z[c * n];
        double rho = 0.0;
        for (size_t i = 0; i < n; ++i)
            rho += zc[i] * centered[i];
        s.zty[c] = rho;
    }

    const double inv_n = 1.0 / static_cast<double>(n);
    s.gram.assign(p * p, 0.0);
    for (size_t j = 0; j < p; ++j) {
        const double *zj = &z[j * n];
        for (size_t k = j; k < p; ++k) {
            const double *zk = &z[k * n];
            double dot = 0.0;
            for (size_t i = 0; i < n; ++i)
                dot += zj[i] * zk[i];
            s.gram[j * p + k] = dot * inv_n;
            s.gram[k * p + j] = dot * inv_n;
        }
    }
    return s;
}

/** max_c |z_c'y| / n: the lambda at which every coefficient is 0. */
double
maxCorrelation(const Standardized &s)
{
    double best = 0.0;
    for (size_t c = 0; c < s.p; ++c) {
        if (s.sigma[c] <= kConstantSigma)
            continue;
        best = std::max(best, std::fabs(s.zty[c]) /
                                  static_cast<double>(s.n));
    }
    return best;
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

/**
 * Cyclic coordinate descent at one lambda, from beta = 0, in
 * covariance form: the gradient g = Z'y/n - G beta replaces the
 * n-long residual. With standardized columns each coordinate update
 * is a soft-threshold of g_c + beta_c, and a nonzero step moves g by
 * one column of G.
 */
LassoFit
coordinateDescent(const Standardized &s, double lambda,
                  size_t maxSweeps, double tol)
{
    const size_t p = s.p;
    const double inv_n = 1.0 / static_cast<double>(s.n);
    std::vector<double> beta(p, 0.0);
    std::vector<double> g(p);
    for (size_t c = 0; c < p; ++c)
        g[c] = s.zty[c] * inv_n;

    LassoFit result;
    result.lambda = lambda;
    for (size_t sweep = 0; sweep < maxSweeps; ++sweep) {
        double max_delta = 0.0;
        for (size_t c = 0; c < p; ++c) {
            if (s.sigma[c] <= kConstantSigma)
                continue;  // Constant column stays at zero.
            const double updated = softThreshold(g[c] + beta[c], lambda);
            const double delta = updated - beta[c];
            if (delta != 0.0) {
                const double *gc = &s.gram[c * p];
                for (size_t j = 0; j < p; ++j)
                    g[j] -= delta * gc[j];
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
    double intercept = s.yMean;
    for (size_t c = 0; c < p; ++c) {
        if (s.sigma[c] > kConstantSigma) {
            result.coefficients[c] = beta[c] / s.sigma[c];
            intercept -= result.coefficients[c] * s.mu[c];
        }
    }
    result.intercept = intercept;
    return result;
}

} // namespace

LassoFit
LassoSolver::fit(const Matrix &x, const std::vector<double> &y,
                 double lambda) const
{
    checkProblem(x, y, "LassoSolver::fit");
    panicIf(lambda < 0.0, "LassoSolver::fit negative lambda");
    return coordinateDescent(standardize(x, y), lambda, maxSweeps,
                             tol);
}

double
LassoSolver::lambdaMax(const Matrix &x, const std::vector<double> &y) const
{
    checkProblem(x, y, "lambdaMax");
    return maxCorrelation(standardize(x, y));
}

LassoFit
LassoSolver::fitWithTargetSupport(const Matrix &x,
                                  const std::vector<double> &y,
                                  size_t maxSupport, size_t pathLength,
                                  double minRatio) const
{
    panicIf(maxSupport == 0, "fitWithTargetSupport: zero support");
    checkProblem(x, y, "fitWithTargetSupport");
    const Standardized s = standardize(x, y);
    const double top = maxCorrelation(s);
    if (top <= 0.0)
        return coordinateDescent(s, 0.0, maxSweeps, tol);

    const double log_top = std::log(top);
    const double log_bottom = std::log(top * minRatio);
    LassoFit last;
    bool have_fit = false;

    // Each lambda starts cold from beta = 0; G makes that cheap.
    for (size_t k = 0; k < pathLength; ++k) {
        const double frac = pathLength > 1
                                ? static_cast<double>(k) /
                                      static_cast<double>(pathLength - 1)
                                : 0.0;
        const double lambda =
            std::exp(log_top + frac * (log_bottom - log_top));
        LassoFit current = coordinateDescent(s, lambda, maxSweeps, tol);
        if (current.support().size() > maxSupport) {
            // Path went one step too dense: return the last fit that
            // respected the cap (or this one if none did).
            return have_fit ? last : current;
        }
        last = std::move(current);
        have_fit = true;
    }
    return last;
}

} // namespace chaos
