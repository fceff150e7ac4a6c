/**
 * @file
 * Tests for Wald-test backward stepwise elimination (Algorithm 1,
 * steps 4 and 6).
 */
#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "linalg/solve.hpp"
#include "models/model.hpp"
#include "models/stepwise.hpp"
#include "stats/distributions.hpp"
#include "util/random.hpp"

namespace chaos {
namespace {

TEST(Stepwise, DropsPureNoiseKeepsSignal)
{
    Rng rng(1);
    const size_t n = 300;
    Matrix x(n, 5);
    std::vector<double> y(n);
    for (size_t i = 0; i < n; ++i) {
        for (size_t c = 0; c < 5; ++c)
            x(i, c) = rng.normal();
        // Only features 1 and 4 matter.
        y[i] = 2.0 * x(i, 1) - 3.0 * x(i, 4) + rng.normal(0, 0.5);
    }
    const StepwiseResult result = stepwiseEliminate(x, y);
    ASSERT_EQ(result.keptFeatures.size(), 2u);
    EXPECT_EQ(result.keptFeatures[0], 1u);
    EXPECT_EQ(result.keptFeatures[1], 4u);
    // Removed features recorded.
    EXPECT_EQ(result.removedFeatures.size(), 3u);
}

TEST(Stepwise, KeptFeaturesAreAllSignificant)
{
    Rng rng(2);
    const size_t n = 400;
    Matrix x(n, 6);
    std::vector<double> y(n);
    for (size_t i = 0; i < n; ++i) {
        for (size_t c = 0; c < 6; ++c)
            x(i, c) = rng.normal();
        y[i] = x(i, 0) + 0.5 * x(i, 2) + rng.normal(0, 0.3);
    }
    StepwiseConfig config;
    config.alpha = 0.05;
    const StepwiseResult result = stepwiseEliminate(x, y, config);
    for (double p : result.pValues)
        EXPECT_LE(p, config.alpha);
}

TEST(Stepwise, RespectsMinFeatures)
{
    Rng rng(3);
    const size_t n = 200;
    Matrix x(n, 4);
    std::vector<double> y(n);
    for (size_t i = 0; i < n; ++i) {
        for (size_t c = 0; c < 4; ++c)
            x(i, c) = rng.normal();
        y[i] = rng.normal();  // Pure noise: nothing is significant.
    }
    StepwiseConfig config;
    config.minFeatures = 2;
    const StepwiseResult result = stepwiseEliminate(x, y, config);
    EXPECT_EQ(result.keptFeatures.size(), 2u);
}

TEST(Stepwise, AllSignificantKeepsEverything)
{
    Rng rng(4);
    const size_t n = 500;
    Matrix x(n, 3);
    std::vector<double> y(n);
    for (size_t i = 0; i < n; ++i) {
        for (size_t c = 0; c < 3; ++c)
            x(i, c) = rng.normal();
        y[i] = x(i, 0) + x(i, 1) + x(i, 2) + rng.normal(0, 0.1);
    }
    const StepwiseResult result = stepwiseEliminate(x, y);
    EXPECT_EQ(result.keptFeatures.size(), 3u);
    EXPECT_TRUE(result.removedFeatures.empty());
}

TEST(Stepwise, DegenerateConstantColumnIsDroppedFirst)
{
    Rng rng(5);
    const size_t n = 150;
    Matrix x(n, 3);
    std::vector<double> y(n);
    for (size_t i = 0; i < n; ++i) {
        x(i, 0) = rng.normal();
        x(i, 1) = 5.0;  // Constant: collinear with the intercept.
        x(i, 2) = rng.normal();
        y[i] = x(i, 0) + x(i, 2) + rng.normal(0, 0.2);
    }
    const StepwiseResult result = stepwiseEliminate(x, y);
    EXPECT_EQ(std::find(result.keptFeatures.begin(),
                        result.keptFeatures.end(), 1u),
              result.keptFeatures.end());
}

TEST(Stepwise, CoefficientsIncludeIntercept)
{
    Rng rng(6);
    const size_t n = 200;
    Matrix x(n, 2);
    std::vector<double> y(n);
    for (size_t i = 0; i < n; ++i) {
        x(i, 0) = rng.normal();
        x(i, 1) = rng.normal();
        y[i] = 100.0 + 2.0 * x(i, 0) + rng.normal(0, 0.1);
    }
    const StepwiseResult result = stepwiseEliminate(x, y);
    ASSERT_EQ(result.coefficients.size(),
              result.keptFeatures.size() + 1);
    EXPECT_NEAR(result.coefficients[0], 100.0, 0.1);
}

/**
 * Reference oracle: the textbook elimination that rebuilds the design
 * and refits least squares on every step. stepwiseEliminate() must
 * agree with it on the elimination order and the final model.
 */
StepwiseResult
referenceStepwise(const Matrix &x, const std::vector<double> &y,
                  const StepwiseConfig &config)
{
    StepwiseResult result;
    std::vector<size_t> kept(x.cols());
    for (size_t i = 0; i < kept.size(); ++i)
        kept[i] = i;

    for (size_t iter = 0; iter < config.maxIterations; ++iter) {
        const Matrix design = withIntercept(x.selectColumns(kept));
        const auto ls = leastSquares(design, y, true);

        // Wald statistic per feature column (skip the intercept).
        std::vector<double> p_values(kept.size());
        size_t worst = kept.size();
        double worst_p = -1.0;
        for (size_t i = 0; i < kept.size(); ++i) {
            const double se = ls.stdErrors[i + 1];
            const double coef = ls.coefficients[i + 1];
            double p;
            if (se <= 1e-300) {
                // Zero standard error with a zero coefficient means
                // a degenerate (e.g. constant) column: drop first.
                p = std::fabs(coef) <= 1e-12 ? 1.0 : 0.0;
            } else {
                p = waldPValue(coef / se);
            }
            p_values[i] = p;
            if (p > worst_p) {
                worst_p = p;
                worst = i;
            }
        }

        const bool can_remove = kept.size() > config.minFeatures;
        if (!can_remove || worst_p <= config.alpha) {
            result.keptFeatures = kept;
            result.coefficients = ls.coefficients;
            result.pValues = p_values;
            return result;
        }
        result.removedFeatures.push_back(kept[worst]);
        kept.erase(kept.begin() + static_cast<long>(worst));
    }
    ADD_FAILURE() << "referenceStepwise failed to converge";
    return result;
}

TEST(Stepwise, GramReuseMatchesReferenceRefit)
{
    // The downdate-based elimination reads the same Gram entries the
    // per-iteration refit would recompute, so both paths must agree
    // on the elimination order and land on the same coefficients.
    Rng rng(7);
    const size_t n = 350;
    Matrix x(n, 8);
    std::vector<double> y(n);
    for (size_t i = 0; i < n; ++i) {
        for (size_t c = 0; c < 8; ++c)
            x(i, c) = rng.normal();
        // x1 is marginal: its p-value lands well above 0, where the
        // absolute tolerance below can see a shift in sigma^2.
        y[i] = 1.5 * x(i, 0) + 0.06 * x(i, 1) - 2.0 * x(i, 3) +
               0.8 * x(i, 6) + rng.normal(0, 0.4);
    }
    const StepwiseConfig config;
    const StepwiseResult a = stepwiseEliminate(x, y, config);
    const StepwiseResult b = referenceStepwise(x, y, config);

    ASSERT_EQ(a.keptFeatures, b.keptFeatures);
    ASSERT_EQ(a.removedFeatures, b.removedFeatures);
    ASSERT_EQ(a.coefficients.size(), b.coefficients.size());
    for (size_t i = 0; i < a.coefficients.size(); ++i) {
        EXPECT_NEAR(a.coefficients[i], b.coefficients[i],
                    1e-8 * std::max(1.0, std::fabs(b.coefficients[i])));
    }
    ASSERT_EQ(a.pValues.size(), b.pValues.size());
    for (size_t i = 0; i < a.pValues.size(); ++i)
        EXPECT_NEAR(a.pValues[i], b.pValues[i], 1e-6);
}

TEST(Stepwise, EmptyDesignPanics)
{
    Matrix x(3, 0);
    EXPECT_DEATH(stepwiseEliminate(x, {1, 2, 3}), "no features");
}

} // namespace
} // namespace chaos
