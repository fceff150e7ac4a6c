/**
 * @file
 * Tests for the least-squares front end (normal equations + standard
 * errors), cross-checked against the independent QR path.
 */
#include <cmath>

#include <gtest/gtest.h>

#include "../support/qr.hpp"
#include "linalg/solve.hpp"
#include "util/random.hpp"

namespace chaos {
namespace {

TEST(LeastSquares, ExactFitHasZeroRss)
{
    Matrix x(5, 2);
    std::vector<double> y(5);
    for (size_t i = 0; i < 5; ++i) {
        x(i, 0) = 1.0;
        x(i, 1) = static_cast<double>(i);
        y[i] = 3.0 + 2.0 * static_cast<double>(i);
    }
    const auto fit = leastSquares(x, y);
    EXPECT_NEAR(fit.coefficients[0], 3.0, 1e-9);
    EXPECT_NEAR(fit.coefficients[1], 2.0, 1e-9);
    EXPECT_NEAR(fit.rss, 0.0, 1e-12);
}

TEST(LeastSquares, MatchesQrOnRandomProblems)
{
    Rng rng(42);
    const size_t n = 50, p = 6;
    Matrix x(n, p);
    std::vector<double> y(n);
    for (size_t r = 0; r < n; ++r) {
        for (size_t c = 0; c < p; ++c)
            x(r, c) = rng.normal();
        y[r] = rng.normal();
    }
    const auto normal_fit = leastSquares(x, y);
    const auto qr_fit = qrLeastSquares(x, y);
    for (size_t i = 0; i < p; ++i)
        EXPECT_NEAR(normal_fit.coefficients[i], qr_fit[i], 1e-8);
}

TEST(LeastSquares, StdErrorsShrinkWithSampleSize)
{
    // se ~ sigma / sqrt(n): quadrupling n should halve the error.
    auto fit_for = [](size_t n) {
        Rng rng(7);
        Matrix x(n, 2);
        std::vector<double> y(n);
        for (size_t i = 0; i < n; ++i) {
            x(i, 0) = 1.0;
            x(i, 1) = rng.uniform(0.0, 10.0);
            y[i] = 5.0 + 1.5 * x(i, 1) + rng.normal(0.0, 1.0);
        }
        return leastSquares(x, y, true);
    };
    const auto small = fit_for(100);
    const auto large = fit_for(400);
    ASSERT_EQ(small.stdErrors.size(), 2u);
    EXPECT_GT(small.stdErrors[1], large.stdErrors[1]);
    EXPECT_NEAR(small.stdErrors[1] / large.stdErrors[1], 2.0, 0.6);
}

TEST(LeastSquares, SigmaSquaredEstimatesNoiseVariance)
{
    Rng rng(8);
    const size_t n = 2000;
    Matrix x(n, 2);
    std::vector<double> y(n);
    const double noise_sd = 2.0;
    for (size_t i = 0; i < n; ++i) {
        x(i, 0) = 1.0;
        x(i, 1) = rng.uniform(0.0, 1.0);
        y[i] = 1.0 + x(i, 1) + rng.normal(0.0, noise_sd);
    }
    const auto fit = leastSquares(x, y);
    EXPECT_NEAR(std::sqrt(fit.sigma2), noise_sd, 0.15);
}

TEST(LeastSquares, ShapeMismatchPanics)
{
    Matrix x(3, 1);
    EXPECT_DEATH(leastSquares(x, {1.0, 2.0}), "shape mismatch");
}

TEST(LeastSquares, UnderdeterminedPanics)
{
    Matrix x(2, 3);
    EXPECT_DEATH(leastSquares(x, {1.0, 2.0}), "fewer observations");
}

TEST(Ridge, ShrinksCoefficients)
{
    Rng rng(9);
    const size_t n = 60;
    Matrix x(n, 3);
    std::vector<double> y(n);
    for (size_t i = 0; i < n; ++i) {
        for (size_t c = 0; c < 3; ++c)
            x(i, c) = rng.normal();
        y[i] = 2.0 * x(i, 0) - x(i, 1) + rng.normal(0.0, 0.1);
    }
    const auto plain = ridgeSolve(x, y, 0.0);
    const auto shrunk = ridgeSolve(x, y, 100.0);
    double norm_plain = 0.0, norm_shrunk = 0.0;
    for (size_t c = 0; c < 3; ++c) {
        norm_plain += plain[c] * plain[c];
        norm_shrunk += shrunk[c] * shrunk[c];
    }
    EXPECT_LT(norm_shrunk, norm_plain);
}

TEST(Ridge, NegativeLambdaPanics)
{
    Matrix x(3, 1);
    x(0, 0) = 1;
    x(1, 0) = 2;
    x(2, 0) = 3;
    EXPECT_DEATH(ridgeSolve(x, {1, 2, 3}, -1.0), "negative lambda");
}

TEST(Residuals, ComputesYMinusXb)
{
    const Matrix x = Matrix::fromRows({{1, 1}, {1, 2}});
    const auto r = residuals(x, {5, 8}, {1, 3});
    EXPECT_DOUBLE_EQ(r[0], 1.0);   // 5 - (1 + 3)
    EXPECT_DOUBLE_EQ(r[1], 1.0);   // 8 - (1 + 6)
}

} // namespace
} // namespace chaos
