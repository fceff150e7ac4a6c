/**
 * @file
 * Tests for Householder QR and QR-based least squares.
 */
#include <cmath>

#include <gtest/gtest.h>

#include "../support/qr.hpp"
#include "util/random.hpp"

namespace chaos {
namespace {

TEST(Qr, SolvesSquareSystemExactly)
{
    const Matrix a = Matrix::fromRows({{2, 1}, {1, 3}});
    const QrDecomposition qr(a);
    const auto x = qr.solve({5, 10});
    // 2x + y = 5, x + 3y = 10 -> x = 1, y = 3.
    EXPECT_NEAR(x[0], 1.0, 1e-10);
    EXPECT_NEAR(x[1], 3.0, 1e-10);
}

TEST(Qr, LeastSquaresOfOverdeterminedSystem)
{
    // Fit y = 2x + 1 through noisy-free points: exact recovery.
    Matrix a(4, 2);
    std::vector<double> y(4);
    const double xs[] = {0, 1, 2, 3};
    for (size_t i = 0; i < 4; ++i) {
        a(i, 0) = 1.0;
        a(i, 1) = xs[i];
        y[i] = 2.0 * xs[i] + 1.0;
    }
    const auto b = qrLeastSquares(a, y);
    EXPECT_NEAR(b[0], 1.0, 1e-10);
    EXPECT_NEAR(b[1], 2.0, 1e-10);
}

TEST(Qr, WideMatrixPanics)
{
    const Matrix a(2, 3);
    EXPECT_DEATH(QrDecomposition{a}, "rows >= cols");
}

TEST(Qr, DetectsRankDeficiency)
{
    Matrix a(4, 2);
    for (size_t i = 0; i < 4; ++i) {
        a(i, 0) = static_cast<double>(i);
        a(i, 1) = 2.0 * static_cast<double>(i);  // Duplicate column.
    }
    EXPECT_TRUE(QrDecomposition(a).rankDeficient());

    Matrix b(4, 2);
    for (size_t i = 0; i < 4; ++i) {
        b(i, 0) = 1.0;
        b(i, 1) = static_cast<double>(i);
    }
    EXPECT_FALSE(QrDecomposition(b).rankDeficient());
}

TEST(Qr, RFactorIsUpperTriangular)
{
    Rng rng(5);
    Matrix a(6, 3);
    for (size_t r = 0; r < 6; ++r) {
        for (size_t c = 0; c < 3; ++c)
            a(r, c) = rng.normal();
    }
    const Matrix r = QrDecomposition(a).r();
    for (size_t i = 1; i < 3; ++i) {
        for (size_t j = 0; j < i; ++j)
            EXPECT_DOUBLE_EQ(r(i, j), 0.0);
    }
}

TEST(Qr, RPreservesGram)
{
    // R^T R == A^T A (up to floating point) for full-rank A.
    Rng rng(6);
    Matrix a(10, 4);
    for (size_t r = 0; r < 10; ++r) {
        for (size_t c = 0; c < 4; ++c)
            a(r, c) = rng.normal();
    }
    const Matrix r = QrDecomposition(a).r();
    EXPECT_LT(r.gram().maxAbsDiff(a.gram()), 1e-9);
}

class QrRandomLsTest : public ::testing::TestWithParam<size_t>
{
};

TEST_P(QrRandomLsTest, ResidualIsOrthogonalToColumns)
{
    Rng rng(100 + GetParam());
    const size_t n = 30;
    const size_t p = GetParam();
    Matrix a(n, p);
    std::vector<double> y(n);
    for (size_t r = 0; r < n; ++r) {
        for (size_t c = 0; c < p; ++c)
            a(r, c) = rng.normal();
        y[r] = rng.normal();
    }
    const auto b = qrLeastSquares(a, y);
    // Normal equations: A^T (y - A b) == 0.
    const auto fitted = a.multiply(b);
    std::vector<double> resid(n);
    for (size_t i = 0; i < n; ++i)
        resid[i] = y[i] - fitted[i];
    const auto grad = a.transposeTimes(resid);
    for (double g : grad)
        EXPECT_NEAR(g, 0.0, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Widths, QrRandomLsTest,
                         ::testing::Values(1, 2, 5, 10));

} // namespace
} // namespace chaos
