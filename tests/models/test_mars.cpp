/**
 * @file
 * Tests for the MARS implementation (paper Eqs. 2 and 3): hinge
 * recovery, interaction capture, pruning, and extrapolation safety.
 */
#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <sstream>

#include <gtest/gtest.h>

#include "linalg/cholesky.hpp"
#include "models/linear.hpp"
#include "models/mars.hpp"
#include "models/serialize_detail.hpp"
#include "stats/descriptive.hpp"
#include "stats/metrics.hpp"
#include "util/random.hpp"

namespace chaos {
namespace {

TEST(Hinge, EvaluatesBothDirections)
{
    const Hinge up{0, 2.0, +1};
    EXPECT_DOUBLE_EQ(up.evaluate(5.0), 3.0);
    EXPECT_DOUBLE_EQ(up.evaluate(1.0), 0.0);
    const Hinge down{0, 2.0, -1};
    EXPECT_DOUBLE_EQ(down.evaluate(5.0), 0.0);
    EXPECT_DOUBLE_EQ(down.evaluate(1.0), 1.0);
}

TEST(BasisTerm, ProductOfHinges)
{
    BasisTerm term;
    term.hinges.push_back({0, 1.0, +1});
    term.hinges.push_back({1, 0.0, -1});
    EXPECT_DOUBLE_EQ(term.evaluate({3.0, -2.0}), 4.0);  // 2 * 2.
    EXPECT_DOUBLE_EQ(term.evaluate({0.5, -2.0}), 0.0);
    EXPECT_EQ(term.degree(), 2u);
    EXPECT_TRUE(term.usesFeature(0));
    EXPECT_FALSE(term.usesFeature(2));
}

TEST(BasisTerm, EmptyTermIsIntercept)
{
    const BasisTerm intercept;
    EXPECT_DOUBLE_EQ(intercept.evaluate({1.0, 2.0}), 1.0);
    EXPECT_EQ(intercept.degree(), 0u);
}

TEST(Mars, RecoversPiecewiseLinearFunction)
{
    // y has a kink at x = 5: exactly one hinge pair needed.
    Rng rng(1);
    const size_t n = 500;
    Matrix x(n, 1);
    std::vector<double> y(n);
    for (size_t i = 0; i < n; ++i) {
        const double v = rng.uniform(0.0, 10.0);
        x(i, 0) = v;
        y[i] = v < 5.0 ? 10.0 + 1.0 * v
                       : 15.0 + 4.0 * (v - 5.0);
        y[i] += rng.normal(0, 0.1);
    }
    MarsConfig config;
    config.maxDegree = 1;
    MarsModel mars(config);
    mars.fit(x, y);

    LinearModel linear;
    linear.fit(x, y);

    // MARS must clearly outperform the straight line.
    const auto mars_pred = mars.predictAll(x);
    const auto lin_pred = linear.predictAll(x);
    EXPECT_LT(rootMeanSquaredError(mars_pred, y),
              0.35 * rootMeanSquaredError(lin_pred, y));
}

TEST(Mars, QuadraticCapturesInteractions)
{
    // y = x0 * x1 (the utilization-times-frequency shape): degree-2
    // MARS should fit it far better than degree-1.
    Rng rng(2);
    const size_t n = 600;
    Matrix x(n, 2);
    std::vector<double> y(n);
    for (size_t i = 0; i < n; ++i) {
        x(i, 0) = rng.uniform(0.0, 1.0);
        x(i, 1) = rng.uniform(0.0, 1.0);
        y[i] = 20.0 + 30.0 * x(i, 0) * x(i, 1) + rng.normal(0, 0.1);
    }
    MarsConfig cfg1;
    cfg1.maxDegree = 1;
    MarsModel additive(cfg1);
    additive.fit(x, y);

    MarsConfig cfg2;
    cfg2.maxDegree = 2;
    MarsModel interactive(cfg2);
    interactive.fit(x, y);

    const double rmse_additive =
        rootMeanSquaredError(additive.predictAll(x), y);
    const double rmse_interactive =
        rootMeanSquaredError(interactive.predictAll(x), y);
    EXPECT_LT(rmse_interactive, 0.6 * rmse_additive);
}

TEST(Mars, RespectsMaxDegree)
{
    Rng rng(3);
    const size_t n = 300;
    Matrix x(n, 3);
    std::vector<double> y(n);
    for (size_t i = 0; i < n; ++i) {
        for (size_t c = 0; c < 3; ++c)
            x(i, c) = rng.uniform(0, 1);
        y[i] = x(i, 0) * x(i, 1) + x(i, 2);
    }
    MarsConfig config;
    config.maxDegree = 2;
    MarsModel mars(config);
    mars.fit(x, y);
    for (const auto &term : mars.terms())
        EXPECT_LE(term.degree(), 2u);
}

TEST(Mars, RespectsMaxTerms)
{
    Rng rng(4);
    const size_t n = 400;
    Matrix x(n, 5);
    std::vector<double> y(n);
    for (size_t i = 0; i < n; ++i) {
        for (size_t c = 0; c < 5; ++c)
            x(i, c) = rng.uniform(0, 1);
        y[i] = std::sin(6.0 * x(i, 0)) + x(i, 1) * x(i, 2) +
               rng.normal(0, 0.05);
    }
    MarsConfig config;
    config.maxDegree = 2;
    config.maxTerms = 9;
    MarsModel mars(config);
    mars.fit(x, y);
    EXPECT_LE(mars.terms().size(), 9u);
    EXPECT_EQ(mars.coefficients().size(), mars.terms().size());
}

TEST(Mars, PredictClampsExtrapolation)
{
    // Outside the training range, predictions freeze at the boundary
    // value instead of extrapolating hinge slopes.
    Rng rng(5);
    const size_t n = 300;
    Matrix x(n, 1);
    std::vector<double> y(n);
    for (size_t i = 0; i < n; ++i) {
        x(i, 0) = rng.uniform(0.0, 10.0);
        y[i] = 3.0 * x(i, 0);
    }
    MarsModel mars;
    mars.fit(x, y);
    const double at_edge = mars.predict({10.0});
    const double far_out = mars.predict({1000.0});
    EXPECT_NEAR(far_out, at_edge, 1.0);
}

TEST(Mars, HandlesDiscreteFeatures)
{
    // P-state-like feature with 3 levels: knots at the levels.
    Rng rng(6);
    const size_t n = 600;
    Matrix x(n, 1);
    std::vector<double> y(n);
    const double levels[] = {800.0, 1600.0, 2260.0};
    for (size_t i = 0; i < n; ++i) {
        x(i, 0) = levels[rng.uniformInt(3)];
        y[i] = x(i, 0) == 800.0 ? 25.0
               : x(i, 0) == 1600.0 ? 30.0
                                   : 42.0;
        y[i] += rng.normal(0, 0.2);
    }
    MarsModel mars;
    mars.fit(x, y);
    EXPECT_NEAR(mars.predict({800.0}), 25.0, 0.5);
    EXPECT_NEAR(mars.predict({1600.0}), 30.0, 0.5);
    EXPECT_NEAR(mars.predict({2260.0}), 42.0, 0.5);
}

TEST(Mars, BackwardPassPrunesUselessTerms)
{
    // Pure linear data: GCV pruning should leave a compact model
    // (intercept plus roughly one hinge pair).
    Rng rng(7);
    const size_t n = 500;
    Matrix x(n, 1);
    std::vector<double> y(n);
    for (size_t i = 0; i < n; ++i) {
        x(i, 0) = rng.uniform(0, 1);
        y[i] = 2.0 * x(i, 0) + rng.normal(0, 0.01);
    }
    MarsConfig config;
    config.maxTerms = 15;
    MarsModel mars(config);
    mars.fit(x, y);
    EXPECT_LE(mars.terms().size(), 7u);
}

TEST(Mars, TypeReflectsDegree)
{
    MarsConfig cfg1;
    cfg1.maxDegree = 1;
    EXPECT_EQ(MarsModel(cfg1).type(), ModelType::PiecewiseLinear);
    MarsConfig cfg2;
    cfg2.maxDegree = 2;
    EXPECT_EQ(MarsModel(cfg2).type(), ModelType::Quadratic);
}

TEST(Mars, InvalidConfigPanics)
{
    MarsConfig bad;
    bad.maxDegree = 3;
    EXPECT_DEATH(MarsModel{bad}, "degree 1 or 2");
    MarsConfig tiny;
    tiny.maxTerms = 2;
    EXPECT_DEATH(MarsModel{tiny}, "maxTerms");
}

TEST(Mars, PredictBeforeFitPanics)
{
    MarsModel mars;
    EXPECT_DEATH(mars.predict({1.0}), "before fit");
}

TEST(Mars, TooFewRowsPanics)
{
    MarsModel mars;
    Matrix x(5, 1);
    EXPECT_DEATH(mars.fit(x, {1, 2, 3, 4, 5}), "at least 10");
}

TEST(Mars, SubsamplingStillFitsWell)
{
    // More rows than maxSearchRows: the forward search subsamples
    // but the final refit uses everything.
    Rng rng(8);
    const size_t n = 5000;
    Matrix x(n, 1);
    std::vector<double> y(n);
    for (size_t i = 0; i < n; ++i) {
        x(i, 0) = rng.uniform(0, 10);
        y[i] = x(i, 0) < 5 ? x(i, 0) : 5.0 + 3.0 * (x(i, 0) - 5.0);
    }
    MarsConfig config;
    config.maxSearchRows = 500;
    MarsModel mars(config);
    mars.fit(x, y);
    EXPECT_LT(rootMeanSquaredError(mars.predictAll(x), y), 0.25);
}

// --- Reference MARS search -------------------------------------------
//
// Friedman's textbook forward pass: every (parent, feature, knot)
// candidate pair is materialized as two hinge columns, bordered onto
// the current Gram system and scored by a fresh equilibrated Cholesky
// solve. The library scores the same candidates through prefix-sum
// knot sweeps and bordered rank-2 solves against one shared factor;
// this copy is the oracle it must agree with. Standardization, knot
// placement, GCV backward pruning and the bounded all-rows refit are
// the library's, so the two fits differ only in how the forward pass
// scores candidates.

/** Column-major basis evaluation workspace for the forward pass. */
struct ForwardState
{
    // Basis columns evaluated on the search rows.
    std::vector<std::vector<double>> columns;
    // Gram matrix of the columns and their dot with y.
    Matrix gram;
    std::vector<double> bty;
    double yty = 0.0;
    size_t numRows = 0;
};

/** Ridged normal-equation solve on the diagonally-equilibrated Gram. */
std::vector<double>
equilibratedSolve(const Matrix &gram, const std::vector<double> &bty)
{
    const size_t m = gram.rows();
    std::vector<double> scale(m);
    for (size_t i = 0; i < m; ++i)
        scale[i] = gram(i, i) > 1e-30 ? std::sqrt(gram(i, i)) : 1.0;

    Matrix eq(m, m);
    std::vector<double> rhs(m);
    for (size_t i = 0; i < m; ++i) {
        rhs[i] = bty[i] / scale[i];
        for (size_t j = 0; j < m; ++j)
            eq(i, j) = gram(i, j) / (scale[i] * scale[j]);
    }
    const Cholesky chol = Cholesky::factorRidged(eq, 1e-5);
    auto b = chol.solve(rhs);
    for (size_t i = 0; i < m; ++i)
        b[i] /= scale[i];
    return b;
}

/** RSS of least squares on the given Gram system. */
double
gramRss(const Matrix &gram, const std::vector<double> &bty, double yty)
{
    const auto b = equilibratedSolve(gram, bty);
    double fit = 0.0;
    for (size_t i = 0; i < b.size(); ++i)
        fit += b[i] * bty[i];
    return std::max(0.0, yty - fit);
}

/** Evaluate RSS if two candidate columns join the current basis. */
double
candidateRss(const ForwardState &st, const std::vector<double> &c1,
             const std::vector<double> &c2,
             const std::vector<double> &y)
{
    const size_t m = st.columns.size();
    Matrix gram(m + 2, m + 2);
    for (size_t i = 0; i < m; ++i) {
        for (size_t j = 0; j < m; ++j)
            gram(i, j) = st.gram(i, j);
    }

    std::vector<double> bty(m + 2);
    for (size_t i = 0; i < m; ++i)
        bty[i] = st.bty[i];

    const size_t n = st.numRows;
    double c1y = 0.0, c2y = 0.0, c11 = 0.0, c22 = 0.0, c12 = 0.0;
    for (size_t r = 0; r < n; ++r) {
        c1y += c1[r] * y[r];
        c2y += c2[r] * y[r];
        c11 += c1[r] * c1[r];
        c22 += c2[r] * c2[r];
        c12 += c1[r] * c2[r];
    }
    for (size_t i = 0; i < m; ++i) {
        const auto &col = st.columns[i];
        double d1 = 0.0, d2 = 0.0;
        for (size_t r = 0; r < n; ++r) {
            d1 += col[r] * c1[r];
            d2 += col[r] * c2[r];
        }
        gram(i, m) = gram(m, i) = d1;
        gram(i, m + 1) = gram(m + 1, i) = d2;
    }
    gram(m, m) = c11;
    gram(m + 1, m + 1) = c22;
    gram(m, m + 1) = gram(m + 1, m) = c12;
    bty[m] = c1y;
    bty[m + 1] = c2y;

    return gramRss(gram, bty, st.yty);
}

/** Generalized cross validation score. */
double
gcvScore(double rss, size_t numRows, size_t numTerms, double penalty)
{
    const double n = static_cast<double>(numRows);
    const double m = static_cast<double>(numTerms);
    const double complexity = m + penalty * (m - 1.0) / 2.0;
    if (complexity >= n)
        return std::numeric_limits<double>::infinity();
    const double denom = 1.0 - complexity / n;
    return rss / n / (denom * denom);
}

/**
 * MarsModel::fit() with the reference forward search. The fitted
 * state goes through the model-file format (17 significant digits,
 * exact for doubles) so the result is a real MarsModel.
 */
MarsModel
referenceMarsFit(const MarsConfig &cfg, const Matrix &x,
                 const std::vector<double> &y)
{
    // --- Standardize features. ---
    std::vector<double> mu(x.cols(), 0.0), sigma(x.cols(), 0.0);
    for (size_t r = 0; r < x.rows(); ++r) {
        const double *row = x.rowPtr(r);
        for (size_t c = 0; c < x.cols(); ++c)
            mu[c] += row[c];
    }
    for (double &m : mu)
        m /= static_cast<double>(x.rows());
    for (size_t r = 0; r < x.rows(); ++r) {
        const double *row = x.rowPtr(r);
        for (size_t c = 0; c < x.cols(); ++c) {
            const double d = row[c] - mu[c];
            sigma[c] += d * d;
        }
    }
    for (double &s : sigma) {
        s = std::sqrt(s / static_cast<double>(x.rows()));
        if (s < 1e-12)
            s = 1.0;
    }
    Matrix z(x.rows(), x.cols());
    for (size_t r = 0; r < x.rows(); ++r) {
        const double *src = x.rowPtr(r);
        double *dst = z.rowPtr(r);
        for (size_t c = 0; c < x.cols(); ++c)
            dst[c] = (src[c] - mu[c]) / sigma[c];
    }
    std::vector<double> zmin(x.cols(), 0.0), zmax(x.cols(), 0.0);
    for (size_t c = 0; c < x.cols(); ++c) {
        double lo = z(0, c), hi = z(0, c);
        for (size_t r = 1; r < x.rows(); ++r) {
            lo = std::min(lo, z(r, c));
            hi = std::max(hi, z(r, c));
        }
        zmin[c] = lo;
        zmax[c] = hi;
    }

    // --- Subsample search rows deterministically (uniform stride). ---
    std::vector<size_t> search_rows;
    if (x.rows() > cfg.maxSearchRows) {
        const double stride = static_cast<double>(x.rows()) /
                              static_cast<double>(cfg.maxSearchRows);
        for (size_t i = 0; i < cfg.maxSearchRows; ++i)
            search_rows.push_back(static_cast<size_t>(i * stride));
    } else {
        search_rows.resize(x.rows());
        for (size_t i = 0; i < x.rows(); ++i)
            search_rows[i] = i;
    }
    const size_t n = search_rows.size();
    const size_t p = x.cols();

    std::vector<double> ys(n);
    for (size_t i = 0; i < n; ++i)
        ys[i] = y[search_rows[i]];

    // --- Candidate knots per feature: interior quantiles. ---
    std::vector<std::vector<double>> featVals(p);
    std::vector<std::vector<double>> knots(p);
    for (size_t f = 0; f < p; ++f) {
        featVals[f].resize(n);
        for (size_t i = 0; i < n; ++i)
            featVals[f][i] = z(search_rows[i], f);
        knots[f] = quantileKnots(featVals[f], cfg.knotCandidates);
    }

    // --- Forward pass. ---
    std::vector<BasisTerm> basis;
    basis.push_back(BasisTerm{});   // Intercept.

    ForwardState st;
    st.numRows = n;
    st.columns.push_back(std::vector<double>(n, 1.0));
    st.gram = Matrix(1, 1);
    st.gram(0, 0) = static_cast<double>(n);
    st.bty.assign(1, 0.0);
    for (size_t i = 0; i < n; ++i) {
        st.bty[0] += ys[i];
        st.yty += ys[i] * ys[i];
    }
    double current_rss = gramRss(st.gram, st.bty, st.yty);

    const size_t min_support = std::max<size_t>(
        5, static_cast<size_t>(cfg.minBasisSupport *
                               static_cast<double>(n)));

    std::vector<double> cand1(n), cand2(n);
    while (basis.size() + 2 <= cfg.maxTerms) {
        double best_rss = current_rss;
        size_t best_parent = 0, best_feature = 0;
        double best_knot = 0.0;
        bool found = false;
        std::vector<double> best_c1, best_c2;

        for (size_t parent = 0; parent < basis.size(); ++parent) {
            if (basis[parent].degree() + 1 > cfg.maxDegree)
                continue;
            const auto &parent_col = st.columns[parent];
            for (size_t f = 0; f < p; ++f) {
                if (knots[f].empty() || basis[parent].usesFeature(f))
                    continue;
                for (double t : knots[f]) {
                    size_t support1 = 0, support2 = 0;
                    for (size_t i = 0; i < n; ++i) {
                        const double up = featVals[f][i] - t;
                        cand1[i] = parent_col[i] * (up > 0.0 ? up : 0.0);
                        cand2[i] =
                            parent_col[i] * (up < 0.0 ? -up : 0.0);
                        support1 += cand1[i] != 0.0;
                        support2 += cand2[i] != 0.0;
                    }
                    // Reject thinly-supported corners outright.
                    if (support1 < min_support ||
                        support2 < min_support)
                        continue;
                    const double rss =
                        candidateRss(st, cand1, cand2, ys);
                    if (rss < best_rss) {
                        best_rss = rss;
                        best_parent = parent;
                        best_feature = f;
                        best_knot = t;
                        best_c1 = cand1;
                        best_c2 = cand2;
                        found = true;
                    }
                }
            }
        }

        if (!found ||
            current_rss - best_rss <
                cfg.minRssImprovement * std::max(current_rss, 1e-12)) {
            break;
        }

        // Commit the winning pair: extend basis, columns, and Gram.
        for (int dir : {+1, -1}) {
            BasisTerm term = basis[best_parent];
            term.hinges.push_back(Hinge{best_feature, best_knot, dir});
            basis.push_back(std::move(term));
        }
        const size_t m = st.columns.size();
        st.columns.push_back(best_c1);
        st.columns.push_back(best_c2);
        Matrix gram(m + 2, m + 2);
        for (size_t i = 0; i < m; ++i) {
            for (size_t j = 0; j < m; ++j)
                gram(i, j) = st.gram(i, j);
        }
        st.bty.resize(m + 2, 0.0);
        for (size_t a = m; a < m + 2; ++a) {
            const auto &col_a = st.columns[a];
            double ay = 0.0;
            for (size_t i = 0; i < n; ++i)
                ay += col_a[i] * ys[i];
            st.bty[a] = ay;
            for (size_t b = 0; b <= a; ++b) {
                const auto &col_b = st.columns[b];
                double dot = 0.0;
                for (size_t i = 0; i < n; ++i)
                    dot += col_a[i] * col_b[i];
                gram(a, b) = gram(b, a) = dot;
            }
        }
        st.gram = std::move(gram);
        current_rss = best_rss;
    }

    // --- Backward pruning by GCV; the intercept is never removed. ---
    std::vector<size_t> active(basis.size());
    for (size_t i = 0; i < active.size(); ++i)
        active[i] = i;

    auto subset_rss = [&](const std::vector<size_t> &subset) {
        const size_t m = subset.size();
        Matrix gram(m, m);
        std::vector<double> bty(m);
        for (size_t a = 0; a < m; ++a) {
            bty[a] = st.bty[subset[a]];
            for (size_t b = 0; b < m; ++b)
                gram(a, b) = st.gram(subset[a], subset[b]);
        }
        return gramRss(gram, bty, st.yty);
    };

    std::vector<size_t> best_subset = active;
    double best_gcv = gcvScore(subset_rss(active), n, active.size(),
                               cfg.gcvPenalty);

    while (active.size() > 1) {
        double round_best_gcv = std::numeric_limits<double>::infinity();
        size_t round_drop = 0;
        for (size_t k = 1; k < active.size(); ++k) {
            std::vector<size_t> trial = active;
            trial.erase(trial.begin() + static_cast<long>(k));
            const double gcv = gcvScore(subset_rss(trial), n,
                                        trial.size(), cfg.gcvPenalty);
            if (gcv < round_best_gcv) {
                round_best_gcv = gcv;
                round_drop = k;
            }
        }
        active.erase(active.begin() + static_cast<long>(round_drop));
        if (round_best_gcv < best_gcv) {
            best_gcv = round_best_gcv;
            best_subset = active;
        }
    }

    // --- Refit the surviving terms on ALL rows, dropping terms whose
    // worst-case swing in the training box exceeds 3x the y range. ---
    std::vector<BasisTerm> final_terms;
    for (size_t idx : best_subset)
        final_terms.push_back(basis[idx]);
    basis = std::move(final_terms);

    double y_lo = y[0], y_hi = y[0];
    for (double v : y) {
        y_lo = std::min(y_lo, v);
        y_hi = std::max(y_hi, v);
    }
    const double y_range = std::max(y_hi - y_lo, 1e-6);

    std::vector<double> coef;
    for (;;) {
        const size_t m = basis.size();
        Matrix design(x.rows(), m);
        for (size_t r = 0; r < x.rows(); ++r) {
            const auto row = z.row(r);
            for (size_t c = 0; c < m; ++c)
                design(r, c) = basis[c].evaluate(row);
        }
        std::vector<double> bty;
        const Matrix gram = design.transposeTimesSelf(y, bty);
        coef = equilibratedSolve(gram, bty);

        size_t worst = 0;
        double worst_bound = 0.0;
        for (size_t c = 0; c < m; ++c) {
            if (basis[c].hinges.empty())
                continue;
            double swing = std::fabs(coef[c]);
            for (const auto &hinge : basis[c].hinges) {
                const double top =
                    hinge.direction > 0
                        ? std::max(0.0, zmax[hinge.feature] - hinge.knot)
                        : std::max(0.0,
                                   hinge.knot - zmin[hinge.feature]);
                swing *= top;
            }
            if (swing > worst_bound) {
                worst_bound = swing;
                worst = c;
            }
        }
        if (worst_bound <= 3.0 * y_range || m <= 1)
            break;
        basis.erase(basis.begin() + static_cast<long>(worst));
    }

    std::stringstream text;
    text << std::setprecision(17) << "degree " << cfg.maxDegree
         << "\nterms " << basis.size() << '\n';
    for (const auto &term : basis) {
        text << "term " << term.hinges.size();
        for (const auto &hinge : term.hinges) {
            text << ' ' << hinge.feature << ' ' << hinge.knot << ' '
                 << hinge.direction;
        }
        text << '\n';
    }
    serialize_detail::writeVector(text, "coef", coef);
    serialize_detail::writeVector(text, "mu", mu);
    serialize_detail::writeVector(text, "sigma", sigma);
    serialize_detail::writeVector(text, "zmin", zmin);
    serialize_detail::writeVector(text, "zmax", zmax);
    return MarsModel::load(text);
}

TEST(Mars, IncrementalSearchMatchesReferenceSearch)
{
    // The incremental (prefix-sum + bordered-solve) search and the
    // reference per-candidate refactorization evaluate candidate RSS
    // with different arithmetic, but on well-conditioned data they
    // must select the same basis and land on equal coefficients.
    Rng rng(10);
    const size_t n = 700;
    Matrix x(n, 3);
    std::vector<double> y(n);
    for (size_t i = 0; i < n; ++i) {
        x(i, 0) = rng.uniform(0.0, 10.0);
        x(i, 1) = rng.uniform(-3.0, 3.0);
        x(i, 2) = rng.uniform(0.0, 1.0);
        y[i] = (x(i, 0) < 4.0 ? 2.0 * x(i, 0) : 8.0) +
               std::fabs(x(i, 1)) + 5.0 * x(i, 2) +
               rng.normal(0, 0.05);
    }
    for (size_t degree = 1; degree <= 2; ++degree) {
        // While candidate improvements are decisive (well above the
        // noise floor), both searches must select the identical
        // basis; cap the term budget so the forward pass stops
        // before score differences at the noise floor can tip the
        // stopping rule one iteration apart.
        MarsConfig config;
        config.maxDegree = degree;
        config.maxTerms = 9;
        MarsModel a(config);
        a.fit(x, y);
        const MarsModel b = referenceMarsFit(config, x, y);

        ASSERT_EQ(a.terms().size(), b.terms().size())
            << "degree " << degree;
        for (size_t t = 0; t < a.terms().size(); ++t) {
            const auto &ta = a.terms()[t];
            const auto &tb = b.terms()[t];
            ASSERT_EQ(ta.hinges.size(), tb.hinges.size());
            for (size_t h = 0; h < ta.hinges.size(); ++h) {
                EXPECT_EQ(ta.hinges[h].feature, tb.hinges[h].feature);
                EXPECT_EQ(ta.hinges[h].direction,
                          tb.hinges[h].direction);
                EXPECT_DOUBLE_EQ(ta.hinges[h].knot, tb.hinges[h].knot);
            }
            EXPECT_NEAR(a.coefficients()[t], b.coefficients()[t],
                        1e-7 * std::max(
                                   1.0, std::fabs(b.coefficients()[t])));
        }
    }
}

TEST(Mars, IncrementalSearchMatchesReferenceQuality)
{
    // At the full default term budget the two searches may part ways
    // deep in the noise floor (their ridge arithmetic differs), but
    // the resulting models must be interchangeable in quality.
    Rng rng(11);
    const size_t n = 700;
    Matrix x(n, 3);
    std::vector<double> y(n);
    for (size_t i = 0; i < n; ++i) {
        x(i, 0) = rng.uniform(0.0, 10.0);
        x(i, 1) = rng.uniform(-3.0, 3.0);
        x(i, 2) = rng.uniform(0.0, 1.0);
        y[i] = (x(i, 0) < 4.0 ? 2.0 * x(i, 0) : 8.0) +
               std::fabs(x(i, 1)) + 5.0 * x(i, 2) +
               rng.normal(0, 0.05);
    }
    for (size_t degree = 1; degree <= 2; ++degree) {
        MarsConfig config;
        config.maxDegree = degree;
        MarsModel a(config);
        a.fit(x, y);
        const MarsModel b = referenceMarsFit(config, x, y);

        const double rmse_a = rootMeanSquaredError(a.predictAll(x), y);
        const double rmse_b = rootMeanSquaredError(b.predictAll(x), y);
        EXPECT_LT(rmse_a, 1.15 * rmse_b) << "degree " << degree;
        EXPECT_LT(rmse_b, 1.15 * rmse_a) << "degree " << degree;
    }
}

TEST(Mars, DescribeListsTerms)
{
    Rng rng(9);
    Matrix x(100, 1);
    std::vector<double> y(100);
    for (size_t i = 0; i < 100; ++i) {
        x(i, 0) = rng.uniform(0, 1);
        y[i] = x(i, 0);
    }
    MarsModel mars;
    mars.fit(x, y);
    const std::string desc = mars.describe();
    EXPECT_NE(desc.find("MARS"), std::string::npos);
    EXPECT_NE(desc.find("terms"), std::string::npos);
    EXPECT_GE(mars.numParameters(), mars.terms().size());
}

} // namespace
} // namespace chaos
