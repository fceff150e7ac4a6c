#include "models/mars.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include <iomanip>

#include "linalg/cholesky.hpp"
#include "models/serialize_detail.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "stats/descriptive.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"
#include "util/result.hpp"
#include "util/string_utils.hpp"

namespace chaos {

bool
BasisTerm::usesFeature(size_t feature) const
{
    for (const auto &hinge : hinges) {
        if (hinge.feature == feature)
            return true;
    }
    return false;
}

double
BasisTerm::evaluate(const std::vector<double> &row) const
{
    double value = 1.0;
    for (const auto &hinge : hinges) {
        value *= hinge.evaluate(row[hinge.feature]);
        if (value == 0.0)
            return 0.0;
    }
    return value;
}

MarsModel::MarsModel(MarsConfig config) : cfg(config)
{
    panicIf(cfg.maxDegree < 1 || cfg.maxDegree > 2,
            "MarsModel supports degree 1 or 2");
    panicIf(cfg.maxTerms < 3, "MarsModel needs maxTerms >= 3");
}

namespace {

/** Column-major basis evaluation workspace for the forward pass. */
struct ForwardState
{
    // Basis columns evaluated on the search rows.
    std::vector<std::vector<double>> columns;
    // Gram matrix of the columns and their dot with y.
    Matrix gram;
    std::vector<double> bty;
    double yty = 0.0;
};

/**
 * Solve the (ridged) normal equations on a diagonally-equilibrated
 * Gram system. Equilibration makes the small ridge meaningful per
 * column, so thin basis columns cannot earn explosive coefficients.
 */
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

/**
 * Per-iteration factorization of the equilibrated forward-state Gram
 * matrix, shared (read-only) by every candidate in that iteration and
 * consumed through bordered rank-2 solves instead of re-factorizing
 * the extended system per candidate.
 */
struct EquilibratedFactor
{
    std::vector<double> scale;         ///< sqrt(diag) equilibration.
    std::optional<Cholesky> chol;      ///< Factor of the scaled Gram.
    double diagAdd = 0.0;              ///< Ridge added per diagonal.
    std::vector<double> ztilde;        ///< L^{-1} (scaled bty).
    double zz = 0.0;                   ///< |ztilde|^2: explained energy.
};

EquilibratedFactor
factorForwardState(const Matrix &gram, const std::vector<double> &bty)
{
    const size_t m = gram.rows();
    EquilibratedFactor out;
    out.scale.resize(m);
    for (size_t i = 0; i < m; ++i)
        out.scale[i] = gram(i, i) > 1e-30 ? std::sqrt(gram(i, i)) : 1.0;

    Matrix eq(m, m);
    std::vector<double> rhs(m);
    for (size_t i = 0; i < m; ++i) {
        rhs[i] = bty[i] / out.scale[i];
        for (size_t j = 0; j < m; ++j)
            eq(i, j) = gram(i, j) / (out.scale[i] * out.scale[j]);
    }
    out.chol = Cholesky::factorRidged(eq, 1e-5);
    // Recover the diagonal addition factorRidged actually applied;
    // the bordered candidate diagonal must carry the same ridge.
    double trace = 0.0;
    for (size_t i = 0; i < m; ++i)
        trace += std::fabs(eq(i, i));
    const double tscale = m > 0 ? trace / static_cast<double>(m) : 1.0;
    out.diagAdd = out.chol->appliedRidge() * std::max(tscale, 1.0);

    out.ztilde = out.chol->forwardSolve(rhs);
    for (double v : out.ztilde)
        out.zz += v * v;
    return out;
}

/** Best candidate found along one (parent, feature) knot chain. */
struct ChainBest
{
    double rss = std::numeric_limits<double>::infinity();
    size_t knot = 0;     ///< Index into the chain's knot list.
    bool valid = false;
};

/**
 * Score every knot of one (parent, feature) chain.
 *
 * Instead of materializing hinge columns and re-computing O(n*m) dot
 * products per knot, two sweeps over the rows (sorted by feature
 * value) maintain prefix sums from which every knot's cross products
 * follow in O(m). For the up hinge u_i = a_i * max(0, x_i - t) over
 * rows with x > t:
 *
 *   sum c_j u  = P1_j - t P0_j     with P_k(j) = sum c_j a x^k
 *   sum u^2    = S2 - 2t S1 + t^2 S0    S_k = sum a^2 x^k
 *   sum u y    = Q1 - t Q0              Q_k = sum a y x^k
 *
 * and symmetrically for the down hinge over rows with x < t. Each
 * knot is then evaluated against the shared equilibrated factor L of
 * the current Gram via a bordered solve: with W = L^{-1} Vtilde the
 * 2x2 Schur complement is diag-dominant because the two hinges have
 * disjoint support (their cross product is exactly zero), and
 *
 *   RSS = yty - (|z|^2 + d' S^{-1} d),  d = ctilde_y - W' z.
 *
 * Pure function of read-only state; chains run in parallel and the
 * result is deterministic for any thread count.
 */
ChainBest
scoreChain(const Matrix &colsRM, const EquilibratedFactor &ef,
           const std::vector<double> &xv,
           const std::vector<size_t> &asc,
           const std::vector<double> &knots,
           const std::vector<double> &ys,
           const std::vector<double> &parentCol, size_t minSupport,
           double yty)
{
    const size_t n = colsRM.rows();
    const size_t m = colsRM.cols();
    const size_t numKnots = knots.size();

    // Up-side sweep: knots descending, accumulating rows with x > t.
    std::vector<double> upV(numKnots * m), upC11(numKnots),
        upC1y(numKnots);
    std::vector<size_t> upCnt(numKnots);
    {
        std::vector<double> p0(m, 0.0), p1(m, 0.0);
        double s0 = 0, s1 = 0, s2 = 0, q0 = 0, q1 = 0;
        size_t cnt = 0, pos = n;
        for (size_t kk = numKnots; kk-- > 0;) {
            const double t = knots[kk];
            while (pos > 0 && xv[asc[pos - 1]] > t) {
                const size_t i = asc[--pos];
                const double a = parentCol[i];
                if (a == 0.0)
                    continue;
                ++cnt;
                const double x = xv[i];
                const double ax = a * x;
                s0 += a * a;
                s1 += a * ax;
                s2 += ax * ax;
                q0 += a * ys[i];
                q1 += ax * ys[i];
                const double *crow = colsRM.rowPtr(i);
                for (size_t j = 0; j < m; ++j) {
                    p0[j] += crow[j] * a;
                    p1[j] += crow[j] * ax;
                }
            }
            upCnt[kk] = cnt;
            upC11[kk] = s2 - t * (2.0 * s1 - t * s0);
            upC1y[kk] = q1 - t * q0;
            double *dst = &upV[kk * m];
            for (size_t j = 0; j < m; ++j)
                dst[j] = p1[j] - t * p0[j];
        }
    }
    // Down-side sweep: knots ascending, accumulating rows with x < t.
    std::vector<double> downV(numKnots * m), downC22(numKnots),
        downC2y(numKnots);
    std::vector<size_t> downCnt(numKnots);
    {
        std::vector<double> r0(m, 0.0), r1(m, 0.0);
        double u0 = 0, u1 = 0, u2 = 0, q0 = 0, q1 = 0;
        size_t cnt = 0, pos = 0;
        for (size_t kk = 0; kk < numKnots; ++kk) {
            const double t = knots[kk];
            while (pos < n && xv[asc[pos]] < t) {
                const size_t i = asc[pos++];
                const double a = parentCol[i];
                if (a == 0.0)
                    continue;
                ++cnt;
                const double x = xv[i];
                const double ax = a * x;
                u0 += a * a;
                u1 += a * ax;
                u2 += ax * ax;
                q0 += a * ys[i];
                q1 += ax * ys[i];
                const double *crow = colsRM.rowPtr(i);
                for (size_t j = 0; j < m; ++j) {
                    r0[j] += crow[j] * a;
                    r1[j] += crow[j] * ax;
                }
            }
            downCnt[kk] = cnt;
            downC22[kk] = u2 - t * (2.0 * u1 - t * u0);
            downC2y[kk] = t * q0 - q1;
            double *dst = &downV[kk * m];
            for (size_t j = 0; j < m; ++j)
                dst[j] = t * r0[j] - r1[j];
        }
    }

    ChainBest best;
    std::vector<double> v1(m), v2(m);
    for (size_t k = 0; k < numKnots; ++k) {
        // Reject thinly-supported corners outright.
        if (upCnt[k] < minSupport || downCnt[k] < minSupport)
            continue;
        const double c11 = upC11[k], c22 = downC22[k];
        if (!(c11 > 0.0) || !(c22 > 0.0))
            continue;
        const double sc1 = std::sqrt(c11), sc2 = std::sqrt(c22);
        for (size_t j = 0; j < m; ++j) {
            v1[j] = upV[k * m + j] / (ef.scale[j] * sc1);
            v2[j] = downV[k * m + j] / (ef.scale[j] * sc2);
        }
        const auto w1 = ef.chol->forwardSolve(v1);
        const auto w2 = ef.chol->forwardSolve(v2);
        double w11 = 0, w22 = 0, w12 = 0, w1z = 0, w2z = 0;
        for (size_t j = 0; j < m; ++j) {
            w11 += w1[j] * w1[j];
            w22 += w2[j] * w2[j];
            w12 += w1[j] * w2[j];
            w1z += w1[j] * ef.ztilde[j];
            w2z += w2[j] * ef.ztilde[j];
        }
        const double s11 = 1.0 + ef.diagAdd - w11;
        const double s22 = 1.0 + ef.diagAdd - w22;
        const double s12 = -w12;
        // Candidates overlapping the current basis span are routine,
        // not exceptional: a second hinge pair on an already-split
        // feature satisfies up - down = x - t, which is linear in x
        // and hence in-span, leaving the Schur complement rank-1
        // singular. Escalate a ridge, as Cholesky::factorRidged does
        // on the full bordered system, instead of rejecting: the
        // in-span direction carries no residual correlation, so the
        // ridge merely suppresses it while the genuinely new
        // direction (the kink) survives.
        double s11r = s11, s22r = s22;
        double det = s11r * s22r - s12 * s12;
        double ridge = 0.0;
        for (int attempt = 0;
             attempt < 12 && (!(s11r > 0.0) || !(det > 1e-12));
             ++attempt) {
            ridge = ridge == 0.0 ? 1e-5 : ridge * 10.0;
            s11r = s11 + ridge;
            s22r = s22 + ridge;
            det = s11r * s22r - s12 * s12;
        }
        if (!(s11r > 0.0) || !(det > 0.0))
            continue;
        const double d1 = upC1y[k] / sc1 - w1z;
        const double d2 = downC2y[k] / sc2 - w2z;
        const double g1 = (s22r * d1 - s12 * d2) / det;
        const double g2 = (s11r * d2 - s12 * d1) / det;
        const double fit = ef.zz + d1 * g1 + d2 * g2;
        const double rss = std::max(0.0, yty - fit);
        if (rss < best.rss) {
            best.rss = rss;
            best.knot = k;
            best.valid = true;
        }
    }
    return best;
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

} // namespace

void
MarsModel::fit(const Matrix &x, const std::vector<double> &y)
{
    panicIf(x.rows() != y.size(), "MarsModel::fit shape mismatch");
    panicIf(x.rows() < 10, "MarsModel::fit needs at least 10 rows");

    obs::Span fit_span("mars.fit");
    static auto &fits =
        obs::Registry::instance().counter("chaos.mars.fits");
    static auto &forward_iters =
        obs::Registry::instance().counter("chaos.mars.forward_iterations");
    static auto &chains_scored =
        obs::Registry::instance().counter("chaos.mars.chains_scored");
    static auto &knots_scored =
        obs::Registry::instance().counter("chaos.mars.knots_scored");
    fits.add();

    // --- Standardize features: counters span ~10 orders of
    // magnitude, and degree-2 products of raw byte counts would
    // destroy the Gram matrix conditioning. ---
    mu.assign(x.cols(), 0.0);
    sigma.assign(x.cols(), 0.0);
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
    zmin.assign(x.cols(), 0.0);
    zmax.assign(x.cols(), 0.0);
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
        for (size_t i = 0; i < cfg.maxSearchRows; ++i) {
            search_rows.push_back(
                static_cast<size_t>(i * stride));
        }
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

    // --- Candidate knots per feature: interior quantiles. Feature
    // values over the search rows are cached once and shared by knot
    // selection, the candidate sweeps, and winner materialization. ---
    std::vector<std::vector<double>> featVals(p);
    std::vector<std::vector<double>> knots(p);
    for (size_t f = 0; f < p; ++f) {
        featVals[f].resize(n);
        for (size_t i = 0; i < n; ++i)
            featVals[f][i] = z(search_rows[i], f);
        knots[f] = quantileKnots(featVals[f], cfg.knotCandidates);
    }

    // Rows sorted by feature value (ascending, stable), computed once
    // per feature: the forward search sweeps them per knot chain.
    std::vector<std::vector<size_t>> featOrder(p);
    for (size_t f = 0; f < p; ++f) {
        if (knots[f].empty())
            continue;
        auto &ord = featOrder[f];
        ord.resize(n);
        for (size_t i = 0; i < n; ++i)
            ord[i] = i;
        const auto &vals = featVals[f];
        std::stable_sort(ord.begin(), ord.end(),
                         [&vals](size_t a, size_t b) {
                             return vals[a] < vals[b];
                         });
    }

    // --- Forward pass. ---
    basis.clear();
    basis.push_back(BasisTerm{});   // Intercept.

    ForwardState st;
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

    obs::Span forward_span("mars.forward");
    while (basis.size() + 2 <= cfg.maxTerms) {
        obs::Span iter_span("mars.forward_iter");
        forward_iters.add();
        double best_rss = current_rss;
        size_t best_parent = 0, best_feature = 0;
        double best_knot = 0.0;
        bool found = false;

        // Flatten eligible (parent, feature) chains in parent ->
        // feature enumeration order.
        struct Chain
        {
            size_t parent;
            size_t feature;
        };
        std::vector<Chain> chains;
        for (size_t parent = 0; parent < basis.size(); ++parent) {
            if (basis[parent].degree() + 1 > cfg.maxDegree)
                continue;
            for (size_t f = 0; f < p; ++f) {
                if (knots[f].empty() || basis[parent].usesFeature(f))
                    continue;
                chains.push_back({parent, f});
            }
        }

        // Row-major snapshot of the basis columns: the sweeps
        // read every column of one row at a time.
        obs::Span factor_span("mars.cholesky_factor");
        const size_t m = st.columns.size();
        Matrix colsRM(n, m);
        for (size_t i = 0; i < n; ++i) {
            double *dst = colsRM.rowPtr(i);
            for (size_t j = 0; j < m; ++j)
                dst[j] = st.columns[j][i];
        }
        const EquilibratedFactor ef =
            factorForwardState(st.gram, st.bty);
        factor_span.end();

        // Workers score chains against shared read-only state;
        // each writes only its own result slot.
        obs::Span sweep_span("mars.knot_sweep");
        const auto results = parallelMap<ChainBest>(
            chains.size(), [&](size_t c) {
                const auto &ch = chains[c];
                return scoreChain(colsRM, ef,
                                  featVals[ch.feature],
                                  featOrder[ch.feature],
                                  knots[ch.feature], ys,
                                  st.columns[ch.parent],
                                  min_support, st.yty);
            });
        sweep_span.end();
        chains_scored.add(chains.size());
        {
            std::uint64_t total_knots = 0;
            for (const auto &ch : chains)
                total_knots += knots[ch.feature].size();
            knots_scored.add(total_knots);
        }
        // Serial reduction in enumeration order; strict < keeps
        // the earliest winner on ties, as a serial scan would.
        for (size_t c = 0; c < chains.size(); ++c) {
            if (results[c].valid && results[c].rss < best_rss) {
                best_rss = results[c].rss;
                best_parent = chains[c].parent;
                best_feature = chains[c].feature;
                best_knot =
                    knots[chains[c].feature][results[c].knot];
                found = true;
            }
        }

        if (!found ||
            current_rss - best_rss <
                cfg.minRssImprovement * std::max(current_rss, 1e-12)) {
            break;
        }

        // Commit the winning pair: extend basis, columns, and Gram.
        // The columns are materialized hinge-exact, not via prefix
        // sums, so the committed state is what an exhaustive search
        // that evaluated every candidate column would have built.
        for (int dir : {+1, -1}) {
            BasisTerm term = basis[best_parent];
            term.hinges.push_back(Hinge{best_feature, best_knot, dir});
            basis.push_back(std::move(term));
        }
        std::vector<double> up_col(n), down_col(n);
        for (size_t i = 0; i < n; ++i) {
            const double parent = st.columns[best_parent][i];
            const double up = featVals[best_feature][i] - best_knot;
            up_col[i] = parent * (up > 0.0 ? up : 0.0);
            down_col[i] = parent * (up < 0.0 ? -up : 0.0);
        }
        st.columns.push_back(std::move(up_col));
        st.columns.push_back(std::move(down_col));
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
    forward_span.end();

    obs::Span backward_span("mars.backward");
    static auto &backward_drops =
        obs::Registry::instance().counter("chaos.mars.backward_drops");

    // --- Backward pruning by GCV. ---
    // Work with term indices into `basis`; index 0 (intercept) is
    // never removed.
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
        double round_best_gcv =
            std::numeric_limits<double>::infinity();
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
        backward_drops.add();
        if (round_best_gcv < best_gcv) {
            best_gcv = round_best_gcv;
            best_subset = active;
        }
    }

    backward_span.end();

    // --- Refit the surviving terms on ALL rows. ---
    obs::Span refit_span("mars.refit");
    std::vector<BasisTerm> final_terms;
    final_terms.reserve(best_subset.size());
    for (size_t idx : best_subset)
        final_terms.push_back(basis[idx]);
    basis = std::move(final_terms);

    const size_t full_n = x.rows();

    // Observed target range, for the influence bound below.
    double y_lo = y[0], y_hi = y[0];
    for (double v : y) {
        y_lo = std::min(y_lo, v);
        y_hi = std::max(y_hi, v);
    }
    const double y_range = std::max(y_hi - y_lo, 1e-6);

    // Refit on ALL rows, then prune terms whose worst-case swing
    // inside the (clamped) training box exceeds a multiple of the
    // target range: such terms live on thin corners of the feature
    // space and would dominate predictions on data that populates
    // those corners. Iterate until every term is physically bounded.
    for (;;) {
        const size_t m = basis.size();
        Matrix design(full_n, m);
        // Rows are independent (disjoint writes), so the design
        // matrix builds in parallel deterministically.
        parallelFor(full_n, [&](size_t r) {
            const auto row = z.row(r);
            double *dst = design.rowPtr(r);
            for (size_t c = 0; c < m; ++c)
                dst[c] = basis[c].evaluate(row);
        });
        std::vector<double> bty;
        const Matrix gram = design.transposeTimesSelf(y, bty);
        coef = equilibratedSolve(gram, bty);

        // Worst-case contribution of each non-intercept term over
        // the clamped box: product of per-hinge maxima.
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
    rebuildPlan();
}

void
MarsModel::rebuildPlan()
{
    plan = CompiledPredictor::compile(*this);
}

void
MarsModel::predictBatch(const double *rows, size_t n, size_t stride,
                        double *out) const
{
    panicIf(!plan.valid(), "MarsModel::predictBatch before fit");
    plan.predictBatch(rows, n, stride, out);
}

double
MarsModel::predict(const std::vector<double> &row) const
{
    panicIf(coef.empty(), "MarsModel::predict before fit");
    panicIf(row.size() != mu.size(),
            "MarsModel::predict width mismatch");
    std::vector<double> zrow(row.size());
    for (size_t c = 0; c < row.size(); ++c) {
        const double value = (row[c] - mu[c]) / sigma[c];
        zrow[c] = std::clamp(value, zmin[c], zmax[c]);
    }
    double acc = 0.0;
    for (size_t i = 0; i < basis.size(); ++i)
        acc += coef[i] * basis[i].evaluate(zrow);
    return acc;
}

std::string
MarsModel::describe() const
{
    std::string out = modelTypeName(type()) + " (MARS degree " +
                      std::to_string(cfg.maxDegree) + "): " +
                      std::to_string(basis.size()) + " terms;";
    for (size_t i = 0; i < basis.size(); ++i) {
        out += " " + formatDouble(coef[i], 3);
        for (const auto &hinge : basis[i].hinges) {
            out += std::string("*") +
                   (hinge.direction > 0 ? "max(0,x" : "max(0,-x") +
                   std::to_string(hinge.feature) +
                   (hinge.direction > 0 ? "-" : "+") +
                   formatDouble(hinge.knot, 2) + ")";
        }
        if (i + 1 < basis.size())
            out += " +";
    }
    return out;
}

size_t
MarsModel::numParameters() const
{
    // Each non-intercept term has a coefficient and a knot.
    return coef.size() + (basis.empty() ? 0 : basis.size() - 1);
}

void
MarsModel::save(std::ostream &out) const
{
    panicIf(coef.empty(), "MarsModel::save before fit");
    out << "degree " << cfg.maxDegree << '\n';
    out << "terms " << basis.size() << '\n';
    out << std::setprecision(17);
    for (const auto &term : basis) {
        out << "term " << term.hinges.size();
        for (const auto &hinge : term.hinges) {
            out << ' ' << hinge.feature << ' ' << hinge.knot << ' '
                << hinge.direction;
        }
        out << '\n';
    }
    serialize_detail::writeVector(out, "coef", coef);
    serialize_detail::writeVector(out, "mu", mu);
    serialize_detail::writeVector(out, "sigma", sigma);
    serialize_detail::writeVector(out, "zmin", zmin);
    serialize_detail::writeVector(out, "zmax", zmax);
}

MarsModel
MarsModel::load(std::istream &in)
{
    serialize_detail::expectToken(in, "degree");
    size_t degree = 0;
    raiseIf(!(in >> degree), "model file: missing MARS degree");
    MarsConfig cfg;
    cfg.maxDegree = degree;
    MarsModel model(cfg);

    serialize_detail::expectToken(in, "terms");
    size_t num_terms = 0;
    raiseIf(!(in >> num_terms), "model file: missing MARS term count");
    for (size_t t = 0; t < num_terms; ++t) {
        serialize_detail::expectToken(in, "term");
        size_t num_hinges = 0;
        raiseIf(!(in >> num_hinges), "model file: bad MARS term");
        BasisTerm term;
        for (size_t h = 0; h < num_hinges; ++h) {
            Hinge hinge;
            raiseIf(!(in >> hinge.feature >> hinge.knot >>
                      hinge.direction),
                    "model file: truncated MARS hinge");
            term.hinges.push_back(hinge);
        }
        model.basis.push_back(std::move(term));
    }
    model.coef = serialize_detail::readVector(in, "coef");
    model.mu = serialize_detail::readVector(in, "mu");
    model.sigma = serialize_detail::readVector(in, "sigma");
    model.zmin = serialize_detail::readVector(in, "zmin");
    model.zmax = serialize_detail::readVector(in, "zmax");
    raiseIf(model.coef.size() != model.basis.size(),
            "model file: inconsistent MARS model");
    // Hinges index the standardized row; an out-of-range feature in a
    // damaged file would read (or, compiled, write) out of bounds.
    for (const BasisTerm &term : model.basis) {
        for (const Hinge &hinge : term.hinges) {
            raiseIf(hinge.feature >= model.mu.size(),
                    "model file: MARS hinge feature out of range");
        }
    }
    model.rebuildPlan();
    return model;
}

} // namespace chaos
