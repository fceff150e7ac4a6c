#include "models/stepwise.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "linalg/cholesky.hpp"
#include "models/model.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "stats/distributions.hpp"
#include "util/logging.hpp"

namespace chaos {

/*
 * The Gram matrix of the full intercept-augmented design is computed
 * once, and each elimination step drops one column from the running
 * Cholesky factorization (O(k^2)) rather than rebuilding the design
 * matrix and re-factoring X'X (O(n k^2 + k^3) per step). Gram entries
 * of a column subset are independent of the other columns, so
 * coefficients match a per-step least-squares refit bit-for-bit
 * whenever no stabilizing ridge fires; RSS is evaluated through the
 * quadratic form yty - 2 b'g + b'Gb instead of explicit residuals,
 * which only perturbs the Wald statistics at round-off level. The
 * per-step refit survives as the reference oracle in the tests.
 */
StepwiseResult
stepwiseEliminate(const Matrix &x, const std::vector<double> &y,
                  const StepwiseConfig &config)
{
    panicIf(x.rows() != y.size(), "stepwise shape mismatch");
    panicIf(x.cols() == 0, "stepwise: no features");

    obs::Span span("stepwise.eliminate");
    static auto &runs =
        obs::Registry::instance().counter("chaos.stepwise.runs");
    runs.add();

    const Matrix design = withIntercept(x);
    panicIf(design.rows() < design.cols(),
            "stepwise: fewer observations than parameters");
    std::vector<double> xty;
    const Matrix gram = design.transposeTimesSelf(y, xty);
    double yty = 0.0;
    for (double v : y)
        yty += v * v;

    // Active design columns; index 0 is the intercept and immortal.
    std::vector<size_t> active(design.cols());
    for (size_t i = 0; i < active.size(); ++i)
        active[i] = i;

    auto subGram = [&](const std::vector<size_t> &cols) {
        Matrix sub(cols.size(), cols.size());
        for (size_t a = 0; a < cols.size(); ++a) {
            for (size_t b = 0; b < cols.size(); ++b)
                sub(a, b) = gram(cols[a], cols[b]);
        }
        return sub;
    };

    std::optional<Cholesky> chol = Cholesky::factorRidged(subGram(active));

    StepwiseResult result;
    for (size_t iter = 0; iter < config.maxIterations; ++iter) {
        const size_t k = active.size();
        std::vector<double> rhs(k);
        for (size_t i = 0; i < k; ++i)
            rhs[i] = xty[active[i]];
        const auto b = chol->solve(rhs);

        // RSS via the Gram quadratic form (no residual pass).
        const Matrix sub = subGram(active);
        const auto gb = sub.multiply(b);
        double rss = yty;
        for (size_t i = 0; i < k; ++i)
            rss += b[i] * (gb[i] - 2.0 * rhs[i]);
        rss = std::max(0.0, rss);
        const double dof = static_cast<double>(x.rows()) -
                           static_cast<double>(k);
        const double sigma2 = dof > 0.0 ? rss / dof : 0.0;
        const auto inv_diag = chol->inverseDiagonal();

        // Wald statistic per feature column (skip the intercept).
        std::vector<double> p_values(k - 1);
        size_t worst = k;
        double worst_p = -1.0;
        for (size_t i = 0; i + 1 < k; ++i) {
            const double se = std::sqrt(
                std::max(0.0, sigma2 * inv_diag[i + 1]));
            const double coef = b[i + 1];
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

        const bool can_remove = k - 1 > config.minFeatures;
        if (!can_remove || worst_p <= config.alpha) {
            result.keptFeatures.resize(k - 1);
            for (size_t i = 0; i + 1 < k; ++i)
                result.keptFeatures[i] = active[i + 1] - 1;
            result.coefficients = b;
            result.pValues = p_values;
            return result;
        }
        result.removedFeatures.push_back(active[worst + 1] - 1);
        active.erase(active.begin() + static_cast<long>(worst + 1));
        static auto &drops =
            obs::Registry::instance().counter("chaos.stepwise.drops");
        drops.add();
        if (chol->appliedRidge() > 0.0) {
            // A stabilizing ridge is tied to the column set it was
            // computed for; re-factor rather than carry it along.
            chol = Cholesky::factorRidged(subGram(active));
        } else {
            chol = chol->dropColumn(worst + 1);
        }
    }
    panic("stepwiseEliminate failed to converge");
}

} // namespace chaos
