/**
 * @file
 * Multivariate Adaptive Regression Splines (Friedman 1991).
 *
 * Implements the paper's piecewise linear model (Eq. 2, hinge bases,
 * degree 1) and quadratic model (Eq. 3, degree-2 interactions between
 * bases) with the classic forward pass / GCV backward pruning
 * structure. Hinges are B+(x,t) = max(0, x-t) and B-(x,t) =
 * max(0, t-x); knots t are chosen from training-data quantiles.
 *
 * The forward pass scores each (parent, feature) knot chain with
 * prefix-sum sweeps over the rows and bordered rank-2 solves against
 * one shared Cholesky factor of the current Gram matrix, chains in
 * parallel; up to round-off it picks the pair an exhaustive
 * per-candidate refit would pick.
 */
#ifndef CHAOS_MODELS_MARS_HPP
#define CHAOS_MODELS_MARS_HPP

#include <iosfwd>

#include "models/compiled.hpp"
#include "models/model.hpp"

namespace chaos {

/** One hinge function over a feature. */
struct Hinge
{
    size_t feature = 0;     ///< Feature (column) index.
    double knot = 0.0;      ///< Threshold t.
    int direction = +1;     ///< +1: max(0, x-t); -1: max(0, t-x).

    /** Evaluate the hinge at feature value @p x. */
    double evaluate(double x) const
    {
        const double v = direction > 0 ? x - knot : knot - x;
        return v > 0.0 ? v : 0.0;
    }
};

/** A basis term: a product of hinges (empty product = intercept). */
struct BasisTerm
{
    std::vector<Hinge> hinges;

    /** Interaction degree (number of hinge factors). */
    size_t degree() const { return hinges.size(); }

    /** True if the term already involves @p feature. */
    bool usesFeature(size_t feature) const;

    /** Evaluate the product at one feature row. */
    double evaluate(const std::vector<double> &row) const;
};

/** MARS fitting knobs. */
struct MarsConfig
{
    /** 1 = piecewise linear (Eq. 2), 2 = quadratic (Eq. 3). */
    size_t maxDegree = 1;
    /** Maximum basis terms including the intercept. */
    size_t maxTerms = 15;
    /** Candidate knots per feature (interior quantiles). */
    size_t knotCandidates = 7;
    /** GCV complexity penalty per knot (Friedman's d). */
    double gcvPenalty = 3.0;
    /** Subsample cap for the forward search (speed); the final
     *  coefficients are refit on all rows. */
    size_t maxSearchRows = 1200;
    /** Stop the forward pass when the relative RSS improvement of
     *  the best candidate falls below this. */
    double minRssImprovement = 1e-4;
    /**
     * Minimum nonzero training observations each new basis column
     * must have, as a fraction of the (subsampled) training rows.
     * Rejecting thinly-supported columns prevents the classic MARS
     * failure mode of huge coefficients on nearly-empty corners of
     * the feature space.
     */
    double minBasisSupport = 0.03;
};

/** MARS power model (degree 1 or 2). */
class MarsModel : public PowerModel
{
  public:
    /** @param config Fitting knobs; degree selects Eq. 2 vs Eq. 3. */
    explicit MarsModel(MarsConfig config = MarsConfig());

    void fit(const Matrix &x, const std::vector<double> &y) override;
    double predict(const std::vector<double> &row) const override;
    size_t inputWidth() const override { return mu.size(); }
    void predictBatch(const double *rows, size_t n, size_t stride,
                      double *out) const override;
    std::string describe() const override;
    size_t numParameters() const override;
    ModelType type() const override
    {
        return cfg.maxDegree >= 2 ? ModelType::Quadratic
                                  : ModelType::PiecewiseLinear;
    }

    /** Fitted basis terms (post-fit; index 0 is the intercept). */
    const std::vector<BasisTerm> &terms() const { return basis; }

    /** Fitted coefficients, aligned with terms(). */
    const std::vector<double> &coefficients() const { return coef; }

    /** Standardization means, one per feature (for lowering). */
    const std::vector<double> &means() const { return mu; }

    /** Standardization scales, one per feature (for lowering). */
    const std::vector<double> &scales() const { return sigma; }

    /** Training-box lower clamp per standardized feature. */
    const std::vector<double> &clampMin() const { return zmin; }

    /** Training-box upper clamp per standardized feature. */
    const std::vector<double> &clampMax() const { return zmax; }

    /** Write fitted state as text (see models/serialize.hpp). */
    void save(std::ostream &out) const;

    /** Read fitted state written by save(). */
    static MarsModel load(std::istream &in);

  private:
    /** Rebuild the compiled plan after fit()/load(). */
    void rebuildPlan();

    MarsConfig cfg;
    std::vector<BasisTerm> basis;
    std::vector<double> coef;
    CompiledPredictor plan; ///< Flat batch-evaluation plan.
    // Internal standardization: knots live on the z-score scale so
    // byte-magnitude counters and percentage counters coexist.
    std::vector<double> mu;
    std::vector<double> sigma;
    // Training range per (standardized) feature; prediction inputs
    // are clamped to it so hinge products never extrapolate.
    std::vector<double> zmin;
    std::vector<double> zmax;
};

} // namespace chaos

#endif // CHAOS_MODELS_MARS_HPP
