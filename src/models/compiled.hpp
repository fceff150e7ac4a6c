/**
 * @file
 * Compiled model plans: a fitted PowerModel lowered into a contiguous
 * struct-of-arrays evaluation plan so a batch of rows evaluates as
 * tight loops over flat memory instead of per-row virtual dispatch.
 *
 * The lowering is exact, not approximate: every plan replicates the
 * scalar predict() arithmetic operation for operation (same operand
 * order, same clamping, same early-outs), so compiled and scalar
 * outputs are bit-identical on every input. The scalar virtual path
 * stays in place as the regression oracle; property tests and the
 * golden suite enforce the equivalence to the last ulp.
 *
 * Plan shapes (one per ModelType):
 *  - Dense (linear): flat [intercept, a1..ap] + standardization
 *    moments; a batch is a dense dot-product loop per row.
 *  - Hinge table (MARS degree 1/2): terms flattened into a
 *    topologically ordered SoA table — per-term coefficient +
 *    (start,count) into flat hinge arrays (feature, knot, sign) — so
 *    evaluation is two tight loops (standardize+clamp, then
 *    accumulate hinge products) with no per-row allocation and no
 *    recursion through BasisTerm objects.
 *  - Guarded dense (switching): the frequency-state guard plus one
 *    dense plan per owned state and the fallback dense plan; a row
 *    resolves its state with the same nearest-state scan as the
 *    scalar path, then evaluates that branch's dense plan.
 */
#ifndef CHAOS_MODELS_COMPILED_HPP
#define CHAOS_MODELS_COMPILED_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "models/model.hpp"

namespace chaos {

/** Flat dense (linear) evaluation plan: y = c0 + sum ci*z(xi). */
struct DensePlan
{
    std::vector<double> coef;   ///< [intercept, a1..ap].
    std::vector<double> mu;     ///< Standardization means, size p.
    std::vector<double> sigma;  ///< Standardization scales, size p.

    /** Evaluate one row of at least mu.size() values. */
    double evaluate(const double *row) const
    {
        double acc = coef[0];
        const std::size_t p = mu.size();
        for (std::size_t i = 0; i < p; ++i)
            acc += coef[i + 1] * (row[i] - mu[i]) / sigma[i];
        return acc;
    }
};

/** One flattened hinge factor of a MARS basis term. */
struct PlanHinge
{
    std::uint32_t feature = 0; ///< Standardized-feature index.
    double knot = 0.0;         ///< Threshold on the z-score scale.
    double sign = 1.0;         ///< +1: max(0,x-t); -1: max(0,t-x).
};

/**
 * Flattened MARS plan: standardize+clamp each consumed feature once
 * per row, then accumulate coefficient-weighted hinge products from
 * the flat term table (terms are stored in the fitted model's order,
 * which is already topological: every term's factors reference only
 * raw features, never other terms).
 */
struct MarsPlan
{
    std::vector<double> mu;
    std::vector<double> sigma;
    std::vector<double> zmin;
    std::vector<double> zmax;
    std::vector<double> coef;            ///< Per-term coefficient.
    std::vector<std::uint32_t> termStart;///< Size terms+1; hinge range.
    std::vector<PlanHinge> hinges;       ///< All hinges, term-major.

    /**
     * Evaluate one row using @p zscratch (>= mu.size() doubles) as
     * the standardized-row buffer.
     */
    double evaluate(const double *row, double *zscratch) const;
};

/**
 * Switching plan: nearest-state guard over per-state dense branches
 * with a shared fallback branch.
 */
struct SwitchingPlan
{
    std::size_t frequencyFeature = 0;
    std::vector<double> states;        ///< State center frequencies.
    /** Index into branches per state; negative means fallback. */
    std::vector<std::int32_t> branchOf;
    std::vector<DensePlan> branches;   ///< Owned per-state branches.
    DensePlan fallback;                ///< Global branch.

    /** Evaluate one row (width > frequencyFeature). */
    double evaluate(const double *row) const;
};

/**
 * A fitted PowerModel lowered to a flat evaluation plan. Immutable
 * after compile(); evaluation is const and thread-safe (per-call
 * scratch only), so one plan can serve concurrent batch evaluations.
 */
class CompiledPredictor
{
  public:
    /** Empty (invalid) plan; evaluate panics until compiled. */
    CompiledPredictor() = default;

    /**
     * Lower @p model into a plan. The model must be fitted; raises
     * a panic when it is not (same contract as scalar predict).
     */
    static CompiledPredictor compile(const PowerModel &model);

    /** True once compile() produced a usable plan. */
    bool valid() const { return compiled; }

    /** Technique of the compiled model. */
    ModelType modelType() const { return type; }

    /** Feature-row width the plan consumes. */
    std::size_t numFeatures() const { return width; }

    /**
     * Evaluate @p n rows laid out with @p stride doubles between
     * consecutive row starts (stride >= numFeatures()) into @p out.
     * Bit-identical to calling the source model's scalar predict on
     * each row.
     */
    void predictBatch(const double *rows, std::size_t n,
                      std::size_t stride, double *out) const;

  private:
    enum class Kind { None, Dense, Mars, Switching };

    Kind kind = Kind::None;
    bool compiled = false;
    ModelType type = ModelType::Linear;
    std::size_t width = 0;

    DensePlan dense;
    MarsPlan mars;
    SwitchingPlan switching;
};

} // namespace chaos

#endif // CHAOS_MODELS_COMPILED_HPP
