/**
 * @file
 * Backward stepwise regression with the Wald significance test —
 * step 4 (per machine) and step 6 (per cluster) of the paper's
 * Algorithm 1: iteratively drop the feature whose coefficient is
 * least distinguishable from zero.
 */
#ifndef CHAOS_MODELS_STEPWISE_HPP
#define CHAOS_MODELS_STEPWISE_HPP

#include <cstddef>
#include <vector>

#include "linalg/matrix.hpp"

namespace chaos {

/** Outcome of a stepwise elimination run. */
struct StepwiseResult
{
    /** Surviving feature indices (into the input matrix), ascending. */
    std::vector<size_t> keptFeatures;
    /** Coefficients of the final model: [intercept, kept...]. */
    std::vector<double> coefficients;
    /** Wald p-value of each kept feature, aligned with keptFeatures. */
    std::vector<double> pValues;
    /** Features removed, in elimination order. */
    std::vector<size_t> removedFeatures;
};

/** Configuration for stepwise elimination. */
struct StepwiseConfig
{
    /** Drop features whose Wald p-value exceeds this. */
    double alpha = 0.05;
    /** Never drop below this many surviving features. */
    size_t minFeatures = 1;
    /** Remove at most one feature per refit (always true here). */
    size_t maxIterations = 1000;
};

/**
 * Run backward stepwise elimination of @p x's columns against @p y.
 * An intercept is always included and never eliminated. The Gram
 * matrix of the full design is formed once; each elimination step
 * drops a column from its Cholesky factor by an O(k^2) downdate.
 */
StepwiseResult stepwiseEliminate(const Matrix &x,
                                 const std::vector<double> &y,
                                 const StepwiseConfig &config = {});

} // namespace chaos

#endif // CHAOS_MODELS_STEPWISE_HPP
