/**
 * @file
 * The CHAOS feature reduction pipeline (paper Algorithm 1).
 *
 * Six steps turn the full counter catalog into a small cluster
 * feature set:
 *
 *  1. prune pairwise-correlated counters (|r| > 0.95),
 *  2. remove co-dependent counters (a = b + c, from definitions),
 *  3. per machine & workload: L1 regularization to discard
 *     irrelevant counters in the high-dimensional space,
 *  4. per machine & workload: backward stepwise elimination with the
 *     Wald significance test,
 *  5. union the per-machine/workload survivors into a weighted
 *     occurrence histogram (weight 1 if stepwise kept the feature,
 *     a small weight if only L1 picked it),
 *  6. threshold the histogram and run cluster-level stepwise on the
 *     pooled data, raising the threshold until no insignificant
 *     feature remains (the paper starts at 5 and lands at 7).
 */
#ifndef CHAOS_CORE_FEATURE_SELECTION_HPP
#define CHAOS_CORE_FEATURE_SELECTION_HPP

#include <map>
#include <string>
#include <vector>

#include "trace/dataset.hpp"
#include "util/random.hpp"

namespace chaos {

/** Knobs for Algorithm 1. */
struct FeatureSelectionConfig
{
    /** Step 1 pairwise-correlation threshold (paper: 0.95). */
    double correlationThreshold = 0.95;
    /** Step 3 L1 target support per machine/workload model. */
    size_t lassoMaxSupport = 12;
    /** Step 4/6 Wald significance level. */
    double stepwiseAlpha = 0.05;
    /** Step 5 weight of a feature L1 picked but stepwise dropped. */
    double insignificantWeight = 0.25;
    /** Step 6 starting histogram threshold (paper: 5). */
    double initialThreshold = 5.0;
    /** Row subsample cap for the screening regressions (speed). */
    size_t maxScreeningRows = 800;
    /** Row subsample cap for the correlation matrix (speed). */
    size_t maxCorrelationRows = 5000;
    /** Counters excluded from screening entirely: the lagged
     *  frequency counter (an explicit model add-on, not a screened
     *  feature) and wall-clock counters, which the definitions-based
     *  manual pass (paper step 2) rejects as activity-free. */
    std::vector<std::string> excludedCounters = {
        "Processor Performance\\Processor_0 Frequency Lag1",
        "Processor Performance\\Processor_0 Frequency Lag2",
        "Processor Performance\\Processor_0 Frequency Lag3",
        "System\\System Up Time",
    };
};

/** One machine/workload screening outcome (steps 3-4). */
struct PerMachineSelection
{
    int machineId = 0;
    std::string workload;
    /** Names L1 kept (step 3). */
    std::vector<std::string> lassoSelected;
    /** Names stepwise kept (step 4); subset of lassoSelected. */
    std::vector<std::string> significant;
};

/** Full output of Algorithm 1 on one cluster. */
struct FeatureSelectionResult
{
    /** The final cluster feature set, in catalog order. */
    std::vector<std::string> selected;
    /** Step-5 weighted occurrence histogram (name -> weight). */
    std::map<std::string, double> histogram;
    /** Step-6 threshold that produced the final set. */
    double finalThreshold = 0.0;
    /** Steps 3-4 outcomes, one per (machine, workload). */
    std::vector<PerMachineSelection> perMachine;

    // Funnel sizes for reporting.
    size_t catalogSize = 0;         ///< Counters in the catalog.
    size_t afterConstantDrop = 0;   ///< Non-constant counters.
    size_t afterCorrelation = 0;    ///< After step 1.
    size_t afterCoDependency = 0;   ///< After step 2.
};

/**
 * Run Algorithm 1 on one cluster's dataset (all machines and
 * workloads pooled, full catalog feature space).
 *
 * @param data Cluster dataset in catalog feature space.
 * @param config Algorithm knobs.
 * @param rng Unused: every subsample in Algorithm 1 is a
 *        deterministic uniform stride over rows, so the result
 *        depends on @p data and @p config alone. Kept so existing
 *        callers compile unchanged.
 */
FeatureSelectionResult selectClusterFeatures(
    const Dataset &data, const FeatureSelectionConfig &config,
    Rng &rng);

/**
 * Steps 1-2 only: screening survivors (indices into data's feature
 * space). Exposed separately for tests and diagnostics.
 *
 * @param rng Unused, as in selectClusterFeatures(): the correlation
 *        matrix is built on a deterministic row stride.
 * @param funnel If non-null, receives the funnel sizes.
 */
std::vector<size_t> screenCounters(const Dataset &data,
                                   const FeatureSelectionConfig &config,
                                   Rng &rng,
                                   FeatureSelectionResult *funnel);

} // namespace chaos

#endif // CHAOS_CORE_FEATURE_SELECTION_HPP
