/**
 * @file
 * Cross-validated evaluation of (model technique, feature set) pairs
 * on cluster datasets — the harness behind the paper's Tables III/IV
 * and Figures 3/4.
 *
 * Follows the paper's protocol: 5-fold cross validation with folds
 * grouped by application run (the scheduler partitions work
 * differently per run) and a training set roughly ten times smaller
 * than the test set — i.e. each fold trains on one run group and
 * tests on the others. Errors are computed per machine against the
 * platform's dynamic range and averaged ("average machine DRE").
 */
#ifndef CHAOS_CORE_EVALUATION_HPP
#define CHAOS_CORE_EVALUATION_HPP

#include <map>
#include <optional>

#include "core/feature_sets.hpp"
#include "models/factory.hpp"
#include "stats/metrics.hpp"
#include "trace/dataset.hpp"

namespace chaos {

/** Per-machine power envelope used for DRE denominators. */
struct MachineEnvelope
{
    double idlePowerW = 0.0;
    double maxPowerW = 0.0;
};

/** machineId -> envelope; heterogeneous clusters differ per id. */
using EnvelopeMap = std::map<int, MachineEnvelope>;

/** Evaluation knobs. */
struct EvaluationConfig
{
    /**
     * Number of run-grouped folds (paper: 5). As in the paper, each
     * fold is a training set and the other folds are its test set.
     */
    size_t folds = 5;
    /** MARS knobs for the piecewise/quadratic techniques. */
    MarsConfig mars;
    /** Seed for the fold assignment. */
    uint64_t seed = 12345;
};

/** Aggregated outcome of one technique/feature-set evaluation. */
struct EvaluationOutcome
{
    bool valid = false;         ///< False if the combo was skipped.
    double avgDre = 0.0;        ///< Mean per-machine DRE over folds.
    double avgRmse = 0.0;       ///< Mean per-machine rMSE (watts).
    double avgPctErr = 0.0;     ///< Mean per-machine rMSE/mean power.
    double medianRelErr = 0.0;  ///< Median relative error, pooled.
    double medianAbsErr = 0.0;  ///< Median absolute error, pooled (W).
    double r2 = 0.0;            ///< Pooled R^2 over all test rows.
    size_t foldsRun = 0;        ///< Folds actually executed.
    size_t avgParameters = 0;   ///< Mean fitted parameter count.
};

/**
 * Evaluate one (technique, feature set) combination on a cluster
 * dataset.
 *
 * Returns an invalid outcome (valid == false) when the combination
 * is undefined: quadratic and switching models require more than one
 * feature (the paper's Figures 3/4 note), and the switching model
 * requires the core-0 frequency counter in the set.
 *
 * @param data Cluster dataset in full catalog feature space.
 * @param featureSet Counters to model with.
 * @param type Modeling technique.
 * @param envelopes Per-machine dynamic ranges for DRE.
 * @param config Protocol knobs.
 */
EvaluationOutcome evaluateTechnique(const Dataset &data,
                                    const FeatureSet &featureSet,
                                    ModelType type,
                                    const EnvelopeMap &envelopes,
                                    const EvaluationConfig &config);

/**
 * Fit one pooled model on an entire dataset (no cross validation);
 * used to produce deployable models and the Fig. 5 style traces.
 * fatal()s on undefined combinations.
 */
std::unique_ptr<PowerModel> fitPooledModel(const Dataset &data,
                                           const FeatureSet &featureSet,
                                           ModelType type,
                                           const MarsConfig &mars);

/** Envelope map for a homogeneous cluster from its spec. */
EnvelopeMap envelopesFromSpec(const MachineSpec &spec,
                              size_t numMachines);

} // namespace chaos

#endif // CHAOS_CORE_EVALUATION_HPP
