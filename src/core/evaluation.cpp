#include "core/evaluation.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "stats/descriptive.hpp"
#include "stats/kfold.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"
#include "util/result.hpp"

namespace chaos {

namespace {

/** Locate the frequency counter inside a feature set, if present. */
std::optional<size_t>
frequencyFeatureIndex(const FeatureSet &featureSet)
{
    for (size_t i = 0; i < featureSet.counters.size(); ++i) {
        if (featureSet.counters[i] == counters::kCore0Frequency)
            return i;
    }
    // Fall back to any current-frequency counter (e.g. "% of Maximum
    // Frequency") — the indicator only needs the P-state signal.
    for (size_t i = 0; i < featureSet.counters.size(); ++i) {
        const auto &name = featureSet.counters[i];
        if (name.find("Frequency") != std::string::npos &&
            name.find("Lag") == std::string::npos) {
            return i;
        }
    }
    return std::nullopt;
}

/** True if the combination is well defined (paper Figs. 3/4 note). */
bool
combinationDefined(const FeatureSet &featureSet, ModelType type)
{
    const size_t p = featureSet.counters.size();
    if (p == 0)
        return false;
    if ((type == ModelType::Quadratic ||
         type == ModelType::Switching) &&
        p < 2) {
        return false;  // These techniques require multiple features.
    }
    if (type == ModelType::Switching &&
        !frequencyFeatureIndex(featureSet).has_value()) {
        return false;  // No indicator available.
    }
    return true;
}

std::unique_ptr<PowerModel>
buildModel(const FeatureSet &featureSet, ModelType type,
           const MarsConfig &mars)
{
    ModelOptions options;
    options.mars = mars;
    options.frequencyFeature = frequencyFeatureIndex(featureSet);
    return makeModel(type, options);
}

/**
 * Everything one cross-validation fold produces. Folds are trained
 * concurrently (the fold assignment is fixed before the parallel
 * region, so every fold is a pure function of the shared dataset);
 * the caller merges these in fold-index order, which reproduces the
 * serial accumulation bit-for-bit regardless of thread count.
 */
struct FoldOutcome
{
    bool ran = false;
    size_t params = 0;
    std::vector<double> predictions;
    std::vector<double> actual;
    std::vector<double> machineDre;
    std::vector<double> machineRmse;
    std::vector<double> machinePct;
};

} // namespace

EnvelopeMap
envelopesFromSpec(const MachineSpec &spec, size_t numMachines)
{
    EnvelopeMap envelopes;
    for (size_t m = 0; m < numMachines; ++m) {
        envelopes[static_cast<int>(m)] = {spec.idlePowerW,
                                          spec.maxPowerW};
    }
    return envelopes;
}

std::unique_ptr<PowerModel>
fitPooledModel(const Dataset &data, const FeatureSet &featureSet,
               ModelType type, const MarsConfig &mars)
{
    raiseIf(!combinationDefined(featureSet, type),
            "fitPooledModel: model/feature-set combination is undefined");
    const Dataset subset = data.selectFeaturesByName(featureSet.counters);
    auto model = buildModel(featureSet, type, mars);
    model->fit(subset.features(), subset.powerW());
    return model;
}

EvaluationOutcome
evaluateTechnique(const Dataset &data, const FeatureSet &featureSet,
                  ModelType type, const EnvelopeMap &envelopes,
                  const EvaluationConfig &config)
{
    obs::Span span("cv.evaluate");
    static auto &techniques =
        obs::Registry::instance().counter("chaos.eval.techniques_evaluated");
    static auto &undefined =
        obs::Registry::instance().counter("chaos.eval.undefined_combinations");
    techniques.add();

    EvaluationOutcome outcome;
    if (!combinationDefined(featureSet, type)) {
        undefined.add();
        return outcome;
    }
    panicIf(data.numRows() == 0, "evaluateTechnique: empty dataset");

    const Dataset subset =
        data.selectFeaturesByName(featureSet.counters);

    Rng rng(config.seed);
    auto folds = groupedKFold(subset.runIds(), config.folds, rng);

    // The rng is fully consumed by the fold assignment above, so each
    // fold below is independent and can train concurrently.
    const auto per_fold = parallelMap<FoldOutcome>(
        folds.size(), [&](size_t fi) {
            obs::Span fold_span("cv.fold");
            FoldOutcome out;
            const auto &fold = folds[fi];
            // Paper protocol: the small side is the training set.
            const auto &train_rows = fold.testIndices;
            const auto &test_rows = fold.trainIndices;
            if (train_rows.size() <
                    featureSet.counters.size() + 5 ||
                test_rows.empty()) {
                return out;
            }

            const Dataset train = subset.selectRows(train_rows);
            const Dataset test = subset.selectRows(test_rows);

            auto model = buildModel(featureSet, type, config.mars);
            model->fit(train.features(), train.powerW());
            out.params = model->numParameters();

            out.predictions = model->predictAll(test.features());
            out.actual = test.powerW();

            // Per-machine metrics against that machine's envelope.
            std::set<int> machines(test.machineIds().begin(),
                                   test.machineIds().end());
            for (int machine : machines) {
                std::vector<double> mp, ma;
                for (size_t r = 0; r < test.numRows(); ++r) {
                    if (test.machineIds()[r] == machine) {
                        mp.push_back(out.predictions[r]);
                        ma.push_back(out.actual[r]);
                    }
                }
                if (mp.size() < 10)
                    continue;
                const auto it = envelopes.find(machine);
                panicIf(it == envelopes.end(),
                        "missing envelope for machine");
                const double rmse = rootMeanSquaredError(mp, ma);
                out.machineRmse.push_back(rmse);
                out.machinePct.push_back(rmse / mean(ma));
                out.machineDre.push_back(
                    rmse /
                    (it->second.maxPowerW - it->second.idlePowerW));
            }
            out.ran = true;
            // Commutative integer add: deterministic for any thread
            // count even though folds finish out of order.
            static auto &folds_run =
                obs::Registry::instance().counter("chaos.eval.folds_run");
            folds_run.add();
            return out;
        });

    std::vector<double> machine_dre, machine_rmse, machine_pct;
    std::vector<double> pooled_pred, pooled_actual;
    size_t total_params = 0;
    for (const auto &fr : per_fold) {
        if (!fr.ran)
            continue;
        total_params += fr.params;
        pooled_pred.insert(pooled_pred.end(), fr.predictions.begin(),
                           fr.predictions.end());
        pooled_actual.insert(pooled_actual.end(), fr.actual.begin(),
                             fr.actual.end());
        machine_dre.insert(machine_dre.end(), fr.machineDre.begin(),
                           fr.machineDre.end());
        machine_rmse.insert(machine_rmse.end(),
                            fr.machineRmse.begin(),
                            fr.machineRmse.end());
        machine_pct.insert(machine_pct.end(), fr.machinePct.begin(),
                           fr.machinePct.end());
        ++outcome.foldsRun;
    }

    if (outcome.foldsRun == 0 || machine_dre.empty())
        return outcome;

    outcome.valid = true;
    outcome.avgDre = mean(machine_dre);
    outcome.avgRmse = mean(machine_rmse);
    outcome.avgPctErr = mean(machine_pct);
    outcome.medianRelErr =
        medianRelativeError(pooled_pred, pooled_actual);
    outcome.medianAbsErr =
        medianAbsoluteError(pooled_pred, pooled_actual);
    outcome.r2 = rSquared(pooled_pred, pooled_actual);
    outcome.avgParameters = total_params / outcome.foldsRun;
    return outcome;
}

} // namespace chaos
