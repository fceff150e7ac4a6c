#include "core/pooling.hpp"

#include <map>
#include <set>

#include "models/factory.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "stats/descriptive.hpp"
#include "stats/kfold.hpp"
#include "stats/metrics.hpp"
#include "util/logging.hpp"
#include "util/result.hpp"
#include "util/parallel.hpp"

namespace chaos {

namespace {

std::optional<size_t>
frequencyIndexIn(const FeatureSet &featureSet)
{
    for (size_t i = 0; i < featureSet.counters.size(); ++i) {
        const auto &name = featureSet.counters[i];
        if (name.find("Frequency") != std::string::npos &&
            name.find("Lag") == std::string::npos) {
            return i;
        }
    }
    return std::nullopt;
}

std::unique_ptr<PowerModel>
build(const FeatureSet &featureSet, ModelType type,
      const MarsConfig &mars)
{
    ModelOptions options;
    options.mars = mars;
    options.frequencyFeature = frequencyIndexIn(featureSet);
    return makeModel(type, options);
}

/** Per-machine DRE average for a prediction vector on a dataset. */
void
accumulateMachineDre(const Dataset &test,
                     const std::vector<double> &predictions,
                     const EnvelopeMap &envelopes,
                     std::vector<double> &machine_dres,
                     std::vector<double> &residuals)
{
    std::set<int> machines(test.machineIds().begin(),
                           test.machineIds().end());
    for (int machine : machines) {
        std::vector<double> mp, ma;
        for (size_t r = 0; r < test.numRows(); ++r) {
            if (test.machineIds()[r] == machine) {
                mp.push_back(predictions[r]);
                ma.push_back(test.powerW()[r]);
                residuals.push_back(test.powerW()[r] -
                                    predictions[r]);
            }
        }
        if (mp.size() < 10)
            continue;
        const auto it = envelopes.find(machine);
        panicIf(it == envelopes.end(), "missing machine envelope");
        machine_dres.push_back(
            rootMeanSquaredError(mp, ma) /
            (it->second.maxPowerW - it->second.idlePowerW));
    }
}

/**
 * All three pooling strategies evaluated on one fold. Folds run
 * concurrently (the assignment is fixed before the parallel region);
 * the caller merges outcomes in fold-index order so the accumulated
 * vectors — and hence every mean and variance — match the serial
 * loop bit-for-bit at any thread count.
 */
struct PoolingFoldOutcome
{
    bool ran = false;
    std::vector<double> pooledDres, perMachineDres, partialDres;
    std::vector<double> pooledResiduals, perMachineResiduals,
        partialResiduals;
};

} // namespace

PoolingComparison
comparePooling(const Dataset &data, const FeatureSet &featureSet,
               ModelType type, const EnvelopeMap &envelopes,
               const EvaluationConfig &config,
               double adequacyThreshold)
{
    obs::Span span("pooling.compare");
    panicIf(data.numRows() == 0, "comparePooling: empty dataset");
    const Dataset subset =
        data.selectFeaturesByName(featureSet.counters);

    Rng rng(config.seed);
    auto folds = groupedKFold(subset.runIds(), config.folds, rng);

    // The rng is fully consumed by the fold assignment above; no task
    // below touches shared generator state.
    const auto per_fold = parallelMap<PoolingFoldOutcome>(
        folds.size(), [&](size_t fi) {
            obs::Span fold_span("pooling.fold");
            PoolingFoldOutcome out;
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

            // --- Pooled. ---
            auto pooled = build(featureSet, type, config.mars);
            pooled->fit(train.features(), train.powerW());
            const auto pooled_pred =
                pooled->predictAll(test.features());
            accumulateMachineDre(test, pooled_pred, envelopes,
                                 out.pooledDres,
                                 out.pooledResiduals);

            // --- Partial pooling: per-machine intercept offsets
            // from training residuals. ---
            std::map<int, double> offsets;
            {
                const auto train_pred =
                    pooled->predictAll(train.features());
                std::map<int, RunningStats> residual_stats;
                for (size_t r = 0; r < train.numRows(); ++r) {
                    residual_stats[train.machineIds()[r]].add(
                        train.powerW()[r] - train_pred[r]);
                }
                for (auto &[machine, stats] : residual_stats)
                    offsets[machine] = stats.mean();
            }
            std::vector<double> partial_pred(pooled_pred);
            for (size_t r = 0; r < test.numRows(); ++r) {
                const auto it = offsets.find(test.machineIds()[r]);
                if (it != offsets.end())
                    partial_pred[r] += it->second;
            }
            accumulateMachineDre(test, partial_pred, envelopes,
                                 out.partialDres,
                                 out.partialResiduals);

            // --- Per-machine models, fitted concurrently. Each task
            // writes only the prediction slots of its own machine's
            // test rows (disjoint by construction; `covered` is a
            // char vector so element writes never share a byte the
            // way std::vector<bool> bits would). ---
            const std::set<int> machine_set(
                train.machineIds().begin(), train.machineIds().end());
            const std::vector<int> machines(machine_set.begin(),
                                            machine_set.end());
            std::vector<double> pm_pred(test.numRows(), 0.0);
            std::vector<char> covered(test.numRows(), 0);
            parallelFor(machines.size(), [&](size_t mi) {
                const int machine = machines[mi];
                const Dataset m_train = train.filterMachine(machine);
                if (m_train.numRows() <
                    featureSet.counters.size() + 5) {
                    return;
                }
                auto model = build(featureSet, type, config.mars);
                model->fit(m_train.features(), m_train.powerW());
                static auto &machine_fits =
                    obs::Registry::instance().counter(
                        "chaos.pooling.machine_fits");
                machine_fits.add();
                for (size_t r = 0; r < test.numRows(); ++r) {
                    if (test.machineIds()[r] == machine) {
                        pm_pred[r] = model->predict(
                            test.features().row(r));
                        covered[r] = 1;
                    }
                }
            });
            // Rows of machines lacking their own model fall back to
            // the pooled prediction (keeps the comparison fair).
            for (size_t r = 0; r < test.numRows(); ++r) {
                if (!covered[r])
                    pm_pred[r] = pooled_pred[r];
            }
            accumulateMachineDre(test, pm_pred, envelopes,
                                 out.perMachineDres,
                                 out.perMachineResiduals);
            out.ran = true;
            static auto &folds_run =
                obs::Registry::instance().counter("chaos.pooling.folds_run");
            folds_run.add();
            return out;
        });

    std::vector<double> pooled_dres, per_machine_dres, partial_dres;
    std::vector<double> pooled_residuals, per_machine_residuals,
        partial_residuals;
    auto append = [](std::vector<double> &dst,
                     const std::vector<double> &src) {
        dst.insert(dst.end(), src.begin(), src.end());
    };
    for (const auto &fr : per_fold) {
        if (!fr.ran)
            continue;
        append(pooled_dres, fr.pooledDres);
        append(pooled_residuals, fr.pooledResiduals);
        append(partial_dres, fr.partialDres);
        append(partial_residuals, fr.partialResiduals);
        append(per_machine_dres, fr.perMachineDres);
        append(per_machine_residuals, fr.perMachineResiduals);
    }

    panicIf(pooled_dres.empty(),
            "comparePooling: no usable folds");

    PoolingComparison result;
    result.pooledDre = mean(pooled_dres);
    result.perMachineDre = mean(per_machine_dres);
    result.partialDre = mean(partial_dres);
    result.pooledResidualVar = variance(pooled_residuals);
    result.perMachineResidualVar = variance(per_machine_residuals);
    result.varianceRatio =
        result.perMachineResidualVar > 1e-12
            ? result.pooledResidualVar / result.perMachineResidualVar
            : 1.0;
    result.poolingAdequate =
        result.varianceRatio <= adequacyThreshold;
    return result;
}

MachinePowerModel
fitPooledSubstitute(const Dataset &data, const FeatureSet &featureSet,
                    ModelType type)
{
    raiseIf(data.numRows() == 0,
            "fitPooledSubstitute: empty class dataset");
    return MachinePowerModel::fit(data, featureSet, type,
                                  MarsConfig{});
}

} // namespace chaos
