/**
 * @file
 * Determinism of the parallelized training pipeline: every result —
 * fitted MARS bases and coefficients, cross-validated metrics, the
 * pooling comparison — must be identical for any thread count. The
 * pipeline earns this by construction (tasks write only their own
 * output slot; reductions run serially in index order), and these
 * tests pin the contract with exact floating-point comparisons
 * between CHAOS_THREADS=1 and CHAOS_THREADS=8 runs.
 */
#include <gtest/gtest.h>

#include "campaign_fixture.hpp"
#include "core/pooling.hpp"
#include "models/mars.hpp"
#include "util/parallel.hpp"

namespace chaos {
namespace {

using testing_support::core2Campaign;
using testing_support::quickCampaignConfig;

/** Restore the environment-resolved thread count on scope exit. */
struct ThreadCountGuard
{
    ~ThreadCountGuard() { setGlobalThreadCount(0); }
};

TEST(ParallelDeterminism, EvaluationIdenticalAcrossThreadCounts)
{
    ThreadCountGuard guard;
    const auto &campaign = core2Campaign();
    const auto config = quickCampaignConfig().evaluation;
    const FeatureSet features = clusterFeatureSet(campaign.selection);

    setGlobalThreadCount(1);
    const EvaluationOutcome serial = evaluateTechnique(
        campaign.data, features, ModelType::Quadratic,
        campaign.envelopes, config);
    setGlobalThreadCount(8);
    const EvaluationOutcome parallel = evaluateTechnique(
        campaign.data, features, ModelType::Quadratic,
        campaign.envelopes, config);

    ASSERT_TRUE(serial.valid);
    ASSERT_TRUE(parallel.valid);
    EXPECT_EQ(serial.foldsRun, parallel.foldsRun);
    EXPECT_EQ(serial.avgParameters, parallel.avgParameters);
    EXPECT_DOUBLE_EQ(serial.avgDre, parallel.avgDre);
    EXPECT_DOUBLE_EQ(serial.avgRmse, parallel.avgRmse);
    EXPECT_DOUBLE_EQ(serial.avgPctErr, parallel.avgPctErr);
    EXPECT_DOUBLE_EQ(serial.medianRelErr, parallel.medianRelErr);
    EXPECT_DOUBLE_EQ(serial.medianAbsErr, parallel.medianAbsErr);
    EXPECT_DOUBLE_EQ(serial.r2, parallel.r2);
}

TEST(ParallelDeterminism, MarsFitIdenticalAcrossThreadCounts)
{
    ThreadCountGuard guard;
    const auto &campaign = core2Campaign();
    const Dataset subset = campaign.data.selectFeaturesByName(
        clusterFeatureSet(campaign.selection).counters);

    MarsConfig config;
    config.maxDegree = 2;

    setGlobalThreadCount(1);
    MarsModel serial(config);
    serial.fit(subset.features(), subset.powerW());
    setGlobalThreadCount(8);
    MarsModel parallel(config);
    parallel.fit(subset.features(), subset.powerW());

    ASSERT_EQ(serial.terms().size(), parallel.terms().size());
    for (size_t t = 0; t < serial.terms().size(); ++t) {
        const auto &a = serial.terms()[t];
        const auto &b = parallel.terms()[t];
        ASSERT_EQ(a.hinges.size(), b.hinges.size());
        for (size_t h = 0; h < a.hinges.size(); ++h) {
            EXPECT_EQ(a.hinges[h].feature, b.hinges[h].feature);
            EXPECT_EQ(a.hinges[h].direction, b.hinges[h].direction);
            EXPECT_DOUBLE_EQ(a.hinges[h].knot, b.hinges[h].knot);
        }
    }
    ASSERT_EQ(serial.coefficients().size(),
              parallel.coefficients().size());
    for (size_t i = 0; i < serial.coefficients().size(); ++i) {
        EXPECT_DOUBLE_EQ(serial.coefficients()[i],
                         parallel.coefficients()[i]);
    }
}

TEST(ParallelDeterminism, PoolingComparisonIdenticalAcrossThreadCounts)
{
    ThreadCountGuard guard;
    const auto &campaign = core2Campaign();
    const auto config = quickCampaignConfig().evaluation;
    const FeatureSet features = clusterFeatureSet(campaign.selection);

    setGlobalThreadCount(1);
    const PoolingComparison serial =
        comparePooling(campaign.data, features,
                       ModelType::PiecewiseLinear,
                       campaign.envelopes, config);
    setGlobalThreadCount(8);
    const PoolingComparison parallel =
        comparePooling(campaign.data, features,
                       ModelType::PiecewiseLinear,
                       campaign.envelopes, config);

    EXPECT_DOUBLE_EQ(serial.pooledDre, parallel.pooledDre);
    EXPECT_DOUBLE_EQ(serial.perMachineDre, parallel.perMachineDre);
    EXPECT_DOUBLE_EQ(serial.partialDre, parallel.partialDre);
    EXPECT_DOUBLE_EQ(serial.pooledResidualVar,
                     parallel.pooledResidualVar);
    EXPECT_DOUBLE_EQ(serial.perMachineResidualVar,
                     parallel.perMachineResidualVar);
    EXPECT_DOUBLE_EQ(serial.varianceRatio, parallel.varianceRatio);
    EXPECT_EQ(serial.poolingAdequate, parallel.poolingAdequate);
}

TEST(ParallelDeterminism, SweepIdenticalAcrossThreadCounts)
{
    ThreadCountGuard guard;
    const auto &campaign = core2Campaign();
    const auto config = quickCampaignConfig().evaluation;
    const std::vector<FeatureSet> sets = {
        cpuOnlyFeatureSet(), clusterFeatureSet(campaign.selection)};

    setGlobalThreadCount(1);
    const auto serial =
        sweepWorkloads(campaign.data, sets, allModelTypes(),
                       campaign.envelopes, config, {"Prime"});
    setGlobalThreadCount(8);
    const auto parallel =
        sweepWorkloads(campaign.data, sets, allModelTypes(),
                       campaign.envelopes, config, {"Prime"});

    ASSERT_EQ(serial.size(), parallel.size());
    ASSERT_EQ(serial.front().cells.size(),
              parallel.front().cells.size());
    for (size_t c = 0; c < serial.front().cells.size(); ++c) {
        const auto &a = serial.front().cells[c];
        const auto &b = parallel.front().cells[c];
        EXPECT_EQ(a.type, b.type);
        EXPECT_EQ(a.featureSetName, b.featureSetName);
        EXPECT_EQ(a.outcome.valid, b.outcome.valid);
        EXPECT_DOUBLE_EQ(a.outcome.avgDre, b.outcome.avgDre);
        EXPECT_DOUBLE_EQ(a.outcome.r2, b.outcome.r2);
    }
}

TEST(ParallelDeterminism, FeatureSelectionIdenticalAcrossThreadCounts)
{
    ThreadCountGuard guard;
    const auto &campaign = core2Campaign();
    const auto config = quickCampaignConfig().featureSelection;

    setGlobalThreadCount(1);
    Rng rng_serial(1);
    const FeatureSelectionResult serial =
        selectClusterFeatures(campaign.data, config, rng_serial);
    setGlobalThreadCount(8);
    Rng rng_parallel(1);
    const FeatureSelectionResult parallel =
        selectClusterFeatures(campaign.data, config, rng_parallel);

    EXPECT_EQ(serial.selected, parallel.selected);
    EXPECT_EQ(serial.histogram, parallel.histogram);
    EXPECT_EQ(serial.finalThreshold, parallel.finalThreshold);
    ASSERT_EQ(serial.perMachine.size(), parallel.perMachine.size());
    for (size_t i = 0; i < serial.perMachine.size(); ++i) {
        const auto &a = serial.perMachine[i];
        const auto &b = parallel.perMachine[i];
        EXPECT_EQ(a.machineId, b.machineId);
        EXPECT_EQ(a.workload, b.workload);
        EXPECT_EQ(a.lassoSelected, b.lassoSelected);
        EXPECT_EQ(a.significant, b.significant);
    }
    EXPECT_EQ(serial.afterCoDependency, parallel.afterCoDependency);
}

} // namespace
} // namespace chaos
