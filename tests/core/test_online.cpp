/**
 * @file
 * Tests for the hardened online estimation path: input validation,
 * last-known-good imputation, envelope clamping, and health-state
 * transitions. Cluster composition under telemetry loss is tested
 * on the served path (tests/serve/test_server.cpp).
 */
#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "campaign_fixture.hpp"
#include "core/online.hpp"
#include "obs/events.hpp"

namespace chaos {
namespace {

using testing_support::core2Campaign;
using testing_support::quickCampaignConfig;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

MachinePowerModel
core2Model()
{
    const auto &campaign = core2Campaign();
    return MachinePowerModel::fit(
        campaign.data, clusterFeatureSet(campaign.selection),
        ModelType::Quadratic, quickCampaignConfig().evaluation.mars);
}

OnlineEstimatorConfig
core2Config()
{
    return OnlineEstimatorConfig::forSpec(
        machineSpecFor(MachineClass::Core2));
}

std::vector<double>
cleanRow(size_t r)
{
    return core2Campaign().data.features().row(r);
}

TEST(OnlineEstimator, HealthyOnCleanTelemetry)
{
    OnlinePowerEstimator estimator(core2Model(), core2Config());
    for (size_t r = 0; r < 20; ++r)
        estimator.estimate(cleanRow(r));
    EXPECT_EQ(estimator.health(), MachineHealth::Healthy);
    EXPECT_EQ(estimator.healthCounters().rejectedInputs, 0u);
    EXPECT_EQ(estimator.healthCounters().imputedInputs, 0u);
}

TEST(OnlineEstimator, NanInputIsImputedFromLastGood)
{
    const MachinePowerModel model = core2Model();
    OnlinePowerEstimator estimator(model, core2Config());

    const double before = estimator.estimate(cleanRow(5));
    std::vector<double> corrupted = cleanRow(5);
    corrupted[model.catalogIndices()[0]] = kNan;
    const double after = estimator.estimate(corrupted);

    // The bad input was bridged with its last-known-good value, so
    // the estimate is unchanged and still finite.
    EXPECT_TRUE(std::isfinite(after));
    EXPECT_DOUBLE_EQ(after, before);
    EXPECT_EQ(estimator.health(), MachineHealth::Degraded);
    EXPECT_GT(estimator.healthCounters().imputedInputs, 0u);
    EXPECT_GT(estimator.healthCounters().rejectedInputs, 0u);
}

TEST(OnlineEstimator, ImplausiblyLargeInputIsRejected)
{
    const MachinePowerModel model = core2Model();
    OnlinePowerEstimator estimator(model, core2Config());
    estimator.estimate(cleanRow(0));

    const size_t idx = model.catalogIndices()[0];
    const double bound = CounterCatalog::instance().def(idx).maxPlausible;
    std::vector<double> corrupted = cleanRow(0);
    corrupted[idx] = bound * 2.0;
    const double watts = estimator.estimate(corrupted);

    EXPECT_TRUE(std::isfinite(watts));
    EXPECT_EQ(estimator.health(), MachineHealth::Degraded);
    EXPECT_GT(estimator.healthCounters().rejectedInputs, 0u);

    std::vector<double> negative = cleanRow(0);
    negative[idx] = -5.0;
    estimator.estimate(negative);
    EXPECT_EQ(estimator.health(), MachineHealth::Degraded);
}

TEST(OnlineEstimator, EmptyCatalogRowNeverCrashes)
{
    OnlinePowerEstimator estimator(core2Model(), core2Config());
    const MachineSpec spec = machineSpecFor(MachineClass::Core2);
    // No telemetry at all, from the very first second: every
    // estimate must still be finite and inside the envelope.
    for (int t = 0; t < 30; ++t) {
        const double watts = estimator.estimate({});
        EXPECT_TRUE(std::isfinite(watts));
        EXPECT_GE(watts, spec.idlePowerW);
        EXPECT_LE(watts, spec.maxPowerW);
    }
    EXPECT_EQ(estimator.health(), MachineHealth::Lost);
    EXPECT_GT(estimator.healthCounters().substitutedEstimates, 0u);
}

TEST(OnlineEstimator, TransitionsToLostAndBack)
{
    OnlinePowerEstimator estimator(core2Model(), core2Config());
    const size_t catalogSize = CounterCatalog::instance().size();
    const std::vector<double> allNan(catalogSize, kNan);

    for (size_t r = 0; r < 20; ++r)
        estimator.estimate(cleanRow(r));
    const double trusted = estimator.meanEstimateW();

    // Stale imputation first, Lost once the outage outlives the
    // threshold; the substitute tracks the recent trusted mean.
    double lastWatts = 0.0;
    for (int t = 0; t < 15; ++t)
        lastWatts = estimator.estimate(allNan);
    EXPECT_EQ(estimator.health(), MachineHealth::Lost);
    EXPECT_NEAR(lastWatts, trusted, 5.0);

    // Telemetry returns: health recovers immediately.
    estimator.estimate(cleanRow(21));
    EXPECT_EQ(estimator.health(), MachineHealth::Healthy);
}

TEST(OnlineEstimator, ClampsToEnvelope)
{
    // A deliberately absurd envelope forces every prediction through
    // the clamp.
    OnlineEstimatorConfig config;
    config.idlePowerW = 30.0;
    config.maxPowerW = 31.0;
    OnlinePowerEstimator estimator(core2Model(), config);
    for (size_t r = 0; r < 50; ++r) {
        const double watts = estimator.estimate(cleanRow(r));
        EXPECT_GE(watts, 30.0);
        EXPECT_LE(watts, 31.0);
    }
    EXPECT_GT(estimator.healthCounters().clampedEstimates, 0u);
}

TEST(OnlineEstimator, ResidualStatsAccumulateOnlyForFiniteMeter)
{
    const auto &campaign = core2Campaign();
    OnlinePowerEstimator estimator(core2Model(), core2Config());

    for (size_t r = 0; r < 10; ++r) {
        estimator.estimateWithReference(cleanRow(r),
                                        campaign.data.powerW()[r]);
    }
    EXPECT_EQ(estimator.residuals().count(), 10u);
    EXPECT_LT(std::fabs(estimator.residuals().mean()), 5.0);

    // Meter dropouts must not poison the residual statistics.
    estimator.estimateWithReference(cleanRow(10), kNan);
    estimator.estimateWithReference(
        cleanRow(11), std::numeric_limits<double>::infinity());
    EXPECT_EQ(estimator.residuals().count(), 10u);
    EXPECT_EQ(estimator.samples(), 12u);
    EXPECT_TRUE(std::isfinite(estimator.residuals().mean()));
}

TEST(OnlineEstimator, EstimateBatchMatchesScalarBitwise)
{
    // The batched path must be sample-for-sample, bit-for-bit the
    // serial path — through every hardening branch, not just the
    // happy one. The script mixes clean rows, NaN counters (imputed),
    // implausible values (rejected), all-NaN stretches long enough to
    // go Lost, recovery, short rows, and intermittent metered
    // references; the batch estimator consumes it in ragged chunks.
    const auto &campaign = core2Campaign();
    OnlinePowerEstimator scalar(core2Model(), core2Config());
    OnlinePowerEstimator batched(core2Model(), core2Config());

    std::vector<std::vector<double>> rows;
    std::vector<double> metered;
    for (size_t t = 0; t < 200; ++t) {
        std::vector<double> row = cleanRow(t % 40);
        if (t % 7 == 3)
            row[t % row.size()] = kNan;          // provider restart
        if (t % 11 == 5)
            row[(t + 1) % row.size()] = 1e18;    // corrupted counter
        if (t >= 60 && t < 75)
            row.assign(row.size(), kNan);        // telemetry loss
        if (t % 13 == 8)
            row.resize(row.size() / 2);          // short row
        rows.push_back(std::move(row));
        metered.push_back(t % 3 == 0 ? campaign.data.powerW()[t % 40]
                                     : kNan);
    }

    std::vector<double> scalarWatts;
    for (size_t t = 0; t < rows.size(); ++t)
        scalarWatts.push_back(
            scalar.estimateWithReference(rows[t], metered[t]));

    // Ragged chunk sizes, including 1 and a chunk spanning the whole
    // Lost episode.
    const size_t chunks[] = {1, 3, 17, 9, 1, 40, 64, 25, 40};
    size_t at = 0;
    for (size_t chunk : chunks) {
        const size_t n = std::min(chunk, rows.size() - at);
        std::vector<SampleView> views(n);
        std::vector<double> watts(n);
        for (size_t i = 0; i < n; ++i)
            views[i] = SampleView{rows[at + i].data(),
                                  rows[at + i].size(),
                                  metered[at + i]};
        batched.estimateBatch(views.data(), n, watts.data());
        for (size_t i = 0; i < n; ++i)
            EXPECT_EQ(watts[i], scalarWatts[at + i])
                << "sample " << at + i;
        at += n;
    }
    ASSERT_EQ(at, rows.size());

    // All derived serial state agrees exactly, not approximately.
    EXPECT_EQ(batched.health(), scalar.health());
    EXPECT_EQ(batched.samples(), scalar.samples());
    EXPECT_EQ(batched.lastEstimateW(), scalar.lastEstimateW());
    EXPECT_EQ(batched.meanEstimateW(), scalar.meanEstimateW());
    EXPECT_EQ(batched.residuals().count(), scalar.residuals().count());
    EXPECT_EQ(batched.residuals().mean(), scalar.residuals().mean());
    EXPECT_EQ(batched.residuals().stddev(),
              scalar.residuals().stddev());
    const OnlineHealthCounters &a = batched.healthCounters();
    const OnlineHealthCounters &b = scalar.healthCounters();
    EXPECT_EQ(a.validInputs, b.validInputs);
    EXPECT_EQ(a.rejectedInputs, b.rejectedInputs);
    EXPECT_EQ(a.imputedInputs, b.imputedInputs);
    EXPECT_EQ(a.substitutedEstimates, b.substitutedEstimates);
    EXPECT_EQ(a.clampedEstimates, b.clampedEstimates);
}

TEST(OnlineEstimator, HealthNamesAreDistinct)
{
    EXPECT_EQ(machineHealthName(MachineHealth::Healthy), "Healthy");
    EXPECT_EQ(machineHealthName(MachineHealth::Degraded), "Degraded");
    EXPECT_EQ(machineHealthName(MachineHealth::Stale), "Stale");
    EXPECT_EQ(machineHealthName(MachineHealth::Lost), "Lost");
}

TEST(OnlineEstimator, HealthEventsFollowScriptedFaultSequence)
{
    const MachinePowerModel model = core2Model();
    OnlineEstimatorConfig config = core2Config();
    config.sourceLabel = "scripted-machine";
    OnlinePowerEstimator estimator(model, config);
    obs::EventLog::instance().clear();

    // Scripted sequence: clean, one corrupt feature, clean again,
    // then a total blackout long enough to reach Stale and Lost.
    estimator.estimate(cleanRow(0));
    std::vector<double> corrupted = cleanRow(1);
    corrupted[model.catalogIndices()[0]] = kNan;
    estimator.estimate(corrupted);
    estimator.estimate(cleanRow(2));
    const std::vector<double> allNan(
        CounterCatalog::instance().size(), kNan);
    for (int t = 0; t < 15; ++t)
        estimator.estimate(allNan);
    ASSERT_EQ(estimator.health(), MachineHealth::Lost);

    std::vector<obs::Event> mine;
    for (const auto &e : obs::EventLog::instance().snapshot()) {
        if (e.source == "scripted-machine")
            mine.push_back(e);
    }
    ASSERT_FALSE(mine.empty());
    for (size_t i = 1; i < mine.size(); ++i)
        EXPECT_GT(mine[i].seq, mine[i - 1].seq);

    std::vector<std::string> transitions;
    bool imputation_before_first_transition = false;
    bool substitution_after_lost = false;
    bool lost_seen = false;
    for (const auto &e : mine) {
        if (e.kind == obs::EventKind::HealthTransition) {
            transitions.push_back(e.detail);
            lost_seen = lost_seen || e.detail == "Stale -> Lost";
        } else if (e.kind == obs::EventKind::Imputation &&
                   transitions.empty()) {
            imputation_before_first_transition = true;
        } else if (e.kind == obs::EventKind::Substitution &&
                   lost_seen) {
            substitution_after_lost = true;
        }
    }
    const std::vector<std::string> expected = {
        "Healthy -> Degraded", "Degraded -> Healthy",
        "Healthy -> Degraded", "Degraded -> Stale", "Stale -> Lost"};
    EXPECT_EQ(transitions, expected);
    EXPECT_TRUE(imputation_before_first_transition);
    EXPECT_TRUE(substitution_after_lost);
}

} // namespace
} // namespace chaos
