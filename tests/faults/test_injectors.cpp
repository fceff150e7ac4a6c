/**
 * @file
 * Tests for the fault-injection harness: per-class profiles, injector
 * semantics, seeded determinism, and replay over logged traces.
 */
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "faults/fault_profile.hpp"
#include "faults/injectors.hpp"

namespace chaos {
namespace {

std::vector<double>
rampVector(size_t n, double base)
{
    std::vector<double> v(n);
    for (size_t i = 0; i < n; ++i)
        v[i] = base + double(i);
    return v;
}

TEST(FaultProfile, ZeroIntensityIsFaultFree)
{
    for (FaultClass fc : allFaultClasses()) {
        const FaultProfile profile = FaultProfile::forClass(fc, 0.0);
        EXPECT_FALSE(profile.anyMeterFaults()) << faultClassName(fc);
        EXPECT_FALSE(profile.anyCounterFaults()) << faultClassName(fc);
    }
}

TEST(FaultProfile, EachClassEnablesExactlyItsPath)
{
    EXPECT_TRUE(FaultProfile::forClass(FaultClass::MeterDropout, 1.0)
                    .anyMeterFaults());
    EXPECT_FALSE(FaultProfile::forClass(FaultClass::MeterDropout, 1.0)
                     .anyCounterFaults());
    EXPECT_TRUE(FaultProfile::forClass(FaultClass::MachineLoss, 1.0)
                    .anyCounterFaults());
    EXPECT_FALSE(FaultProfile::forClass(FaultClass::MachineLoss, 1.0)
                     .anyMeterFaults());
    EXPECT_EQ(allFaultClasses().size(), 6u);
}

TEST(MeterFaults, DropoutRateIsRespected)
{
    FaultProfile profile;
    profile.meterDropoutRate = 0.5;
    MeterFaultInjector injector(profile, Rng(11));
    size_t dropped = 0;
    for (int i = 0; i < 2000; ++i) {
        if (std::isnan(injector.apply(40.0)))
            ++dropped;
    }
    EXPECT_GT(dropped, 850u);
    EXPECT_LT(dropped, 1150u);
}

TEST(MeterFaults, QuantizationSnapsToGrid)
{
    FaultProfile profile;
    profile.meterQuantizationW = 2.0;
    MeterFaultInjector injector(profile, Rng(12));
    const double reading = injector.apply(41.3);
    EXPECT_DOUBLE_EQ(reading, 42.0);
}

TEST(MeterFaults, SpikesMoveTheReadingButStayNonNegative)
{
    FaultProfile profile;
    profile.meterSpikeRate = 1.0;
    profile.meterSpikeRelMagnitude = 0.5;
    MeterFaultInjector injector(profile, Rng(13));
    for (int i = 0; i < 200; ++i) {
        const double reading = injector.apply(40.0);
        EXPECT_NE(reading, 40.0);
        EXPECT_GE(reading, 0.0);
        EXPECT_LE(reading, 60.0);
    }
}

TEST(CounterFaults, StuckCounterHoldsItsValue)
{
    FaultProfile profile;
    profile.stuckOnsetRate = 1.0;     // Every counter freezes now.
    profile.stuckMeanSeconds = 1000.0; // ...for a long time.
    CounterFaultInjector injector(profile, Rng(21));

    const auto first = injector.apply(rampVector(8, 100.0));
    const auto second = injector.apply(rampVector(8, 500.0));
    // Every counter froze on the first tick and still reports the
    // first tick's value.
    for (size_t i = 0; i < 8; ++i)
        EXPECT_DOUBLE_EQ(second[i], first[i]);
}

TEST(CounterFaults, NanGapsAtFullRateBlankEverything)
{
    FaultProfile profile;
    profile.counterNanRate = 1.0;
    CounterFaultInjector injector(profile, Rng(22));
    const auto out = injector.apply(rampVector(16, 1.0));
    for (double v : out)
        EXPECT_TRUE(std::isnan(v));
}

TEST(CounterFaults, MachineLossBlanksWholeVector)
{
    FaultProfile profile;
    profile.machineLossRate = 1.0;
    profile.machineLossMeanSeconds = 4.0;
    CounterFaultInjector injector(profile, Rng(23));
    const auto out = injector.apply(rampVector(8, 3.0));
    EXPECT_TRUE(std::isnan(out[0]));
    EXPECT_TRUE(std::isnan(out[7]));
    EXPECT_TRUE(injector.inOutage());
    injector.reset();
    EXPECT_FALSE(injector.inOutage());
}

TEST(CounterFaults, JitterRepeatsThePreviousVector)
{
    FaultProfile profile;
    profile.sampleJitterRate = 1.0;
    CounterFaultInjector injector(profile, Rng(24));
    const auto first = injector.apply(rampVector(8, 10.0));
    const auto second = injector.apply(rampVector(8, 999.0));
    // The collector missed its tick: the stale vector repeats.
    for (size_t i = 0; i < 8; ++i)
        EXPECT_DOUBLE_EQ(second[i], first[i]);
}

TEST(Injectors, DeterministicUnderTheSameSeed)
{
    FaultProfile profile;
    profile.counterNanRate = 0.2;
    profile.stuckOnsetRate = 0.1;
    profile.machineLossRate = 0.05;
    profile.sampleJitterRate = 0.1;

    auto runOnce = [&profile](uint64_t seed) {
        CounterFaultInjector injector(profile, Rng(seed));
        std::vector<std::vector<double>> out;
        for (int t = 0; t < 50; ++t)
            out.push_back(injector.apply(rampVector(12, double(t))));
        return out;
    };
    const auto a = runOnce(77);
    const auto b = runOnce(77);
    const auto c = runOnce(78);

    ASSERT_EQ(a.size(), b.size());
    bool anyDifferenceVsOtherSeed = false;
    for (size_t t = 0; t < a.size(); ++t) {
        for (size_t i = 0; i < a[t].size(); ++i) {
            const bool bothNan =
                std::isnan(a[t][i]) && std::isnan(b[t][i]);
            EXPECT_TRUE(bothNan || a[t][i] == b[t][i]);
            const bool sameAsC =
                (std::isnan(a[t][i]) && std::isnan(c[t][i])) ||
                a[t][i] == c[t][i];
            anyDifferenceVsOtherSeed |= !sameAsC;
        }
    }
    EXPECT_TRUE(anyDifferenceVsOtherSeed);
}

TEST(Injectors, ReplayCorruptsLoggedTraceInPlace)
{
    std::vector<EtwRecord> records;
    for (int t = 0; t < 40; ++t) {
        EtwRecord rec;
        rec.timeSeconds = double(t);
        rec.counters = rampVector(10, double(t));
        rec.measuredPowerW = 40.0 + double(t % 5);
        records.push_back(rec);
    }
    const std::vector<EtwRecord> clean = records;

    FaultProfile profile;
    profile.counterNanRate = 0.3;
    profile.meterDropoutRate = 0.3;
    injectFaults(records, profile, Rng(31));

    ASSERT_EQ(records.size(), clean.size());
    size_t nanCounters = 0;
    size_t nanMeter = 0;
    for (size_t t = 0; t < records.size(); ++t) {
        EXPECT_EQ(records[t].counters.size(),
                  clean[t].counters.size());
        EXPECT_DOUBLE_EQ(records[t].timeSeconds,
                         clean[t].timeSeconds);
        for (double v : records[t].counters)
            nanCounters += std::isnan(v) ? 1 : 0;
        nanMeter += std::isnan(records[t].measuredPowerW) ? 1 : 0;
    }
    EXPECT_GT(nanCounters, 0u);
    EXPECT_GT(nanMeter, 0u);

    // Zero-rate replay is the identity.
    std::vector<EtwRecord> untouched = clean;
    injectFaults(untouched, FaultProfile{}, Rng(32));
    for (size_t t = 0; t < untouched.size(); ++t) {
        EXPECT_DOUBLE_EQ(untouched[t].measuredPowerW,
                         clean[t].measuredPowerW);
        EXPECT_EQ(untouched[t].counters, clean[t].counters);
    }
}

} // namespace
} // namespace chaos
