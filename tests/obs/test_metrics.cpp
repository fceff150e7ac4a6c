/**
 * @file
 * Tests for the metrics registry: counter/gauge/histogram semantics,
 * bucket edge handling, the enable gate, and the determinism contract
 * of the Stable snapshot across thread counts.
 */
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "util/parallel.hpp"

namespace chaos {
namespace {

TEST(Metrics, CounterAccumulatesAndResets)
{
    auto &c = obs::Registry::instance().counter("test.metrics.basic");
    c.reset();
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, GaugeMovesBothWays)
{
    auto &g = obs::Registry::instance().gauge("test.metrics.gauge");
    g.reset();
    g.set(7);
    g.add(-10);
    EXPECT_EQ(g.value(), -3);
    g.reset();
    EXPECT_EQ(g.value(), 0);
}

TEST(Metrics, DisabledGateDropsUpdatesButKeepsValues)
{
    auto &c = obs::Registry::instance().counter("test.metrics.gate");
    c.reset();
    c.add(5);
    obs::setMetricsEnabled(false);
    c.add(100);
    obs::setMetricsEnabled(true);
    EXPECT_EQ(c.value(), 5u);
}

TEST(Metrics, HistogramBucketEdgesAreInclusive)
{
    auto &h = obs::Registry::instance().histogram(
        "test.metrics.hist_edges", {1.0, 2.0});
    h.reset();
    h.observe(0.5);
    h.observe(1.0);  // On the edge: first bucket (inclusive bound).
    h.observe(1.5);
    h.observe(2.0);  // On the edge: second bucket.
    h.observe(2.5);  // Above the last bound: overflow bucket.

    const std::vector<std::uint64_t> counts = h.bucketCounts();
    ASSERT_EQ(counts.size(), 3u);  // Two bounds plus overflow.
    EXPECT_EQ(counts[0], 2u);
    EXPECT_EQ(counts[1], 2u);
    EXPECT_EQ(counts[2], 1u);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_DOUBLE_EQ(h.minValue(), 0.5);
    EXPECT_DOUBLE_EQ(h.maxValue(), 2.5);
}

TEST(Metrics, FirstHistogramRegistrationWins)
{
    auto &a = obs::Registry::instance().histogram(
        "test.metrics.hist_dup", {10.0});
    auto &b = obs::Registry::instance().histogram(
        "test.metrics.hist_dup", {99.0, 100.0});
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(b.bounds(), std::vector<double>({10.0}));
}

TEST(Metrics, SnapshotJsonIsWellFormed)
{
    auto &reg = obs::Registry::instance();
    reg.counter("test.metrics.snap").add();
    reg.gauge("test.metrics.snap_gauge").set(3);
    reg.histogram("test.metrics.snap_hist", {1.0}).observe(0.5);
    EXPECT_TRUE(obs::jsonWellFormed(reg.snapshotJson(false)));
    EXPECT_TRUE(obs::jsonWellFormed(reg.snapshotJson(true)));
}

TEST(Metrics, SchedulingMetricsExcludedFromStableSnapshot)
{
    auto &reg = obs::Registry::instance();
    reg.counter("test.metrics.sched_only",
                obs::Stability::Scheduling)
        .add(123);
    const std::string stable = reg.snapshotJson(false);
    const std::string full = reg.snapshotJson(true);
    EXPECT_EQ(stable.find("test.metrics.sched_only"),
              std::string::npos);
    EXPECT_NE(full.find("test.metrics.sched_only"), std::string::npos);
}

TEST(Metrics, EmptyHistogramSnapshotsAndPercentiles)
{
    auto &h = obs::Registry::instance().histogram(
        "test.metrics.hist_empty", {1.0, 2.0});
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_TRUE(std::isnan(h.percentile(0.5)));
    EXPECT_TRUE(std::isnan(h.percentile(0.0)));
    EXPECT_TRUE(std::isnan(h.percentile(1.0)));
    // An empty histogram must still render into a well-formed
    // snapshot (no min/max fields, zero counts).
    const std::string snap =
        obs::Registry::instance().snapshotJson(false);
    EXPECT_TRUE(obs::jsonWellFormed(snap));
    EXPECT_NE(snap.find("test.metrics.hist_empty"),
              std::string::npos);
}

TEST(Metrics, SingleSamplePercentilesCollapseToTheSample)
{
    auto &h = obs::Registry::instance().histogram(
        "test.metrics.hist_single", {10.0, 20.0});
    h.reset();
    h.observe(7.25);
    // With one observation every quantile is that observation: the
    // interpolated in-bucket value is clamped to [min, max].
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 7.25);
    EXPECT_DOUBLE_EQ(h.percentile(0.5), 7.25);
    EXPECT_DOUBLE_EQ(h.percentile(0.99), 7.25);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 7.25);
}

TEST(Metrics, OverflowBucketPercentileReportsObservedMax)
{
    auto &h = obs::Registry::instance().histogram(
        "test.metrics.hist_overflow", {1.0});
    h.reset();
    h.observe(0.5);
    h.observe(100.0);
    h.observe(250.0);
    // Ranks 2 and 3 land in the unbounded overflow bucket, which is
    // bounded below by the last finite edge and above by the observed
    // maximum; the top rank is exactly that maximum.
    EXPECT_DOUBLE_EQ(h.percentile(0.99), 250.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 250.0);
    // Rank 2 interpolates halfway across [1.0, 250.0] instead of
    // flat-lining at the maximum.
    EXPECT_DOUBLE_EQ(h.percentile(0.6), 125.5);
}

TEST(Metrics, SingleBucketPercentilesInterpolateWithinObservedRange)
{
    // Everything lands in one bucket whose upper edge (10) is far
    // above the observed range [3, 8]. The interpolation interval must
    // be the observed range, not the bucket: p99/p100 used to hit the
    // bucket edge and get clamped while mid quantiles skewed high.
    auto &h = obs::Registry::instance().histogram(
        "test.metrics.hist_one_bucket", {10.0});
    h.reset();
    for (int i = 0; i < 99; ++i)
        h.observe(3.0);
    h.observe(8.0);
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 8.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 3.0 + 0.01 * 5.0);
    EXPECT_LE(h.percentile(0.5), 5.5);
    EXPECT_GE(h.percentile(0.5), 3.0);
}

TEST(Metrics, LastFiniteBucketPercentileClipsToObservedMax)
{
    // All mass in the last finite bucket [10, 20] but observations
    // only span [12, 18]: boundary quantiles must stay inside the
    // observed range rather than report the raw bucket edges.
    auto &h = obs::Registry::instance().histogram(
        "test.metrics.hist_last_bucket", {10.0, 20.0});
    h.reset();
    for (int i = 0; i < 50; ++i) {
        h.observe(12.0);
        h.observe(18.0);
    }
    EXPECT_DOUBLE_EQ(h.percentile(1.0), 18.0);
    EXPECT_DOUBLE_EQ(h.percentile(0.9), 12.0 + 0.9 * 6.0);
    EXPECT_GE(h.percentile(0.01), 12.0);
}

TEST(Metrics, ConstantObservationsCollapseEveryPercentile)
{
    auto &h = obs::Registry::instance().histogram(
        "test.metrics.hist_const", {0.05, 0.5, 5.0});
    h.reset();
    for (int i = 0; i < 1000; ++i)
        h.observe(0.3);
    for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0})
        EXPECT_DOUBLE_EQ(h.percentile(q), 0.3) << "q=" << q;
}

TEST(Metrics, HistogramMinMaxSurviveConcurrentObservers)
{
    auto &h = obs::Registry::instance().histogram(
        "test.metrics.hist_cas", {1e6});
    h.reset();
    // Hammer the CAS min/max loops from the pool: every value is
    // observed exactly once, so the extremes are exact, whatever the
    // interleaving.
    setGlobalThreadCount(8);
    parallelFor(4096, [](size_t i) {
        static auto &hist = obs::Registry::instance().histogram(
            "test.metrics.hist_cas", {1e6});
        hist.observe(static_cast<double>(i) - 2048.0);
    });
    setGlobalThreadCount(1);
    EXPECT_EQ(h.count(), 4096u);
    EXPECT_DOUBLE_EQ(h.minValue(), -2048.0);
    EXPECT_DOUBLE_EQ(h.maxValue(), 2047.0);
}

TEST(Metrics, HistogramBulkObserveMatchesScalarObserve)
{
    const std::vector<double> bounds{1.0, 2.0, 4.0};
    obs::Histogram scalar(bounds);
    obs::Histogram bulk(bounds);
    // Runs within one bucket, values on its bounds, and jumps both
    // ways: bulk observe reuses the last value's bucket when it fits.
    const std::vector<double> values{0.5, 1.0, 1.5, 2.0, 3.0,
                                     9.0, 0.1, 4.0, 4.0, 9.5,
                                     12.0, 3.5, 2.5, 2.0, 1.0};
    for (double v : values)
        scalar.observe(v);
    bulk.observeBulk(values.data(), values.size());

    EXPECT_EQ(bulk.bucketCounts(), scalar.bucketCounts());
    EXPECT_EQ(bulk.count(), scalar.count());
    EXPECT_DOUBLE_EQ(bulk.minValue(), scalar.minValue());
    EXPECT_DOUBLE_EQ(bulk.maxValue(), scalar.maxValue());

    // The offset form shifts every value, including min/max and the
    // bucket each lands in — the serve drain uses it to derive the
    // e2e histogram from the queue-wait scratch.
    obs::Histogram shifted(bounds);
    shifted.observeBulk(values.data(), values.size(), 1.0);
    obs::Histogram expected(bounds);
    for (double v : values)
        expected.observe(v + 1.0);
    EXPECT_EQ(shifted.bucketCounts(), expected.bucketCounts());
    EXPECT_DOUBLE_EQ(shifted.minValue(), expected.minValue());
    EXPECT_DOUBLE_EQ(shifted.maxValue(), expected.maxValue());

    // Empty batches are a no-op.
    shifted.observeBulk(values.data(), 0);
    EXPECT_EQ(shifted.count(), values.size());
}

TEST(Metrics, HistogramMergeAddsCountsAndExtremes)
{
    obs::Histogram a({1.0, 10.0});
    obs::Histogram b({1.0, 10.0});
    a.observe(0.5);
    a.observe(5.0);
    b.observe(5.0);
    b.observe(100.0);

    ASSERT_TRUE(a.merge(b));
    const auto counts = a.bucketCounts();
    ASSERT_EQ(counts.size(), 3u);
    EXPECT_EQ(counts[0], 1u);
    EXPECT_EQ(counts[1], 2u);
    EXPECT_EQ(counts[2], 1u);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_DOUBLE_EQ(a.minValue(), 0.5);
    EXPECT_DOUBLE_EQ(a.maxValue(), 100.0);
}

TEST(Metrics, HistogramMergeIsOrderIndependent)
{
    const std::vector<double> bounds{2.0, 8.0, 32.0};
    obs::Histogram a(bounds), b(bounds), c(bounds);
    for (int i = 0; i < 30; ++i)
        a.observe(static_cast<double>(i));
    for (int i = 0; i < 10; ++i)
        b.observe(static_cast<double>(i) * 0.3);
    c.observe(1000.0);

    obs::Histogram left(bounds);  // (A + B) + C
    ASSERT_TRUE(left.merge(a));
    ASSERT_TRUE(left.merge(b));
    ASSERT_TRUE(left.merge(c));
    obs::Histogram right(bounds);  // C + B + A
    ASSERT_TRUE(right.merge(c));
    ASSERT_TRUE(right.merge(b));
    ASSERT_TRUE(right.merge(a));

    EXPECT_EQ(left.bucketCounts(), right.bucketCounts());
    EXPECT_EQ(left.count(), right.count());
    EXPECT_DOUBLE_EQ(left.minValue(), right.minValue());
    EXPECT_DOUBLE_EQ(left.maxValue(), right.maxValue());
}

TEST(Metrics, HistogramMergeRejectsMismatchedBounds)
{
    obs::Histogram a({1.0, 2.0});
    obs::Histogram b({1.0, 3.0});
    obs::Histogram c({1.0});
    a.observe(0.5);
    b.observe(0.5);
    c.observe(0.5);
    EXPECT_FALSE(a.merge(b));
    EXPECT_FALSE(a.merge(c));
    // The refused merge leaves the target untouched.
    EXPECT_EQ(a.count(), 1u);
    EXPECT_EQ(a.bucketCounts(),
              std::vector<std::uint64_t>({1u, 0u, 0u}));
}

TEST(Metrics, HistogramMergingAnEmptyHistogramIsIdentity)
{
    obs::Histogram a({1.0, 2.0});
    obs::Histogram empty({1.0, 2.0});
    a.observe(1.5);
    ASSERT_TRUE(a.merge(empty));
    EXPECT_EQ(a.count(), 1u);
    EXPECT_DOUBLE_EQ(a.minValue(), 1.5);
    EXPECT_DOUBLE_EQ(a.maxValue(), 1.5);
    // Empty absorbing non-empty adopts its extremes.
    ASSERT_TRUE(empty.merge(a));
    EXPECT_EQ(empty.count(), 1u);
    EXPECT_DOUBLE_EQ(empty.minValue(), 1.5);
    EXPECT_DOUBLE_EQ(empty.maxValue(), 1.5);
}

/**
 * The determinism contract: for identical work, the Stable snapshot
 * is bit-identical no matter how many threads executed it. This is
 * the CHAOS_THREADS=1 vs 8 acceptance check in miniature.
 */
TEST(Metrics, StableSnapshotIdenticalAcrossThreadCounts)
{
    auto &reg = obs::Registry::instance();
    const auto runWork = [&reg]() {
        reg.resetAll();
        parallelFor(512, [](size_t i) {
            static auto &c = obs::Registry::instance().counter(
                "test.metrics.det_count");
            c.add(i % 7);
            static auto &h = obs::Registry::instance().histogram(
                "test.metrics.det_hist", {64.0, 256.0});
            h.observe(static_cast<double>(i));
        });
        return reg.snapshotJson(false);
    };

    setGlobalThreadCount(1);
    const std::string serial = runWork();
    setGlobalThreadCount(8);
    const std::string threaded = runWork();
    setGlobalThreadCount(1);
    EXPECT_EQ(serial, threaded);
}

} // namespace
} // namespace chaos
