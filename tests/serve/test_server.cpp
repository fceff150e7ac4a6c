/**
 * @file
 * Tests for the streaming fleet server: exact agreement with a serial
 * estimator, threaded drain accounting, the drop-oldest backpressure
 * path, snapshots and their bounded ring, cluster composition (Eq. 5)
 * under machine loss and recovery, and model hot-swap under an active
 * producer.
 */
#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "../support/raises.hpp"
#include "serve_support.hpp"

#include "obs/events.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"
#include "serve/stage_metrics.hpp"
#include "util/parallel.hpp"

namespace chaos::serve {
namespace {

using serve_testing::catalogRow;
using serve_testing::makeTestModel;

TEST(FleetServer, DrainOnceMatchesSerialEstimator)
{
    FleetServerConfig config;
    config.numShards = 2;
    FleetServer server(config);
    std::vector<MachineEntry *> entries;
    for (int m = 0; m < 3; ++m) {
        entries.push_back(&server.addMachine(
            "m" + std::to_string(m), makeTestModel(7)));
    }

    // The reference: one serial estimator per machine, fed the exact
    // same rows in the same per-machine order.
    std::vector<OnlinePowerEstimator> serial;
    for (int m = 0; m < 3; ++m)
        serial.emplace_back(makeTestModel(7));

    for (int t = 0; t < 40; ++t) {
        for (int m = 0; m < 3; ++m) {
            const std::vector<double> row =
                catalogRow(t * 2.0 + m, 100.0 - t - m);
            const double metered = 25.0 + 0.2 * t;
            server.submitTo(*entries[m], std::vector<double>(row),
                            metered);
            serial[m].estimateWithReference(row, metered);
        }
    }
    while (server.drainOnce() > 0) {
    }

    EXPECT_EQ(server.submitted(), 120u);
    EXPECT_EQ(server.processed(), 120u);
    EXPECT_EQ(server.dropped(), 0u);
    for (int m = 0; m < 3; ++m) {
        entries[m]->withEstimator([&](OnlinePowerEstimator &e) {
            // Bitwise agreement: the served path runs each machine's
            // samples serially in arrival order.
            EXPECT_EQ(e.lastEstimateW(), serial[m].lastEstimateW());
            EXPECT_EQ(e.meanEstimateW(), serial[m].meanEstimateW());
            EXPECT_EQ(e.samples(), serial[m].samples());
            EXPECT_EQ(e.residuals().mean(),
                      serial[m].residuals().mean());
        });
    }
}

TEST(FleetServer, ThreadedDrainProcessesEverySample)
{
    setGlobalThreadCount(2);
    FleetServer server;
    std::vector<MachineEntry *> entries;
    for (int m = 0; m < 4; ++m) {
        entries.push_back(&server.addMachine(
            "m" + std::to_string(m), makeTestModel(11)));
    }
    server.start();

    const size_t perProducer = 2000;
    std::vector<std::thread> producers;
    for (int p = 0; p < 4; ++p) {
        producers.emplace_back([&, p] {
            for (size_t i = 0; i < perProducer; ++i) {
                server.submitTo(*entries[p],
                                catalogRow(i % 100, p * 10.0));
            }
        });
    }
    for (auto &producer : producers)
        producer.join();
    server.waitIdle();
    server.stop();
    setGlobalThreadCount(1);

    EXPECT_EQ(server.submitted(), 4 * perProducer);
    EXPECT_EQ(server.processed() + server.dropped(),
              server.submitted());
    // Capacity (4 shards x 8192) far exceeds the burst: no drops.
    EXPECT_EQ(server.dropped(), 0u);
    for (int m = 0; m < 4; ++m) {
        entries[m]->withEstimator([&](OnlinePowerEstimator &e) {
            EXPECT_EQ(e.samples(), perProducer);
        });
    }
}

TEST(FleetServer, ConcurrentDrainersNeverAliasScratch)
{
    // Multiple threads calling drainOnce() concurrently with live
    // producers: drainMu must serialize the passes so the shared
    // drain scratch (batch, grouping, views, watts) and the
    // estimators' member scratch (batchRows, rowScratch) are never
    // aliased by two passes at once. Run under TSan (tier-1's
    // CHAOS_SANITIZE=thread stage) this is the aliasing proof; in a
    // plain build it still checks exact sample accounting.
    setGlobalThreadCount(2);
    FleetServer server;
    std::vector<MachineEntry *> entries;
    for (int m = 0; m < 3; ++m) {
        entries.push_back(&server.addMachine(
            "m" + std::to_string(m), makeTestModel(5)));
    }

    const size_t perProducer = 3000;
    std::atomic<bool> producing{true};
    std::vector<std::thread> producers;
    for (int p = 0; p < 2; ++p) {
        producers.emplace_back([&, p] {
            for (size_t i = 0; i < perProducer; ++i) {
                server.submitTo(*entries[(p + i) % 3],
                                catalogRow(i % 100, p * 10.0));
            }
        });
    }
    std::vector<std::thread> drainers;
    for (int d = 0; d < 3; ++d) {
        drainers.emplace_back([&] {
            while (producing.load()) {
                if (server.drainOnce() == 0)
                    std::this_thread::yield();
            }
        });
    }
    for (auto &producer : producers)
        producer.join();
    producing.store(false);
    for (auto &drainer : drainers)
        drainer.join();
    while (server.drainOnce() > 0) {
    }
    setGlobalThreadCount(1);

    EXPECT_EQ(server.submitted(), 2 * perProducer);
    EXPECT_EQ(server.processed() + server.dropped(),
              server.submitted());
    EXPECT_EQ(server.dropped(), 0u);
    uint64_t perMachine = 0;
    for (int m = 0; m < 3; ++m) {
        entries[m]->withEstimator([&](OnlinePowerEstimator &e) {
            perMachine += e.samples();
        });
    }
    EXPECT_EQ(perMachine, 2 * perProducer);
}

TEST(FleetServer, DropOldestEngagesAndIsCounted)
{
    obs::EventLog::instance().clear();
    FleetServerConfig config;
    config.numShards = 1;
    config.queueCapacity = 4;
    FleetServer server(config);
    MachineEntry &entry = server.addMachine("m0", makeTestModel(3));

    // No drainer running: pushes 5..10 evict the oldest each time.
    for (int i = 0; i < 10; ++i)
        server.submitTo(entry, catalogRow(i, i));
    EXPECT_EQ(server.submitted(), 10u);
    EXPECT_EQ(server.dropped(), 6u);

    while (server.drainOnce() > 0) {
    }
    EXPECT_EQ(server.processed(), 4u);
    EXPECT_EQ(server.processed() + server.dropped(),
              server.submitted());

    // One backpressure event for the whole saturation episode.
    size_t backpressureEvents = 0;
    for (const obs::Event &event :
         obs::EventLog::instance().snapshot()) {
        if (event.kind == obs::EventKind::Backpressure) {
            ++backpressureEvents;
            EXPECT_EQ(event.source, "m0");
        }
    }
    EXPECT_EQ(backpressureEvents, 1u);

    const FleetSnapshot snap = server.snapshot();
    EXPECT_EQ(snap.samplesDropped, 6u);
    EXPECT_EQ(snap.samplesProcessed, 4u);
}

/**
 * Backpressure loss is attributed to the machine whose sample was
 * evicted, and the per-machine counts surface in fleet snapshots —
 * so "who lost telemetry" is answerable, not just "how much".
 */
TEST(FleetServer, DropCountsAreAttributedPerMachine)
{
    FleetServerConfig config;
    config.numShards = 1;
    config.queueCapacity = 4;
    FleetServer server(config);
    MachineEntry &first = server.addMachine("m0", makeTestModel(3));
    MachineEntry &second = server.addMachine("m1", makeTestModel(3));

    // No drainer: 3 m0 samples then 7 m1 samples through a 4-deep
    // queue evict m0's three and m1's first three, oldest first.
    for (int i = 0; i < 3; ++i)
        server.submitTo(first, catalogRow(i, i));
    for (int i = 0; i < 7; ++i)
        server.submitTo(second, catalogRow(i, i));
    EXPECT_EQ(server.dropped(), 6u);
    EXPECT_EQ(first.droppedSamples(), 3u);
    EXPECT_EQ(second.droppedSamples(), 3u);

    while (server.drainOnce() > 0) {
    }
    const FleetSnapshot snap = server.snapshot();
    ASSERT_EQ(snap.machines.size(), 2u);
    for (const MachineSnapshot &machine : snap.machines) {
        EXPECT_EQ(machine.dropped, 3u) << machine.id;
    }
    EXPECT_EQ(snap.samplesDropped, 6u);
}

TEST(FleetServer, SubmitToUnknownMachineRaises)
{
    FleetServer server;
    server.addMachine("known", makeTestModel(5));
    EXPECT_RAISES(server.submit("ghost", catalogRow(1, 2)),
                  "unknown machine id 'ghost'");
}

TEST(FleetServer, SnapshotAggregatesFleet)
{
    FleetServer server;
    MachineEntry &a = server.addMachine("a", makeTestModel(5, 25.0));
    MachineEntry &b = server.addMachine("b", makeTestModel(5, 80.0));
    server.submitTo(a, catalogRow(50, 50));
    server.submitTo(b, catalogRow(50, 50));
    while (server.drainOnce() > 0) {
    }

    const FleetSnapshot snap = server.snapshot();
    ASSERT_EQ(snap.machines.size(), 2u);
    EXPECT_EQ(snap.machines[0].id, "a");
    EXPECT_EQ(snap.machines[1].id, "b");
    EXPECT_DOUBLE_EQ(snap.clusterW, snap.machines[0].watts +
                                        snap.machines[1].watts);
    EXPECT_GT(snap.machines[1].watts, snap.machines[0].watts + 30.0);
    EXPECT_EQ(snap.healthy, 2u);
    EXPECT_EQ(snap.degraded + snap.stale + snap.lost, 0u);
    EXPECT_EQ(snap.samplesProcessed, 2u);

    // Sequence numbers advance per snapshot; JSON stays well-formed.
    const FleetSnapshot next = server.snapshot();
    EXPECT_EQ(next.seq, snap.seq + 1);
    EXPECT_FALSE(snap.toJson().empty());
    EXPECT_EQ(snap.toJson().front(), '{');
    EXPECT_EQ(snap.toJson().back(), '}');
}

/**
 * Eq. 5 under telemetry loss: three machines with the Core2 envelope,
 * fed one sample each per tick and drained once per tick.
 */
class FleetServerLoss : public ::testing::Test
{
  protected:
    static constexpr double kNan =
        std::numeric_limits<double>::quiet_NaN();

    void
    SetUp() override
    {
        for (int m = 0; m < 3; ++m) {
            entries.push_back(&server.addMachine(
                "m" + std::to_string(m), makeTestModel(7), envelope()));
        }
    }

    static OnlineEstimatorConfig
    envelope()
    {
        return OnlineEstimatorConfig::forSpec(spec());
    }

    static MachineSpec
    spec()
    {
        return machineSpecFor(MachineClass::Core2);
    }

    static std::vector<double>
    cleanRow(int t)
    {
        return catalogRow(2.0 * t, 100.0 - t);
    }

    static std::vector<double>
    allNan()
    {
        return std::vector<double>(CounterCatalog::instance().size(),
                                   kNan);
    }

    /** One tick: machine 0 gets @p row0, the others a clean row. */
    FleetSnapshot
    tick(const std::vector<double> &row0, int t)
    {
        server.submitTo(*entries[0], row0);
        server.submitTo(*entries[1], cleanRow(t));
        server.submitTo(*entries[2], cleanRow(t));
        while (server.drainOnce() > 0) {
        }
        return server.snapshot();
    }

    FleetServer server;
    std::vector<MachineEntry *> entries;
};

TEST_F(FleetServerLoss, SurvivesSingleMachineLoss)
{
    for (int t = 0; t < 20; ++t)
        tick(cleanRow(t), t);
    EXPECT_EQ(server.snapshot().healthy, 3u);

    // Machine 0 goes dark; the cluster total must stay finite and
    // the lost machine's substitute must stay inside its envelope,
    // bounding its error by the dynamic range.
    FleetSnapshot snap;
    for (int t = 20; t < 40; ++t) {
        snap = tick(allNan(), t);
        EXPECT_TRUE(std::isfinite(snap.clusterW));
    }
    EXPECT_EQ(snap.machines[0].health, MachineHealth::Lost);
    EXPECT_EQ(snap.lost, 1u);
    EXPECT_EQ(snap.healthy, 2u);
    EXPECT_GE(snap.clusterW, 3.0 * spec().idlePowerW);
    EXPECT_LE(snap.clusterW, 3.0 * spec().maxPowerW);
    EXPECT_EQ(snap.samplesProcessed, 120u);
}

TEST_F(FleetServerLoss, LostMachineRecoverySnapsClusterSumBack)
{
    for (int t = 0; t < 20; ++t)
        tick(cleanRow(t), t);
    for (int t = 20; t < 35; ++t)
        tick(allNan(), t);
    ASSERT_EQ(server.snapshot().machines[0].health,
              MachineHealth::Lost);

    // Telemetry returns: the very next clean sample flips the
    // machine back to Healthy, and — because a fully-valid row is
    // evaluated by the model alone, independent of outage history —
    // the cluster sum snaps back to exactly three healthy machines'
    // worth of the same row.
    const FleetSnapshot snap = tick(cleanRow(36), 36);
    EXPECT_EQ(snap.machines[0].health, MachineHealth::Healthy);
    EXPECT_EQ(snap.healthy, 3u);
    EXPECT_EQ(snap.lost, 0u);

    OnlinePowerEstimator reference(makeTestModel(7), envelope());
    const double healthyOne = reference.estimate(cleanRow(36));
    EXPECT_DOUBLE_EQ(snap.clusterW, 3.0 * healthyOne);
}

TEST(FleetServer, HealthEventsCarryTheMachineId)
{
    const OnlineEstimatorConfig core2 =
        OnlineEstimatorConfig::forSpec(machineSpecFor(MachineClass::Core2));
    OnlineEstimatorConfig labelled = core2;
    labelled.sourceLabel = "rack7";
    FleetServer server;
    MachineEntry &plain = server.addMachine("m0", makeTestModel(7), core2);
    MachineEntry &rack =
        server.addMachine("m1", makeTestModel(7), labelled);

    obs::EventLog::instance().clear();
    const std::vector<double> allNan(
        CounterCatalog::instance().size(),
        std::numeric_limits<double>::quiet_NaN());
    server.submitTo(plain, catalogRow(10, 20));
    server.submitTo(rack, catalogRow(10, 20));
    server.submitTo(plain, allNan);
    server.submitTo(rack, allNan);
    while (server.drainOnce() > 0) {
    }

    bool saw_m0 = false, saw_rack7 = false;
    for (const auto &e : obs::EventLog::instance().snapshot()) {
        saw_m0 = saw_m0 || e.source == "m0";
        saw_rack7 = saw_rack7 || e.source == "rack7";
    }
    EXPECT_TRUE(saw_m0);
    EXPECT_TRUE(saw_rack7);
}

TEST(FleetServer, PeriodicSnapshotsEveryNSamples)
{
    FleetServerConfig config;
    config.snapshotEverySamples = 10;
    FleetServer server(config);
    MachineEntry &entry = server.addMachine("m0", makeTestModel(9));

    size_t callbacks = 0;
    server.onSnapshot([&](const FleetSnapshot &) { ++callbacks; });
    for (int i = 0; i < 35; ++i)
        server.submitTo(entry, catalogRow(i, i));
    while (server.drainOnce() > 0) {
    }

    EXPECT_EQ(server.snapshots().size(), 3u);
    EXPECT_EQ(callbacks, 3u);
}

/**
 * Records every estimate per machine. Each machine's vector is
 * created before draining, so concurrent calls for different machines
 * touch disjoint storage.
 */
class RecordingObserver : public SampleObserver
{
  public:
    void onSample(MachineEntry &entry, OnlinePowerEstimator &,
                  double estimateW, double) override
    {
        estimates.at(&entry).push_back(estimateW);
    }

    std::unordered_map<const MachineEntry *, std::vector<double>>
        estimates;
};

/** parallelFor calls so far (pooled jobs plus inline loops). */
std::uint64_t
parallelForCalls()
{
    obs::Registry &registry = obs::Registry::instance();
    return registry.counter("chaos.parallel.jobs_posted").value() +
           registry.counter("chaos.parallel.inline_loops").value();
}

TEST(FleetServer, FullPassFanOutMatchesSerialEstimator)
{
    constexpr std::size_t kBatch = 32;
    constexpr int kMachines = 64;
    constexpr int kTicks = 40;
    auto rowFor = [](int t, int m) {
        return catalogRow((t * 7 + m * 3) % 100, 100.0 - (t + m) % 90);
    };
    auto meterFor = [](int t, int m) { return 25.0 + 0.2 * t + m; };

    // The reference: one serial estimator per machine.
    std::vector<std::vector<double>> serial(kMachines);
    for (int m = 0; m < kMachines; ++m) {
        OnlinePowerEstimator estimator(makeTestModel(7 + m % 3));
        for (int t = 0; t < kTicks; ++t) {
            serial[m].push_back(estimator.estimateWithReference(
                rowFor(t, m), meterFor(t, m)));
        }
    }

    std::vector<std::vector<std::vector<double>>> served;
    for (const std::size_t threads : {1u, 4u}) {
        setGlobalThreadCount(threads);
        FleetServerConfig config;
        config.numShards = 4;
        config.maxBatch = kBatch;
        FleetServer server(config);
        RecordingObserver observer;
        std::vector<MachineEntry *> entries;
        for (int m = 0; m < kMachines; ++m) {
            entries.push_back(&server.addMachine(
                "m" + std::to_string(m), makeTestModel(7 + m % 3)));
            observer.estimates[entries.back()];
        }
        server.setSampleObserver(&observer);

        // Preload everything but m0's last sample: 2559 samples make
        // 79 full passes (fanned out) and one serial pass of 31; m0's
        // last sample then drains alone in a serial pass of 1.
        for (int t = 0; t < kTicks; ++t) {
            for (int m = 0; m < kMachines; ++m) {
                if (t + 1 < kTicks || m != 0)
                    server.submitTo(*entries[m], rowFor(t, m),
                                    meterFor(t, m));
            }
        }
        std::vector<std::size_t> passes;
        auto drainAll = [&] {
            for (;;) {
                const std::uint64_t calls = parallelForCalls();
                const std::size_t n = server.drainOnce();
                if (n == 0)
                    break;
                passes.push_back(n);
                // One fan-out per full pass; a short pass stays on
                // the draining thread.
                EXPECT_EQ(parallelForCalls() - calls,
                          n == kBatch ? 1u : 0u)
                    << "pass " << passes.size() << " of " << n;
            }
        };
        drainAll();
        server.submitTo(*entries[0], rowFor(kTicks - 1, 0),
                        meterFor(kTicks - 1, 0));
        drainAll();
        server.setSampleObserver(nullptr);

        ASSERT_EQ(passes.size(), 81u);
        EXPECT_EQ(std::count(passes.begin(), passes.end(), kBatch),
                  79);
        EXPECT_EQ(passes[79], 31u);
        EXPECT_EQ(passes[80], 1u);
        EXPECT_EQ(server.processed(), server.submitted());

        served.emplace_back();
        for (int m = 0; m < kMachines; ++m) {
            // Bitwise agreement with the serial estimator, in order.
            EXPECT_EQ(observer.estimates.at(entries[m]), serial[m])
                << "m" << m << " threads " << threads;
            served.back().push_back(observer.estimates.at(entries[m]));
        }
    }
    setGlobalThreadCount(1);
    EXPECT_EQ(served[0], served[1]);
}

TEST(FleetServer, PeriodicSnapshotRingKeepsLatest)
{
    constexpr std::size_t kTaken = FleetServer::kRetainedSnapshots + 5;
    FleetServerConfig config;
    config.snapshotEverySamples = 10;
    FleetServer server(config);
    MachineEntry &entry = server.addMachine("m0", makeTestModel(9));

    // The callback sees the stored snapshot itself, not a copy.
    std::vector<const FleetSnapshot *> seen;
    server.onSnapshot([&](const FleetSnapshot &snap) {
        seen.push_back(&snap);
        EXPECT_EQ(&snap, server.snapshots().back().get());
    });
    for (std::size_t i = 0; i < 10 * kTaken; ++i)
        server.submitTo(entry, catalogRow(i % 100, 50.0));
    while (server.drainOnce() > 0) {
    }

    EXPECT_EQ(seen.size(), kTaken);
    const auto retained = server.snapshots();
    ASSERT_EQ(retained.size(), FleetServer::kRetainedSnapshots);
    for (std::size_t i = 0; i < retained.size(); ++i) {
        // The latest ones, consecutive, oldest first.
        EXPECT_EQ(retained[i]->seq, kTaken - retained.size() + i + 1);
        EXPECT_EQ(retained[i].get(), seen[kTaken - retained.size() + i]);
    }
    EXPECT_EQ(retained.back()->samplesProcessed, 10 * kTaken);
}

TEST(FleetServer, SnapshotOrderIncludesMachinesAddedWhileRunning)
{
    FleetServerConfig config;
    config.snapshotEverySamples = 8;
    FleetServer server(config);
    std::mutex mu;
    std::vector<std::vector<std::string>> periodic;
    server.onSnapshot([&](const FleetSnapshot &snap) {
        std::vector<std::string> ids;
        for (const MachineSnapshot &m : snap.machines)
            ids.push_back(m.id);
        std::lock_guard<std::mutex> lock(mu);
        periodic.push_back(std::move(ids));
    });
    auto periodicCount = [&] {
        std::lock_guard<std::mutex> lock(mu);
        return periodic.size();
    };

    std::vector<std::string> expected;
    auto add = [&](const std::string &id) {
        server.addMachine(id, makeTestModel(3));
        expected.push_back(id);
        std::vector<std::string> sorted = expected;
        std::sort(sorted.begin(), sorted.end());
        std::vector<std::string> ids;
        for (const MachineSnapshot &m : server.snapshot().machines)
            ids.push_back(m.id);
        EXPECT_EQ(ids, sorted) << "after adding " << id;
        return sorted;
    };
    // Feed 16 samples per machine and wait for the 2 snapshots per
    // machine they trigger: waitIdle() alone can return before the
    // pass that processed the last sample emitted its snapshot.
    auto feed = [&] {
        const std::size_t target = periodicCount() + 2 * expected.size();
        for (int i = 0; i < 16; ++i) {
            for (const std::string &id : expected)
                server.submit(id, catalogRow(i, 50.0));
        }
        while (periodicCount() < target)
            std::this_thread::yield();
    };

    std::vector<std::string> before;
    for (const char *id : {"m07", "m02", "m11", "m05"})
        before = add(id);
    server.start();
    feed();
    std::vector<std::string> after;
    for (const char *id : {"m09", "m01", "m13", "m03"})
        after = add(id);
    feed();
    server.stop();

    std::lock_guard<std::mutex> lock(mu);
    const std::size_t firstPhase = 2 * before.size();
    ASSERT_EQ(periodic.size(), firstPhase + 2 * after.size());
    for (std::size_t i = 0; i < periodic.size(); ++i)
        EXPECT_EQ(periodic[i], i < firstPhase ? before : after) << i;
}

TEST(FleetServer, SnapshotRingReadWhileDraining)
{
    setGlobalThreadCount(2);
    FleetServerConfig config;
    config.snapshotEverySamples = 8;
    config.idleSleepMicros = 20;
    FleetServer server(config);
    std::vector<MachineEntry *> entries;
    for (int m = 0; m < 6; ++m) {
        entries.push_back(&server.addMachine(
            "m" + std::to_string(m), makeTestModel(5)));
    }
    server.start();

    std::atomic<bool> producing{true};
    std::size_t reads = 0;
    std::thread reader([&] {
        while (producing.load()) {
            std::uint64_t lastSeq = 0;
            for (const auto &snap : server.snapshots()) {
                EXPECT_EQ(snap->machines.size(), entries.size());
                EXPECT_GT(snap->seq, lastSeq);
                lastSeq = snap->seq;
            }
            EXPECT_EQ(server.snapshot().machines.size(),
                      entries.size());
            ++reads;
        }
    });
    const std::size_t total = 4000;
    for (std::size_t i = 0; i < total; ++i)
        server.submitTo(*entries[i % entries.size()],
                        catalogRow(i % 100, 50.0));
    server.waitIdle();
    producing.store(false);
    reader.join();
    server.stop();
    setGlobalThreadCount(1);

    EXPECT_GT(reads, 0u);
    EXPECT_EQ(server.submitted(), total);
    EXPECT_EQ(server.processed() + server.dropped(), total);
    EXPECT_EQ(server.dropped(), 0u);
    EXPECT_EQ(server.snapshots().size(), FleetServer::kRetainedSnapshots);
}

TEST(FleetServer, OnDemandSnapshotsStayConsistentWhileServing)
{
    // Snapshots read the published per-machine slots without entry
    // locks. Every sample is metered, so in any single publication a
    // machine's residual count equals its sample count, and an
    // unquarantined machine serves its model's watts: a torn read
    // would break one of these. A third thread quarantines and lifts
    // one machine, a fourth adds machines, all while the drainer runs.
    setGlobalThreadCount(2);
    FleetServerConfig config;
    config.idleSleepMicros = 20;
    FleetServer server(config);
    std::vector<MachineEntry *> entries;
    for (int m = 0; m < 6; ++m) {
        entries.push_back(&server.addMachine(
            "m" + std::to_string(m), makeTestModel(5)));
    }
    server.start();

    std::atomic<bool> serving{true};
    std::size_t reads = 0;
    std::thread reader([&] {
        while (serving.load()) {
            for (const MachineSnapshot &m : server.snapshot().machines) {
                EXPECT_EQ(m.residualSamples, m.samples) << m.id;
                if (!m.quarantined) {
                    EXPECT_EQ(m.watts, m.modelW) << m.id;
                }
            }
            ++reads;
        }
    });
    std::thread toggler([&] {
        while (serving.load()) {
            entries[0]->engageQuarantine(nullptr);
            entries[0]->liftQuarantine();
        }
    });
    std::thread adder([&] {
        for (int k = 0; k < 20; ++k)
            server.addMachine("late" + std::to_string(k),
                              makeTestModel(6));
    });
    const std::size_t total = 6000;
    for (std::size_t i = 0; i < total; ++i) {
        server.submitTo(*entries[i % entries.size()],
                        catalogRow(i % 100, 50.0),
                        30.0 + static_cast<double>(i % 7));
    }
    adder.join();
    server.waitIdle();
    serving.store(false);
    reader.join();
    toggler.join();
    server.stop();
    setGlobalThreadCount(1);

    EXPECT_GT(reads, 0u);
    EXPECT_EQ(server.processed(), total);
    EXPECT_EQ(server.snapshot().machines.size(), entries.size() + 20);
}

TEST(FleetServer, HotSwapUnderActiveProducerLosesNothing)
{
    setGlobalThreadCount(2);
    FleetServer server;
    MachineEntry &entry =
        server.addMachine("m0", makeTestModel(13, 25.0));
    server.start();

    const std::vector<double> row = catalogRow(50.0, 50.0);
    std::atomic<bool> swapped{false};
    std::thread producer([&] {
        for (int i = 0; i < 6000; ++i) {
            server.submitTo(entry, std::vector<double>(row));
            if (i == 3000) {
                // Swap mid-stream, while the drainer is active.
                server.swapModel("m0", makeTestModel(13, 100.0));
                swapped.store(true);
            }
        }
    });
    producer.join();
    server.waitIdle();
    server.stop();
    setGlobalThreadCount(1);

    ASSERT_TRUE(swapped.load());
    // Not a sample dropped or duplicated across the swap...
    EXPECT_EQ(server.submitted(), 6000u);
    EXPECT_EQ(server.processed(), 6000u);
    EXPECT_EQ(server.dropped(), 0u);
    entry.withEstimator([&](OnlinePowerEstimator &e) {
        EXPECT_EQ(e.samples(), 6000u);
        // ...and the new model is what serves afterwards: the last
        // estimate reflects the ~75 W heavier swapped-in model.
        EXPECT_GT(e.lastEstimateW(), 90.0);
    });
}

TEST(FleetServer, StopFlushesPendingSamples)
{
    FleetServer server;
    MachineEntry &entry = server.addMachine("m0", makeTestModel(17));
    server.start();
    for (int i = 0; i < 500; ++i)
        server.submitTo(entry, catalogRow(i % 100, 50));
    // stop() without waitIdle(): the flush must still account for
    // every submitted sample.
    server.stop();
    EXPECT_FALSE(server.running());
    EXPECT_EQ(server.processed() + server.dropped(),
              server.submitted());
}

TEST(FleetServer, StageHistogramsTrackDrainedSamples)
{
    // Stage histograms are process-global, so assert on deltas.
    StageMetrics &stages = StageMetrics::get();
    const std::uint64_t wait0 = stages.queueWaitUs.count();
    const std::uint64_t e2e0 = stages.e2eUs.count();
    const std::uint64_t batch0 = stages.drainBatchUs.count();
    const std::uint64_t predict0 = stages.predictUs.count();

    setStageTracingEnabled(true);
    FleetServerConfig config;
    config.numShards = 1;
    FleetServer server(config);
    MachineEntry &entry = server.addMachine("m0", makeTestModel(5));
    for (int t = 0; t < 32; ++t)
        server.submitTo(entry, catalogRow(t * 1.0, 50.0), 25.0);
    while (server.drainOnce() > 0) {
    }

    // Every drained sample lands one queue-wait and one end-to-end
    // observation; batch/predict count once per drain pass.
    EXPECT_EQ(stages.queueWaitUs.count() - wait0, 32u);
    EXPECT_EQ(stages.e2eUs.count() - e2e0, 32u);
    EXPECT_GT(stages.drainBatchUs.count(), batch0);
    EXPECT_GT(stages.predictUs.count(), predict0);

    // The JSON surface always parses and exposes the five stages.
    obs::JsonValue latency;
    ASSERT_TRUE(obs::jsonParse(stageLatencyJson(), latency));
    for (const char *key : {"decode_us", "queue_wait_us",
                            "drain_batch_us", "predict_us", "e2e_us"}) {
        const obs::JsonValue *stage = latency.find(key);
        ASSERT_NE(stage, nullptr) << key;
        for (const char *field : {"p50", "p99", "count"})
            EXPECT_NE(stage->find(field), nullptr) << field;
    }

    // With tracing off, samples are unstamped and drained without
    // touching any stage histogram.
    setStageTracingEnabled(false);
    const std::uint64_t waitOff = stages.queueWaitUs.count();
    const std::uint64_t e2eOff = stages.e2eUs.count();
    const std::uint64_t batchOff = stages.drainBatchUs.count();
    for (int t = 0; t < 16; ++t)
        server.submitTo(entry, catalogRow(t * 1.0, 50.0), 25.0);
    while (server.drainOnce() > 0) {
    }
    setStageTracingEnabled(true);
    EXPECT_EQ(stages.queueWaitUs.count(), waitOff);
    EXPECT_EQ(stages.e2eUs.count(), e2eOff);
    EXPECT_EQ(stages.drainBatchUs.count(), batchOff);
    EXPECT_EQ(server.processed(), 48u);
}

} // namespace
} // namespace chaos::serve
