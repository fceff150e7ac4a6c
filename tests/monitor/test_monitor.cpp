/**
 * @file
 * Integration tests for the fleet model-quality monitor: clean
 * replays stay quiet, an injected stuck-counter fault raises
 * ModelDrift within bounded ticks, drift state resets on hot-swap,
 * telemetry export is well-formed JSONL, and the chaos.monitor.*
 * metrics preserve the deterministic-snapshot contract.
 */
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "../serve/serve_support.hpp"

#include "faults/injectors.hpp"
#include "monitor/exporter.hpp"
#include "monitor/fleet_monitor.hpp"
#include "obs/events.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"
#include "util/result.hpp"

namespace chaos {
namespace {

using serve_testing::catalogRow;
using serve_testing::makeTestModel;

constexpr double kBaseW = 25.0;

/** The true power the serve-test model approximates. */
double
truePowerW(double u0, double u1)
{
    return kBaseW + 0.1 * u0 + 0.08 * u1;
}

/** Drain everything currently queued, on the calling thread. */
void
drainAll(serve::FleetServer &server)
{
    while (server.processed() + server.dropped() < server.submitted())
        server.drainOnce();
}

monitor::QualityMonitorConfig
testMonitorConfig()
{
    monitor::QualityMonitorConfig config;
    config.warmupSamples = 100;
    config.windowSamples = 60;
    return config;
}

TEST(FleetMonitor, CleanReplayEmitsZeroDriftEvents)
{
    serve::FleetServer server;
    std::vector<serve::MachineEntry *> entries;
    for (int m = 0; m < 3; ++m) {
        entries.push_back(&server.addMachine(
            "machine" + std::to_string(m), makeTestModel(17)));
    }
    monitor::FleetMonitor fleetMonitor(testMonitorConfig());
    fleetMonitor.attach(server);

    Rng rng(99);
    for (int t = 0; t < 500; ++t) {
        for (auto *entry : entries) {
            const double u0 = rng.uniform(0.0, 100.0);
            const double u1 = rng.uniform(0.0, 100.0);
            server.submitTo(*entry, catalogRow(u0, u1),
                            truePowerW(u0, u1) +
                                rng.normal(0.0, 0.05));
        }
        drainAll(server);
    }

    EXPECT_EQ(fleetMonitor.driftEvents(), 0u);
    const monitor::QualitySnapshot snap = fleetMonitor.snapshot();
    ASSERT_EQ(snap.machines.size(), 3u);
    for (const auto &machine : snap.machines) {
        EXPECT_EQ(machine.quality, ModelQuality::Ok) << machine.id;
        EXPECT_FALSE(machine.drifted);
        EXPECT_LT(machine.windowRmseW, 1.0);
    }
    EXPECT_EQ(snap.driftingCount(), 0u);
}

/**
 * The drift end-to-end: machine0's counter vectors pass through a
 * stuck-counter fault injector (freezing them at their tick-0
 * values) while the metered references stay true. While the workload
 * is stationary the frozen estimate still matches the meter; when
 * the true load shifts, the meter follows and the estimate cannot —
 * the residual mean jumps and the detector must latch within a
 * bounded number of ticks. machine1 sees the same load shift with
 * healthy telemetry and must NOT be flagged.
 */
TEST(FleetMonitor, StuckCounterFaultRaisesModelDriftWithinBoundedTicks)
{
    serve::FleetServer server;
    serve::MachineEntry &faulted =
        server.addMachine("machine0", makeTestModel(17));
    serve::MachineEntry &healthy =
        server.addMachine("machine1", makeTestModel(17));
    monitor::FleetMonitor fleetMonitor(testMonitorConfig());
    fleetMonitor.attach(server);

    FaultProfile profile;
    profile.stuckOnsetRate = 1.0;     // Freeze immediately...
    profile.stuckMeanSeconds = 1e9;   // ...and never recover.
    CounterFaultInjector injector(profile, Rng(5));

    const std::uint64_t eventsBefore =
        obs::EventLog::instance().totalEmitted();
    constexpr int kShiftTick = 200;  // After the 100-sample warmup.
    constexpr int kMaxTicks = 400;
    int firedAt = -1;
    Rng rng(31);
    for (int t = 0; t < kMaxTicks && firedAt < 0; ++t) {
        // Stationary load before the shift, high load after it.
        const double lo = t < kShiftTick ? 20.0 : 80.0;
        const double u0 = rng.uniform(lo, lo + 20.0);
        const double u1 = rng.uniform(lo, lo + 20.0);
        const double metered =
            truePowerW(u0, u1) + rng.normal(0.0, 0.05);
        server.submitTo(faulted, injector.apply(catalogRow(u0, u1)),
                        metered);
        server.submitTo(healthy, catalogRow(u0, u1), metered);
        drainAll(server);
        if (fleetMonitor.driftEvents() > 0)
            firedAt = t;
    }

    ASSERT_GE(firedAt, kShiftTick);
    EXPECT_LE(firedAt, kShiftTick + 30);
    EXPECT_EQ(fleetMonitor.driftEvents(), 1u);

    const monitor::QualitySnapshot snap = fleetMonitor.snapshot();
    ASSERT_EQ(snap.machines.size(), 2u);
    EXPECT_EQ(snap.machines[0].id, "machine0");
    EXPECT_EQ(snap.machines[0].quality, ModelQuality::Drifting);
    EXPECT_EQ(snap.machines[1].quality, ModelQuality::Ok);

    // The verdict is written back onto the estimator, so fleet
    // snapshots carry it too.
    const serve::FleetSnapshot fleet = server.snapshot();
    EXPECT_EQ(fleet.machines[0].quality, ModelQuality::Drifting);
    EXPECT_EQ(fleet.machines[1].quality, ModelQuality::Ok);
    EXPECT_EQ(fleet.drifting, 1u);

    // And a ModelDrift event names the faulted machine.
    bool found = false;
    for (const obs::Event &event :
         obs::EventLog::instance().snapshot()) {
        if (event.seq >= eventsBefore &&
            event.kind == obs::EventKind::ModelDrift &&
            event.source == "machine0")
            found = true;
    }
    EXPECT_TRUE(found);
}

TEST(FleetMonitor, HotSwapResetsTheQualityVerdict)
{
    serve::FleetServer server;
    serve::MachineEntry &entry =
        server.addMachine("machine0", makeTestModel(17));
    monitor::QualityMonitorConfig config = testMonitorConfig();
    config.warmupSamples = 50;
    monitor::FleetMonitor fleetMonitor(config);
    fleetMonitor.attach(server);

    // Warm up on unbiased residuals, then force a drift with a large
    // sustained bias.
    Rng rng(7);
    for (int t = 0; t < 60; ++t) {
        const double u0 = rng.uniform(0.0, 100.0);
        const double u1 = rng.uniform(0.0, 100.0);
        server.submitTo(entry, catalogRow(u0, u1),
                        truePowerW(u0, u1) + rng.normal(0.0, 0.05));
    }
    drainAll(server);
    for (int t = 0; t < 100 && fleetMonitor.driftEvents() == 0; ++t) {
        const double u0 = rng.uniform(0.0, 100.0);
        const double u1 = rng.uniform(0.0, 100.0);
        server.submitTo(entry, catalogRow(u0, u1),
                        truePowerW(u0, u1) + 25.0);
        drainAll(server);
    }
    ASSERT_EQ(fleetMonitor.driftEvents(), 1u);
    EXPECT_EQ(fleetMonitor.snapshot().machines[0].quality,
              ModelQuality::Drifting);

    // Deploying a replacement model clears the verdict: the tracker
    // restarts its warmup and the estimator reports Unknown again.
    server.swapModel("machine0", makeTestModel(17, 40.0));
    const monitor::QualitySnapshot snap = fleetMonitor.snapshot();
    EXPECT_EQ(snap.machines[0].quality, ModelQuality::Unknown);
    EXPECT_EQ(snap.machines[0].referenceSamples, 0u);
    entry.withEstimator([](OnlinePowerEstimator &e) {
        EXPECT_EQ(e.modelQuality(), ModelQuality::Unknown);
    });
}

/**
 * Hot-swap under live load with the monitor attached: a producer
 * streams samples through the background drainer while the main
 * thread repeatedly swaps models and reads quality snapshots. Run
 * under TSan this proves the swap path (deploy + tracker reset +
 * verdict write-back) cannot tear a ModelQuality transition; the
 * inline assertions pin every observed verdict to a valid state and
 * the final quiesced tracker to a coherent post-swap restart.
 */
TEST(FleetMonitor, HotSwapUnderLoadKeepsQualityTransitionsAtomic)
{
    serve::FleetServer server;
    serve::MachineEntry &entry =
        server.addMachine("machine0", makeTestModel(17));
    monitor::QualityMonitorConfig config;
    config.warmupSamples = 20;
    config.windowSamples = 16;
    monitor::FleetMonitor fleetMonitor(config);
    fleetMonitor.attach(server);
    server.start();

    std::atomic<bool> done{false};
    std::thread producer([&] {
        Rng rng(41);
        while (!done.load(std::memory_order_relaxed)) {
            const double u0 = rng.uniform(0.0, 100.0);
            const double u1 = rng.uniform(0.0, 100.0);
            server.submitTo(entry, catalogRow(u0, u1),
                            truePowerW(u0, u1) +
                                rng.normal(0.0, 0.05));
        }
    });

    for (int swap = 0; swap < 50; ++swap) {
        server.swapModel("machine0",
                         makeTestModel(17, 25.0 + (swap % 3) * 5.0));
        for (int reads = 0; reads < 20; ++reads) {
            const monitor::QualitySnapshot snap =
                fleetMonitor.snapshot();
            ASSERT_EQ(snap.machines.size(), 1u);
            const ModelQuality quality = snap.machines[0].quality;
            EXPECT_TRUE(quality == ModelQuality::Unknown ||
                        quality == ModelQuality::Ok ||
                        quality == ModelQuality::Drifting)
                << static_cast<int>(quality);
        }
    }
    done.store(true);
    producer.join();
    server.stop();

    // Quiesced: the last swap restarted the tracker, and whatever
    // samples landed since form a coherent (reference count, verdict)
    // pair — warmup incomplete reads Unknown, complete reads a real
    // verdict.
    const monitor::QualitySnapshot snap = fleetMonitor.snapshot();
    const auto &machine = snap.machines[0];
    if (machine.referenceSamples < config.warmupSamples) {
        EXPECT_EQ(machine.quality, ModelQuality::Unknown);
    } else {
        EXPECT_NE(machine.quality, ModelQuality::Unknown);
    }
    entry.withEstimator([&](OnlinePowerEstimator &e) {
        EXPECT_EQ(e.modelQuality(), machine.quality);
    });
}

TEST(FleetMonitor, SnapshotIsConsistentWhileServing)
{
    // snapshot() reads each tracker's published line without the
    // entry lock. Within one publication the window holds
    // min(samples, windowSamples) residuals; a torn read breaks that.
    setGlobalThreadCount(2);
    serve::FleetServerConfig config;
    config.idleSleepMicros = 20;
    serve::FleetServer server(config);
    std::vector<serve::MachineEntry *> entries;
    for (int m = 0; m < 4; ++m) {
        entries.push_back(&server.addMachine("m" + std::to_string(m),
                                             makeTestModel(2)));
    }
    monitor::FleetMonitor monitor;
    monitor.attach(server);
    const std::uint64_t window = monitor.config().windowSamples;
    server.start();

    std::atomic<bool> serving{true};
    std::size_t reads = 0;
    std::thread reader([&] {
        while (serving.load()) {
            for (const auto &m : monitor.snapshot().machines) {
                EXPECT_EQ(m.windowFill,
                          std::min(m.referenceSamples, window))
                    << m.id;
            }
            ++reads;
        }
    });
    const std::size_t total = 4000;
    for (std::size_t i = 0; i < total; ++i) {
        server.submitTo(*entries[i % entries.size()],
                        catalogRow(i % 100, 50.0),
                        30.0 + static_cast<double>(i % 5));
    }
    server.waitIdle();
    serving.store(false);
    reader.join();
    server.stop();
    monitor.detach();
    setGlobalThreadCount(1);

    EXPECT_GT(reads, 0u);
    for (const auto &m : monitor.snapshot().machines)
        EXPECT_EQ(m.referenceSamples, total / entries.size());
}

TEST(FleetMonitor, TelemetryExportIsWellFormedJsonlPerLine)
{
    const std::string path =
        ::testing::TempDir() + "chaos_test_monitor_telemetry.jsonl";
    std::remove(path.c_str());

    serve::FleetServer server;
    serve::MachineEntry &entry =
        server.addMachine("machine0", makeTestModel(17));
    monitor::FleetMonitor fleetMonitor(testMonitorConfig());
    fleetMonitor.attach(server);
    monitor::TelemetryExporter telemetry(path);

    Rng rng(23);
    for (int t = 0; t < 20; ++t) {
        const double u0 = rng.uniform(0.0, 100.0);
        const double u1 = rng.uniform(0.0, 100.0);
        server.submitTo(entry, catalogRow(u0, u1),
                        truePowerW(u0, u1));
        drainAll(server);
        telemetry.writeFleet(server.snapshot(), t);
        telemetry.writeQuality(fleetMonitor.publishMetrics(), t);
        telemetry.writeMetrics(t);
    }
    telemetry.flush();
    EXPECT_EQ(telemetry.records(), 60u);

    std::ifstream file(path);
    ASSERT_TRUE(file.good());
    std::string line;
    size_t lines = 0;
    bool sawFleet = false, sawQuality = false, sawMetrics = false;
    while (std::getline(file, line)) {
        ++lines;
        EXPECT_TRUE(obs::jsonWellFormed(line)) << "line " << lines;
        sawFleet |=
            line.find("\"type\": \"fleet\"") != std::string::npos;
        sawQuality |=
            line.find("\"type\": \"quality\"") != std::string::npos;
        if (line.find("\"type\": \"metrics\"") != std::string::npos) {
            sawMetrics = true;
            // Every metrics record carries the event-ring drop count
            // so collectors can spot lost flight-recorder context.
            EXPECT_NE(line.find("\"events_dropped\": "),
                      std::string::npos)
                << line;
        }
    }
    EXPECT_EQ(lines, 60u);
    EXPECT_TRUE(sawFleet);
    EXPECT_TRUE(sawQuality);
    EXPECT_TRUE(sawMetrics);
    std::remove(path.c_str());
}

TEST(FleetMonitor, TelemetryExporterRaisesOnUnwritablePath)
{
    // The exporter sits above chaos_util, so the bool error of the
    // underlying JsonlWriter surfaces as a catchable RecoverableError
    // at construction, not a crash or a silent no-op sink.
    EXPECT_THROW(
        monitor::TelemetryExporter("/nonexistent-dir/x/t.jsonl"),
        RecoverableError);
    try {
        monitor::TelemetryExporter bad("/nonexistent-dir/x/t.jsonl");
    } catch (const RecoverableError &e) {
        EXPECT_NE(e.message().find("telemetry"), std::string::npos);
    }
}

/**
 * The determinism contract extended to the monitor: the same
 * monitored workload produces a bit-identical Stable metrics
 * snapshot whether the drain pool runs 1 thread or 8.
 */
TEST(FleetMonitor, MonitorMetricsPreserveSnapshotDeterminism)
{
    const auto runWork = [](size_t threads) {
        setGlobalThreadCount(threads);
        obs::Registry::instance().resetAll();
        serve::FleetServer server;
        std::vector<serve::MachineEntry *> entries;
        for (int m = 0; m < 4; ++m) {
            entries.push_back(&server.addMachine(
                "machine" + std::to_string(m), makeTestModel(17)));
        }
        monitor::QualityMonitorConfig config;
        config.warmupSamples = 20;
        config.windowSamples = 16;
        monitor::FleetMonitor fleetMonitor(config);
        fleetMonitor.attach(server);

        Rng rng(3);
        // Pre-generate so both runs submit identical samples.
        for (int t = 0; t < 100; ++t) {
            for (auto *entry : entries) {
                const double u0 = rng.uniform(0.0, 100.0);
                const double u1 = rng.uniform(0.0, 100.0);
                server.submitTo(*entry, catalogRow(u0, u1),
                                truePowerW(u0, u1) + 20.0);
            }
            drainAll(server);
        }
        fleetMonitor.publishMetrics();
        return obs::Registry::instance().snapshotJson(false);
    };

    const std::string serial = runWork(1);
    const std::string threaded = runWork(8);
    setGlobalThreadCount(1);
    EXPECT_EQ(serial, threaded);
    EXPECT_NE(serial.find("chaos.monitor.drift_events"),
              std::string::npos);
}

} // namespace
} // namespace chaos
