/**
 * @file
 * Tests for trace replay: per-machine regrouping of dataset rows,
 * machine-id naming, metered-reference forwarding, pacing modes, and
 * the stop flag.
 */
#include <atomic>

#include <gtest/gtest.h>

#include "../support/raises.hpp"
#include "serve_support.hpp"

#include "serve/replay.hpp"

namespace chaos::serve {
namespace {

using serve_testing::catalogRow;
using serve_testing::makeTestModel;

/** Trace with @p perMachine rows for machines 0..numMachines-1. */
Dataset
makeTrace(int numMachines, int perMachine)
{
    Dataset data;
    for (int t = 0; t < perMachine; ++t) {
        for (int m = 0; m < numMachines; ++m) {
            data.addRow(catalogRow(t * 3.0 + m, 100.0 - t),
                        30.0 + m + 0.1 * t, /*runId=*/0, m, "replay");
        }
    }
    return data;
}

TEST(TraceReplayer, EmptyDatasetRaises)
{
    Dataset empty;
    EXPECT_RAISES(TraceReplayer replayer(empty), "empty dataset");
}

TEST(TraceReplayer, GroupsRowsPerMachine)
{
    const Dataset data = makeTrace(3, 7);
    TraceReplayer replayer(data);
    EXPECT_EQ(replayer.numTicks(), 7u);
    EXPECT_EQ(replayer.numSamples(), 21u);
    ASSERT_EQ(replayer.machineIds().size(), 3u);
    EXPECT_EQ(replayer.machineIds()[0], "machine0");
    EXPECT_EQ(replayer.machineIds()[1], "machine1");
    EXPECT_EQ(replayer.machineIds()[2], "machine2");
}

TEST(TraceReplayer, ReplaySubmitsEverySampleOnce)
{
    const Dataset data = makeTrace(2, 25);
    TraceReplayer replayer(data);

    FleetServer server;
    for (const std::string &id : replayer.machineIds())
        server.addMachine(id, makeTestModel(21));
    server.start();
    const ReplayStats stats = replayer.replayInto(server, {});
    server.stop();

    EXPECT_EQ(stats.ticks, 25u);
    EXPECT_EQ(stats.submitted, 50u);
    EXPECT_EQ(server.submitted(), 50u);
    EXPECT_EQ(server.processed(), 50u);
    EXPECT_EQ(server.dropped(), 0u);
    server.machine("machine0")->withEstimator(
        [](OnlinePowerEstimator &e) {
            EXPECT_EQ(e.samples(), 25u);
        });
}

TEST(TraceReplayer, ForwardsMeteredReferenceWhenEnabled)
{
    const Dataset data = makeTrace(1, 10);
    TraceReplayer replayer(data);

    FleetServer server;
    server.addMachine("machine0", makeTestModel(23));
    replayer.replayInto(server, {});
    while (server.drainOnce() > 0) {
    }
    server.machine("machine0")->withEstimator([](OnlinePowerEstimator &e) {
        EXPECT_EQ(e.residuals().count(), 10u);
    });
}

TEST(TraceReplayer, UnregisteredMachineRaisesBeforeSubmitting)
{
    const Dataset data = makeTrace(2, 3);
    TraceReplayer replayer(data);
    FleetServer server;
    server.addMachine("machine0", makeTestModel(29));
    EXPECT_RAISES(replayer.replayInto(server, {}),
                  "'machine1' is not registered");
    EXPECT_EQ(server.submitted(), 0u);
}

TEST(TraceReplayer, RaggedTraceReplaysShortMachinesPartially)
{
    Dataset data;
    for (int t = 0; t < 6; ++t)
        data.addRow(catalogRow(t, t), 30.0, 0, /*machineId=*/0, "w");
    for (int t = 0; t < 2; ++t)
        data.addRow(catalogRow(t, t), 31.0, 0, /*machineId=*/1, "w");
    TraceReplayer replayer(data);
    EXPECT_EQ(replayer.numTicks(), 6u);

    FleetServer server;
    server.addMachine("machine0", makeTestModel(31));
    server.addMachine("machine1", makeTestModel(31));
    const ReplayStats stats = replayer.replayInto(server, {});
    EXPECT_EQ(stats.ticks, 6u);
    EXPECT_EQ(stats.submitted, 8u);
}

TEST(TraceReplayer, StopFlagEndsReplayEarly)
{
    const Dataset data = makeTrace(1, 100);
    TraceReplayer replayer(data);
    FleetServer server;
    server.addMachine("machine0", makeTestModel(37));
    const std::atomic<bool> stop{true};
    const ReplayStats stats = replayer.replayInto(server, {}, &stop);
    EXPECT_EQ(stats.ticks, 0u);
    EXPECT_EQ(stats.submitted, 0u);
}

TEST(TraceReplayer, PacedReplayTakesAtLeastTheTraceDuration)
{
    const Dataset data = makeTrace(1, 5);
    TraceReplayer replayer(data);
    FleetServer server;
    server.addMachine("machine0", makeTestModel(41));
    ReplayConfig config;
    config.speed = 500.0;  // 5 ticks => at least 10 ms of pacing.
    const auto start = std::chrono::steady_clock::now();
    replayer.replayInto(server, config);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_GE(std::chrono::duration<double>(elapsed).count(), 0.009);
}

} // namespace
} // namespace chaos::serve
