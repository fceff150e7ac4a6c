/**
 * @file
 * LoadGenerator tests: deterministic row synthesis (what the soak
 * verifier depends on), machine targeting modes, pacing, report
 * aggregation against a live server, and graceful handling of a dead
 * target.
 */
#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "net/ingest_server.hpp"
#include "net/loadgen.hpp"
#include "obs/json.hpp"
#include "serve/server.hpp"
#include "util/result.hpp"

#include "../serve/serve_support.hpp"

namespace chaos::net {
namespace {

using serve_testing::makeTestModel;

LoadGenConfig
baseConfig()
{
    LoadGenConfig cfg;
    cfg.machineIds = {"machine0", "machine1", "machine2"};
    cfg.rowSize = 8;
    cfg.samplesPerConnection = 10;
    cfg.connections = 2;
    return cfg;
}

TEST(LoadGen, RowSynthesisIsDeterministicPerSeed)
{
    const LoadGenConfig cfg = baseConfig();
    LoadGenerator a(cfg), b(cfg);
    std::vector<double> rowA, rowB;
    for (std::size_t conn = 0; conn < 3; ++conn) {
        for (std::size_t i = 0; i < 20; ++i) {
            a.fillRow(conn, i, rowA);
            b.fillRow(conn, i, rowB);
            EXPECT_EQ(rowA, rowB);
            const double ma = a.meteredFor(conn, i);
            const double mb = b.meteredFor(conn, i);
            EXPECT_TRUE((std::isnan(ma) && std::isnan(mb)) ||
                        ma == mb)
                << "conn " << conn << " i " << i;
        }
    }

    LoadGenConfig other = cfg;
    other.seed = cfg.seed + 1;
    LoadGenerator c(other);
    std::vector<double> rowC;
    a.fillRow(0, 0, rowA);
    c.fillRow(0, 0, rowC);
    EXPECT_NE(rowA, rowC);

    // Values are valid utilization-style inputs.
    for (double v : rowA) {
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 100.0);
    }
}

TEST(LoadGen, MachineTargetingModes)
{
    LoadGenConfig cfg = baseConfig();
    LoadGenerator roundRobin(cfg);
    // Default: every connection cycles through all machines.
    EXPECT_EQ(roundRobin.machineFor(0, 0), "machine0");
    EXPECT_EQ(roundRobin.machineFor(0, 1), "machine1");
    EXPECT_EQ(roundRobin.machineFor(1, 0), "machine1");
    EXPECT_EQ(roundRobin.machineFor(1, 5), "machine0");

    cfg.exclusiveMachines = true;
    LoadGenerator exclusive(cfg);
    for (std::size_t i = 0; i < 9; ++i) {
        EXPECT_EQ(exclusive.machineFor(0, i), "machine0");
        EXPECT_EQ(exclusive.machineFor(1, i), "machine1");
        EXPECT_EQ(exclusive.machineFor(4, i), "machine1");
    }
}

TEST(LoadGen, MeteredEveryAttachesPeriodicReadings)
{
    LoadGenConfig cfg = baseConfig();
    cfg.meteredEvery = 4;
    LoadGenerator gen(cfg);
    for (std::size_t i = 0; i < 16; ++i) {
        const double metered = gen.meteredFor(0, i);
        if (i % 4 == 0) {
            EXPECT_FALSE(std::isnan(metered)) << i;
            EXPECT_GE(metered, 0.0);
            EXPECT_LT(metered, 200.0);
        } else {
            EXPECT_TRUE(std::isnan(metered)) << i;
        }
    }
}

TEST(LoadGen, RunAgainstLiveServerAggregatesExactly)
{
    // One connection, a few, and more connections than workers: the
    // accounting must be exact at every point of the sweep.
    for (const std::size_t connections : {1u, 8u, 64u}) {
        SCOPED_TRACE("connections " + std::to_string(connections));
        LoadGenConfig cfg = baseConfig();
        cfg.connections = connections;
        cfg.samplesPerConnection = 250;
        cfg.rowSize = CounterCatalog::instance().size();
        cfg.window = 128;
        cfg.workers = 4;

        serve::FleetServerConfig fleetConfig;
        // Credits acknowledge acceptance into a queue, not
        // processing, so the window alone does not bound queue depth
        // when the drainer is starved of CPU. Every shard holds the
        // whole run (more than connections x window), so a reject
        // here is an accounting bug, not load.
        fleetConfig.queueCapacity =
            connections * cfg.samplesPerConnection;
        serve::FleetServer fleet(fleetConfig);
        const MachinePowerModel model = makeTestModel(3);
        for (const std::string &id : cfg.machineIds)
            fleet.addMachine(id, model);
        ChaosIngestServer ingest(fleet);
        ingest.start();
        fleet.start();

        cfg.port = ingest.port();
        LoadGenerator gen(cfg);
        const LoadGenReport report = gen.run();

        EXPECT_EQ(report.connectionsFailed, 0u) << report.firstError;
        EXPECT_EQ(report.sent, connections * 250u);
        EXPECT_EQ(report.accepted + report.rejected, report.sent);
        EXPECT_EQ(report.rejected, 0u);
        EXPECT_GT(report.elapsedSec, 0.0);
        EXPECT_GT(report.sentPerSec, 0.0);
        EXPECT_GE(report.p99LatencyMs, report.p50LatencyMs);
        EXPECT_GE(report.maxLatencyMs, report.p99LatencyMs);

        fleet.waitIdle();
        const IngestStats stats = ingest.stats();
        ingest.stop();
        fleet.stop();
        EXPECT_EQ(stats.badFrames, 0u);
        EXPECT_EQ(stats.connectionsDropped, 0u);
        EXPECT_EQ(stats.connectionsAccepted, connections);
        EXPECT_EQ(fleet.processed(), report.accepted);

        obs::JsonValue parsed;
        EXPECT_TRUE(obs::jsonParse(report.toJson(), parsed));
    }
}

TEST(LoadGen, PacedRateStretchesTheRun)
{
    serve::FleetServer fleet;
    fleet.addMachine("machine0", makeTestModel(3));
    ChaosIngestServer ingest(fleet);
    ingest.start();
    fleet.start();

    LoadGenConfig cfg = baseConfig();
    cfg.machineIds = {"machine0"};
    cfg.port = ingest.port();
    cfg.connections = 1;
    cfg.samplesPerConnection = 20;
    cfg.ratePerConnection = 100.0; // 20 samples @ 100/s >= ~190 ms.
    cfg.rowSize = CounterCatalog::instance().size();
    LoadGenerator gen(cfg);
    const LoadGenReport report = gen.run();

    EXPECT_EQ(report.connectionsFailed, 0u) << report.firstError;
    EXPECT_GE(report.elapsedSec, 0.15);

    fleet.waitIdle();
    ingest.stop();
    fleet.stop();
}

TEST(LoadGen, DeadTargetFailsGracefully)
{
    // Grab an ephemeral port and close it again: nothing listens.
    std::uint16_t deadPort;
    {
        auto [sock, port] = listenTcp("127.0.0.1", 0);
        deadPort = port;
    }

    LoadGenConfig cfg = baseConfig();
    cfg.port = deadPort;
    cfg.connections = 3;
    LoadGenerator gen(cfg);
    const LoadGenReport report = gen.run();
    EXPECT_EQ(report.connectionsFailed, 3u);
    EXPECT_EQ(report.accepted, 0u);
    EXPECT_FALSE(report.firstError.empty());
}

TEST(LoadGen, NoMachineIdsRaises)
{
    LoadGenConfig cfg = baseConfig();
    cfg.machineIds.clear();
    LoadGenerator gen(cfg);
    EXPECT_THROW(gen.run(), RecoverableError);
}

} // namespace
} // namespace chaos::net
