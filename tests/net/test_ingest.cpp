/**
 * @file
 * Loopback integration tests for the ingest server: end-to-end
 * accounting (sent == accepted + rejected, accepted == processed),
 * explicit backpressure NACKs with per-connection attribution,
 * corrupt-stream connection drops that leave the server serving, and
 * the multi-client soak whose snapshot
 * must be bit-identical to an in-process replay of the same samples.
 */
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <unistd.h>

#include <gtest/gtest.h>

#include "net/client.hpp"
#include "net/ingest_server.hpp"
#include "net/loadgen.hpp"
#include "obs/events.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"
#include "util/result.hpp"

#include "../serve/serve_support.hpp"

namespace chaos::net {
namespace {

using serve_testing::catalogRow;
using serve_testing::makeTestModel;

/** A fleet of @p machines machine0..N-1 sharing one test model. */
std::unique_ptr<serve::FleetServer>
makeFleet(std::size_t machines, serve::FleetServerConfig config = {})
{
    auto server = std::make_unique<serve::FleetServer>(config);
    const MachinePowerModel model = makeTestModel(3);
    for (std::size_t i = 0; i < machines; ++i)
        server->addMachine("machine" + std::to_string(i), model);
    return server;
}

std::uint64_t
backpressureEvents()
{
    std::uint64_t n = 0;
    for (const obs::Event &event :
         obs::EventLog::instance().snapshot()) {
        if (event.kind == obs::EventKind::Backpressure)
            n += event.count;
    }
    return n;
}

std::uint64_t
connectionDropEvents()
{
    std::uint64_t n = 0;
    for (const obs::Event &event :
         obs::EventLog::instance().snapshot()) {
        if (event.kind == obs::EventKind::ConnectionDrop)
            n += event.count;
    }
    return n;
}

TEST(Ingest, SingleClientExactAccounting)
{
    auto fleet = makeFleet(2);
    ChaosIngestServer ingest(*fleet);
    ingest.start();
    fleet->start();

    IngestClientConfig cfg;
    cfg.port = ingest.port();
    cfg.window = 64;
    IngestClient client(cfg);
    client.connect();

    const std::vector<double> row = catalogRow(40.0, 60.0);
    const std::size_t samples = 500;
    for (std::size_t i = 0; i < samples; ++i)
        client.send(i, i % 2 == 0 ? "machine0" : "machine1",
                    row.data(), row.size(),
                    i % 10 == 0 ? 120.0 : std::numeric_limits<
                                              double>::quiet_NaN());
    ASSERT_TRUE(client.drain());
    EXPECT_EQ(client.sent(), samples);
    EXPECT_EQ(client.accepted(), samples);
    EXPECT_EQ(client.rejected(), 0u);

    fleet->waitIdle();
    ingest.stop();
    fleet->stop();

    // Network accounting must agree with the serving loop's.
    EXPECT_EQ(fleet->submitted(), samples);
    EXPECT_EQ(fleet->processed(), samples);
    EXPECT_EQ(fleet->dropped(), 0u);

    const IngestStats stats = ingest.stats();
    EXPECT_EQ(stats.connectionsAccepted, 1u);
    EXPECT_EQ(stats.samplesAccepted, samples);
    EXPECT_EQ(stats.badFrames, 0u);
    ASSERT_EQ(stats.connections.size(), 1u);
    EXPECT_EQ(stats.connections[0].samplesAccepted, samples);
    EXPECT_FALSE(stats.connections[0].open);

    const serve::FleetSnapshot snap = fleet->snapshot();
    EXPECT_EQ(snap.samplesProcessed, samples);
    std::uint64_t perMachine = 0;
    for (const auto &machine : snap.machines)
        perMachine += machine.samples;
    EXPECT_EQ(perMachine, samples);
}

TEST(Ingest, BackpressureNacksInsteadOfSilentDrop)
{
    // Tiny queues and NO drainer: the queues fill and stay full, so
    // overflow samples must come back as explicit rejections.
    serve::FleetServerConfig config;
    config.numShards = 1;
    config.queueCapacity = 16;
    auto fleet = makeFleet(1, config);
    ChaosIngestServer ingest(*fleet);
    ingest.start();

    const std::uint64_t backpressureBefore = backpressureEvents();
    auto &rejectedMetric =
        obs::Registry::instance().counter("chaos.net.rejected",
                                          obs::Stability::Scheduling);
    const std::uint64_t rejectedBefore = rejectedMetric.value();

    IngestClientConfig cfg;
    cfg.port = ingest.port();
    cfg.window = 8; // Window under creditBatch: idle flush acks it.
    IngestClient client(cfg);
    client.connect();

    const std::vector<double> row = catalogRow(10.0, 20.0);
    const std::size_t samples = 200;
    for (std::size_t i = 0; i < samples; ++i)
        client.send(i, "machine0", row.data(), row.size());
    ASSERT_TRUE(client.drain());

    // Nothing was lost silently: every sample is accounted for, the
    // overflow was rejected (reject-newest), and the client heard
    // about it via backpressure NACKs.
    EXPECT_EQ(client.accepted() + client.rejected(), samples);
    EXPECT_EQ(client.accepted(), config.queueCapacity);
    EXPECT_EQ(client.rejected(),
              samples - config.queueCapacity);
    EXPECT_TRUE(client.sawBackpressure());

    // Attribution: the connection's stats carry its rejections.
    const IngestStats stats = ingest.stats();
    ASSERT_EQ(stats.connections.size(), 1u);
    EXPECT_EQ(stats.connections[0].rejectedBackpressure,
              samples - config.queueCapacity);
    EXPECT_EQ(stats.rejectedBackpressure,
              samples - config.queueCapacity);

    // Observability: the metric moved and an event fired.
    EXPECT_GE(rejectedMetric.value() - rejectedBefore,
              samples - config.queueCapacity);
    EXPECT_GT(backpressureEvents(), backpressureBefore);

    // The server's own accounting never saw the refused samples.
    EXPECT_EQ(fleet->submitted(), config.queueCapacity);
    EXPECT_EQ(fleet->dropped(), 0u);

    client.close();
    ingest.stop();
}

TEST(Ingest, UnknownMachineNackKeepsConnectionOpen)
{
    auto fleet = makeFleet(1);
    ChaosIngestServer ingest(*fleet);
    ingest.start();
    fleet->start();

    IngestClientConfig cfg;
    cfg.port = ingest.port();
    cfg.window = 4;
    IngestClient client(cfg);
    client.connect();

    const std::vector<double> row = catalogRow(5.0, 5.0);
    client.send(0, "no-such-machine", row.data(), row.size());
    client.send(1, "machine0", row.data(), row.size());
    ASSERT_TRUE(client.drain());

    EXPECT_EQ(client.accepted(), 1u);
    EXPECT_EQ(client.rejected(), 1u);
    EXPECT_EQ(client.nacks(NackReason::UnknownMachine), 1u);

    const IngestStats stats = ingest.stats();
    ASSERT_EQ(stats.connections.size(), 1u);
    EXPECT_EQ(stats.connections[0].rejectedUnknown, 1u);
    EXPECT_TRUE(stats.connections[0].open);

    fleet->waitIdle();
    ingest.stop();
    fleet->stop();
}

TEST(Ingest, GarbageStreamDropsConnectionServerKeepsServing)
{
    auto fleet = makeFleet(1);
    ChaosIngestServer ingest(*fleet);
    ingest.start();
    fleet->start();

    const std::uint64_t dropsBefore = connectionDropEvents();

    // A peer that speaks neither framing gets dropped...
    {
        OwnedFd raw = connectTcp("127.0.0.1", ingest.port());
        const char junk[] = "GET / HTTP/1.1\r\n\r\n";
        ASSERT_GT(::write(raw.fd(), junk, sizeof(junk) - 1), 0);
        // Wait for the server to close our end.
        char byte;
        ssize_t n;
        do {
            n = ::read(raw.fd(), &byte, 1);
        } while (n > 0 || (n < 0 && errno == EINTR));
        EXPECT_EQ(n, 0);
    }

    // ...with an event and accounting...
    for (int i = 0; i < 100 && connectionDropEvents() == dropsBefore;
         ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_GT(connectionDropEvents(), dropsBefore);
    IngestStats stats = ingest.stats();
    EXPECT_EQ(stats.connectionsDropped, 1u);
    ASSERT_GE(stats.connections.size(), 1u);
    EXPECT_FALSE(stats.connections[0].open);
    EXPECT_FALSE(stats.connections[0].closeReason.empty());

    // ...and the server keeps serving well-formed clients.
    IngestClientConfig cfg;
    cfg.port = ingest.port();
    IngestClient client(cfg);
    client.connect();
    const std::vector<double> row = catalogRow(30.0, 30.0);
    for (std::size_t i = 0; i < 50; ++i)
        client.send(i, "machine0", row.data(), row.size());
    ASSERT_TRUE(client.drain());
    EXPECT_EQ(client.accepted(), 50u);

    fleet->waitIdle();
    ingest.stop();
    fleet->stop();
}

TEST(Ingest, CorruptBinaryFrameDropsConnection)
{
    auto fleet = makeFleet(1);
    ChaosIngestServer ingest(*fleet);
    ingest.start();
    fleet->start();

    // A valid frame followed by a corrupted one: the first sample is
    // accepted, the corrupt frame kills the connection, and no
    // corrupt sample ever reaches the fleet.
    SampleFrame sample;
    sample.tick = 1;
    sample.machineId = "machine0";
    sample.row = catalogRow(50.0, 50.0);
    std::vector<std::uint8_t> wire;
    encodeSample(sample, wire);
    const std::size_t first = wire.size();
    encodeSample(sample, wire);
    wire[first + 20] ^= 0xff; // Corrupt the second frame's payload.

    OwnedFd raw = connectTcp("127.0.0.1", ingest.port());
    std::size_t off = 0;
    while (off < wire.size()) {
        const ssize_t n =
            ::write(raw.fd(), wire.data() + off, wire.size() - off);
        ASSERT_GT(n, 0);
        off += static_cast<std::size_t>(n);
    }
    // The server closes on the corrupt frame (possibly after a
    // best-effort NACK, which we are free to ignore).
    char buf[256];
    ssize_t n;
    do {
        n = ::read(raw.fd(), buf, sizeof(buf));
    } while (n > 0 || (n < 0 && errno == EINTR));
    EXPECT_EQ(n, 0);

    fleet->waitIdle();
    ingest.stop();
    fleet->stop();

    EXPECT_EQ(fleet->processed(), 1u);
    const IngestStats stats = ingest.stats();
    EXPECT_EQ(stats.samplesAccepted, 1u);
    EXPECT_EQ(stats.badFrames, 1u);
    EXPECT_EQ(stats.connectionsDropped, 1u);
}

TEST(Ingest, MultiClientSoakMatchesInProcessReplayBitwise)
{
    // One connection per machine (exclusive mode): each machine sees
    // its samples in one connection's deterministic order, so an
    // in-process replay of the same rows must land on bit-identical
    // per-machine estimator state.
    const std::size_t machines = 6;
    const std::size_t samplesPerConn = 400;

    LoadGenConfig loadCfg;
    loadCfg.connections = machines;
    loadCfg.samplesPerConnection = samplesPerConn;
    loadCfg.exclusiveMachines = true;
    loadCfg.meteredEvery = 7;
    loadCfg.rowSize = CounterCatalog::instance().size();
    loadCfg.seed = 99;
    for (std::size_t i = 0; i < machines; ++i)
        loadCfg.machineIds.push_back("machine" + std::to_string(i));

    serve::FleetSnapshot netSnap;
    {
        auto fleet = makeFleet(machines);
        ChaosIngestServer ingest(*fleet);
        ingest.start();
        fleet->start();

        loadCfg.port = ingest.port();
        LoadGenerator generator(loadCfg);
        const LoadGenReport report = generator.run();
        ASSERT_EQ(report.connectionsFailed, 0u)
            << report.firstError;
        ASSERT_EQ(report.sent, machines * samplesPerConn);
        ASSERT_EQ(report.accepted + report.rejected, report.sent);
        ASSERT_EQ(report.rejected, 0u);

        fleet->waitIdle();
        ingest.stop();
        fleet->stop();
        EXPECT_EQ(fleet->processed(), report.accepted);
        netSnap = fleet->snapshot();
    }

    // In-process replay of the exact same samples.
    auto fleet = makeFleet(machines);
    LoadGenerator verifier(loadCfg);
    std::vector<double> row;
    for (std::size_t conn = 0; conn < machines; ++conn) {
        serve::MachineEntry *entry =
            fleet->machine(verifier.machineFor(conn, 0));
        ASSERT_NE(entry, nullptr);
        for (std::size_t i = 0; i < samplesPerConn; ++i) {
            verifier.fillRow(conn, i, row);
            fleet->submitTo(*entry, row.data(), row.size(),
                            verifier.meteredFor(conn, i));
        }
    }
    while (fleet->drainOnce() > 0) {
    }
    const serve::FleetSnapshot replaySnap = fleet->snapshot();

    ASSERT_EQ(netSnap.machines.size(), replaySnap.machines.size());
    EXPECT_EQ(netSnap.samplesProcessed, replaySnap.samplesProcessed);
    for (std::size_t i = 0; i < netSnap.machines.size(); ++i) {
        const auto &a = netSnap.machines[i];
        const auto &b = replaySnap.machines[i];
        EXPECT_EQ(a.id, b.id);
        EXPECT_EQ(a.samples, b.samples) << a.id;
        // Bit-identical, not approximately equal: the network path
        // must not reorder, rescale, or lossily re-encode samples.
        EXPECT_EQ(std::memcmp(&a.watts, &b.watts, sizeof(double)), 0)
            << a.id << ": " << a.watts << " vs " << b.watts;
        EXPECT_EQ(std::memcmp(&a.meanResidualW, &b.meanResidualW,
                              sizeof(double)),
                  0)
            << a.id;
        EXPECT_EQ(a.residualSamples, b.residualSamples) << a.id;
    }
}

TEST(Ingest, StatsJsonIsWellFormed)
{
    auto fleet = makeFleet(1);
    ChaosIngestServer ingest(*fleet);
    ingest.start();
    fleet->start();

    IngestClientConfig cfg;
    cfg.port = ingest.port();
    IngestClient client(cfg);
    client.connect();
    const std::vector<double> row = catalogRow(1.0, 2.0);
    client.send(0, "machine0", row.data(), row.size());
    ASSERT_TRUE(client.drain());

    fleet->waitIdle();
    ingest.stop();
    fleet->stop();

    obs::JsonValue parsed;
    ASSERT_TRUE(obs::jsonParse(ingest.stats().toJson(), parsed));
}

TEST(Ingest, IntrospectServesValidatedTopSnapshot)
{
    auto fleet = makeFleet(2);
    ChaosIngestServer ingest(*fleet);
    ingest.start();
    fleet->start();

    // Push a few samples first so the snapshot reflects live traffic.
    IngestClientConfig cfg;
    cfg.port = ingest.port();
    IngestClient client(cfg);
    client.connect();
    const std::vector<double> row = catalogRow(1.0, 2.0);
    for (std::uint64_t tick = 0; tick < 8; ++tick)
        client.send(tick, "machine0", row.data(), row.size());
    ASSERT_TRUE(client.drain());
    fleet->waitIdle();

    const std::string json =
        fetchSnapshot("127.0.0.1", ingest.port(), /*seq=*/42);
    obs::JsonValue snap;
    ASSERT_TRUE(obs::jsonParse(json, snap)) << json;
    ASSERT_TRUE(snap.isObject());
    const obs::JsonValue *type = snap.find("type");
    ASSERT_NE(type, nullptr);
    EXPECT_EQ(type->asString(), "chaos_top");
    for (const char *key :
         {"ts_ms", "fleet", "ingest", "stage_latency", "flight"})
        EXPECT_NE(snap.find(key), nullptr) << key;

    // The fleet section must carry the traffic we just pushed.
    const obs::JsonValue *fleetJson = snap.find("fleet");
    ASSERT_NE(fleetJson, nullptr);
    const obs::JsonValue *processed = fleetJson->find("processed");
    ASSERT_NE(processed, nullptr);
    EXPECT_EQ(processed->asNumber(), 8.0);

    // A second poll works on a fresh connection, and the server
    // counts both.
    const std::string again =
        fetchSnapshot("127.0.0.1", ingest.port(), /*seq=*/43);
    ASSERT_TRUE(obs::jsonParse(again, snap));

    ingest.stop();
    fleet->stop();
    EXPECT_EQ(ingest.stats().introspectsServed, 2u);

    obs::JsonValue statsJson;
    ASSERT_TRUE(obs::jsonParse(ingest.stats().toJson(), statsJson));
    const obs::JsonValue *served =
        statsJson.find("introspects_served");
    ASSERT_NE(served, nullptr);
    EXPECT_EQ(served->asNumber(), 2.0);
}

TEST(Ingest, StopWhileClientsConnectedIsClean)
{
    auto fleet = makeFleet(1);
    ChaosIngestServer ingest(*fleet);
    ingest.start();
    fleet->start();

    IngestClientConfig cfg;
    cfg.port = ingest.port();
    IngestClient client(cfg);
    client.connect();
    const std::vector<double> row = catalogRow(9.0, 9.0);
    client.send(0, "machine0", row.data(), row.size());

    ingest.stop(); // Client still connected: must not hang or crash.
    fleet->stop();
    EXPECT_FALSE(ingest.running());
}

TEST(Ingest, ClientSeesCreditsBeforeItsWindowFills)
{
    // The server credits every sample within a poll round; a client
    // below its window reads those credits once half the window is in
    // flight, without draining and without blocking on a full window.
    auto fleet = makeFleet(1);
    ChaosIngestServer ingest(*fleet);
    ingest.start();

    IngestClientConfig cfg;
    cfg.port = ingest.port();
    cfg.window = 64;
    cfg.coalesceBytes = 0; // Every frame reaches the server at once.
    IngestClient client(cfg);
    client.connect();

    const std::vector<double> row = catalogRow(20.0, 30.0);
    const std::size_t belowHalf = cfg.window / 2 - 1;
    for (std::size_t i = 0; i < belowHalf; ++i)
        client.send(i, "machine0", row.data(), row.size());
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (ingest.stats().samplesAccepted < belowHalf &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    ASSERT_EQ(ingest.stats().samplesAccepted, belowHalf);
    // The round that accepted them also wrote their credit.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_EQ(client.accepted(), 0u); // Nothing read below half.

    // The send that puts half the window in flight reads the credit.
    client.send(belowHalf, "machine0", row.data(), row.size());
    EXPECT_GE(client.accepted(), belowHalf);
    EXPECT_FALSE(client.latenciesMs().empty());

    ASSERT_TRUE(client.drain());
    EXPECT_EQ(client.accepted(), belowHalf + 1);
    ingest.stop();
}

} // namespace
} // namespace chaos::net
