/**
 * @file
 * Loopback integration tests for the ingest server: end-to-end
 * accounting (sent == accepted + rejected, accepted == processed),
 * explicit backpressure NACKs with per-connection attribution,
 * corrupt-stream connection drops that leave the server serving, the
 * multi-client soak whose snapshot must be bit-identical to an
 * in-process replay of the same samples, and slot binding: projected
 * SampleBatch estimates bitwise equal to in-process and serial
 * replays across projection changes, and slot violations that close
 * the connection.
 */
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <poll.h>
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
using serve_testing::modelOver;
using serve_testing::randomRow;
using serve_testing::Recorder;

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

std::uint64_t
projectionMisses()
{
    return obs::Registry::instance()
        .counter("chaos.serve.projection_misses",
                 obs::Stability::Scheduling)
        .value();
}

TEST(Ingest, BoundConnectionMatchesInProcessAndSerialBitwise)
{
    // Three machines on one binding connection, replayed in process
    // and through serial estimators. Mid-stream, m0's model is swapped
    // for one that reads kC too, m1 gets a quarantine substitute
    // reading kE and kF, and m2 a shadow candidate reading kC: each
    // widens the machine's projection. The client reads its acks only
    // in drain(), so the projection each sample was encoded under is
    // known: those encoded after the change but before the fresh Bound
    // carry the old projection and are exactly the projection misses;
    // m0's deployed model reads their kC as missing.
    constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
    constexpr std::size_t kA = 3, kB = 7, kC = 12, kD = 20, kE = 30,
                          kF = 40, kG = 5;
    const std::vector<MachinePowerModel> models = {
        modelOver({kA, kB}, 1), modelOver({kB, kD}, 2),
        modelOver({kG, kE}, 3)};
    const MachinePowerModel wide = modelOver({kA, kC, kB}, 4);
    const auto substitute =
        std::make_shared<const MachinePowerModel>(modelOver({kE, kF}, 5));
    const MachinePowerModel candidate = modelOver({kG, kC}, 6);

    serve::FleetServer wireFleet, localFleet;
    std::vector<serve::MachineEntry *> wireEntries, localEntries;
    std::vector<OnlinePowerEstimator> serialWire, serialLocal;
    std::vector<std::string> ids;
    std::vector<std::vector<std::size_t>> before;
    for (std::size_t m = 0; m < models.size(); ++m) {
        ids.push_back("m" + std::to_string(m));
        wireEntries.push_back(&wireFleet.addMachine(ids[m], models[m]));
        localEntries.push_back(&localFleet.addMachine(ids[m], models[m]));
        serialWire.emplace_back(models[m]);
        serialLocal.emplace_back(models[m]);
        before.push_back(wireEntries[m]->projection().indices());
    }
    Recorder wireRec, localRec;
    wireFleet.setSampleObserver(&wireRec);
    localFleet.setSampleObserver(&localRec);
    ChaosIngestServer ingest(wireFleet);
    ingest.start();
    wireFleet.start();

    IngestClientConfig cfg;
    cfg.port = ingest.port();
    cfg.window = 64;       // Never full between the drains below,
    cfg.coalesceBytes = 0; // so acks are read only in drain().
    IngestClient client(cfg);
    client.connect();

    Rng rng(101);
    std::vector<std::vector<double>> expectWire(models.size()),
        expectLocal(models.size());
    std::vector<std::vector<bool>> missed(models.size());
    std::size_t old[3] = {0, 0, 0};
    std::uint64_t shadowScored = 0, shadowMetered = 0;
    bool changed = false;
    const auto sendTick = [&](std::uint64_t t) {
        for (std::size_t m = 0; m < models.size(); ++m) {
            std::vector<double> row = randomRow(rng);
            // The shadow's machine stays clean once it shadows.
            const bool clean = changed && m == 2;
            switch (clean ? 0 : (t + m) % 9) {
              case 1: row[kB] = kNaN; row[kG] = kNaN; break;
              case 2: row[kA] = -5.0; row[kE] = -1.0; break;
              case 3: row[kD] = 1e300; break; // Past the catalog's bound.
              case 4: row.resize(kD); break;  // Drops kD, kE, kF.
              case 5: row.resize(kB); break;  // Keeps only kA, kG.
              case 6: row.clear(); break;
              default: break;
            }
            const double metered =
                t % 3 == 0 ? kNaN : 30.0 + static_cast<double>(t % 11);
            const std::vector<std::size_t> *sentAt =
                client.projectionOf(ids[m]);
            const bool miss = changed && sentAt != nullptr &&
                              *sentAt == before[m];
            old[m] += miss ? 1 : 0;
            missed[m].push_back(miss);
            client.send(t, ids[m], row.data(), row.size(), metered);
            localFleet.submitTo(*localEntries[m], row, metered);

            expectLocal[m].push_back(
                serialLocal[m].estimateWithReference(row, metered));
            std::vector<double> seen = row;
            if (miss && m == 0 && kC < seen.size())
                seen[kC] = kNaN; // Not carried: a missing input.
            expectWire[m].push_back(
                serialWire[m].estimateWithReference(seen, metered));
            if (changed && m == 2 && std::isfinite(metered)) {
                ++shadowMetered;
                shadowScored += miss ? 0 : 1;
            }
        }
    };
    const auto settle = [&] {
        ASSERT_TRUE(client.drain());
        wireFleet.waitIdle();
        while (localFleet.drainOnce() > 0) {
        }
    };

    for (std::uint64_t t = 0; t < 60; ++t) {
        sendTick(t);
        if (t % 2 == 1) {
            ASSERT_TRUE(client.drain());
        }
        if (t == 20) {
            // An unknown machine's Bind is refused without closing.
            const std::vector<double> row = randomRow(rng);
            client.send(t, "no-such-machine", row.data(), row.size());
            client.send(t + 1, "no-such-machine", row.data(), row.size());
        }
    }
    settle();
    for (std::size_t m = 0; m < models.size(); ++m) {
        ASSERT_NE(client.projectionOf(ids[m]), nullptr) << ids[m];
        EXPECT_EQ(*client.projectionOf(ids[m]), before[m]);
    }

    const std::uint64_t missesBefore = projectionMisses();
    for (serve::FleetServer *fleet : {&wireFleet, &localFleet}) {
        fleet->swapModel("m0", wide);
        fleet->machine("m1")->engageQuarantine(substitute);
        fleet->machine("m2")->beginShadow(candidate);
    }
    serialWire[0].swapModel(wide);
    serialLocal[0].swapModel(wide);
    changed = true;
    for (std::uint64_t t = 60; t < 160; ++t) {
        sendTick(t);
        if (t % 2 == 1) {
            ASSERT_TRUE(client.drain());
        }
    }
    settle();
    const std::uint64_t misses = projectionMisses() - missesBefore;
    ingest.stop();
    wireFleet.stop();
    wireFleet.setSampleObserver(nullptr);
    localFleet.setSampleObserver(nullptr);

    // Exactly the samples encoded under the old projection missed.
    for (std::size_t m = 0; m < models.size(); ++m) {
        EXPECT_GE(old[m], 1u) << ids[m];
        ASSERT_NE(client.projectionOf(ids[m]), nullptr);
        EXPECT_EQ(*client.projectionOf(ids[m]),
                  wireEntries[m]->projection().indices());
        EXPECT_NE(*client.projectionOf(ids[m]), before[m]);
    }
    EXPECT_EQ(misses, old[0] + old[1] + old[2]);

    const std::size_t perMachine = 160;
    EXPECT_EQ(client.accepted(), perMachine * models.size());
    EXPECT_EQ(client.rejected(), 2u);
    EXPECT_EQ(client.nacks(NackReason::UnknownMachine), 2u);
    const IngestStats stats = ingest.stats();
    ASSERT_EQ(stats.connections.size(), 1u);
    EXPECT_EQ(stats.connections[0].rejectedUnknown, 2u);
    EXPECT_EQ(stats.badFrames, 0u);
    EXPECT_EQ(stats.connections[0].closeReason, "server stopped");

    ASSERT_EQ(wireRec.watts.size(), models.size());
    ASSERT_EQ(localRec.watts.size(), models.size());
    for (std::size_t m = 0; m < models.size(); ++m) {
        ASSERT_EQ(wireRec.watts[m].size(), perMachine);
        ASSERT_EQ(localRec.watts[m].size(), perMachine);
        for (std::size_t k = 0; k < perMachine; ++k) {
            ASSERT_EQ(wireRec.watts[m][k], expectWire[m][k])
                << ids[m] << " sample " << k;
            ASSERT_EQ(localRec.watts[m][k], expectLocal[m][k])
                << ids[m] << " sample " << k;
            if (!(m == 0 && missed[m][k])) {
                ASSERT_EQ(std::memcmp(&wireRec.watts[m][k],
                                      &localRec.watts[m][k],
                                      sizeof(double)),
                          0)
                    << ids[m] << " sample " << k;
            }
        }
    }
    // The shadow scores every metered sample that carried its counters.
    EXPECT_EQ(wireEntries[2]->shadowReport().refSamples, shadowScored);
    EXPECT_EQ(localEntries[2]->shadowReport().refSamples, shadowMetered);
}

/** What a raw peer saw: the frames the server sent, and a close. */
struct PeerLog
{
    std::vector<Frame> frames;
    bool closed = false;
};

/**
 * Write @p wire to a fresh connection to @p port, then collect the
 * server's frames until it closes or @p quietMs pass without any.
 */
PeerLog
exchange(std::uint16_t port, const std::vector<std::uint8_t> &wire,
         int quietMs = 300)
{
    PeerLog log;
    OwnedFd raw = connectTcp("127.0.0.1", port);
    std::size_t off = 0;
    while (off < wire.size()) {
        const ssize_t n =
            ::write(raw.fd(), wire.data() + off, wire.size() - off);
        if (n <= 0)
            return log;
        off += static_cast<std::size_t>(n);
    }
    FrameReader reader;
    Frame frame;
    while (true) {
        pollfd pfd{raw.fd(), POLLIN, 0};
        if (::poll(&pfd, 1, quietMs) <= 0)
            return log;
        std::uint8_t buf[4096];
        const ssize_t n = ::read(raw.fd(), buf, sizeof(buf));
        if (n <= 0) {
            log.closed = true;
            return log;
        }
        reader.append(buf, static_cast<std::size_t>(n));
        while (reader.next(frame) == DecodeStatus::Ok)
            log.frames.push_back(frame);
    }
}

TEST(Ingest, SlotViolationsCloseTheConnectionAfterABadSampleNack)
{
    auto fleet = makeFleet(1);
    ChaosIngestServer ingest(*fleet);
    ingest.start();
    const std::vector<std::size_t> projection =
        fleet->machine("machine0")->projection().indices();
    ASSERT_EQ(projection.size(), 2u);

    const auto bind = [](std::uint32_t slot, const std::string &id,
                         std::vector<std::uint8_t> &wire) {
        encodeBind(slot, id, wire);
    };
    const std::vector<double> row = catalogRow(10.0, 20.0);
    const auto entry = [&](std::uint32_t slot, std::size_t values,
                           SampleBatchEncoder &batch,
                           std::vector<std::uint8_t> &wire) {
        std::vector<std::size_t> indices = projection;
        indices.resize(values, projection.back());
        batch.add(wire, slot, 0, false, 0.0, row.data(), row.size(),
                  indices.data(), indices.size());
    };
    const auto expectDropped = [](const PeerLog &log, const char *what) {
        EXPECT_TRUE(log.closed) << what;
        ASSERT_FALSE(log.frames.empty()) << what;
        EXPECT_EQ(log.frames.back().type, FrameType::Nack) << what;
        EXPECT_EQ(log.frames.back().nack.reason, NackReason::BadSample)
            << what;
    };

    // An unknown machine's Bind: a Nack that rejects no sample, and
    // the connection stays open for the next slot.
    std::vector<std::uint8_t> wire;
    bind(0, "no-such-machine", wire);
    bind(1, "machine0", wire);
    PeerLog log = exchange(ingest.port(), wire);
    EXPECT_FALSE(log.closed);
    ASSERT_EQ(log.frames.size(), 2u);
    EXPECT_EQ(log.frames[0].type, FrameType::Nack);
    EXPECT_EQ(log.frames[0].nack.reason, NackReason::UnknownMachine);
    EXPECT_EQ(log.frames[0].nack.rejectedTotal, 0u);
    ASSERT_EQ(log.frames[1].type, FrameType::Bound);
    EXPECT_EQ(log.frames[1].bound.slot, 1u);
    EXPECT_EQ(log.frames[1].bound.indices, projection);

    // A batch naming an unbound slot after a valid entry: the whole
    // frame is refused, so not even the valid entry is queued.
    wire.clear();
    bind(0, "machine0", wire);
    SampleBatchEncoder batch;
    entry(0, 2, batch, wire);
    entry(1, 2, batch, wire);
    batch.seal(wire);
    log = exchange(ingest.port(), wire);
    expectDropped(log, "unbound slot");
    EXPECT_EQ(log.frames.front().type, FrameType::Bound);
    EXPECT_EQ(fleet->submitted(), 0u);

    // A slot whose Bind named an unknown machine is unbound too.
    wire.clear();
    bind(0, "no-such-machine", wire);
    entry(0, 2, batch, wire);
    batch.seal(wire);
    expectDropped(exchange(ingest.port(), wire), "unknown machine's slot");

    // A value count other than the bound projection's size.
    wire.clear();
    bind(0, "machine0", wire);
    entry(0, 3, batch, wire);
    batch.seal(wire);
    expectDropped(exchange(ingest.port(), wire), "value count");

    // A Bind that skips a slot number, and one that acknowledges a
    // Bound the server never sent.
    wire.clear();
    bind(1, "machine0", wire);
    expectDropped(exchange(ingest.port(), wire), "slot out of sequence");
    wire.clear();
    bind(0, "machine0", wire);
    bind(0, "machine0", wire);
    expectDropped(exchange(ingest.port(), wire), "stray acknowledgement");

    // A well-formed batch on a bound slot is accepted.
    wire.clear();
    bind(0, "machine0", wire);
    entry(0, 2, batch, wire);
    batch.seal(wire);
    log = exchange(ingest.port(), wire);
    EXPECT_FALSE(log.closed);
    ASSERT_EQ(log.frames.size(), 2u);
    EXPECT_EQ(log.frames[1].type, FrameType::Credit);
    EXPECT_EQ(log.frames[1].credit.acceptedTotal, 1u);

    ingest.stop();
    const IngestStats stats = ingest.stats();
    EXPECT_EQ(stats.badFrames, 5u);
    EXPECT_EQ(stats.connectionsDropped, 5u);
    EXPECT_EQ(stats.samplesAccepted, 1u);
    EXPECT_EQ(fleet->submitted(), 1u);
}

} // namespace
} // namespace chaos::net
