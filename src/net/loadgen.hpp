/**
 * @file
 * LoadGenerator: a multi-connection ingest load harness built on
 * IngestClient — the engine behind `chaos loadgen` and the
 * multi-client soak and accounting tests.
 *
 * N connections are spread over W worker threads; each connection
 * round-robins synthetic samples across the fleet's machine ids at a
 * paced per-connection rate (0 = as fast as the credit window
 * allows). Rows are deterministic per (seed, connection): two runs
 * with the same config submit bit-identical samples, which is what
 * lets the soak test compare a network-fed snapshot against an
 * in-process replay.
 *
 * The report aggregates exact accounting (sent == accepted +
 * rejected across all connections, enforced by the callers) plus
 * credit-RTT latency percentiles.
 */
#ifndef CHAOS_NET_LOADGEN_HPP
#define CHAOS_NET_LOADGEN_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "net/client.hpp"

namespace chaos::net {

/** Load-shape knobs. */
struct LoadGenConfig
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
    /** Concurrent connections. */
    std::size_t connections = 8;
    /** Worker threads the connections are spread over (0 = one per
     *  connection, capped at 16). */
    std::size_t workers = 0;
    /** Machine ids to target, round-robin per connection. */
    std::vector<std::string> machineIds;
    /**
     * Pin each connection to one machine (conn % machineIds.size())
     * instead of round-robining. With one connection per machine,
     * every machine sees its samples in one connection's send order —
     * deterministic, so a verifier can replay the run in process and
     * expect bit-identical estimator state.
     */
    bool exclusiveMachines = false;
    /** Samples each connection sends. */
    std::size_t samplesPerConnection = 1000;
    /** Counter-row width (must match the serving models' catalog). */
    std::size_t rowSize = 2;
    /** Per-connection pace, samples/sec (0 = unpaced). */
    double ratePerConnection = 0.0;
    /** Attach a metered reading to every Nth sample (0 = never). */
    std::size_t meteredEvery = 0;
    /** Per-connection credit window. */
    std::size_t window = 1024;
    /** Row-synthesis seed (same seed => same rows). */
    std::uint64_t seed = 42;
};

/** What a run did (aggregated over all connections). */
struct LoadGenReport
{
    std::uint64_t sent = 0;
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    std::uint64_t backpressureNacks = 0;
    std::uint64_t unknownNacks = 0;
    /** Connections that failed to connect or died mid-run. */
    std::uint64_t connectionsFailed = 0;
    double elapsedSec = 0.0;
    /** sent / elapsedSec. */
    double sentPerSec = 0.0;
    /** Credit-ack round-trip percentiles, milliseconds. */
    double p50LatencyMs = 0.0;
    double p99LatencyMs = 0.0;
    double maxLatencyMs = 0.0;
    /** First connection-level error seen ("" when none). */
    std::string firstError;

    /** Serialize as one single-line JSON object. */
    std::string toJson() const;
};

/** The harness (see file comment). */
class LoadGenerator
{
  public:
    explicit LoadGenerator(LoadGenConfig config);

    /**
     * Run the full load shape to completion and return the aggregate
     * report. Raises RecoverableError on a config without machine
     * ids. Individual connection failures do not abort the run; they
     * are counted in the report.
     */
    LoadGenReport run();

    /**
     * The deterministic row connection @p conn sends as its @p index
     * -th sample — exposed so a verifier can replay the exact same
     * samples in process (soak-test snapshot comparison).
     */
    void fillRow(std::size_t conn, std::size_t index,
                 std::vector<double> &row) const;

    /** The machine id connection @p conn targets at @p index. */
    const std::string &machineFor(std::size_t conn,
                                  std::size_t index) const;

    /** Metered reading for (conn, index); NaN when none attached. */
    double meteredFor(std::size_t conn, std::size_t index) const;

  private:
    /** One connection's outcome, collected by its worker thread. */
    struct ConnResult
    {
        std::uint64_t sent = 0;
        std::uint64_t accepted = 0;
        std::uint64_t rejected = 0;
        std::uint64_t backpressureNacks = 0;
        std::uint64_t unknownNacks = 0;
        bool failed = false;
        std::string error;
        std::vector<double> latenciesMs;
    };

    void runWorker(std::size_t firstConn, std::size_t count,
                   std::vector<ConnResult> &results);

    LoadGenConfig cfg;
};

} // namespace chaos::net

#endif // CHAOS_NET_LOADGEN_HPP
