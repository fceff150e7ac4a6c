#include "net/loadgen.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <thread>

#include "obs/json.hpp"
#include "util/result.hpp"

namespace chaos::net {

namespace {

/** splitmix64: stateless, so any (conn, index, col) cell is random-
 *  access reproducible — the soak test replays rows out of band. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

double
unitValue(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
          std::uint64_t c)
{
    const std::uint64_t h = mix(seed ^ mix(a ^ mix(b ^ mix(c))));
    return static_cast<double>(h >> 11) /
           static_cast<double>(1ull << 53);
}

double
percentile(std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const double pos = p * static_cast<double>(sorted.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

} // namespace

LoadGenerator::LoadGenerator(LoadGenConfig config)
    : cfg(std::move(config))
{
    if (cfg.connections == 0)
        cfg.connections = 1;
    if (cfg.rowSize == 0)
        cfg.rowSize = 1;
}

void
LoadGenerator::fillRow(std::size_t conn, std::size_t index,
                       std::vector<double> &row) const
{
    row.resize(cfg.rowSize);
    for (std::size_t col = 0; col < cfg.rowSize; ++col)
        row[col] = 100.0 * unitValue(cfg.seed, conn, index, col);
}

const std::string &
LoadGenerator::machineFor(std::size_t conn, std::size_t index) const
{
    if (cfg.exclusiveMachines)
        return cfg.machineIds[conn % cfg.machineIds.size()];
    return cfg.machineIds[(conn + index) % cfg.machineIds.size()];
}

double
LoadGenerator::meteredFor(std::size_t conn, std::size_t index) const
{
    if (cfg.meteredEvery == 0 || index % cfg.meteredEvery != 0)
        return std::numeric_limits<double>::quiet_NaN();
    return 200.0 * unitValue(cfg.seed, conn, index, 0x4d455445ull);
}

void
LoadGenerator::runWorker(std::size_t firstConn, std::size_t count,
                         std::vector<ConnResult> &results)
{
    using clock = std::chrono::steady_clock;

    // Open every connection of this worker's block up front, then
    // interleave sends across them round-robin: all connections are
    // concurrently in flight for the whole run (the point of a
    // multi-connection load test), instead of one at a time per
    // worker. A connection that fails mid-run is recorded and
    // skipped; the others keep going.
    std::vector<std::unique_ptr<IngestClient>> clients(count);
    for (std::size_t k = 0; k < count; ++k) {
        IngestClientConfig clientCfg;
        clientCfg.host = cfg.host;
        clientCfg.port = cfg.port;
        clientCfg.window = cfg.window;
        clients[k] = std::make_unique<IngestClient>(clientCfg);
        try {
            clients[k]->connect();
        } catch (const RecoverableError &err) {
            ConnResult &res = results[firstConn + k];
            res.failed = true;
            res.error = err.what();
            clients[k].reset();
        }
    }

    std::vector<double> row;
    const auto start = clock::now();
    for (std::size_t i = 0; i < cfg.samplesPerConnection; ++i) {
        if (cfg.ratePerConnection > 0.0) {
            // One pacing sleep per round: every connection sends its
            // i-th sample in the same paced slot.
            const auto due =
                start +
                std::chrono::duration_cast<clock::duration>(
                    std::chrono::duration<double>(
                        static_cast<double>(i) /
                        cfg.ratePerConnection));
            std::this_thread::sleep_until(due);
        }
        for (std::size_t k = 0; k < count; ++k) {
            if (!clients[k])
                continue;
            const std::size_t conn = firstConn + k;
            try {
                fillRow(conn, i, row);
                clients[k]->send(i, machineFor(conn, i), row.data(),
                                 row.size(), meteredFor(conn, i));
            } catch (const RecoverableError &err) {
                ConnResult &res = results[conn];
                res.failed = true;
                res.error = err.what();
                res.sent = clients[k]->sent();
                res.accepted = clients[k]->accepted();
                res.rejected = clients[k]->rejected();
                res.backpressureNacks =
                    clients[k]->nacks(NackReason::Backpressure);
                res.unknownNacks =
                    clients[k]->nacks(NackReason::UnknownMachine);
                res.latenciesMs = clients[k]->latenciesMs();
                clients[k].reset();
            }
        }
    }

    for (std::size_t k = 0; k < count; ++k) {
        if (!clients[k])
            continue;
        const std::size_t conn = firstConn + k;
        ConnResult &res = results[conn];
        try {
            if (!res.failed)
                clients[k]->drain();
        } catch (const RecoverableError &err) {
            res.failed = true;
            res.error = err.what();
        }
        const IngestClient &client = *clients[k];
        res.sent = client.sent();
        res.accepted = client.accepted();
        res.rejected = client.rejected();
        res.backpressureNacks = client.nacks(NackReason::Backpressure);
        res.unknownNacks = client.nacks(NackReason::UnknownMachine);
        res.latenciesMs = client.latenciesMs();
    }
}

LoadGenReport
LoadGenerator::run()
{
    raiseIf(cfg.machineIds.empty(),
            "loadgen: no machine ids to target");

    std::size_t workers = cfg.workers;
    if (workers == 0)
        workers = std::min<std::size_t>(cfg.connections, 16);
    workers = std::min(workers, cfg.connections);

    std::vector<ConnResult> results(cfg.connections);
    const auto start = std::chrono::steady_clock::now();
    {
        std::vector<std::thread> threads;
        threads.reserve(workers);
        // Block-partition connections over workers (remainder spread
        // one each over the first workers).
        const std::size_t base = cfg.connections / workers;
        const std::size_t extra = cfg.connections % workers;
        std::size_t next = 0;
        for (std::size_t w = 0; w < workers; ++w) {
            const std::size_t count = base + (w < extra ? 1 : 0);
            const std::size_t first = next;
            next += count;
            threads.emplace_back([this, first, count, &results] {
                runWorker(first, count, results);
            });
        }
        for (auto &t : threads)
            t.join();
    }
    const double elapsed =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();

    LoadGenReport report;
    report.elapsedSec = elapsed;
    std::vector<double> latencies;
    for (const ConnResult &res : results) {
        report.sent += res.sent;
        report.accepted += res.accepted;
        report.rejected += res.rejected;
        report.backpressureNacks += res.backpressureNacks;
        report.unknownNacks += res.unknownNacks;
        if (res.failed) {
            ++report.connectionsFailed;
            if (report.firstError.empty())
                report.firstError = res.error;
        }
        latencies.insert(latencies.end(), res.latenciesMs.begin(),
                         res.latenciesMs.end());
    }
    report.sentPerSec =
        elapsed > 0.0 ? static_cast<double>(report.sent) / elapsed
                      : 0.0;
    std::sort(latencies.begin(), latencies.end());
    report.p50LatencyMs = percentile(latencies, 0.50);
    report.p99LatencyMs = percentile(latencies, 0.99);
    report.maxLatencyMs = latencies.empty() ? 0.0 : latencies.back();
    return report;
}

std::string
LoadGenReport::toJson() const
{
    std::ostringstream json;
    json.precision(6);
    json << std::fixed;
    json << "{\"sent\": " << sent << ", \"accepted\": " << accepted
         << ", \"rejected\": " << rejected
         << ", \"backpressure_nacks\": " << backpressureNacks
         << ", \"unknown_nacks\": " << unknownNacks
         << ", \"connections_failed\": " << connectionsFailed
         << ", \"elapsed_sec\": " << elapsedSec
         << ", \"sent_per_sec\": " << sentPerSec
         << ", \"p50_latency_ms\": " << p50LatencyMs
         << ", \"p99_latency_ms\": " << p99LatencyMs
         << ", \"max_latency_ms\": " << maxLatencyMs
         << ", \"first_error\": \"" << obs::jsonEscape(firstError)
         << "\"}";
    return json.str();
}

} // namespace chaos::net
