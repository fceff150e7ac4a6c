/**
 * @file
 * The wire-protocol client subcommands: `chaos loadgen` drives a
 * listening fleet server with samples, `chaos top` polls its live
 * introspection snapshot.
 */
#include <chrono>
#include <limits>
#include <map>
#include <thread>

#include "cli/args.hpp"
#include "net/client.hpp"
#include "net/loadgen.hpp"
#include "net/socket.hpp"
#include "obs/json.hpp"
#include "oscounters/counter_catalog.hpp"
#include "trace/trace_io.hpp"
#include "util/string_utils.hpp"
#include "util/table.hpp"

namespace chaos::cli {

namespace {

/**
 * `chaos loadgen --replay`: send a recorded trace (optionally fault-
 * injected with stuck counters, same flags as `chaos serve --replay`)
 * through the wire protocol to a live ingest server, one connection,
 * metered references attached. This is how tier-1 provokes a real
 * ModelDrift — and therefore a flight-recorder bundle — on a
 * network-fed server from a clean recording.
 */
int
loadgenReplay(const ParsedArgs &args, const std::string &target,
              std::ostream &out)
{
    const Dataset data =
        withInjectedFaults(args, loadDataset(args.flagOr("replay", "")));

    net::IngestClientConfig config;
    const auto [host, port] = net::parseHostPort(target);
    config.host = host;
    config.port = port;
    config.window = args.number("window", config.window);
    net::IngestClient client(config);
    client.connect();

    // Metered references ride every Nth sample (default: every one —
    // the monitor's drift detector needs them).
    const size_t meteredEvery = args.number<size_t>("metered-every", 1);
    std::map<int, std::uint64_t> tickOf;
    for (size_t r = 0; r < data.numRows(); ++r) {
        const int machine = data.machineIds()[r];
        const std::uint64_t tick = tickOf[machine]++;
        const std::vector<double> row = data.features().row(r);
        const double metered =
            meteredEvery != 0 && tick % meteredEvery == 0
                ? data.powerW()[r]
                : std::numeric_limits<double>::quiet_NaN();
        client.send(tick, "machine" + std::to_string(machine),
                    row.data(), row.size(), metered);
    }
    const bool drained = client.drain();
    client.close();

    out << "replayed " << client.sent() << " samples over the wire: "
        << client.accepted() << " accepted, " << client.rejected()
        << " rejected"
        << (drained ? "" : " (server closed before full drain)")
        << "\n";
    return drained ? 0 : 1;
}

/** @return @p root[section][key] as a number (0 when absent). */
double
topNumber(const obs::JsonValue &root, const char *section,
          const char *key)
{
    const obs::JsonValue *sec = root.find(section);
    return sec != nullptr ? sec->numberOr(key, 0.0) : 0.0;
}

/** Render one parsed introspection snapshot as a text dashboard. */
void
renderTop(const obs::JsonValue &snap, const std::string &target,
          std::ostream &out)
{
    const auto count = [&snap](const char *section, const char *key) {
        return static_cast<std::uint64_t>(topNumber(snap, section, key));
    };
    out << "chaos top — " << target << " (ts " << count("fleet", "ts_ms")
        << " ms)\n\n";
    out << "fleet:  "
        << formatDouble(topNumber(snap, "fleet", "cluster_w"), 1)
        << " W cluster, " << count("fleet", "processed")
        << " processed, " << count("fleet", "dropped")
        << " dropped, drifting " << count("fleet", "drifting")
        << ", quarantined " << count("fleet", "quarantined") << "\n";
    out << "ingest: " << count("ingest", "connections_open")
        << " connections open, " << count("ingest", "samples_accepted")
        << " accepted, " << count("ingest", "rejected_backpressure")
        << " backpressured, " << count("ingest", "bad_frames")
        << " bad frames\n";
    out << "flight: " << count("flight", "bundles_written")
        << " bundles, " << count("flight", "triggers_seen")
        << " triggers\n\n";

    const obs::JsonValue *stages = snap.find("stage_latency");
    TextTable table({"Stage", "p50 (us)", "p99 (us)", "Samples"});
    if (stages != nullptr && stages->isObject()) {
        for (const auto &[name, stage] : stages->members()) {
            if (!stage.isObject())
                continue;
            table.addRow({name,
                          formatDouble(stage.numberOr("p50", 0.0), 2),
                          formatDouble(stage.numberOr("p99", 0.0), 2),
                          std::to_string(static_cast<std::uint64_t>(
                              stage.numberOr("count", 0.0)))});
        }
    }
    out << table.render();
}

} // namespace

/**
 * Drive an ingest server with paced concurrent connections — the
 * client half of `chaos serve --listen`, for smoke tests and load
 * experiments. Machine ids default to the machine0..machineN-1 names
 * listen mode registers. --replay switches to trace mode: send a
 * recorded (optionally fault-injected) dataset instead of synthetic
 * rows.
 */
int
cmdLoadgen(const ParsedArgs &args, std::ostream &out,
           std::ostream &err)
{
    std::string target = args.flagOr("target", "");
    if (target.empty())
        return usageError("loadgen", err);
    if (net::isSocketTarget(target))
        target = target.substr(6);
    if (!args.flagOr("replay", "").empty())
        return loadgenReplay(args, target, out);

    net::LoadGenConfig config;
    const auto [host, port] = net::parseHostPort(target);
    config.host = host;
    config.port = port;
    config.connections = args.number("connections", config.connections);
    config.workers = args.number("workers", config.workers);
    config.samplesPerConnection =
        args.number("samples", config.samplesPerConnection);
    config.ratePerConnection =
        args.number("rate", config.ratePerConnection);
    config.rowSize =
        args.number("row-size", CounterCatalog::instance().size());
    config.window = args.number("window", config.window);
    config.meteredEvery =
        args.number("metered-every", config.meteredEvery);
    config.seed = args.number("seed", config.seed);

    const std::string idList = args.flagOr("machine-ids", "");
    if (!idList.empty()) {
        for (const std::string &id : split(idList, ';'))
            if (!id.empty())
                config.machineIds.push_back(id);
    } else {
        const size_t machines = args.number<size_t>("machines", 8);
        for (size_t i = 0; i < machines; ++i)
            config.machineIds.push_back("machine" +
                                        std::to_string(i));
    }

    net::LoadGenerator generator(config);
    const net::LoadGenReport report = generator.run();

    out << "loadgen: " << report.sent << " sent = "
        << report.accepted << " accepted + " << report.rejected
        << " rejected over " << config.connections
        << " connections in "
        << formatDouble(report.elapsedSec, 2) << " s ("
        << formatDouble(report.sentPerSec, 0) << " samples/sec)\n";
    out << "  ack latency: p50 "
        << formatDouble(report.p50LatencyMs, 2) << " ms, p99 "
        << formatDouble(report.p99LatencyMs, 2) << " ms, max "
        << formatDouble(report.maxLatencyMs, 2) << " ms\n";
    if (report.backpressureNacks > 0 || report.unknownNacks > 0) {
        out << "  nacks: " << report.backpressureNacks
            << " backpressure, " << report.unknownNacks
            << " unknown machine\n";
    }
    if (report.connectionsFailed > 0) {
        err << "error: " << report.connectionsFailed
            << " connections failed: " << report.firstError << "\n";
    }

    const std::string reportJson = args.flagOr("report-json", "");
    if (!reportJson.empty()) {
        writeTextFile(reportJson, report.toJson() + "\n");
        out << "wrote report to " << reportJson << "\n";
    }
    return report.connectionsFailed == 0 ? 0 : 1;
}

/**
 * `chaos top`: live introspection of a running `chaos serve
 * --listen` — poll the server's Introspect frame and render fleet
 * power, ingest accounting, per-stage latency percentiles, and the
 * flight-recorder state. --json 1 prints the raw snapshot JSON once
 * (the scriptable mode tier-1 validates); the default refreshes a
 * dashboard every --interval-ms until --count polls were shown.
 */
int
cmdTop(const ParsedArgs &args, std::ostream &out, std::ostream &err)
{
    std::string target = args.flagOr("target", "");
    if (target.empty() && args.positional.size() > 1)
        target = args.positional[1];
    if (target.empty())
        return usageError("top", err);
    if (net::isSocketTarget(target))
        target = target.substr(6);
    const auto [host, port] = net::parseHostPort(target);

    const bool jsonMode = args.enabled("json");
    const int timeoutMs = args.number("timeout-ms", 5000);
    const int intervalMs = args.number("interval-ms", 1000);
    // --json is one-shot unless --count says otherwise; the
    // dashboard refreshes until interrupted by default.
    const std::uint64_t count =
        args.number<std::uint64_t>("count", jsonMode ? 1 : 0);

    for (std::uint64_t poll = 0; count == 0 || poll < count; ++poll) {
        if (poll > 0) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(intervalMs));
        }
        const std::string json =
            net::fetchSnapshot(host, port, poll + 1, timeoutMs);
        if (jsonMode) {
            out << json << "\n";
            continue;
        }
        obs::JsonValue snap;
        raiseIf(!obs::jsonParse(json, snap),
                "top: server sent malformed snapshot JSON");
        if (poll > 0)
            out << "\x1b[2J\x1b[H"; // Clear + home between refreshes.
        renderTop(snap, target, out);
        out.flush();
    }
    return 0;
}

} // namespace chaos::cli
