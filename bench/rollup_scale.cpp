/**
 * @file
 * Datacenter-scale roll-up benchmark: gates the cost of hierarchical
 * quality aggregation and sweeps metered-reference density against
 * roll-up verdict quality.
 *
 *  1. Scale: synthetic topologies of 10k and 100k machines (fast
 *     mode: 2k / 10k), each fed two ways. The string path
 *     ("path": "string") is RollupTree::update(groupPath, observation)
 *     per machine, the edge JSONL replay and fleetview use. The index
 *     path ("path": "index") is what a live server's tick pays:
 *     LiveRollupFeed::place once per machine, then per tick one
 *     observe() of a fleet and a quality snapshot that carry machine
 *     indices. Inputs are synthesized OUTSIDE the timed region. Per
 *     tick we time (a) the update pass (update() per machine, or one
 *     observe()) and (b) the full aggregation pass that rolls every
 *     node's sketches, mixes, and worst-N rankings up to the root.
 *     Both paths must aggregate to bit-identical JSON (gated). Both
 *     passes are gated per machine, so one budget covers both
 *     scales:
 *       - update:     <= 3 µs/machine
 *       - aggregate:  <= 5 µs/machine
 *       - memory:     <= 1536 bytes/machine for the whole tree
 *     Floor rationale: an update is a path lookup + a binary search
 *     of the group's machines + a struct copy, an observe() a join
 *     and a struct write, and an aggregation two sketch adds plus an
 *     amortized share of O(nodes x buckets) merges — all well under
 *     0.3 µs/machine. The budgets sit ~10x above that so only a real
 *     regression (per-machine allocation, accidental O(n^2) merge,
 *     unbounded rankings) trips them on a loaded builder, while
 *     still pinning a 100k-machine datacenter tick under half a
 *     second. Memory: a machine is ~80 bytes of state plus its id
 *     string and a slot in its group; 1536 bytes leaves room for
 *     node plumbing without letting per-machine state balloon.
 *
 *  2. Determinism: the aggregated roll-up JSON must be bit-identical
 *     between CHAOS_THREADS=1 and 8 (gated) — the sketches hold
 *     integer bucket counts and merges run in sorted-name order, so
 *     thread count must not leak into a single byte.
 *
 *  3. Density sweep: the paper's pooling trade-off at fleet scale.
 *     With drift injected into a known set of machines, sweep the
 *     metered fraction per platform class and report how many
 *     ground-truth drifters the roll-up actually flags. Recall at
 *     full metering must be >= 0.85 (drift ramps past every detector
 *     by the replay horizon) and must not increase as metering
 *     thins (gated); the absolute curve is reported for the docs.
 *
 * Writes BENCH_rollup.json; exits nonzero when a gate fails.
 */
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/bench_support.hpp"
#include "rollup/feed.hpp"
#include "rollup/rollup.hpp"
#include "rollup/synthetic.hpp"
#include "sim/fleet_topology.hpp"
#include "util/parallel.hpp"
#include "util/string_utils.hpp"

namespace {

using namespace chaos;

double
nowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct ScaleResult
{
    const char *path = "string"; ///< "string" or "index".
    std::size_t machines = 0;
    std::size_t nodes = 0;
    double updateMsPerTick = 0.0;
    double aggregateMsPerTick = 0.0;
    std::size_t memoryBytes = 0;
    double bytesPerMachine = 0.0;
    double clusterW = 0.0;
};

/** Best-of-N per-tick cost of the update and aggregate passes. */
ScaleResult
measureScale(std::size_t machines, std::uint64_t seed)
{
    FleetTopologyConfig config;
    config.machines = machines;
    config.seed = seed;
    const FleetTopology topology(config);

    rollup::RollupTree tree;
    ScaleResult result;
    result.machines = machines;

    const std::uint64_t ticks = 4;
    double bestUpdate = 1e18;
    double bestAggregate = 1e18;
    for (std::uint64_t tick = 0; tick < ticks; ++tick) {
        // Synthesis outside the timed region: the gate covers the
        // roll-up, not the workload generator.
        std::vector<rollup::MachineObservation> observations;
        observations.reserve(machines);
        for (std::size_t i = 0; i < machines; ++i) {
            observations.push_back(rollup::toObservation(
                topology.machines()[i], topology.observe(i, tick)));
        }

        const double updateStart = nowMs();
        for (std::size_t i = 0; i < machines; ++i) {
            tree.update(topology.machines()[i].groupPath,
                        observations[i]);
        }
        const double updateEnd = nowMs();

        const rollup::NodeSummary summary = tree.aggregate();
        const double aggregateEnd = nowMs();

        bestUpdate = std::min(bestUpdate, updateEnd - updateStart);
        bestAggregate =
            std::min(bestAggregate, aggregateEnd - updateEnd);
        result.clusterW = summary.stats.watts;
    }

    result.nodes = tree.numNodes();
    result.updateMsPerTick = bestUpdate;
    result.aggregateMsPerTick = bestAggregate;
    result.memoryBytes = tree.memoryBytes();
    result.bytesPerMachine =
        static_cast<double>(result.memoryBytes) /
        static_cast<double>(machines);
    return result;
}

/** One tick as a live server reports it: snapshots with indices. */
struct LiveTick
{
    serve::FleetSnapshot fleet;
    monitor::QualitySnapshot quality;
};

LiveTick
liveTick(const FleetTopology &topology, std::uint64_t tick)
{
    LiveTick t;
    const auto &machines = topology.machines();
    t.fleet.machines.reserve(machines.size());
    t.quality.machines.reserve(machines.size());
    for (std::size_t i = 0; i < machines.size(); ++i) {
        const SyntheticObservation s = topology.observe(i, tick);
        serve::MachineSnapshot &m = t.fleet.machines.emplace_back();
        m.id = machines[i].id;
        m.index = static_cast<std::uint32_t>(i);
        m.watts = s.watts;
        m.samples = s.samples;
        m.residualSamples = s.referenceSamples;
        m.meanResidualW = s.biasW;
        m.dropped = s.dropped;
        m.health = s.health;
        m.quality = s.quality;
        m.quarantined = s.quarantined;
        monitor::MachineQualityReport &q =
            t.quality.machines.emplace_back();
        q.id = m.id;
        q.index = m.index;
        q.quality = s.quality;
        q.referenceSamples = s.referenceSamples;
        q.windowRmseW = s.windowRmseW;
        q.rollingDre = s.rollingDre;
        q.biasW = s.biasW;
        q.drifted = s.drifted;
    }
    // Snapshots list machines in id order.
    const auto byId = [](const auto &a, const auto &b) {
        return a.id < b.id;
    };
    std::sort(t.fleet.machines.begin(), t.fleet.machines.end(), byId);
    std::sort(t.quality.machines.begin(), t.quality.machines.end(),
              byId);
    return t;
}

/**
 * The index path at the same scale: place() once, then per tick one
 * observe() and one aggregate(). @p matches is set when the final
 * aggregate is bit-identical to the string path's on @p reference.
 */
ScaleResult
measureIndexScale(std::size_t machines, std::uint64_t seed,
                  bool &matches);

/** Full pre-order JSONL dump (the determinism fingerprint). */
std::string rollupDump(const rollup::NodeSummary &node);

ScaleResult
measureIndexScale(std::size_t machines, std::uint64_t seed,
                  bool &matches)
{
    FleetTopologyConfig config;
    config.machines = machines;
    config.seed = seed;
    const FleetTopology topology(config);

    rollup::RollupTree tree;
    rollup::LiveRollupFeed feed(tree);
    for (const SyntheticMachine &m : topology.machines())
        feed.place(m.id, m.groupPath, machineClassName(m.machineClass));
    ScaleResult result;
    result.path = "index";
    result.machines = machines;

    const std::uint64_t ticks = 4;
    double bestObserve = 1e18;
    double bestAggregate = 1e18;
    std::string dump;
    for (std::uint64_t tick = 0; tick < ticks; ++tick) {
        const LiveTick t = liveTick(topology, tick);
        const double observeStart = nowMs();
        feed.observe(t.fleet, t.quality);
        const double observeEnd = nowMs();
        const rollup::NodeSummary summary = feed.aggregate();
        const double aggregateEnd = nowMs();
        bestObserve = std::min(bestObserve, observeEnd - observeStart);
        bestAggregate =
            std::min(bestAggregate, aggregateEnd - observeEnd);
        result.clusterW = summary.stats.watts;
        if (tick + 1 == ticks)
            dump = rollupDump(summary);
    }

    // The same final state through the string edge.
    rollup::RollupTree reference;
    rollup::SyntheticRollupFeed(reference, topology).tick(ticks - 1);
    matches = dump == rollupDump(reference.aggregate());

    result.nodes = tree.numNodes();
    result.updateMsPerTick = bestObserve;
    result.aggregateMsPerTick = bestAggregate;
    result.memoryBytes = tree.memoryBytes();
    result.bytesPerMachine =
        static_cast<double>(result.memoryBytes) /
        static_cast<double>(machines);
    return result;
}

std::string
rollupDump(const rollup::NodeSummary &node)
{
    std::string out = node.toJson();
    out += "\n";
    for (const rollup::NodeSummary &child : node.children)
        out += rollupDump(child);
    return out;
}

struct DensityResult
{
    double density = 0.0;
    std::size_t groundTruth = 0;   ///< Machines that truly drift.
    std::size_t metered = 0;
    std::size_t detected = 0;      ///< Flagged Drifting by roll-up.
    double recall = 0.0;
};

DensityResult
measureDensity(double density, std::size_t machines,
               std::uint64_t seed)
{
    FleetTopologyConfig config;
    config.machines = machines;
    config.seed = seed;
    config.meteredFraction = density;
    config.driftFraction = 0.08;
    const FleetTopology topology(config);

    rollup::RollupTree tree;
    rollup::SyntheticRollupFeed feed(tree, topology);
    // Past every drift onset (warmup + 21 max) plus the ramp.
    const std::uint64_t ticks = 40;
    for (std::uint64_t t = 0; t < ticks; ++t)
        feed.tick(t);

    const rollup::NodeSummary summary = tree.aggregate();
    DensityResult result;
    result.density = density;
    result.groundTruth = topology.driftTruthTotal();
    result.metered = summary.stats.metered;
    result.detected = summary.stats.qualityDrifting;
    result.recall =
        result.groundTruth
            ? static_cast<double>(result.detected) /
                  static_cast<double>(result.groundTruth)
            : 0.0;
    return result;
}

} // namespace

int
main()
{
    const bool fast = bench::fastMode();
    std::printf("== rollup_scale: hierarchical roll-up cost ==\n\n");

    // --- Scale phase. ---
    const std::vector<std::size_t> scales =
        fast ? std::vector<std::size_t>{2'000, 10'000}
             : std::vector<std::size_t>{10'000, 100'000};
    const double updateBudgetUsPerMachine = 3.0;
    const double aggregateBudgetUsPerMachine = 5.0;
    const double memoryBudgetBytesPerMachine = 1536.0;

    bool ok = true;
    bool indexMatches = true;
    std::vector<ScaleResult> scaleResults;
    std::printf("%7s %10s %8s %12s %14s %12s %10s\n", "path",
                "machines", "nodes", "update/tick", "aggregate/tick",
                "memory", "bytes/m");
    for (std::size_t machines : scales) {
        bool matches = false;
        scaleResults.push_back(measureScale(machines, 2012));
        scaleResults.push_back(
            measureIndexScale(machines, 2012, matches));
        if (!matches) {
            std::printf("FAIL: index path aggregate differs from the "
                        "string path at %zu machines\n",
                        machines);
            indexMatches = false;
            ok = false;
        }
    }
    for (const ScaleResult &r : scaleResults) {
        std::printf("%7s %10zu %8zu %9.2f ms %11.2f ms %9.1f MB "
                    "%10.0f\n",
                    r.path, r.machines, r.nodes, r.updateMsPerTick,
                    r.aggregateMsPerTick,
                    static_cast<double>(r.memoryBytes) / 1e6,
                    r.bytesPerMachine);

        const double updateUs =
            r.updateMsPerTick * 1000.0 /
            static_cast<double>(r.machines);
        const double aggregateUs =
            r.aggregateMsPerTick * 1000.0 /
            static_cast<double>(r.machines);
        if (updateUs > updateBudgetUsPerMachine) {
            std::printf("FAIL: update pass %.2f us/machine exceeds "
                        "%.1f us budget at %zu machines\n",
                        updateUs, updateBudgetUsPerMachine,
                        r.machines);
            ok = false;
        }
        if (aggregateUs > aggregateBudgetUsPerMachine) {
            std::printf("FAIL: aggregate pass %.2f us/machine "
                        "exceeds %.1f us budget at %zu machines\n",
                        aggregateUs, aggregateBudgetUsPerMachine,
                        r.machines);
            ok = false;
        }
        if (r.bytesPerMachine > memoryBudgetBytesPerMachine) {
            std::printf("FAIL: %.0f bytes/machine exceeds %.0f "
                        "budget at %zu machines\n",
                        r.bytesPerMachine,
                        memoryBudgetBytesPerMachine, r.machines);
            ok = false;
        }
    }

    // --- Determinism phase: thread count must not leak. ---
    bool deterministic = true;
    {
        FleetTopologyConfig config;
        config.machines = fast ? 1'000 : 5'000;
        config.seed = 7;
        const FleetTopology topology(config);
        rollup::RollupTree tree;
        rollup::SyntheticRollupFeed feed(tree, topology);
        for (std::uint64_t t = 0; t < 10; ++t)
            feed.tick(t);

        setGlobalThreadCount(1);
        const std::string serial = rollupDump(tree.aggregate());
        setGlobalThreadCount(8);
        const std::string threaded = rollupDump(tree.aggregate());
        setGlobalThreadCount(0);
        deterministic = serial == threaded;
        std::printf("\ndeterminism: %zu-node dump, 1 vs 8 threads: "
                    "%s\n",
                    tree.numNodes(),
                    deterministic ? "bit-identical" : "DIFFERS");
        if (!deterministic) {
            std::printf("FAIL: roll-up JSON depends on thread "
                        "count\n");
            ok = false;
        }
    }

    // --- Metered-density sweep: references vs verdict quality. ---
    const std::vector<double> densities = {1.0, 0.5, 0.25,
                                           0.1, 0.05, 0.02};
    const std::size_t sweepMachines = fast ? 1'000 : 5'000;
    std::vector<DensityResult> densityResults;
    std::printf("\n%8s %14s %10s %10s %8s\n", "metered",
                "ground truth", "metered", "detected", "recall");
    for (double density : densities) {
        const DensityResult r =
            measureDensity(density, sweepMachines, 99);
        densityResults.push_back(r);
        std::printf("%7.0f%% %14zu %10zu %10zu %7.1f%%\n",
                    density * 100.0, r.groundTruth, r.metered,
                    r.detected, r.recall * 100.0);
    }
    // Full metering must catch (essentially) every injected drifter;
    // thinning the references must never *improve* the verdict.
    if (densityResults.front().recall < 0.85) {
        std::printf("FAIL: recall %.2f at full metering is below "
                    "0.85\n",
                    densityResults.front().recall);
        ok = false;
    }
    for (std::size_t i = 1; i < densityResults.size(); ++i) {
        if (densityResults[i].recall >
            densityResults.front().recall + 1e-9) {
            std::printf("FAIL: recall rose from %.2f to %.2f as "
                        "metering thinned to %.0f%%\n",
                        densityResults.front().recall,
                        densityResults[i].recall,
                        densityResults[i].density * 100.0);
            ok = false;
        }
    }

    // --- BENCH_rollup.json. ---
    std::string json = "{\n";
    json += "  \"bench\": \"rollup_scale\",\n";
    json += "  \"fast_mode\": " +
            std::string(fast ? "true" : "false") + ",\n";
    json += bench::hostJsonFields();
    json += "  \"scale\": [\n";
    for (std::size_t i = 0; i < scaleResults.size(); ++i) {
        const ScaleResult &r = scaleResults[i];
        const bool index = std::string(r.path) == "index";
        json += "    {\"path\": \"" + std::string(r.path) +
                "\", \"machines\": " + std::to_string(r.machines) +
                ", \"nodes\": " + std::to_string(r.nodes) +
                (index ? ", \"observe_ms_per_tick\": "
                       : ", \"update_ms_per_tick\": ") +
                formatDouble(r.updateMsPerTick, 3) +
                ", \"aggregate_ms_per_tick\": " +
                formatDouble(r.aggregateMsPerTick, 3) +
                ", \"memory_bytes\": " +
                std::to_string(r.memoryBytes) +
                ", \"bytes_per_machine\": " +
                formatDouble(r.bytesPerMachine, 1) +
                ", \"cluster_w\": " + formatDouble(r.clusterW, 1) +
                "}";
        json += (i + 1 < scaleResults.size()) ? ",\n" : "\n";
    }
    json += "  ],\n";
    json += "  \"update_budget_us_per_machine\": " +
            formatDouble(updateBudgetUsPerMachine, 1) + ",\n";
    json += "  \"aggregate_budget_us_per_machine\": " +
            formatDouble(aggregateBudgetUsPerMachine, 1) + ",\n";
    json += "  \"memory_budget_bytes_per_machine\": " +
            formatDouble(memoryBudgetBytesPerMachine, 0) + ",\n";
    json += "  \"deterministic\": " +
            std::string(deterministic ? "true" : "false") + ",\n";
    json += "  \"index_matches_string\": " +
            std::string(indexMatches ? "true" : "false") + ",\n";
    json += "  \"density_sweep\": [\n";
    for (std::size_t i = 0; i < densityResults.size(); ++i) {
        const DensityResult &r = densityResults[i];
        json += "    {\"density\": " + formatDouble(r.density, 2) +
                ", \"ground_truth\": " +
                std::to_string(r.groundTruth) +
                ", \"metered\": " + std::to_string(r.metered) +
                ", \"detected\": " + std::to_string(r.detected) +
                ", \"recall\": " + formatDouble(r.recall, 4) + "}";
        json += (i + 1 < densityResults.size()) ? ",\n" : "\n";
    }
    json += "  ],\n";
    json += "  \"pass\": " + std::string(ok ? "true" : "false") +
            "\n}\n";
    std::ofstream out("BENCH_rollup.json");
    out << json;
    std::printf("\nwrote BENCH_rollup.json (%s)\n",
                ok ? "pass" : "FAIL");
    return ok ? 0 : 1;
}
