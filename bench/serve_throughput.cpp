/**
 * @file
 * Serving-path overhead benchmark: what an attached monitor, an armed
 * autopilot and always-on stage tracing each cost per sample.
 *
 * Measures the fleet server (src/serve) on a 5-machine Core2 fleet
 * with a deployed linear model, in three paired off/on phases. Each
 * preloads the queues with recorded catalog rows and times only the
 * drain loop, so no producer races the drainer and the difference is
 * the cost under test, not queue traffic or scheduling:
 *
 *  - monitor overhead: metered reference readings on every sample,
 *    drained on one thread with and without a FleetMonitor attached;
 *  - autopilot overhead: the monitored drain is repeated with an
 *    armed AutopilotController (reference windows enabled on every
 *    machine, drift listener installed, ticked after every drain
 *    pass) against a monitor-only baseline;
 *  - stage-tracing overhead: the batched drain on the thread pool,
 *    with sample stage tracing (ingest stamps + chaos.serve.stage.*
 *    histograms) toggled off and on, gating the tracing cost on the
 *    multi-million-samples/sec path it rides.
 *
 * Throughput, latency and per-layer cost of the serving path at
 * datacenter fleet sizes are perfbench's job (perfbench/README.md).
 * It cannot measure these three costs: it runs no autopilot, and its
 * trace.overhead_pct times perfbench's own timers, not the stage
 * stamps that are always on.
 *
 * Overhead methodology: off and on run back-to-back inside each rep
 * so each pair shares the host's load; the first (warmup) pair is
 * discarded — it pays page faults, pool spin-up, and allocator warmup
 * for both sides; the reported overhead is the *median* of the
 * per-rep ns/sample differences. Selecting the best pair instead
 * systematically reports the most favorable scheduler accident —
 * including impossible negative overheads — because the minimum of
 * noisy differences is biased low. The median raw value may still
 * come out slightly negative on a noisy host (that is what the noise
 * bound quantifies); the headline overhead clamps it at zero, and
 * both values are written to the JSON.
 *
 * Writes BENCH_serve.json into the working directory and exits
 * nonzero if an overhead budget fails or the end-to-end stage
 * latency p99 is not positive, so tier-1 can run it as a smoke test.
 */
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "autopilot/autopilot.hpp"
#include "common/bench_support.hpp"
#include "monitor/fleet_monitor.hpp"
#include "serve/server.hpp"
#include "serve/stage_metrics.hpp"
#include "stats/descriptive.hpp"
#include "util/parallel.hpp"
#include "util/string_utils.hpp"

using namespace chaos;

namespace {

constexpr size_t kFleetSize = 5;

/**
 * A 5-machine fleet whose queues hold @p total samples: the preload
 * must fit, or drop-oldest would silently shrink the measured
 * workload.
 */
std::unique_ptr<serve::FleetServer>
makeFleet(const MachinePowerModel &model, size_t total)
{
    serve::FleetServerConfig config;
    config.queueCapacity = total;
    auto server = std::make_unique<serve::FleetServer>(config);
    for (size_t m = 0; m < kFleetSize; ++m)
        server->addMachine("machine" + std::to_string(m), model);
    return server;
}

/**
 * Queue @p total samples round-robin over the fleet, metered when
 * @p meteredW is non-empty, then time nothing but the drain loop on
 * this thread, calling @p afterPass after every pass: the serving
 * path in isolation, with no producer on the other side of the
 * queues and so no queue traffic or scheduling in the number. Adds
 * the server's drops to @p dropped (the harness is broken if any).
 * @return Samples/sec.
 */
template <typename AfterPass>
double
timePreloadedDrain(serve::FleetServer &server,
                   const std::vector<std::vector<double>> &rows,
                   const std::vector<double> &meteredW, size_t total,
                   uint64_t &dropped, AfterPass &&afterPass)
{
    const std::vector<std::string> ids = server.machineIds();
    std::vector<serve::MachineEntry *> entries;
    for (const std::string &id : ids)
        entries.push_back(server.machine(id));
    for (size_t i = 0; i < total; ++i) {
        const size_t r = i % rows.size();
        server.submitTo(*entries[i % entries.size()], rows[r],
                        meteredW.empty()
                            ? std::numeric_limits<double>::quiet_NaN()
                            : meteredW[r]);
    }

    const auto start = std::chrono::steady_clock::now();
    while (server.drainOnce() > 0)
        afterPass();
    const auto stop = std::chrono::steady_clock::now();

    dropped += server.dropped();
    const double seconds =
        std::chrono::duration<double>(stop - start).count();
    return static_cast<double>(server.processed()) / seconds;
}

/**
 * The batched evaluation path (compiled plans, reused scratch) on a
 * preloaded drain with @p threads pool threads. @return Samples/sec.
 */
double
drainBlast(const MachinePowerModel &model,
           const std::vector<std::vector<double>> &rows,
           size_t threads, size_t total, uint64_t &dropped)
{
    setGlobalThreadCount(threads);
    const auto server = makeFleet(model, total);
    const double sps =
        timePreloadedDrain(*server, rows, {}, total, dropped, [] {});
    setGlobalThreadCount(1);
    return sps;
}

/**
 * Preloaded single-threaded drain with metered references on every
 * sample, optionally with a FleetMonitor attached.
 * @return Samples/sec.
 */
double
monitoredDrain(const MachinePowerModel &model,
               const std::vector<std::vector<double>> &rows,
               const std::vector<double> &meteredW, bool monitorOn,
               size_t total, uint64_t &dropped)
{
    const auto server = makeFleet(model, total);
    monitor::QualityMonitorConfig qualityConfig;
    // Arm the detector early so the whole run pays the full
    // per-sample monitoring cost, not just the warmup accumulation.
    qualityConfig.warmupSamples = 100;
    monitor::FleetMonitor fleetMonitor(qualityConfig);
    if (monitorOn)
        fleetMonitor.attach(*server);
    return timePreloadedDrain(*server, rows, meteredW, total, dropped,
                              [] {});
}

/**
 * Monitored preloaded drain with an armed (but idle) autopilot:
 * every machine has a live reference window, the drift listener is
 * installed, and the controller ticks after every drain pass (~1000
 * samples) the way a live deployment would tick once a second.
 * Nothing drifts, so this measures the pure drain-path cost of being
 * remediable. @return Samples/sec.
 */
double
autopilotDrain(const MachinePowerModel &model,
               const std::vector<std::vector<double>> &rows,
               const std::vector<double> &meteredW, bool autopilotOn,
               size_t total, uint64_t &dropped)
{
    const auto server = makeFleet(model, total);
    monitor::QualityMonitorConfig qualityConfig;
    qualityConfig.warmupSamples = 100;
    monitor::FleetMonitor fleetMonitor(qualityConfig);
    fleetMonitor.attach(*server);
    autopilot::AutopilotController pilot(*server, fleetMonitor);
    if (autopilotOn)
        pilot.start();
    const double sps = timePreloadedDrain(
        *server, rows, meteredW, total, dropped, [&] {
            if (autopilotOn)
                pilot.tick();
        });
    if (autopilotOn)
        pilot.stop();
    return sps;
}

/** Result of one paired-overhead measurement (see file comment). */
struct OverheadResult
{
    double offSps = 0.0;       ///< Median baseline samples/sec.
    double onSps = 0.0;        ///< Median treated samples/sec.
    double rawNsPerSample = 0.0; ///< Median of per-pair differences.
    double nsPerSample = 0.0;  ///< Headline: raw clamped at >= 0.
    double rawPct = 0.0;       ///< From the median sps values.
    double pct = 0.0;          ///< Headline: raw clamped at >= 0.
    double noiseNs = 0.0;      ///< MAD of the per-pair differences.
};

/**
 * Run @p reps measured off/on pairs of @p run (after one discarded
 * warmup pair) and reduce them with the median-of-differences
 * estimator described in the file comment.
 */
template <typename RunFn>
OverheadResult
measureOverhead(const char *label, RunFn run, int reps)
{
    run(false);
    run(true); // Warmup pair: discarded (see file comment).

    std::vector<double> offRuns, onRuns, diffsNs;
    for (int rep = 0; rep < reps; ++rep) {
        const double off = run(false);
        const double on = run(true);
        std::printf("  %s rep %d: off %.0f/s, on %.0f/s\n", label,
                    rep + 1, off, on);
        offRuns.push_back(off);
        onRuns.push_back(on);
        diffsNs.push_back(1e9 / on - 1e9 / off);
    }

    OverheadResult result;
    result.offSps = median(offRuns);
    result.onSps = median(onRuns);
    result.rawNsPerSample = median(diffsNs);
    result.nsPerSample = std::max(result.rawNsPerSample, 0.0);
    result.rawPct =
        (result.offSps - result.onSps) / result.offSps * 100.0;
    result.pct = std::max(result.rawPct, 0.0);
    std::vector<double> deviations;
    for (double d : diffsNs)
        deviations.push_back(std::fabs(d - result.rawNsPerSample));
    result.noiseNs = median(deviations);
    return result;
}

/** JSON fragment shared by the overhead sections. */
std::string
overheadJson(const OverheadResult &r, size_t samples, int reps)
{
    return "{\"samples\": " + std::to_string(samples) +
           ", \"reps\": " + std::to_string(reps) +
           ", \"off_samples_per_sec\": " + formatDouble(r.offSps, 0) +
           ", \"on_samples_per_sec\": " + formatDouble(r.onSps, 0) +
           ", \"overhead_pct\": " + formatDouble(r.pct, 4) +
           ", \"raw_overhead_pct\": " + formatDouble(r.rawPct, 4) +
           ", \"overhead_ns_per_sample\": " +
           formatDouble(r.nsPerSample, 2) +
           ", \"raw_overhead_ns_per_sample\": " +
           formatDouble(r.rawNsPerSample, 2) +
           ", \"noise_ns_per_sample\": " +
           formatDouble(r.noiseNs, 2) + "}";
}

/**
 * The overhead gate: fail only when the treated side is more than 1 %
 * slower AND its absolute cost exceeds @p budgetNs plus one noise
 * bound (the MAD of the per-pair differences). A median within noise
 * of the budget is not evidence of a regression, and on a loaded host
 * the MAD widens exactly when a hard cutoff would be meaningless; a
 * real regression shows a median clear of both.
 */
bool
overheadWithinBudget(const char *what, const OverheadResult &r,
                     double budgetNs)
{
    if (r.onSps < 0.99 * r.offSps &&
        r.nsPerSample > budgetNs + r.noiseNs) {
        std::printf("FAIL: %s: on %.0f/s is more than 1%% below off "
                    "%.0f/s and the absolute cost %.1f ns/sample "
                    "exceeds %.0f ns + %.1f ns noise\n",
                    what, r.onSps, r.offSps, r.nsPerSample, budgetNs,
                    r.noiseNs);
        return false;
    }
    return true;
}

void
printOverhead(const char *what, const OverheadResult &r, int reps,
              double budgetNs)
{
    std::printf("\n%s (median of %d pairs): off %.0f/s, on %.0f/s "
                "(%+.3f%% raw, %+.1f ns/sample raw, noise %.1f ns), "
                "budget 1%% or %.0f ns/sample + noise\n",
                what, reps, r.offSps, r.onSps, r.rawPct,
                r.rawNsPerSample, r.noiseNs, budgetNs);
}

} // namespace

int
main()
{
    const bool fast = bench::fastMode();
    std::printf("== serve_throughput: serving-path overheads ==\n\n");

    // A small recorded campaign supplies realistic catalog rows and
    // the training data for the deployed model.
    CampaignConfig config;
    config.numMachines = kFleetSize;
    config.runsPerWorkload = 1;
    config.seed = 2012;
    config.run.durationScale = fast ? 0.05 : 0.2;
    const ClusterCampaign campaign =
        collectClusterData(MachineClass::Core2, config);
    const Dataset &data = campaign.data;

    FeatureSet features{"bench",
                        {"Processor(0)\\% Processor Time",
                         "Processor(1)\\% Processor Time"}};
    const MachinePowerModel model = MachinePowerModel::fit(
        data, features, ModelType::Linear, MarsConfig());

    const size_t pool = std::min<size_t>(data.numRows(), 1024);
    std::vector<std::vector<double>> rows;
    std::vector<double> meteredPool;
    rows.reserve(pool);
    meteredPool.reserve(pool);
    for (size_t r = 0; r < pool; ++r) {
        rows.push_back(data.features().row(r));
        meteredPool.push_back(data.powerW()[r]);
    }

    // Absolute per-sample cost: the honest unit for the hot-path
    // budget. Short fast-mode runs on a loaded host carry several
    // percent of scheduler noise, so the relative gate alone would
    // flap; 20 ns/sample is < 1% of any realistic per-sample serving
    // cost.
    const double overheadNsBudget = 20.0;

    // --- Monitor overhead: metered drain with/without FleetMonitor. ---
    // Both gates time a preloaded drain on one thread, as the
    // stage-tracing gate does: a producer racing the drainer would put
    // queue-shard traffic and scheduling into the difference, not
    // only the monitor's cost. Runs long enough that each timed side
    // spans many OS timeslices: on a small host the scheduler's ~3 ms
    // slices are the dominant noise term.
    const size_t monitorTotal = fast ? 300'000 : 600'000;
    const int monitorReps = 7;
    uint64_t preloadDropped = 0;
    const OverheadResult monitorOverhead = measureOverhead(
        "monitor",
        [&](bool on) {
            return monitoredDrain(model, rows, meteredPool, on,
                                  monitorTotal, preloadDropped);
        },
        monitorReps);
    printOverhead("monitor overhead, metered refs", monitorOverhead,
                  monitorReps, overheadNsBudget);

    // --- Autopilot overhead: armed-and-idle vs monitor-only. ---
    // Longer runs than the monitor phase in fast mode: the budget
    // compares two already-monitored configurations, so the signal
    // is a few ns/sample and a 30 ms fast-mode run would be pure
    // scheduler noise.
    const size_t autopilotTotal = fast ? 300'000 : 600'000;
    const int autopilotReps = 7;
    const OverheadResult autopilotOverhead = measureOverhead(
        "autopilot",
        [&](bool on) {
            return autopilotDrain(model, rows, meteredPool, on,
                                  autopilotTotal, preloadDropped);
        },
        autopilotReps);
    printOverhead("autopilot overhead, armed idle", autopilotOverhead,
                  autopilotReps, overheadNsBudget);

    // --- Stage-tracing overhead: batched drain off/on. ---
    // The batched drain is the fastest path stage tracing rides
    // (millions of samples/sec, so tens of ns/sample of tracing work
    // would show immediately). Off-side runs drain unstamped samples;
    // on-side runs pay the submit stamp (outside the timed drain),
    // the per-sample guard + two histogram observes, and the
    // per-batch clock reads. No more pool threads than cores: an
    // oversubscribed pool makes the drainer wait on preempted
    // workers, which times the scheduler, not the tracing.
    const size_t stageThreads = std::clamp<size_t>(
        std::thread::hardware_concurrency(), 1, 4);
    const size_t stageTotal = fast ? 150'000 : 400'000;
    const int stageReps = 7;
    uint64_t stageDropped = 0;
    const OverheadResult stageOverhead = measureOverhead(
        "stage-tracing",
        [&](bool on) {
            serve::setStageTracingEnabled(on);
            const double sps = drainBlast(model, rows, stageThreads,
                                          stageTotal, stageDropped);
            serve::setStageTracingEnabled(true);
            return sps;
        },
        stageReps);
    printOverhead("stage-tracing overhead, batched drain",
                  stageOverhead, stageReps, overheadNsBudget);

    // --- Gates. ---
    bool ok = true;
    ok &= overheadWithinBudget("monitor", monitorOverhead,
                               overheadNsBudget);
    ok &= overheadWithinBudget("autopilot-armed", autopilotOverhead,
                               overheadNsBudget);
    ok &= overheadWithinBudget("stage tracing", stageOverhead,
                               overheadNsBudget);
    if (stageDropped + preloadDropped != 0) {
        std::printf("FAIL: preloaded drains dropped %llu samples "
                    "(preload overflowed a shard)\n",
                    static_cast<unsigned long long>(stageDropped +
                                                    preloadDropped));
        ok = false;
    }
    // The monitor and autopilot phases ran with tracing on (the
    // default), so the stage histograms must hold a real end-to-end
    // distribution by now — an empty or zero p99 means the stamps
    // stopped flowing.
    const double e2eP99Us =
        serve::StageMetrics::get().e2eUs.percentile(0.99);
    if (!(e2eP99Us > 0.0)) {
        std::printf("FAIL: end-to-end stage latency p99 is %.3f us "
                    "(stage stamps are not reaching the drain)\n",
                    e2eP99Us);
        ok = false;
    }

    // --- BENCH_serve.json. ---
    std::string json = "{\n";
    json += "  \"bench\": \"serve_throughput\",\n";
    json += "  \"fast_mode\": " +
            std::string(fast ? "true" : "false") + ",\n";
    json += bench::hostJsonFields();
    json += "  \"fleet_size\": " + std::to_string(kFleetSize) + ",\n";
    json += "  \"monitor_overhead\": " +
            overheadJson(monitorOverhead, monitorTotal, monitorReps) +
            ",\n";
    json += "  \"autopilot_overhead\": " +
            overheadJson(autopilotOverhead, autopilotTotal,
                         autopilotReps) +
            ",\n";
    json += "  \"stage_overhead_threads\": " +
            std::to_string(stageThreads) + ",\n";
    json += "  \"stage_overhead\": " +
            overheadJson(stageOverhead, stageTotal, stageReps) +
            ",\n";
    // Cumulative stage distributions across every traced phase of
    // this run: the committed artifact that proves end-to-end stamps
    // flow (tier-1 checks e2e p99 here is nonzero).
    json += "  \"stage_latency\": " + serve::stageLatencyJson() +
            ",\n";
    json += "  \"pass\": " + std::string(ok ? "true" : "false") +
            "\n}\n";
    std::ofstream out("BENCH_serve.json");
    out << json;
    std::printf("\nwrote BENCH_serve.json (%s)\n",
                ok ? "pass" : "FAIL");
    return ok ? 0 : 1;
}
