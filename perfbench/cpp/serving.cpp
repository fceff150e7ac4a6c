/**
 * @file
 * The two workloads, driven through the library's public API. Each
 * run is one deployment: set-up collects the platform campaigns, the
 * training stage (training.cpp) fits the class models on them, and
 * the fitted models serve a fleet:
 *
 *  - dc_fleet: 10,000 machines of three platform classes with a
 *    FleetMonitor attached (10 % of machines metered). All but four
 *    racks submit full catalog rows in process through
 *    FleetServer::submitTo; the four racks (160 machines) report over
 *    loopback, one IngestClient per rack, into ChaosIngestServer;
 *  - rack_wire: 40 machines of one class behind 4 loopback
 *    connections (IngestClient -> ChaosIngestServer), every sample
 *    metered, FleetMonitor attached.
 *
 * Both take one periodic snapshot per 10,000 samples and join it into
 * a dc/row/rack roll-up tree. Every machine sends at 1 simulated Hz
 * with a seeded phase, replaying its platform's recorded dataset in
 * time order from a seeded per-machine offset (the campaigns come
 * from a fixed seed). A round is three phases: a closed loop with a
 * bounded in-flight window (saturation throughput), then open loops
 * at two fixed absolute rates (latency from each sample's scheduled
 * send time to its SampleObserver callback, and process CPU per
 * sample). Per-machine FIFO order lets callback k of a machine be
 * matched to its send k.
 */
#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstring>
#include <iostream>
#include <memory>
#include <thread>

#include "common.hpp"
#include "core/chaos.hpp"
#include "monitor/fleet_monitor.hpp"
#include "net/client.hpp"
#include "net/ingest_server.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rollup/feed.hpp"
#include "serve/server.hpp"
#include "serve/stage_metrics.hpp"
#include "stats/descriptive.hpp"
#include "util/parallel.hpp"
#include "util/result.hpp"

namespace perfbench {

namespace {

using chaos::serve::FleetServer;
using chaos::serve::MachineEntry;

/** splitmix64: the benchmark's own seeded stream. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

double
unitDraw(std::uint64_t seed, std::uint64_t stream, std::uint64_t i)
{
    return static_cast<double>(mix(mix(seed ^ stream) + i) >> 11) *
           0x1.0p-53;
}

/** One platform class: its replay dataset and deployed model. */
struct Platform
{
    std::string name;
    const chaos::Dataset *data = nullptr; ///< Its campaign's, in the rig.
    chaos::MachinePowerModel model;
    chaos::OnlineEstimatorConfig estimatorConfig;
};

/** Fixed shape of one workload. */
struct Shape
{
    std::size_t machines = 0;
    std::vector<chaos::MachineClass> classes;
    // Campaign per class: recorded machines, runs per workload, length
    // factor of each run, and cross-validation folds.
    std::size_t campaignMachines = 2;
    std::size_t campaignRuns = 2;
    double campaignScale = 1.0;
    std::size_t folds = 2;
    double repSeconds = 1.0;       ///< Nominal training repetition.
    double meteredShare = 1.0;
    /** Machines 0 .. wireMachines-1 report over the wire. */
    std::size_t wireMachines = 0;
    std::size_t connections = 4;   ///< Splitting the wire machines.
    /** IngestClientConfig::coalesceBytes (0: a write per sample). */
    std::size_t coalesceBytes = chaos::net::IngestClientConfig{}.coalesceBytes;
    std::size_t rackSize = 40;     ///< Roll-up placement.
    std::size_t racksPerRow = 25;
    std::size_t snapshotEvery = 10000; ///< Samples per periodic snapshot.
    std::size_t window = 4096;     ///< Closed-loop in-flight bound.
    std::uint64_t warmupTicks = 0;
    std::uint64_t satTicks = 0;
    std::uint64_t loTicks = 0, hiTicks = 0;
    /**
     * Open-loop rates, samples per second: 25k and 50k on both
     * workloads, well below saturation (about 200k/s on rack_wire and
     * 470k-750k/s on dc_fleet on a shared 4-vCPU virtual machine).
     * There, a host steal episode of 15-25 % halved the capacity, and
     * p50 at 100k/s rose from 0.16 ms to 1 ms on dc_fleet and from
     * 1.2 ms to 5-170 ms on rack_wire.
     */
    double loRate = 0.0, hiRate = 0.0;
    double roundSeconds = 3.0;     ///< Nominal round length.
    /** Share of --seconds spent serving; training takes the rest. */
    double servingShare = 1.0;
};

chaos::CampaignConfig
campaignConfig(const Shape &shape)
{
    chaos::CampaignConfig config;
    config.seed = kCampaignSeed;
    config.numMachines = shape.campaignMachines;
    config.runsPerWorkload = shape.campaignRuns;
    config.run.durationScale = shape.campaignScale;
    config.evaluation.folds = shape.folds;
    return config;
}

/** Collect every class's campaign; adds the time to @p collectS. */
std::vector<chaos::ClusterCampaign>
collectCampaigns(const Shape &shape, double &collectS)
{
    const chaos::CampaignConfig config = campaignConfig(shape);
    std::vector<chaos::ClusterCampaign> campaigns;
    const double t0 = nowSec();
    for (chaos::MachineClass mc : shape.classes) {
        campaigns.push_back(chaos::collectClusterData(mc, config));
        campaigns.back().runs.clear();
        campaigns.back().runs.shrink_to_fit();
    }
    collectS += nowSec() - t0;
    return campaigns;
}

/** Per-machine observer state, touched only under the entry mutex. */
struct alignas(64) Cursor
{
    std::uint64_t count = 0;       ///< Callbacks so far.
    std::uint64_t digest = 0;      ///< Of the estimates, in order.
    std::uint64_t stray = 0;       ///< Callbacks with no send this phase.
    double monitorNs = 0.0;        ///< Sampled FleetMonitor time.
    std::uint64_t monitorCalls = 0;
};

/** What the observer needs to time an open-loop phase. */
struct PhaseInfo
{
    bool open = false;
    std::uint64_t baseTick = 0;
    std::uint64_t ticks = 0;
    std::uint64_t startNs = 0;
    double nsPerTick = 0.0;
    double *latencyMs = nullptr; ///< ticks x machines, rank order.
};

/** Static fleet layout shared by the generator and the observer. */
struct Fleet
{
    std::vector<std::string> ids;
    std::vector<std::size_t> platform;
    std::vector<std::size_t> offset;   ///< First dataset row replayed.
    std::vector<bool> metered;
    std::vector<double> phase;         ///< Seeded phase in [0, 1).
    std::vector<std::size_t> byRank;   ///< Send order within a tick.
    std::vector<std::size_t> rank;
};

Fleet
makeFleet(const Shape &shape, const std::vector<Platform> &platforms,
          std::uint64_t seed)
{
    Fleet f;
    const std::size_t n = shape.machines;
    for (std::size_t m = 0; m < n; ++m) {
        char id[32];
        std::snprintf(id, sizeof id, "m%05zu", m);
        f.ids.push_back(id);
        const std::size_t row = m / shape.rackSize / shape.racksPerRow;
        const std::size_t p = row % platforms.size();
        f.platform.push_back(p);
        f.offset.push_back(mix(mix(seed ^ 4) + m) %
                           platforms[p].data->numRows());
        f.metered.push_back(unitDraw(seed, 2, m) < shape.meteredShare);
        f.phase.push_back(unitDraw(seed, 3, m));
    }
    f.byRank.resize(n);
    for (std::size_t m = 0; m < n; ++m)
        f.byRank[m] = m;
    std::sort(f.byRank.begin(), f.byRank.end(),
              [&](std::size_t a, std::size_t b) {
                  return f.phase[a] != f.phase[b] ? f.phase[a] < f.phase[b]
                                                  : a < b;
              });
    f.rank.resize(n);
    for (std::size_t r = 0; r < n; ++r)
        f.rank[f.byRank[r]] = r;
    return f;
}

/**
 * Dataset row machine @p m sends as its sample @p k: its platform's
 * dataset in time order from the machine's offset, wrapping around.
 */
std::size_t
replayRow(const Fleet &fleet, const std::vector<Platform> &platforms,
          std::size_t m, std::uint64_t k)
{
    return (fleet.offset[m] + k) %
           platforms[fleet.platform[m]].data->numRows();
}

/** Order-sensitive digest of a machine's estimates, one step. */
std::uint64_t
digestStep(std::uint64_t digest, double estimateW)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &estimateW, sizeof bits);
    return mix(digest ^ bits);
}

/** Fleet index of machine id @p id ("m01234" -> 1234). */
std::size_t
machineIndex(const std::string &id)
{
    std::size_t m = 0;
    std::from_chars(id.data() + 1, id.data() + id.size(), m);
    return m;
}

/**
 * The installed SampleObserver: forwards every sample to the
 * FleetMonitor, folds each estimate into its machine's digest (checked
 * against a serial replay after the run), and records each open-loop
 * sample's latency from its scheduled send time.
 */
class Observer : public chaos::serve::SampleObserver
{
  public:
    Observer(const Fleet &fleet, chaos::monitor::FleetMonitor &monitor)
        : fleet_(fleet), monitor_(monitor), cursors_(fleet.ids.size())
    {}

    void
    onSample(MachineEntry &entry, chaos::OnlinePowerEstimator &estimator,
             double estimateW, double meteredW) override
    {
        const std::size_t m = machineIndex(entry.id());
        Cursor &c = cursors_[m];
        const std::uint64_t k = c.count++;
        c.digest = digestStep(c.digest, estimateW);

        if (timing_.load(std::memory_order_relaxed) && (k & 7) == 0) {
            const std::uint64_t t0 = nowNs();
            monitor_.onSample(entry, estimator, estimateW, meteredW);
            c.monitorNs += static_cast<double>(nowNs() - t0);
            ++c.monitorCalls;
        } else {
            monitor_.onSample(entry, estimator, estimateW, meteredW);
        }

        const PhaseInfo *phase = phase_.load(std::memory_order_acquire);
        if (phase != nullptr && phase->open) {
            const std::uint64_t local = k - phase->baseTick;
            if (local >= phase->ticks) {
                ++c.stray;
                return;
            }
            const double sched =
                static_cast<double>(phase->startNs) +
                (static_cast<double>(local) + fleet_.phase[m]) *
                    phase->nsPerTick;
            phase->latencyMs[local * fleet_.ids.size() + fleet_.rank[m]] =
                (static_cast<double>(nowNs()) - sched) * 1e-6;
        }
    }

    /** Publish the phase the next callbacks belong to. */
    void setPhase(const PhaseInfo *phase)
    {
        phase_.store(phase, std::memory_order_release);
    }

    void setTiming(bool on) { timing_.store(on); }

    std::vector<Cursor> &cursors() { return cursors_; }

  private:
    const Fleet &fleet_;
    chaos::monitor::FleetMonitor &monitor_;
    std::vector<Cursor> cursors_;
    std::atomic<const PhaseInfo *> phase_{nullptr};
    std::atomic<bool> timing_{false};
};

/**
 * How samples reach the server: machines below @p wireMachines over
 * loopback, each connection exclusively owning a contiguous block of
 * them, the others in process through FleetServer::submitTo.
 */
class Sender
{
  public:
    Sender(FleetServer &server, const Fleet &fleet, std::uint16_t port,
           const Shape &shape)
        : server_(server), fleet_(fleet), wireMachines_(shape.wireMachines),
          perConnection_((shape.wireMachines + shape.connections - 1) /
                         shape.connections)
    {
        for (std::size_t m = wireMachines_; m < fleet.ids.size(); ++m)
            entries_.push_back(server.machine(fleet.ids[m]));
        for (std::size_t c = 0; c < shape.connections; ++c) {
            chaos::net::IngestClientConfig config;
            config.port = port;
            config.coalesceBytes = shape.coalesceBytes;
            clients_.push_back(
                std::make_unique<chaos::net::IngestClient>(config));
            clients_.back()->connect();
        }
    }

    bool wire(std::size_t m) const { return m < wireMachines_; }

    void
    send(std::size_t m, std::uint64_t tick, const double *row,
         std::size_t size, double meteredW)
    {
        if (wire(m))
            clients_[m / perConnection_]->send(tick, fleet_.ids[m], row,
                                               size, meteredW);
        else
            server_.submitTo(*entries_[m - wireMachines_], row, size,
                             meteredW);
    }

    /** Push out what the clients buffered and wait for their acks. */
    void
    flush()
    {
        for (auto &client : clients_) {
            if (!client->drain())
                chaos::raise("perfbench: ingest acks stalled");
        }
    }

    std::vector<std::unique_ptr<chaos::net::IngestClient>> &clients()
    {
        return clients_;
    }

  private:
    FleetServer &server_;
    const Fleet &fleet_;
    std::size_t wireMachines_;
    std::size_t perConnection_;
    std::vector<MachineEntry *> entries_;
    std::vector<std::unique_ptr<chaos::net::IngestClient>> clients_;
};

/** Per-thread CPU attribution, by the start() call that made them. */
struct Threads
{
    std::vector<int> drainer, pool, poll;
};

/** One measured phase. */
struct PhaseResult
{
    std::uint64_t samples = 0;    ///< Sent by the generator.
    std::uint64_t processed = 0, dropped = 0, rejected = 0;
    double seconds = 0.0;
    double cpuNs = 0.0;        ///< Process minus generator CPU.
    std::vector<double> latencyMs;
    double lateMaxMs = 0.0;
    std::uint64_t late = 0;    ///< Sent > 0.1 ms after schedule.
    std::uint64_t missing = 0; ///< Latency slots never filled.
    // Traced only.
    double sendCpuNs = 0.0;    ///< Sampled generator CPU per send.
    double wireSendCpuNs = 0.0; ///< The same, sends to wire machines.
    double drainerCpuS = 0.0, poolCpuS = 0.0, pollCpuS = 0.0;
};

/** Everything one workload run needs, built by set-up. */
struct Rig
{
    Shape shape;
    std::vector<chaos::ClusterCampaign> campaigns;
    std::vector<Platform> platforms;
    Fleet fleet;
    std::unique_ptr<FleetServer> server;
    std::unique_ptr<chaos::monitor::FleetMonitor> monitor;
    std::unique_ptr<Observer> observer;
    std::unique_ptr<chaos::rollup::RollupTree> tree;
    std::unique_ptr<chaos::rollup::LiveRollupFeed> feed;
    std::unique_ptr<chaos::net::ChaosIngestServer> ingest;
    std::unique_ptr<Sender> sender;
    Threads threads;
    /** The monitor's, and the serial replay's, shipped defaults. */
    chaos::monitor::QualityMonitorConfig qualityConfig;
    std::uint64_t tick = 0;    ///< Next per-machine sample index.
    std::uint64_t sent = 0;

    // Snapshot callback state (drainer thread only).
    std::atomic<bool> timeTicks{false};
    std::vector<double> monitorSnapshotMs, observeMs, aggregateMs;
    std::size_t rollupMachines = 0;
    std::uint64_t rollupDropped = 0;
    std::uint64_t snapshotsSeen = 0;

    ~Rig()
    {
        // Stop traffic sources before the server, and the server
        // before the observer and monitor it calls into.
        sender.reset();
        if (ingest)
            ingest->stop();
        if (server)
            server->stop();
        if (monitor)
            monitor->detach();
    }
};

/**
 * Deploy @p models, one per campaign, into a serving rig: the fleet,
 * the server with its monitor, observer and roll-up, its threads and
 * the senders. The rig keeps the campaigns; their datasets are the
 * replay data.
 */
std::unique_ptr<Rig>
deploy(const Shape &shape, const Options &options,
       std::vector<chaos::ClusterCampaign> campaigns,
       const std::vector<chaos::MachinePowerModel> &models,
       const std::vector<int> &poolThreads, bool recordDrains)
{
    auto rig = std::make_unique<Rig>();
    rig->shape = shape;
    rig->threads.pool = poolThreads;
    rig->campaigns = std::move(campaigns);
    for (std::size_t c = 0; c < rig->campaigns.size(); ++c) {
        const chaos::MachineClass mc = shape.classes[c];
        rig->platforms.push_back(Platform{
            chaos::machineClassName(mc), &rig->campaigns[c].data, models[c],
            chaos::OnlineEstimatorConfig::forSpec(
                chaos::machineSpecFor(mc))});
    }
    rig->fleet = makeFleet(shape, rig->platforms, options.seed);
    const Fleet &fleet = rig->fleet;

    chaos::serve::FleetServerConfig config;
    config.snapshotEverySamples = shape.snapshotEvery;
    config.recordDrainLatencies = recordDrains;
    rig->server = std::make_unique<FleetServer>(config);
    for (std::size_t m = 0; m < shape.machines; ++m) {
        const Platform &p = rig->platforms[fleet.platform[m]];
        rig->server->addMachine(fleet.ids[m], p.model, p.estimatorConfig);
    }
    rig->monitor =
        std::make_unique<chaos::monitor::FleetMonitor>(rig->qualityConfig);
    rig->monitor->attach(*rig->server);
    rig->observer = std::make_unique<Observer>(fleet, *rig->monitor);
    rig->server->setSampleObserver(rig->observer.get());

    rig->tree = std::make_unique<chaos::rollup::RollupTree>();
    rig->feed = std::make_unique<chaos::rollup::LiveRollupFeed>(*rig->tree);
    for (std::size_t m = 0; m < shape.machines; ++m) {
        const std::size_t rack = m / shape.rackSize;
        rig->feed->place(fleet.ids[m],
                         "dc0/row" + std::to_string(rack / shape.racksPerRow) +
                             "/rack" + std::to_string(rack),
                         rig->platforms[fleet.platform[m]].name);
    }
    Rig *r = rig.get();
    // What LiveRollupFeed::attach installs, in timed pieces, plus one
    // aggregate() per snapshot.
    rig->server->onSnapshot([r](const chaos::serve::FleetSnapshot &s) {
        const std::uint64_t t0 = nowNs();
        const chaos::monitor::QualitySnapshot quality = r->monitor->snapshot();
        const std::uint64_t t1 = nowNs();
        r->feed->observe(s, quality);
        const std::uint64_t t2 = nowNs();
        const chaos::rollup::NodeSummary summary = r->feed->aggregate();
        const std::uint64_t t3 = nowNs();
        ++r->snapshotsSeen;
        r->rollupMachines = summary.stats.machines;
        r->rollupDropped = summary.stats.dropped;
        if (r->timeTicks.load(std::memory_order_relaxed)) {
            r->monitorSnapshotMs.push_back((t1 - t0) * 1e-6);
            r->observeMs.push_back((t2 - t1) * 1e-6);
            r->aggregateMs.push_back((t3 - t2) * 1e-6);
        }
    });

    std::set<int> before = threadIds();
    rig->server->start();
    std::set<int> after = threadIds();
    rig->threads.drainer = newThreads(before, after);
    rig->ingest = std::make_unique<chaos::net::ChaosIngestServer>(*rig->server);
    before = threadIds();
    rig->ingest->start();
    rig->threads.poll = newThreads(before, threadIds());
    rig->sender = std::make_unique<Sender>(*rig->server, fleet,
                                           rig->ingest->port(), shape);
    return rig;
}

void
waitProcessed(const FleetServer &server, std::uint64_t target)
{
    while (server.processed() + server.dropped() < target)
        std::this_thread::yield();
}

/** Samples the ingest clients have had refused so far. */
std::uint64_t
rejectedSoFar(const Rig &rig)
{
    std::uint64_t rejected = 0;
    for (auto &client : rig.sender->clients())
        rejected += client->rejected();
    return rejected;
}

/**
 * Send @p ticks fleet ticks. rate == 0 is the closed loop (at most
 * shape.window samples in flight); otherwise an open loop at @p rate
 * samples/s, with each sample's latency taken from its schedule.
 */
PhaseResult
runPhase(Rig &rig, std::uint64_t ticks, double rate, bool traced)
{
    const Fleet &fleet = rig.fleet;
    const std::size_t n = fleet.ids.size();
    FleetServer &server = *rig.server;
    PhaseResult result;
    result.samples = ticks * n;

    PhaseInfo info;
    if (rate > 0.0) {
        result.latencyMs.assign(result.samples,
                                std::numeric_limits<double>::quiet_NaN());
        info.open = true;
        info.baseTick = rig.tick;
        info.ticks = ticks;
        info.nsPerTick = 1e9 * static_cast<double>(n) / rate;
        info.latencyMs = result.latencyMs.data();
    }
    const std::uint64_t processed0 = server.processed();
    const std::uint64_t dropped0 = server.dropped();
    const std::uint64_t rejected0 = rejectedSoFar(rig);
    const std::uint64_t base = processed0 + dropped0;
    const double drainer0 = traced ? threadsCpuSec(rig.threads.drainer) : 0;
    const double pool0 = traced ? threadsCpuSec(rig.threads.pool) : 0;
    const double poll0 = traced ? threadsCpuSec(rig.threads.poll) : 0;
    const double gen0 = threadCpuNs();
    const double cpu0 = processCpuNs();
    double sendCpu = 0.0, wireSendCpu = 0.0;
    std::uint64_t sendTimed = 0, wireSendTimed = 0;

    info.startNs = nowNs() + 1000000; // Start 1 ms out.
    rig.observer->setPhase(&info);
    const std::uint64_t t0 = nowNs();
    std::uint64_t inPhase = 0;
    for (std::uint64_t k = 0; k < ticks; ++k) {
        const std::uint64_t tick = rig.tick + k;
        for (std::size_t r = 0; r < n; ++r, ++inPhase) {
            const std::size_t m = fleet.byRank[r];
            if (info.open) {
                const double sched =
                    static_cast<double>(info.startNs) +
                    (static_cast<double>(k) + fleet.phase[m]) *
                        info.nsPerTick;
                std::uint64_t now = nowNs();
                while (static_cast<double>(now) < sched)
                    now = nowNs();
                const double lateMs = (static_cast<double>(now) - sched) * 1e-6;
                result.lateMaxMs = std::max(result.lateMaxMs, lateMs);
                if (lateMs > 0.1)
                    ++result.late;
            } else if (rig.sent - (server.processed() + server.dropped()) >=
                       rig.shape.window) {
                rig.sender->flush();
                while (rig.sent - (server.processed() + server.dropped()) >=
                       rig.shape.window)
                    std::this_thread::yield();
            }
            const Platform &p = rig.platforms[fleet.platform[m]];
            const std::size_t row =
                replayRow(fleet, rig.platforms, m, tick);
            const double metered =
                fleet.metered[m] ? p.data->powerW()[row]
                                 : std::numeric_limits<double>::quiet_NaN();
            const double *values = p.data->features().rowPtr(row);
            const std::size_t size = p.data->numFeatures();
            // Sampled: every 64th send, and every 8th to a wire machine
            // so that the few of them in dc_fleet are timed too.
            const bool wire = rig.sender->wire(m);
            const bool every64 = (inPhase & 63) == 0;
            if (traced && !info.open &&
                (every64 || (wire && (inPhase & 7) == 0))) {
                const double c0 = threadCpuNs();
                rig.sender->send(m, tick, values, size, metered);
                const double c = threadCpuNs() - c0;
                if (every64) {
                    sendCpu += c;
                    ++sendTimed;
                }
                if (wire) {
                    wireSendCpu += c;
                    ++wireSendTimed;
                }
            } else {
                rig.sender->send(m, tick, values, size, metered);
            }
            ++rig.sent;
        }
    }
    rig.sender->flush();
    waitProcessed(server, base + result.samples);
    const std::uint64_t t1 = nowNs();
    const double cpu1 = processCpuNs();
    const double gen1 = threadCpuNs();
    rig.observer->setPhase(nullptr);
    rig.tick += ticks;

    result.processed = server.processed() - processed0;
    result.dropped = server.dropped() - dropped0;
    result.rejected = rejectedSoFar(rig) - rejected0;
    result.seconds = static_cast<double>(t1 - t0) * 1e-9;
    result.cpuNs = (cpu1 - cpu0) - (gen1 - gen0);
    for (double v : result.latencyMs)
        result.missing += std::isnan(v) ? 1 : 0;
    if (traced) {
        result.sendCpuNs = sendTimed ? sendCpu / sendTimed : 0.0;
        result.wireSendCpuNs =
            wireSendTimed ? wireSendCpu / wireSendTimed : 0.0;
        result.drainerCpuS = threadsCpuSec(rig.threads.drainer) - drainer0;
        result.poolCpuS = threadsCpuSec(rig.threads.pool) - pool0;
        result.pollCpuS = threadsCpuSec(rig.threads.poll) - poll0;
    }
    return result;
}

/** Per-layer readings of one traced round. */
struct TracedRound
{
    double sendNs = 0.0, wireSendNs = 0.0;
    double drainerNs = 0.0, poolNs = 0.0, pollNs = 0.0;
    double batchMean = 0.0;
    double drainP50 = 0.0, drainP99 = 0.0;
    double queueWaitP50 = 0.0, queueWaitP99 = 0.0;
    double predictP50 = 0.0, decodeP50 = 0.0;
    double snapshotMs = 0.0;
    double bytesPerSample = 0.0, framesPerSample = 0.0,
           creditsPerK = 0.0;
};

struct RoundResult
{
    bool traced = false;
    double satSps = 0.0;
    double p50Lo = 0.0, p50Hi = 0.0;
    double cpuNsPerSample = 0.0;
    PhaseResult sat, lo, hi;
    TracedRound layers;
};

double
histogramP(chaos::obs::Histogram &h, double q)
{
    return h.count() > 0 ? h.percentile(q) : 0.0;
}

RoundResult
runRound(Rig &rig, bool traced)
{
    RoundResult round;
    round.traced = traced;
    const Shape &shape = rig.shape;
    auto &registry = chaos::obs::Registry::instance();
    if (traced) {
        chaos::obs::clearTrace();
        chaos::obs::setTraceEnabled(true);
    }
    rig.observer->setTiming(traced);
    rig.timeTicks = traced;

    round.sat = runPhase(rig, shape.satTicks, 0.0, traced);
    round.satSps = static_cast<double>(round.sat.samples) / round.sat.seconds;
    round.layers.sendNs = round.sat.sendCpuNs;
    round.layers.wireSendNs = round.sat.wireSendCpuNs;

    round.lo = runPhase(rig, shape.loTicks, shape.loRate, traced);

    // Stage histograms and drain counters cover the hi phase only.
    std::size_t drains0 = 0;
    chaos::net::IngestStats net0;
    if (traced) {
        registry.resetAll();
        drains0 = rig.server->drainLatenciesMs().size();
        net0 = rig.ingest->stats();
    }
    round.hi = runPhase(rig, shape.hiTicks, shape.hiRate, traced);
    round.p50Lo = chaos::median(round.lo.latencyMs);
    round.p50Hi = chaos::median(round.hi.latencyMs);
    const double openSamples =
        static_cast<double>(round.lo.samples + round.hi.samples);
    round.cpuNsPerSample = (round.lo.cpuNs + round.hi.cpuNs) / openSamples;

    if (traced) {
        chaos::obs::setTraceEnabled(false);
        TracedRound &l = round.layers;
        l.drainerNs =
            (round.lo.drainerCpuS + round.hi.drainerCpuS) * 1e9 / openSamples;
        l.poolNs = (round.lo.poolCpuS + round.hi.poolCpuS) * 1e9 / openSamples;
        // The poll thread serves the wire machines' samples only.
        const double wireShare = static_cast<double>(shape.wireMachines) /
                                 static_cast<double>(shape.machines);
        l.pollNs = (round.lo.pollCpuS + round.hi.pollCpuS) * 1e9 /
                   (openSamples * wireShare);
        const double batches = static_cast<double>(
            registry
                .counter("chaos.serve.batches",
                         chaos::obs::Stability::Scheduling)
                .value());
        l.batchMean =
            batches > 0 ? static_cast<double>(round.hi.samples) / batches : 0;
        const std::vector<double> all = rig.server->drainLatenciesMs();
        const std::vector<double> passes(all.begin() + drains0, all.end());
        if (!passes.empty()) {
            l.drainP50 = chaos::quantile(passes, 0.5);
            l.drainP99 = chaos::quantile(passes, 0.99);
        }
        chaos::serve::StageMetrics &stage = chaos::serve::StageMetrics::get();
        l.queueWaitP50 = histogramP(stage.queueWaitUs, 0.5);
        l.queueWaitP99 = histogramP(stage.queueWaitUs, 0.99);
        l.predictP50 = histogramP(stage.predictUs, 0.5);
        l.decodeP50 = histogramP(stage.decodeUs, 0.5);
        std::vector<double> snapshotMs;
        for (const chaos::obs::TraceEvent &e : chaos::obs::collectTrace()) {
            if (std::strcmp(e.name, "serve.snapshot") == 0)
                snapshotMs.push_back(static_cast<double>(e.durNs) * 1e-6);
        }
        chaos::obs::clearTrace();
        if (!snapshotMs.empty())
            l.snapshotMs = chaos::median(snapshotMs);
        const chaos::net::IngestStats net1 = rig.ingest->stats();
        const double samples =
            static_cast<double>(net1.samplesAccepted - net0.samplesAccepted);
        l.bytesPerSample =
            static_cast<double>(net1.bytesIn - net0.bytesIn) / samples;
        l.framesPerSample =
            static_cast<double>(net1.framesIn - net0.framesIn) / samples;
        l.creditsPerK =
            1000.0 * static_cast<double>(net1.creditsSent - net0.creditsSent) /
            samples;
    }
    rig.observer->setTiming(false);
    rig.timeTicks = false;
    return round;
}

/**
 * Replay every machine's traffic serially after the run: a fresh
 * OnlinePowerEstimator fed the same rows in the same order (with the
 * metered reading where the machine is metered), and for metered
 * machines a RollingQuality with the monitor's configuration.
 */
struct SerialReplay
{
    std::uint64_t mismatched = 0; ///< Machines whose estimates differ.
    std::uint64_t driftEvents = 0;
};

SerialReplay
replaySerially(const Rig &rig)
{
    const Fleet &fleet = rig.fleet;
    const std::vector<Cursor> &cursors = rig.observer->cursors();
    const std::size_t n = fleet.ids.size();
    std::vector<std::uint8_t> mismatched(n, 0), drifted(n, 0);
    chaos::parallelFor(n, [&](std::size_t m) {
        const Platform &p = rig.platforms[fleet.platform[m]];
        chaos::OnlinePowerEstimator estimator(p.model, p.estimatorConfig);
        chaos::monitor::RollingQuality quality(rig.qualityConfig);
        std::vector<double> row(p.data->numFeatures());
        std::uint64_t digest = 0;
        for (std::uint64_t k = 0; k < rig.tick; ++k) {
            const std::size_t r = replayRow(fleet, rig.platforms, m, k);
            const double *values = p.data->features().rowPtr(r);
            row.assign(values, values + row.size());
            double estimate = 0.0;
            if (fleet.metered[m]) {
                const double metered = p.data->powerW()[r];
                estimate = estimator.estimateWithReference(row, metered);
                drifted[m] += quality.addResidual(metered - estimate);
            } else {
                estimate = estimator.estimate(row);
            }
            digest = digestStep(digest, estimate);
        }
        mismatched[m] = digest != cursors[m].digest;
    });
    SerialReplay replay;
    for (std::size_t m = 0; m < n; ++m) {
        replay.mismatched += mismatched[m];
        replay.driftEvents += drifted[m];
    }
    return replay;
}

/** Correctness checks that need the whole run. */
void
checkRun(Rig &rig, const std::vector<RoundResult> &rounds, Report &report)
{
    FleetServer &server = *rig.server;
    const Fleet &fleet = rig.fleet;
    // Wire machines' samples must each be accepted or rejected; the
    // others go straight to the server.
    std::uint64_t sent = 0, wireAccepted = 0, rejected = 0;
    for (auto &client : rig.sender->clients()) {
        sent += client->sent();
        wireAccepted += client->accepted();
        rejected += client->rejected();
    }
    const std::uint64_t wireSamples = rig.tick * rig.shape.wireMachines;
    const std::uint64_t accepted = rig.sent - wireSamples + wireAccepted;
    const chaos::net::IngestStats stats = rig.ingest->stats();
    report.check("wire: sent = accepted + rejected",
                 sent == wireAccepted + rejected && sent == wireSamples &&
                     stats.samplesAccepted == wireAccepted,
                 std::to_string(sent) + " = " + std::to_string(wireAccepted) +
                     " + " + std::to_string(rejected));
    report.check("wire: no bad frames or dropped connections",
                 stats.badFrames == 0 && stats.connectionsDropped == 0);
    report.check("serve: submitted = processed + dropped",
                 server.submitted() == server.processed() + server.dropped() &&
                     server.submitted() == accepted,
                 std::to_string(server.submitted()) + " = " +
                     std::to_string(server.processed()) + " + " +
                     std::to_string(server.dropped()));

    std::uint64_t miscounted = 0, stray = 0;
    for (const Cursor &c : rig.observer->cursors()) {
        miscounted += c.count == rig.tick ? 0 : 1;
        stray += c.stray;
    }
    std::uint64_t missing = 0;
    for (const RoundResult &r : rounds)
        missing += r.lo.missing + r.hi.missing;
    report.check("observer: one callback per sample",
                 miscounted == 0 && stray == 0 && missing == 0,
                 std::to_string(miscounted) + " machines miscounted, " +
                     std::to_string(stray) + " stray callbacks, " +
                     std::to_string(missing) + " latency slots unfilled");

    // Every machine's estimates, in callback order, must match a serial
    // replay bit for bit: a reordered, lost or altered sample shows.
    const SerialReplay serial = replaySerially(rig);
    report.check("estimates of every machine, in send order, bitwise "
                 "equal to a serial estimator",
                 serial.mismatched == 0,
                 std::to_string(serial.mismatched) + " of " +
                     std::to_string(fleet.ids.size()) +
                     " machines mismatched over " +
                     std::to_string(rig.tick) + " samples each");

    // Clean time-ordered traffic trips the drift detector (a monitor
    // defect, see README.md): the count is reported, and must be the
    // one the same detector gives on a serial replay.
    const std::uint64_t drift = rig.monitor->driftEvents();
    report.fact("drift_events", std::to_string(drift));
    report.check("monitor: drift events as a serial replay gives",
                 drift == serial.driftEvents,
                 std::to_string(drift) + " events, serial " +
                     std::to_string(serial.driftEvents));
    report.check("rollup: every machine aggregated, none dropped",
                 rig.rollupMachines == fleet.ids.size() &&
                     rig.rollupDropped == 0 && rig.snapshotsSeen > 0,
                 std::to_string(rig.rollupMachines) + " machines, " +
                     std::to_string(rig.snapshotsSeen) + " snapshots");
    report.attempt(rig.sent);
    report.fail(server.dropped() + rejected + (rig.sent - accepted) +
                miscounted + stray + missing + serial.mismatched);
}

/** Attempted and failed samples of one phase, over all rounds. */
void
reportPhase(Report &report, const std::string &name,
            const std::vector<const PhaseResult *> &phases)
{
    std::uint64_t sent = 0, processed = 0, dropped = 0, rejected = 0,
                  missing = 0, late = 0;
    double lateMaxMs = 0.0;
    for (const PhaseResult *p : phases) {
        sent += p->samples;
        processed += p->processed;
        dropped += p->dropped;
        rejected += p->rejected;
        missing += p->missing;
        late += p->late;
        lateMaxMs = std::max(lateMaxMs, p->lateMaxMs);
    }
    // A sample neither processed, dropped nor rejected is missing, as
    // is an open-loop latency slot left unfilled (the same sample).
    missing = std::max(missing,
                       sent - std::min(sent, processed + dropped + rejected));
    std::string detail = "processed=" + std::to_string(processed) +
                         " dropped=" + std::to_string(dropped) +
                         " rejected=" + std::to_string(rejected) +
                         " missing=" + std::to_string(missing);
    if (!phases.empty() && phases.front()->latencyMs.size() > 0) {
        detail += " gen_late_ms_max=" + std::to_string(lateMaxMs) +
                  " gen_late_share=" +
                  std::to_string(static_cast<double>(late) /
                                 static_cast<double>(std::max<std::uint64_t>(
                                     sent, 1)));
    }
    report.phase(name, sent, dropped + rejected + missing, detail);
}

void
runServing(const Shape &shape, const Options &options, Report &report)
{
    // Threads: generator (this thread, which also trains), drainer,
    // poll thread and pool workers share nproc CPUs.
    const std::size_t cpus = hostCpus();
    const std::set<int> before = threadIds();
    chaos::setGlobalThreadCount(cpus > 2 ? cpus - 2 : 1);
    chaos::globalThreadCount(); // Builds the pool now.
    const std::vector<int> poolThreads = newThreads(before, threadIds());

    // Set-up is collecting the campaigns and deploying the trained
    // models; the median of all set-ups is setup_s. The first set-up's
    // campaigns are trained on and its rig serves; one more set-up
    // follows each serving round, so that they sample the host's speed
    // over the whole run.
    std::vector<double> setupS, collectS;
    Training training(campaignConfig(shape), options.trace);
    auto collect = [&] {
        double seconds = 0.0;
        std::vector<chaos::ClusterCampaign> campaigns =
            collectCampaigns(shape, seconds);
        collectS.push_back(seconds);
        return campaigns;
    };
    auto timedDeploy = [&](std::vector<chaos::ClusterCampaign> campaigns,
                           double collectSeconds) {
        const double t0 = nowSec();
        std::unique_ptr<Rig> built =
            deploy(shape, options, std::move(campaigns), training.models(),
                   poolThreads, options.trace);
        setupS.push_back(collectSeconds + nowSec() - t0);
        std::cerr << "[perfbench] set-up " << setupS.size() - 1 << ": "
                  << setupS.back() << " s, collect " << collectS.back()
                  << " s\n";
        return built;
    };
    const double t0 = nowSec();
    std::vector<chaos::ClusterCampaign> campaigns = collect();
    const double firstCollect = nowSec() - t0;
    training.repeat(campaigns); // The warm-up fits the deployed models.
    std::unique_ptr<Rig> rig = timedDeploy(std::move(campaigns), firstCollect);

    // Warm caches, queue slots and the pool before timing.
    const PhaseResult warmup = runPhase(*rig, shape.warmupTicks, 0.0, false);

    // Timed training repetitions alternate with serving rounds, so both
    // sample the host over the whole run; training shares the serving
    // pool. A traced run alternates untraced and traced rounds: an even
    // count.
    const double servingS = options.seconds * shape.servingShare;
    const std::size_t repetitions = std::max<long>(
        2, std::lround((options.seconds - servingS) / shape.repSeconds));
    const double fit = servingS / shape.roundSeconds;
    const std::size_t rounds =
        options.trace ? 2 * std::max<long>(1, std::lround(fit / 2))
                      : std::max<long>(1, std::lround(fit));
    std::vector<RoundResult> results;
    for (std::size_t i = 0; i < std::max(repetitions, rounds); ++i) {
        if (i < repetitions)
            training.repeat(rig->campaigns);
        if (i >= rounds)
            continue;
        const StealSample steal0 = readSteal();
        results.push_back(runRound(*rig, options.trace && i % 2 == 1));
        const RoundResult &r = results.back();
        std::cerr << "[perfbench] round " << i << (r.traced ? " traced" : "")
                  << " steal " << stealPct(steal0, readSteal()) << " %"
                  << ": sat_sps " << r.satSps << ", p50_ms " << r.p50Lo
                  << " / " << r.p50Hi << ", cpu_ns_per_sample "
                  << r.cpuNsPerSample << "\n";
        const double t1 = nowSec();
        std::vector<chaos::ClusterCampaign> more = collect();
        timedDeploy(std::move(more), nowSec() - t1);
    }
    training.report(report);
    const std::size_t retained =
        options.trace ? rig->server->snapshots().size() : 0;
    rig->sender->flush();
    rig->server->stop();
    checkRun(*rig, results, report);
    reportPhase(report, "warmup", {&warmup});
    for (const auto &[name, phase] :
         {std::pair{"sat", &RoundResult::sat}, std::pair{"lo", &RoundResult::lo},
          std::pair{"hi", &RoundResult::hi}}) {
        std::vector<const PhaseResult *> phases;
        for (const RoundResult &r : results)
            phases.push_back(&(r.*phase));
        reportPhase(report, name, phases);
    }

    auto med = [&](bool traced, auto field) {
        std::vector<double> v;
        for (const RoundResult &r : results) {
            if (r.traced == traced)
                v.push_back(field(r));
        }
        return chaos::median(v);
    };
    if (!options.trace) {
        report.metric("sat_sps",
                      med(false, [](const RoundResult &r) { return r.satSps; }),
                      "1/s");
        report.metric("p50_ms.lo",
                      med(false, [](const RoundResult &r) { return r.p50Lo; }),
                      "ms");
        report.metric("p50_ms.hi",
                      med(false, [](const RoundResult &r) { return r.p50Hi; }),
                      "ms");
        report.metric("cpu_ns_per_sample",
                      med(false, [](const RoundResult &r) {
                          return r.cpuNsPerSample;
                      }),
                      "ns");
        report.metric("setup_s", chaos::median(setupS), "s");
        report.metric("peak_rss_mb", peakRssMb(), "MiB");
        return;
    }

    // Traced run: per-layer metrics from the traced rounds, tracing
    // overhead against the interleaved untraced rounds.
    auto layer = [&](auto field) {
        return med(true, [&](const RoundResult &r) { return field(r.layers); });
    };
    const double cpuTraced =
        med(true, [](const RoundResult &r) { return r.cpuNsPerSample; });
    const double cpuPlain =
        med(false, [](const RoundResult &r) { return r.cpuNsPerSample; });
    report.metric("trace.cpu_ns_per_sample", cpuTraced, "ns");
    report.metric("trace.overhead_pct", 100.0 * (cpuTraced / cpuPlain - 1.0),
                  "%");
    report.metric("gen.send_ns",
                  layer([](const TracedRound &l) { return l.sendNs; }), "ns");
    report.metric("net.client_cpu_ns",
                  layer([](const TracedRound &l) { return l.wireSendNs; }),
                  "ns");
    report.metric("net.poll_cpu_ns",
                  layer([](const TracedRound &l) { return l.pollNs; }), "ns");
    report.metric("net.bytes_per_sample",
                  layer([](const TracedRound &l) { return l.bytesPerSample; }),
                  "B");
    report.metric("net.frames_per_sample",
                  layer([](const TracedRound &l) { return l.framesPerSample; }),
                  "count");
    report.metric("net.credits_per_ksample",
                  layer([](const TracedRound &l) { return l.creditsPerK; }),
                  "count");
    report.metric("net.decode_us.p50",
                  layer([](const TracedRound &l) { return l.decodeP50; }),
                  "us");
    std::vector<double> rtt;
    std::uint64_t rejected = 0;
    for (auto &client : rig->sender->clients()) {
        const std::vector<double> v = client->latenciesMs();
        rtt.insert(rtt.end(), v.begin(), v.end());
        rejected += client->rejected();
    }
    report.metric("net.credit_rtt_ms.p50", chaos::median(rtt), "ms");
    report.metric("net.rejected", static_cast<double>(rejected), "count");
    report.metric("serve.drainer_cpu_ns",
                  layer([](const TracedRound &l) { return l.drainerNs; }),
                  "ns");
    report.metric("serve.pool_cpu_ns",
                  layer([](const TracedRound &l) { return l.poolNs; }), "ns");
    report.metric("serve.batch_size.mean",
                  layer([](const TracedRound &l) { return l.batchMean; }),
                  "count");
    report.metric("serve.drain_pass_ms.p50",
                  layer([](const TracedRound &l) { return l.drainP50; }), "ms");
    report.metric("serve.drain_pass_ms.p99",
                  layer([](const TracedRound &l) { return l.drainP99; }), "ms");
    report.metric("serve.queue_wait_us.p50",
                  layer([](const TracedRound &l) { return l.queueWaitP50; }),
                  "us");
    report.metric("serve.queue_wait_us.p99",
                  layer([](const TracedRound &l) { return l.queueWaitP99; }),
                  "us");
    report.metric("serve.dropped",
                  static_cast<double>(rig->server->dropped()), "count");
    report.metric("serve.predict_us.p50",
                  layer([](const TracedRound &l) { return l.predictP50; }),
                  "us");

    double monitorNs = 0.0;
    std::uint64_t monitorCalls = 0;
    for (const Cursor &c : rig->observer->cursors()) {
        monitorNs += c.monitorNs;
        monitorCalls += c.monitorCalls;
    }
    report.metric("monitor.on_sample_ns",
                  monitorCalls ? monitorNs / monitorCalls : 0.0, "ns");
    report.metric("monitor.drift_events",
                  static_cast<double>(rig->monitor->driftEvents()), "count");
    report.metric("monitor.snapshot_ms", chaos::median(rig->monitorSnapshotMs),
                  "ms");
    report.metric("serve.snapshot_ms",
                  layer([](const TracedRound &l) { return l.snapshotMs; }),
                  "ms");
    report.metric("rollup.observe_ms", chaos::median(rig->observeMs), "ms");
    report.metric("rollup.aggregate_ms", chaos::median(rig->aggregateMs), "ms");
    report.metric("serve.snapshots_retained", static_cast<double>(retained),
                  "count");

    // Validity: how late the generator ran, and the latency tails.
    std::vector<double> lateMax;
    std::uint64_t late = 0, openSamples = 0;
    for (const RoundResult &r : results) {
        if (!r.traced)
            continue;
        lateMax.push_back(std::max(r.lo.lateMaxMs, r.hi.lateMaxMs));
        late += r.lo.late + r.hi.late;
        openSamples += r.lo.samples + r.hi.samples;
    }
    report.metric("gen.late_ms.max",
                  *std::max_element(lateMax.begin(), lateMax.end()), "ms");
    report.metric("gen.late_share",
                  static_cast<double>(late) / static_cast<double>(openSamples),
                  "ratio");
    for (const char *phase : {"lo", "hi"}) {
        std::vector<double> lat;
        std::uint64_t count = 0;
        for (const RoundResult &r : results) {
            if (!r.traced)
                continue;
            const PhaseResult &p = std::string(phase) == "lo" ? r.lo : r.hi;
            lat.insert(lat.end(), p.latencyMs.begin(), p.latencyMs.end());
            count += p.samples;
        }
        const std::string suffix = std::string("_ms.") + phase;
        report.metric("lat.p50" + suffix, chaos::quantile(lat, 0.5), "ms");
        report.metric("lat.p90" + suffix, chaos::quantile(lat, 0.9), "ms");
        report.metric("lat.p99" + suffix, chaos::quantile(lat, 0.99), "ms");
        report.metric("lat.max" + suffix, chaos::quantile(lat, 1.0), "ms");
        report.metric("lat.samples." + std::string(phase),
                      static_cast<double>(count), "count");
    }
    report.metric("sim.collect_s", chaos::median(collectS), "s");
}

} // namespace

void
runDcFleet(const Options &options, Report &report)
{
    Shape shape;
    shape.classes = {chaos::MachineClass::Core2, chaos::MachineClass::Opteron,
                     chaos::MachineClass::XeonSas};
    shape.meteredShare = 0.1;
    // Each machine sends a few hundred samples per run, far fewer than
    // one recorded workload run holds: two quarter-length runs per
    // workload give the replay data and two run-grouped folds.
    shape.campaignRuns = 2;
    shape.campaignScale = options.tiny ? 0.1 : 0.25;
    shape.folds = 2;
    shape.repSeconds = 1.4;
    shape.servingShare = 0.7;
    // Four rack collectors, each its own connection, writing every
    // sample at once: 40 machines make a frame per fleet tick, far
    // less than the client's coalescing buffer holds.
    shape.coalesceBytes = 0;
    if (options.tiny) {
        shape.machines = 200;
        shape.rackSize = 10;
        shape.racksPerRow = 5;
        shape.snapshotEvery = 200;
        shape.window = 1024;
        shape.warmupTicks = 5;
        shape.satTicks = 40;
        shape.loTicks = shape.hiTicks = 20;
        shape.loRate = 5000;
        shape.hiRate = 10000;
        shape.roundSeconds = 1.5;
    } else {
        shape.machines = 10000;
        shape.warmupTicks = 10;
        shape.satTicks = 60;
        shape.loTicks = 3;
        shape.hiTicks = 5;
        shape.loRate = 25000;
        shape.hiRate = 50000;
        shape.roundSeconds = 3.5;
    }
    shape.wireMachines = shape.connections * shape.rackSize;
    runServing(shape, options, report);
}

void
runRackWire(const Options &options, Report &report)
{
    Shape shape;
    shape.classes = {chaos::MachineClass::Core2};
    shape.meteredShare = 1.0;
    // The paper's campaign (5 machines x 5 runs x 4 workloads, 5
    // folds): paper-scale training, and full-length runs that each
    // machine replays for many cycles under the monitor.
    shape.campaignMachines = 5;
    shape.campaignRuns = 5;
    shape.folds = 5;
    shape.repSeconds = 3.9;
    shape.servingShare = 0.45;
    if (options.tiny) {
        shape.campaignMachines = shape.campaignRuns = shape.folds = 2;
        shape.campaignScale = 0.2;
        shape.machines = 8;
        shape.rackSize = 2;
        shape.snapshotEvery = 2000;
        shape.window = 1024;
        shape.warmupTicks = 200;
        shape.satTicks = 1000;
        shape.loTicks = shape.hiTicks = 500;
        shape.loRate = 5000;
        shape.hiRate = 10000;
        shape.roundSeconds = 1.5;
    } else {
        shape.machines = 40;
        shape.rackSize = 10;
        shape.warmupTicks = 2500;
        shape.satTicks = 2500;
        shape.loTicks = 625;
        shape.hiTicks = 1250;
        shape.loRate = 25000;
        shape.hiRate = 50000;
        shape.roundSeconds = 2.5;
    }
    // One rack per connection, one row.
    shape.wireMachines = shape.machines;
    shape.racksPerRow = shape.connections;
    runServing(shape, options, report);
}

} // namespace perfbench
