#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "obs/events.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/stage_metrics.hpp"
#include "util/logging.hpp"
#include "util/parallel.hpp"
#include "util/result.hpp"

namespace chaos::serve {

namespace {

/**
 * chaos.serve.* registry metrics. Submission and processing counts
 * are work-proportional (Stable); drops, batching, and queue depth
 * depend on producer/drainer timing (Scheduling).
 */
struct ServeMetrics
{
    obs::Counter &submitted;
    obs::Counter &processed;
    obs::Counter &dropped;
    obs::Counter &batches;
    obs::Counter &snapshots;
    obs::Counter &saturations;
    obs::Counter &projectionMisses;
    obs::Gauge &queueDepth;
    obs::Histogram &batchSize;
    obs::Histogram &drainLatencyMs;

    static ServeMetrics &
    get()
    {
        auto &registry = obs::Registry::instance();
        static ServeMetrics m{
            registry.counter("chaos.serve.submitted"),
            registry.counter("chaos.serve.processed"),
            registry.counter("chaos.serve.dropped",
                             obs::Stability::Scheduling),
            registry.counter("chaos.serve.batches",
                             obs::Stability::Scheduling),
            registry.counter("chaos.serve.snapshots",
                             obs::Stability::Scheduling),
            registry.counter("chaos.serve.saturations",
                             obs::Stability::Scheduling),
            registry.counter("chaos.serve.projection_misses",
                             obs::Stability::Scheduling),
            registry.gauge("chaos.serve.queue_depth",
                           obs::Stability::Scheduling),
            registry.histogram(
                "chaos.serve.batch_size",
                {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048,
                 4096},
                obs::Stability::Scheduling),
            registry.histogram(
                "chaos.serve.drain_latency_ms",
                {0.05, 0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0, 8.0,
                 16.0, 50.0},
                obs::Stability::Scheduling),
        };
        return m;
    }
};

} // namespace

std::string
FleetSnapshot::toJson() const
{
    std::ostringstream out;
    out << std::setprecision(17);
    out << "{\"seq\": " << seq << ", \"ts_ms\": " << tsMs
        << ", \"submitted\": "
        << samplesSubmitted << ", \"processed\": " << samplesProcessed
        << ", \"dropped\": " << samplesDropped << ", \"cluster_w\": "
        << clusterW << ", \"health_mix\": {\"healthy\": " << healthy
        << ", \"degraded\": " << degraded << ", \"stale\": " << stale
        << ", \"lost\": " << lost << "}, \"drifting\": " << drifting
        << ", \"quarantined\": " << quarantined
        << ", \"substituted_w\": " << substitutedW
        << ", \"machines\": [";
    for (std::size_t i = 0; i < machines.size(); ++i) {
        const MachineSnapshot &m = machines[i];
        if (i > 0)
            out << ", ";
        out << "{\"id\": \"" << obs::jsonEscape(m.id)
            << "\", \"watts\": " << m.watts << ", \"model_w\": "
            << m.modelW << ", \"quarantined\": "
            << (m.quarantined ? "true" : "false")
            << ", \"health\": \""
            << machineHealthName(m.health) << "\", \"quality\": \""
            << modelQualityName(m.quality) << "\", \"samples\": "
            << m.samples << ", \"residual_samples\": "
            << m.residualSamples << ", \"mean_residual_w\": "
            << m.meanResidualW << ", \"dropped\": " << m.dropped
            << "}";
    }
    out << "]}";
    return out.str();
}

FleetServer::FleetServer(FleetServerConfig config)
    : cfg(config), registry(cfg.numShards)
{
    queueShards.reserve(registry.numShards());
    for (std::size_t s = 0; s < registry.numShards(); ++s) {
        queueShards.push_back(
            std::make_unique<QueueShard>(cfg.queueCapacity));
    }
}

FleetServer::~FleetServer()
{
    if (runningFlag.load()) {
        stopRequested.store(true);
        drainer.join();
        runningFlag.store(false);
    }
}

MachineEntry &
FleetServer::addMachine(const std::string &machineId,
                        MachinePowerModel model,
                        OnlineEstimatorConfig config)
{
    return registry.add(machineId, std::move(model),
                        std::move(config));
}

MachineEntry *
FleetServer::machine(const std::string &machineId)
{
    return registry.find(machineId);
}

void
FleetServer::swapModel(const std::string &machineId,
                       MachinePowerModel model)
{
    registry.swapModel(machineId, std::move(model));
    if (SampleObserver *observer =
            observerPtr.load(std::memory_order_acquire))
        observer->onModelSwap(machineId);
}

void
FleetServer::setSampleObserver(SampleObserver *observer)
{
    observerPtr.store(observer, std::memory_order_release);
}

std::vector<std::string>
FleetServer::machineIds() const
{
    return registry.ids();
}

void
FleetServer::submit(const std::string &machineId,
                    const double *catalogRow, std::size_t rowSize,
                    double meteredW)
{
    MachineEntry *entry = registry.find(machineId);
    if (entry == nullptr)
        raise("serve: unknown machine id '" + machineId + "'");
    submitTo(*entry, catalogRow, rowSize, meteredW);
}

template <typename Row>
bool
FleetServer::offerRow(MachineEntry &entry,
                      const CounterProjection &projection, const Row &row,
                      double meteredW, std::uint64_t ingestNs)
{
    QueueShard &shard = *queueShards[entry.shard()];
    if (ingestNs == 0)
        ingestNs = stageStampNs();
    // Count before the push so waitIdle's submitted >= queued +
    // processed + dropped invariant holds at every instant; undo on
    // refusal (the transient overcount only makes waitIdle wait).
    submittedCount.fetch_add(1);
    if (!shard.queue.tryPush(&entry, projection, row, meteredW,
                             ingestNs)) {
        submittedCount.fetch_sub(1);
        return false;
    }
    ServeMetrics::get().submitted.add();
    return true;
}

bool
FleetServer::offer(MachineEntry &entry, const double *catalogRow,
                   std::size_t rowSize, double meteredW,
                   std::uint64_t ingestNs)
{
    return offerRow(entry, entry.projection(),
                    CounterRow{catalogRow, rowSize}, meteredW, ingestNs);
}

bool
FleetServer::offer(MachineEntry &entry, const CounterRowLE &row,
                   double meteredW, std::uint64_t ingestNs)
{
    return offerRow(entry, entry.projection(), row, meteredW, ingestNs);
}

bool
FleetServer::offer(MachineEntry &entry,
                   const CounterProjection &projection,
                   const ProjectedRowLE &values, double meteredW,
                   std::uint64_t ingestNs)
{
    return offerRow(entry, projection, values, meteredW, ingestNs);
}

void
FleetServer::submitTo(MachineEntry &entry, const double *catalogRow,
                      std::size_t rowSize, double meteredW)
{
    QueueShard &shard = *queueShards[entry.shard()];
    // Count the submission before the push: waitIdle() can then rely
    // on submitted >= (queued + processed + dropped) at all times.
    submittedCount.fetch_add(1);
    ServeMetrics::get().submitted.add();
    MachineEntry *droppedFrom = shard.queue.push(
        &entry, entry.projection(), CounterRow{catalogRow, rowSize},
        meteredW, stageStampNs());
    if (droppedFrom != nullptr) {
        droppedFrom->noteDrop();
        droppedCount.fetch_add(1);
        ServeMetrics::get().dropped.add(1);
        // One backpressure event per saturation episode, not per
        // dropped sample; the flag re-arms when the drain loop next
        // empties the shard.
        if (!shard.saturated.exchange(true)) {
            ServeMetrics::get().saturations.add();
            obs::EventLog::instance().emit(
                obs::EventKind::Backpressure, entry.id(),
                "shard queue saturated: dropping oldest samples");
        }
    }
}

std::size_t
FleetServer::drainOnce()
{
    std::lock_guard<std::mutex> drainLock(drainMu);
    obs::Span span("serve.drain");
    const auto start = std::chrono::steady_clock::now();
    DrainScratch &ds = scratch;
    // The batch array is sized once and its value buffers circulate
    // with the shard queues' slots (popBatch swaps buffers); the
    // grouping arrays grow only when a new machine index shows up.
    if (ds.batch.size() < cfg.maxBatch)
        ds.batch.resize(cfg.maxBatch);
    // Stage clocks are read per pass, not per sample: the dequeue
    // time below stands in for every sample's pickup, and the pass
    // end for every sample's completion.
    const bool stageOn = stageTracingEnabled();
    const std::uint64_t popNs = stageOn ? obs::traceNowNs() : 0;

    // Latency-oriented scheduling: one pass pops at most
    // cfg.maxBatch samples in total into one batch, visiting shards
    // round-robin from a rotating cursor. The pass latency is
    // bounded by the batch budget; a backlogged shard hands the
    // cursor to its neighbour, so no shard is starved.
    std::size_t n = 0;
    const std::size_t numShards = queueShards.size();
    for (std::size_t k = 0; k < numShards && n < cfg.maxBatch; ++k) {
        const std::size_t s = (drainCursor + k) % numShards;
        QueueShard &shard = *queueShards[s];
        const std::size_t budget = cfg.maxBatch - n;
        const std::size_t popped =
            shard.queue.popBatch(ds.batch.data() + n, budget);
        // A short pop emptied the shard: re-arm backpressure.
        if (popped < budget)
            shard.saturated.store(false);
        n += popped;
        if (n >= cfg.maxBatch) {
            // Budget exhausted at shard s: resume at the next shard
            // so a backlogged shard cannot starve the others.
            drainCursor = (s + 1) % numShards;
        }
    }
    std::size_t depth = 0;
    for (const auto &shard : queueShards)
        depth += shard->queue.size();
    ServeMetrics::get().queueDepth.set(
        static_cast<std::int64_t>(depth));
    if (n == 0)
        return 0;
    // Queue wait is measured against the post-pop clock so samples
    // stamped while the pop was in flight still count (popNs alone
    // would race with concurrent producers and skip them).
    const std::uint64_t popDoneNs = stageOn ? obs::traceNowNs() : 0;

    // Group the batch by machine with a counting sort: assign group
    // ids in first-appearance order, size the per-group slices, then
    // scatter in-place views of the queued counter values into
    // contiguous slices of ds.views.
    // Each machine's samples stay serial and in arrival order (the
    // estimator is stateful); a machine lives on one shard, so the
    // batch holds them in queue order.
    ds.groupEntries.clear();
    ds.sampleGroup.resize(n);
    const std::uint64_t pass = ++ds.pass;
    for (std::size_t i = 0; i < n; ++i) {
        MachineEntry *entry = ds.batch[i].entry;
        const std::uint32_t index = entry->index();
        if (index >= ds.passStamp.size()) {
            const std::size_t grown =
                std::max<std::size_t>(registry.size(), index + 1);
            ds.passStamp.resize(grown, 0);
            ds.groupOf.resize(grown, 0);
        }
        if (ds.passStamp[index] != pass) {
            ds.passStamp[index] = pass;
            ds.groupOf[index] =
                static_cast<std::uint32_t>(ds.groupEntries.size());
            ds.groupEntries.push_back(entry);
        }
        ds.sampleGroup[i] = ds.groupOf[index];
    }
    const std::size_t numGroups = ds.groupEntries.size();
    ds.groupOffset.assign(numGroups + 1, 0);
    for (std::size_t i = 0; i < n; ++i)
        ++ds.groupOffset[ds.sampleGroup[i] + 1];
    for (std::size_t g = 0; g < numGroups; ++g)
        ds.groupOffset[g + 1] += ds.groupOffset[g];
    ds.cursor.assign(ds.groupOffset.begin(),
                     ds.groupOffset.end() - 1);
    ds.views.resize(n);
    ds.watts.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t pos = ds.cursor[ds.sampleGroup[i]]++;
        const QueuedSample &sample = ds.batch[i];
        ds.views[pos] = SampleView{sample.values.data(),
                                   sample.values.size(), sample.meteredW,
                                   sample.projection, sample.rowSize};
    }

    const std::uint64_t predictStartNs =
        stageOn ? obs::traceNowNs() : 0;
    // A pass's own span is recorded when it ends, after its samples'
    // observers ran; record its dequeue now, so a trigger raised while
    // it evaluates (a drift the first pass already shows) still has
    // this pass in its bundle.
    auto &flight = obs::FlightRecorder::instance();
    if (flight.enabled()) {
        flight.recordSpan(
            "serve", "serve.pop",
            static_cast<std::uint64_t>(
                std::chrono::duration<double, std::nano>(
                    std::chrono::steady_clock::now() - start)
                    .count()));
    }
    {
        obs::Span predictSpan("serve.predict");
        SampleObserver *observer =
            observerPtr.load(std::memory_order_acquire);
        const auto evaluate = [&](std::size_t g) {
            MachineEntry *entry = ds.groupEntries[g];
            const std::size_t first = ds.groupOffset[g];
            const std::size_t count = ds.groupOffset[g + 1] - first;
            // withEstimator republishes the machine's snapshot fields
            // once, when the group is done.
            entry->withEstimator([&](OnlinePowerEstimator &estimator) {
                // The whole group evaluates in one batched call: one
                // compiled-plan pass over the packed rows,
                // bit-identical to the serial scalar path.
                estimator.estimateBatch(ds.views.data() + first, count,
                                        ds.watts.data() + first);
                // Samples gathered before a widening of the machine's
                // projection (one pointer compare each otherwise).
                if (const std::size_t misses = entry->countMissesLocked(
                        ds.views.data() + first, count))
                    ServeMetrics::get().projectionMisses.add(misses);
                // One flag read per group: the quarantine / shadow /
                // reference-window hook and the monitor observer cost
                // nothing when disengaged; when active they consume
                // the batch output.
                const bool aux = entry->auxActiveLocked();
                if (!aux && observer == nullptr)
                    return;
                for (std::size_t k = first; k < first + count; ++k) {
                    const SampleView &sample = ds.views[k];
                    if (aux)
                        entry->recordSampleLocked(sample, ds.watts[k]);
                    if (observer != nullptr) {
                        observer->onSample(*entry, estimator,
                                           ds.watts[k],
                                           sample.meteredW);
                    }
                }
            });
        };
        // Waking the pool costs more than a short pass saves: fan
        // machines out only when the pass filled its budget, i.e.
        // when the drainer is falling behind.
        if (n == cfg.maxBatch) {
            parallelFor(numGroups, evaluate);
        } else {
            for (std::size_t g = 0; g < numGroups; ++g)
                evaluate(g);
        }
    }
    processedCount.fetch_add(n);
    ServeMetrics::get().processed.add(n);

    if (stageOn) {
        StageMetrics &stage = StageMetrics::get();
        const std::uint64_t endNs = obs::traceNowNs();
        stage.drainBatchUs.observe(
            static_cast<double>(endNs - popNs) / 1000.0);
        stage.predictUs.observe(
            static_cast<double>(endNs - predictStartNs) / 1000.0);
        // Per-sample waits accumulate in pass-local scratch and
        // flush with one bulk observe per histogram: per-sample
        // contended atomic adds were the bulk of the tracing
        // overhead on the batched drain path. e2e reuses the same
        // array — it differs from queue wait only by the per-pass
        // constant endNs - popDoneNs.
        ds.waitUs.clear();
        for (std::size_t i = 0; i < n; ++i) {
            const std::uint64_t ingestNs = ds.batch[i].ingestNs;
            // Samples stamped while tracing was off (or with a
            // foreign clock) carry 0 / a future stamp; skip them
            // rather than record a wrapped difference.
            if (ingestNs == 0 || ingestNs > popDoneNs)
                continue;
            ds.waitUs.push_back(
                static_cast<double>(popDoneNs - ingestNs) / 1000.0);
        }
        stage.queueWaitUs.observeBulk(ds.waitUs.data(),
                                      ds.waitUs.size());
        stage.e2eUs.observeBulk(
            ds.waitUs.data(), ds.waitUs.size(),
            static_cast<double>(endNs - popDoneNs) / 1000.0);
    }

    ServeMetrics::get().batches.add();
    ServeMetrics::get().batchSize.observe(static_cast<double>(n));
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    ServeMetrics::get().drainLatencyMs.observe(ms);
    if (cfg.recordDrainLatencies) {
        std::lock_guard<std::mutex> lock(latencyMu);
        drainMs.push_back(ms);
    }
    // Black-box feed: one span per pass (besides its dequeue above),
    // and a processed-count delta every 64th pass so bundles show
    // recent throughput. One relaxed load when the recorder is
    // disarmed.
    if (flight.enabled()) {
        flight.recordSpan("serve", "serve.drain",
                          static_cast<std::uint64_t>(ms * 1e6));
        if (++flightPasses % 64 == 0) {
            const std::uint64_t now = processedCount.load();
            flight.recordMetricDelta(
                "serve", "chaos.serve.processed",
                static_cast<double>(now - flightLastProcessed));
            flightLastProcessed = now;
        }
    }
    if (cfg.snapshotEverySamples > 0) {
        sinceSnapshot += n;
        while (sinceSnapshot >= cfg.snapshotEverySamples) {
            sinceSnapshot -= cfg.snapshotEverySamples;
            emitPeriodicSnapshot();
        }
    }
    return n;
}

void
FleetServer::drainerLoop()
{
    while (!stopRequested.load()) {
        if (drainOnce() == 0) {
            std::this_thread::sleep_for(
                std::chrono::microseconds(cfg.idleSleepMicros));
        }
    }
}

void
FleetServer::start()
{
    panicIf(runningFlag.load(), "FleetServer::start while running");
    stopRequested.store(false);
    runningFlag.store(true);
    drainer = std::thread([this] { drainerLoop(); });
}

void
FleetServer::stop()
{
    if (!runningFlag.load())
        return;
    stopRequested.store(true);
    drainer.join();
    runningFlag.store(false);
    // Flush what the drainer left behind; producers are expected to
    // be quiescent by now.
    while (drainOnce() > 0) {
    }
}

void
FleetServer::waitIdle() const
{
    for (;;) {
        bool empty = true;
        for (const auto &shard : queueShards) {
            if (!shard->queue.empty()) {
                empty = false;
                break;
            }
        }
        if (empty && processedCount.load() + droppedCount.load() ==
                         submittedCount.load())
            return;
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
}

FleetSnapshot
FleetServer::snapshot() const
{
    obs::Span span("serve.snapshot");
    FleetSnapshot snap;
    snap.seq = snapshotSeq.fetch_add(1) + 1;
    snap.tsMs = obs::wallClockMs();
    snap.samplesSubmitted = submittedCount.load();
    snap.samplesProcessed = processedCount.load();
    snap.samplesDropped = droppedCount.load();
    // One pass over the id-ordered index table: each machine is one
    // cache line of published state, read without its entry mutex.
    snap.machines.reserve(registry.size());
    registry.forEachById([&](const std::string &id,
                             const MachineStateSlot &slot,
                             std::uint32_t index) {
        const MachineStateSlot::Values v = slot.load();
        MachineSnapshot &m = snap.machines.emplace_back();
        m.id = id;
        m.index = index;
        m.watts = v.watts;
        m.modelW = v.modelW;
        m.quarantined = v.quarantined;
        m.health = v.health;
        m.quality = v.quality;
        m.samples = v.samples;
        m.residualSamples = v.residualSamples;
        m.meanResidualW = v.meanResidualW;
        m.dropped = slot.drops.load(std::memory_order_relaxed);
        snap.clusterW += m.watts;
        if (m.quarantined) {
            ++snap.quarantined;
            snap.substitutedW += m.watts;
        }
        switch (m.health) {
          case MachineHealth::Healthy:  ++snap.healthy; break;
          case MachineHealth::Degraded: ++snap.degraded; break;
          case MachineHealth::Stale:    ++snap.stale; break;
          case MachineHealth::Lost:     ++snap.lost; break;
        }
        if (m.quality == ModelQuality::Drifting)
            ++snap.drifting;
    });
    return snap;
}

void
FleetServer::emitPeriodicSnapshot()
{
    const auto snap =
        std::make_shared<const FleetSnapshot>(snapshot());
    ServeMetrics::get().snapshots.add();
    std::shared_ptr<const FleetSnapshot> evicted;
    std::function<void(const FleetSnapshot &)> callback;
    {
        std::lock_guard<std::mutex> lock(snapMu);
        periodicSnapshots.push_back(snap);
        if (periodicSnapshots.size() > kRetainedSnapshots) {
            // Freed after the lock, so readers never wait on it.
            evicted = std::move(periodicSnapshots.front());
            periodicSnapshots.pop_front();
        }
        callback = snapshotCallback;
    }
    if (callback)
        callback(*snap);
}

void
FleetServer::onSnapshot(
    std::function<void(const FleetSnapshot &)> fn)
{
    std::lock_guard<std::mutex> lock(snapMu);
    snapshotCallback = std::move(fn);
}

std::vector<std::shared_ptr<const FleetSnapshot>>
FleetServer::snapshots() const
{
    std::lock_guard<std::mutex> lock(snapMu);
    return {periodicSnapshots.begin(), periodicSnapshots.end()};
}

std::vector<double>
FleetServer::drainLatenciesMs() const
{
    std::lock_guard<std::mutex> lock(latencyMu);
    return drainMs;
}

} // namespace chaos::serve
