/**
 * @file
 * Streaming fleet power estimation: a long-running serving loop over
 * the composable per-machine online estimators (paper Eq. 5 run as a
 * service rather than a per-call API).
 *
 * Architecture (one FleetServer):
 *
 *   producers ──submit()──> per-shard BoundedSampleQueue (MPSC ring,
 *                           each slot only the counters the machine's
 *                           models read, gathered through its
 *                           projection; recycled buffers,
 *                           drop-oldest, chaos.serve.* drop metrics)
 *   drainer thread ──drain pass──> up to maxBatch samples total,
 *                           popped round-robin from every shard into
 *                           one batch, grouped by machine; each group
 *                           is one batched estimateBatch call, serial
 *                           and in arrival order within the machine.
 *                           Groups run serially on the drainer; only
 *                           a pass that filled maxBatch fans them out
 *                           through the util/parallel thread pool
 *   snapshots ──────> periodic fleet-power snapshots: per-machine
 *                           watts, cluster sum, health mix — as JSON;
 *                           the latest ones kept in a shared ring
 *
 * Invariants:
 *  - a sample is evaluated exactly once (never duplicated) or counted
 *    as dropped (never silently discarded);
 *  - per-machine evaluation order equals arrival order, so per-machine
 *    results match a serial OnlinePowerEstimator fed the same rows;
 *  - model hot-swap (swapModel) takes only the target machine's entry
 *    mutex: ingestion and other machines are never stalled.
 */
#ifndef CHAOS_SERVE_SERVER_HPP
#define CHAOS_SERVE_SERVER_HPP

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/registry.hpp"
#include "serve/sample_queue.hpp"

namespace chaos::serve {

/** Serving-loop knobs. */
struct FleetServerConfig
{
    /** Queue/registry stripe count. */
    std::size_t numShards = 4;
    /** Per-shard queue capacity (drop-oldest beyond it). */
    std::size_t queueCapacity = 8192;
    /**
     * Maximum samples drained per pass *across all shards*. Bounding
     * the whole pass (rather than each shard) keeps drain latency
     * proportional to the budget instead of budget x shard count;
     * shards are visited round-robin from a rotating start so a
     * saturated shard cannot starve the others. A pass that fills
     * the budget evaluates its machines on the thread pool; a
     * shorter one runs them serially on the draining thread.
     */
    std::size_t maxBatch = 1024;
    /**
     * Emit a fleet snapshot every N processed samples (0 disables
     * periodic snapshots; snapshot() is always available on demand).
     */
    std::size_t snapshotEverySamples = 0;
    /** Drainer sleep when every queue was empty, microseconds. */
    std::size_t idleSleepMicros = 200;
    /** Record per-pass drain latencies (for benchmarks). */
    bool recordDrainLatencies = false;
};

/** Per-machine slice of a fleet snapshot. */
struct MachineSnapshot
{
    std::string id;
    /** Registry index (kNoMachineIndex when built by hand); not JSON. */
    std::uint32_t index = kNoMachineIndex;
    /**
     * What this machine contributes to the cluster sum: the most
     * recent estimate, or the quarantine substitute while the
     * autopilot has the machine's own model isolated.
     */
    double watts = 0.0;
    double modelW = 0.0;         ///< Deployed model's raw estimate.
    bool quarantined = false;    ///< Substitute serving (autopilot).
    MachineHealth health = MachineHealth::Healthy;
    ModelQuality quality = ModelQuality::Unknown; ///< Monitor verdict.
    std::uint64_t samples = 0;   ///< Estimates produced so far.
    std::uint64_t residualSamples = 0; ///< Metered refs accumulated.
    double meanResidualW = 0.0;  ///< Mean (meter - estimate) so far.
    std::uint64_t dropped = 0;   ///< This machine's backpressure loss.
};

/** One fleet-power snapshot (Eq. 5 at a point in time). */
struct FleetSnapshot
{
    std::uint64_t seq = 0;               ///< Snapshot sequence number.
    std::uint64_t tsMs = 0;              ///< Wall clock, ms since epoch.
    std::uint64_t samplesSubmitted = 0;
    std::uint64_t samplesProcessed = 0;
    std::uint64_t samplesDropped = 0;
    double clusterW = 0.0;               ///< Sum of per-machine watts.
    std::size_t healthy = 0;             ///< Health mix counts.
    std::size_t degraded = 0;
    std::size_t stale = 0;
    std::size_t lost = 0;
    std::size_t drifting = 0;            ///< Machines flagged Drifting.
    std::size_t quarantined = 0;         ///< Machines on substitutes.
    double substitutedW = 0.0;           ///< Watts served by substitutes.
    std::vector<MachineSnapshot> machines; ///< Sorted by machine id.

    /** Serialize as one single-line JSON object. */
    std::string toJson() const;
};

/**
 * Per-sample hook for the model-quality monitoring layer. onSample is
 * invoked on a drain thread for every evaluated sample while the
 * machine's entry mutex is held: calls for one machine are serialized
 * in arrival order, calls for different machines run concurrently, so
 * an implementation keying its state per machine needs no extra
 * locking. Keep it cheap — it sits on the serving hot path.
 */
class SampleObserver
{
  public:
    virtual ~SampleObserver() = default;

    /**
     * One evaluated sample. @p meteredW is NaN when the sample
     * carried no reference reading.
     */
    virtual void onSample(MachineEntry &entry,
                          OnlinePowerEstimator &estimator,
                          double estimateW, double meteredW) = 0;

    /** A model hot-swap on @p machineId completed. */
    virtual void onModelSwap(const std::string &machineId)
    {
        (void)machineId;
    }
};

/** The streaming serving loop (see file comment). */
class FleetServer
{
  public:
    explicit FleetServer(FleetServerConfig config = {});

    /** Stops the drainer (without flushing) if still running. */
    ~FleetServer();

    FleetServer(const FleetServer &) = delete;
    FleetServer &operator=(const FleetServer &) = delete;

    /**
     * Register a machine (raises RecoverableError on duplicate id).
     * Safe while the server is running; the machine starts receiving
     * samples as soon as this returns.
     */
    MachineEntry &addMachine(const std::string &machineId,
                             MachinePowerModel model,
                             OnlineEstimatorConfig config = {});

    /** Entry lookup (nullptr when unknown); for hot submit paths. */
    MachineEntry *machine(const std::string &machineId);

    /** Hot-swap one machine's model (raises on unknown id). */
    void swapModel(const std::string &machineId,
                   MachinePowerModel model);

    /**
     * Install (or, with nullptr, remove) the per-sample observer. The
     * observer must outlive the server's draining: detach it (or stop
     * the server) before destroying it. Safe to call while running;
     * in-flight drain passes may still see the previous observer.
     */
    void setSampleObserver(SampleObserver *observer);

    /** The installed per-sample observer (nullptr when none). */
    SampleObserver *sampleObserver() const
    {
        return observerPtr.load(std::memory_order_acquire);
    }

    /** All registered machine ids, sorted. */
    std::vector<std::string> machineIds() const;

    /**
     * Enqueue one machine-second of telemetry. Never blocks: when the
     * shard queue is full the oldest queued sample is dropped and
     * counted. Raises RecoverableError on an unknown machine id.
     *
     * The counters at the machine's projection (the ones its models
     * read) are gathered into the shard queue's recycled slot buffer
     * — the caller keeps ownership of @p catalogRow and may reuse it
     * for the next sample, so a steady-state producer needs no
     * per-sample allocation either.
     *
     * @param meteredW Optional reference reading; finite values feed
     *        the machine's residual statistics.
     */
    void submit(const std::string &machineId, const double *catalogRow,
                std::size_t rowSize,
                double meteredW =
                    std::numeric_limits<double>::quiet_NaN());

    /** Convenience overload taking the row as a vector. */
    void submit(const std::string &machineId,
                const std::vector<double> &catalogRow,
                double meteredW =
                    std::numeric_limits<double>::quiet_NaN())
    {
        submit(machineId, catalogRow.data(), catalogRow.size(),
               meteredW);
    }

    /**
     * Enqueue one sample only if the machine's shard queue has room:
     * the reject-newest counterpart of submitTo() for ingest
     * boundaries (src/net) that signal backpressure to the producer
     * explicitly instead of silently sacrificing the oldest queued
     * sample. A refused sample never enters the server's accounting:
     * submitted/processed/dropped cover accepted samples only, and
     * the caller owns the refusal (NACK, retry, shed).
     *
     * @return True when the sample was enqueued.
     *
     * @param ingestNs Monotonic stage-tracing stamp taken where the
     *        sample entered the process (e.g. at wire decode); 0 lets
     *        the server stamp at enqueue time instead.
     */
    bool offer(MachineEntry &entry, const double *catalogRow,
               std::size_t rowSize,
               double meteredW =
                   std::numeric_limits<double>::quiet_NaN(),
               std::uint64_t ingestNs = 0);

    /**
     * offer() for a row still in wire layout (little-endian doubles):
     * the projected counters are gathered straight from its bytes.
     */
    bool offer(MachineEntry &entry, const CounterRowLE &row,
               double meteredW, std::uint64_t ingestNs);

    /**
     * offer() for values a producer already gathered at @p projection
     * (a wire SampleBatch entry): copied straight into the slot and
     * tagged with @p projection, which may lag the machine's current
     * one (the drain then counts a projection miss, as for a sample
     * gathered before a widening). @p projection must come from this
     * server's registry, and @p values hold its size() values.
     */
    bool offer(MachineEntry &entry, const CounterProjection &projection,
               const ProjectedRowLE &values, double meteredW,
               std::uint64_t ingestNs);

    /** submit() without the registry lookup (entry from machine()). */
    void submitTo(MachineEntry &entry, const double *catalogRow,
                  std::size_t rowSize,
                  double meteredW =
                      std::numeric_limits<double>::quiet_NaN());

    /** Convenience overload taking the row as a vector. */
    void submitTo(MachineEntry &entry,
                  const std::vector<double> &catalogRow,
                  double meteredW =
                      std::numeric_limits<double>::quiet_NaN())
    {
        submitTo(entry, catalogRow.data(), catalogRow.size(),
                 meteredW);
    }

    /** Start the drainer thread (panics if already running). */
    void start();

    /**
     * Stop the drainer thread, then flush every queue on the calling
     * thread: after stop() returns, processed + dropped == submitted.
     * No-op when not running.
     */
    void stop();

    /** True while the drainer thread is running. */
    bool running() const { return runningFlag.load(); }

    /**
     * One drain pass over all shards on the calling thread (for
     * non-threaded use and tests). @return Samples processed.
     */
    std::size_t drainOnce();

    /**
     * Block until every queue is empty and every submitted sample was
     * processed or dropped. Producers must be quiescent, or this can
     * wait forever.
     */
    void waitIdle() const;

    /** Build a fleet snapshot now (does not affect periodic ones). */
    FleetSnapshot snapshot() const;

    /**
     * Callback invoked (from the drainer thread) for every periodic
     * snapshot, with the snapshot the ring stores (valid for the
     * call; copy what must outlive it). Set before start(); not
     * thread-safe afterwards.
     */
    void onSnapshot(std::function<void(const FleetSnapshot &)> fn);

    /** Periodic snapshots the server retains (the latest ones). */
    static constexpr std::size_t kRetainedSnapshots = 16;

    /**
     * The latest (at most kRetainedSnapshots) periodic snapshots,
     * oldest first. Shared, not copied: an entry stays valid after
     * the ring drops it.
     */
    std::vector<std::shared_ptr<const FleetSnapshot>> snapshots() const;

    /** Per-pass drain latencies (recordDrainLatencies only), ms. */
    std::vector<double> drainLatenciesMs() const;

    /** Lifetime sample counts. */
    std::uint64_t submitted() const { return submittedCount.load(); }
    std::uint64_t processed() const { return processedCount.load(); }
    std::uint64_t dropped() const { return droppedCount.load(); }

    /** Number of registered machines. */
    std::size_t numMachines() const { return registry.size(); }

    /** The configuration the server was built with. */
    const FleetServerConfig &config() const { return cfg; }

  private:
    struct QueueShard
    {
        explicit QueueShard(std::size_t capacity) : queue(capacity) {}
        BoundedSampleQueue queue;
        std::atomic<bool> saturated{false};
    };

    /**
     * Reused per-pass drain scratch (guarded by drainMu): the popped
     * batch, the counting-sort grouping of it by machine, the sample
     * views handed to estimateBatch, and the per-sample watts. The
     * batch array's value buffers circulate with the shard queues'
     * slot buffers (popBatch swaps, never frees), and the grouping is
     * addressed by machine index (a pass stamp marks the machines
     * seen this pass), so once the arrays have grown to the fleet a
     * drain pass performs zero heap allocation end to end.
     */
    struct DrainScratch
    {
        std::vector<QueuedSample> batch;
        std::vector<MachineEntry *> groupEntries; ///< Group -> entry.
        std::vector<std::size_t> sampleGroup;     ///< Batch i -> group.
        std::vector<std::size_t> groupOffset;     ///< Group slices.
        std::vector<std::size_t> cursor;          ///< Scatter cursors.
        std::vector<SampleView> views;    ///< The batch, grouped.
        std::vector<double> watts;        ///< Aligned with views.
        std::vector<double> waitUs;       ///< Stage-tracing scratch.
        /** Per machine index: the pass that last saw it, its group. */
        std::vector<std::uint64_t> passStamp;
        std::vector<std::uint32_t> groupOf;
        std::uint64_t pass = 0;
    };

    void drainerLoop();
    void emitPeriodicSnapshot();

    /** Every offer() overload: gather @p row, enqueue if room. */
    template <typename Row>
    bool offerRow(MachineEntry &entry, const CounterProjection &projection,
                  const Row &row, double meteredW, std::uint64_t ingestNs);

    FleetServerConfig cfg;
    EstimatorRegistry registry;
    std::vector<std::unique_ptr<QueueShard>> queueShards;

    /** Serializes drain passes (MPSC: one consumer at a time) and
     *  guards the reused scratch. Uncontended when only the drainer
     *  thread drains. */
    std::mutex drainMu;
    DrainScratch scratch;
    /** Shard the next pass starts at (round-robin fairness). */
    std::size_t drainCursor = 0;

    std::thread drainer;
    std::atomic<bool> runningFlag{false};
    std::atomic<bool> stopRequested{false};
    std::atomic<SampleObserver *> observerPtr{nullptr};

    std::atomic<std::uint64_t> submittedCount{0};
    std::atomic<std::uint64_t> processedCount{0};
    std::atomic<std::uint64_t> droppedCount{0};
    mutable std::atomic<std::uint64_t> snapshotSeq{0};

    /** Processed samples since the last periodic snapshot (drainer
     *  thread only). */
    std::uint64_t sinceSnapshot = 0;

    /** Flight-recorder feed state (guarded by drainMu): drain passes
     *  since the last metric-delta record, and the processed count at
     *  that record. */
    std::uint64_t flightPasses = 0;
    std::uint64_t flightLastProcessed = 0;

    mutable std::mutex snapMu;
    std::deque<std::shared_ptr<const FleetSnapshot>> periodicSnapshots;
    std::function<void(const FleetSnapshot &)> snapshotCallback;

    mutable std::mutex latencyMu;
    std::vector<double> drainMs;
};

} // namespace chaos::serve

#endif // CHAOS_SERVE_SERVER_HPP
