/**
 * @file
 * Sharded estimator registry: the serving-side home of one
 * OnlinePowerEstimator per fleet machine.
 *
 * Every machine gets a dense index at add() (0, 1, 2, ... in
 * registration order). The id string is an edge concern: add() and
 * find() take it, snapshot export writes it. Everything per sample or
 * per tick is addressed by the index or by the MachineEntry pointer:
 * the machine's queue shard is fixed at add(), and the fields a fleet
 * snapshot reads live in index-addressed MachineStateSlots, 64 bytes
 * each in blocks of kStateBlock, published by the entry under its
 * mutex and read without it.
 *
 * Ids hash onto a fixed set of shards: lookups by id are lock-striped
 * by it (each stripe has its own mutex, so concurrent producers
 * resolving different machines rarely contend), and the id's shard,
 * hashed once at add(), is also the machine's queue shard. Entry and
 * slot addresses are
 * stable for the life of the registry (machines are never removed),
 * which lets the ingestion queues carry raw MachineEntry pointers and
 * lets add() run while the server is draining.
 *
 * Each entry carries its own mutex guarding the (stateful) estimator.
 * Model hot-swap takes only that entry mutex, so swapping one
 * machine's model serializes with that machine's predictions but
 * never stalls ingestion or any other machine.
 *
 * Each entry also publishes its *projection*: the sorted union of the
 * catalog indices its deployed model, quarantine substitute and
 * shadow candidate read. Producers load it with one acquire and
 * gather only those counters into the queue slot. Projections are
 * immutable and interned registry-wide (a fleet of one class shares
 * one) and live as long as the registry, so a queued pointer to one
 * never dangles. A change of readers (hot-swap, quarantine, shadow)
 * publishes a new projection, under the entry mutex with the change
 * itself, only when the index set changes. A sample gathered before
 * a widening and drained after it lacks the new counters: a
 * *projection miss*. The deployed model reads such a counter as a
 * missing input (imputation), and the substitute, the shadow and the
 * reference window skip the sample.
 */
#ifndef CHAOS_SERVE_REGISTRY_HPP
#define CHAOS_SERVE_REGISTRY_HPP

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "core/online.hpp"
#include "util/seqlock.hpp"

namespace chaos::serve {

/** "No machine index": a snapshot row built outside a registry. */
inline constexpr std::uint32_t kNoMachineIndex = 0xffffffffu;

/**
 * The fields of one machine that a fleet snapshot reads, in one cache
 * line. The owning MachineEntry publishes them under its mutex (so
 * writes are serialized) and readers take no lock: a SeqLock keeps
 * each reading consistent.
 */
class alignas(64) MachineStateSlot
{
  public:
    /** One consistent reading of the slot. */
    struct Values
    {
        double watts = 0.0;   ///< Served: substitute while quarantined.
        double modelW = 0.0;  ///< Deployed model's raw estimate.
        double meanResidualW = 0.0;
        std::uint64_t samples = 0;
        std::uint64_t residualSamples = 0;
        MachineHealth health = MachineHealth::Healthy;
        ModelQuality quality = ModelQuality::Unknown;
        bool quarantined = false;
    };

    /** Publish @p v (writers serialized by the entry mutex). */
    void
    store(const Values &v)
    {
        constexpr auto relaxed = std::memory_order_relaxed;
        lock_.write([&] {
            watts_.store(v.watts, relaxed);
            modelW_.store(v.modelW, relaxed);
            meanResidualW_.store(v.meanResidualW, relaxed);
            samples_.store(v.samples, relaxed);
            residualSamples_.store(v.residualSamples, relaxed);
            flags_.store(static_cast<std::uint32_t>(v.health) |
                             static_cast<std::uint32_t>(v.quality) << 8 |
                             static_cast<std::uint32_t>(v.quarantined)
                                 << 16,
                         relaxed);
        });
    }

    /** The latest published values, never torn. */
    Values
    load() const
    {
        constexpr auto relaxed = std::memory_order_relaxed;
        Values v;
        std::uint32_t f = 0;
        lock_.read([&] {
            v.watts = watts_.load(relaxed);
            v.modelW = modelW_.load(relaxed);
            v.meanResidualW = meanResidualW_.load(relaxed);
            v.samples = samples_.load(relaxed);
            v.residualSamples = residualSamples_.load(relaxed);
            f = flags_.load(relaxed);
        });
        v.health = static_cast<MachineHealth>(f & 0xff);
        v.quality = static_cast<ModelQuality>((f >> 8) & 0xff);
        v.quarantined = ((f >> 16) & 1) != 0;
        return v;
    }

    /** Backpressure drops (producers add without the entry mutex). */
    std::atomic<std::uint64_t> drops{0};

  private:
    SeqLock lock_;
    std::atomic<std::uint32_t> flags_{0};
    std::atomic<double> watts_{0.0};
    std::atomic<double> modelW_{0.0};
    std::atomic<double> meanResidualW_{0.0};
    std::atomic<std::uint64_t> samples_{0};
    std::atomic<std::uint64_t> residualSamples_{0};
};

/**
 * Registry-wide intern table of CounterProjections: one immutable
 * projection per distinct index set, alive (at a stable address) as
 * long as the table.
 */
class ProjectionTable
{
  public:
    /** The projection of @p indices (sorted, duplicate-free). */
    const CounterProjection *intern(std::vector<std::size_t> indices);

  private:
    struct ByIndices
    {
        bool
        operator()(const CounterProjection &a,
                   const CounterProjection &b) const
        {
            return a.indices() < b.indices();
        }
    };

    std::mutex mu;
    std::set<CounterProjection, ByIndices> table;
};

/**
 * One registered machine: id + mutex-guarded online estimator, plus
 * the serving-state the remediation autopilot drives — a quarantine
 * substitute, a shadow (canary) candidate model, and a bounded
 * reference window of recent (features, metered watts) pairs for
 * background retraining.
 *
 * Locking convention: public methods take the entry mutex themselves;
 * methods suffixed "Locked" must only be called from code already
 * holding it (inside withEstimator, i.e. the drain loop) — calling
 * them unlocked is a data race, calling the unsuffixed ones from
 * inside withEstimator deadlocks.
 */
class MachineEntry
{
  public:
    MachineEntry(std::string machineId, std::uint32_t index,
                 std::uint32_t shard, MachineStateSlot &state,
                 ProjectionTable &projections, MachinePowerModel model,
                 OnlineEstimatorConfig config);

    /** The machine id this entry was registered under. */
    const std::string &id() const { return id_; }

    /** Dense registration index (0, 1, 2, ...; see file comment). */
    std::uint32_t index() const { return index_; }

    /** The queue shard this machine's samples go to (its id's). */
    std::uint32_t shard() const { return shard_; }

    /**
     * The counters a sample of this machine must carry (see file
     * comment): one acquire load, no lock, never null.
     */
    const CounterProjection &
    projection() const
    {
        return *projection_.load(std::memory_order_acquire);
    }

    /**
     * Run @p fn with exclusive access to the estimator. All estimator
     * use (predictions, hot-swap, quality verdicts) goes through
     * here; the snapshot fields are republished before the mutex is
     * released, so whatever @p fn changed is what snapshots see.
     */
    template <typename Fn>
    auto
    withEstimator(Fn &&fn)
    {
        std::lock_guard<std::mutex> lock(mu_);
        if constexpr (std::is_void_v<decltype(fn(estimator_))>) {
            fn(estimator_);
            publishLocked();
        } else {
            auto result = fn(estimator_);
            publishLocked();
            return result;
        }
    }

    /**
     * Opaque per-machine state owned by the installed SampleObserver
     * (nullptr when unmonitored). Written under the entry mutex (via
     * withEstimator) at attach/detach time and read by onSample on
     * drain threads that already hold that mutex, so plain loads and
     * stores suffice. Spares the observer a per-sample map lookup on
     * the serving hot path.
     */
    void setObserverState(void *state) { observerState_ = state; }
    void *observerState() const { return observerState_; }

    // ---- Backpressure attribution ------------------------------------
    /**
     * Count one sample of this machine's lost to drop-oldest
     * backpressure. Called by producers WITHOUT the entry mutex, hence
     * atomic.
     */
    void
    noteDrop()
    {
        state_.drops.fetch_add(1, std::memory_order_relaxed);
    }

    /** Samples of this machine dropped by queue backpressure. */
    std::uint64_t
    droppedSamples() const
    {
        return state_.drops.load(std::memory_order_relaxed);
    }

    // ---- Quarantine --------------------------------------------------
    /**
     * Isolate this machine's own estimate from the cluster sum: until
     * liftQuarantine(), servedWattsLocked() reports @p substitute's
     * prediction on each incoming sample instead of the deployed
     * model's. With a null substitute the last-known-good estimate
     * (the mean of recent healthy estimates) is frozen and served.
     * The deployed model keeps evaluating normally underneath so the
     * monitor and any canary still see it.
     */
    void engageQuarantine(
        std::shared_ptr<const MachinePowerModel> substitute);

    /** Serve the machine's own estimate again (idempotent). */
    void liftQuarantine();

    /** True while quarantined (takes the entry mutex). */
    bool quarantined();

    // ---- Shadow (canary) evaluation ----------------------------------
    /** Rolling shadow comparison of candidate vs incumbent. */
    struct ShadowReport
    {
        bool active = false;
        std::uint64_t refSamples = 0; ///< Metered pairs compared.
        double candidateRmseW = 0.0;
        double incumbentRmseW = 0.0;
    };

    /**
     * Start shadow-evaluating @p candidate: every subsequent metered
     * sample scores candidate and incumbent against the same
     * reference. Replaces any previous shadow.
     */
    void beginShadow(MachinePowerModel candidate);

    /** Stop shadow evaluation and discard its state (idempotent). */
    void endShadow();

    /** Current shadow comparison (active=false when none). */
    ShadowReport shadowReport();

    /** Copy of the shadow candidate; raises if no shadow is active. */
    MachinePowerModel shadowModel();

    // ---- Reference window --------------------------------------------
    /** A retraining snapshot extracted from the reference window. */
    struct ReferenceData
    {
        FeatureSet features;   ///< Feature set rows are ordered by.
        Matrix x{0, 0};        ///< One row per sample, oldest first.
        std::vector<double> y; ///< Metered watts, aligned with x.
    };

    /**
     * Keep the last @p capacity metered samples as feature-ordered
     * rows (projected through the deployed model's catalog indices at
     * capture time) for background retraining. 0 disables and frees
     * the ring. The ring is cleared on model hot-swap because the
     * feature projection may change.
     */
    void enableReferenceWindow(std::size_t capacity);

    /** Samples currently held in the reference window. */
    std::size_t referenceFill();

    /** Snapshot the reference window (x may have zero rows). */
    ReferenceData referenceData();

    // ---- Drain-loop hooks (entry mutex already held) -----------------
    /** True when any per-sample aux work is enabled; one branch. */
    bool
    auxActiveLocked() const
    {
        return quarantined_ || shadow_ != nullptr || ref_.cap > 0;
    }

    /**
     * Record one evaluated sample into the active aux state:
     * substitute prediction, shadow scoring, reference capture. Each
     * reads the sample's values through its own cached positions and
     * skips a sample whose projection lacks a counter it needs.
     */
    void recordSampleLocked(const SampleView &sample, double estimateW);

    /**
     * Of @p n samples about to be (or just) evaluated, how many are
     * projection misses: gathered through a projection that lacks a
     * counter some current reader needs. One pointer compare per
     * sample when none is.
     */
    std::size_t countMissesLocked(const SampleView *samples,
                                  std::size_t n) const;

    /**
     * The watts this machine contributes to the cluster sum: the
     * substitute estimate while quarantined, the deployed model's
     * last estimate otherwise.
     */
    double servedWattsLocked() const;

    /** True while quarantined (mutex already held). */
    bool quarantinedLocked() const { return quarantined_; }

    /**
     * Drop model-specific aux state after a hot-swap: clears the
     * reference window (rows were projected for the old model) and
     * any shadow (it was competing against the old model), and
     * publishes the projection the new readers need. Quarantine is
     * left alone — the autopilot lifts it explicitly.
     */
    void onModelSwappedLocked();

  private:
    /** Copy the snapshot fields into the state slot (mutex held). */
    void publishLocked();

    /**
     * Publish the union of the current readers' indices as the
     * projection, unless it already is (mutex held). Called after
     * every change of readers, before the mutex is released.
     */
    void refreshProjectionLocked();

    /** True when @p p holds every counter of the current projection. */
    bool coversLocked(const CounterProjection *p) const;

    /**
     * @p model's prediction from @p sample's values, read through
     * @p positions (mutex held). @return False, leaving @p watts
     * alone, when the sample's projection lacks one of its counters.
     */
    bool predictAuxLocked(const MachinePowerModel &model,
                          ProjectedPositions &positions,
                          const SampleView &sample, double &watts);

    struct ShadowState
    {
        MachinePowerModel candidate;
        std::uint64_t refSamples = 0;
        double candidateSumSq = 0.0;
        double incumbentSumSq = 0.0;
        explicit ShadowState(MachinePowerModel model)
            : candidate(std::move(model))
        {}
    };

    /** Bounded ring of feature-ordered rows + aligned metered watts. */
    struct ReferenceRing
    {
        std::size_t cap = 0;
        std::size_t head = 0; ///< Next write position.
        std::size_t fill = 0;
        std::vector<std::vector<double>> rows;
        std::vector<double> watts;
    };

    std::string id_;
    std::uint32_t index_;
    std::uint32_t shard_;
    MachineStateSlot &state_;
    ProjectionTable &projections_;
    std::atomic<const CounterProjection *> projection_{nullptr};
    std::mutex mu_;
    OnlinePowerEstimator estimator_;
    void *observerState_ = nullptr;

    /** Scratch for one projected feature row of an aux model. */
    std::vector<double> auxRow_;

    bool quarantined_ = false;
    /** Substitute's latest prediction; NaN until the next sample. */
    double substituteW_ = 0.0;
    std::shared_ptr<const MachinePowerModel> substituteModel_;
    ProjectedPositions substitutePos_;
    std::unique_ptr<ShadowState> shadow_;
    ProjectedPositions shadowPos_;
    ReferenceRing ref_;
    /** The deployed model's inputs, for reference capture. */
    ProjectedPositions refPos_;
};

/** Dense, index-addressed machine table with lock-striped id lookup. */
class EstimatorRegistry
{
  public:
    /** @param numShards Stripe count; clamped to at least 1. */
    explicit EstimatorRegistry(std::size_t numShards = 8);

    /**
     * Register a machine. Raises RecoverableError if @p machineId is
     * already registered or empty. When the estimator config carries
     * no source label, the machine id is used (health events are then
     * attributable to the machine). The machine gets the next dense
     * index.
     *
     * @return The stable entry for the new machine.
     */
    MachineEntry &add(const std::string &machineId,
                      MachinePowerModel model,
                      OnlineEstimatorConfig config = {});

    /** @return The entry for @p machineId, or nullptr if unknown. */
    MachineEntry *find(const std::string &machineId);

    /**
     * Atomically replace the deployed model of one machine (see
     * OnlinePowerEstimator::swapModel for what state carries over).
     * Raises RecoverableError if the machine is unknown.
     */
    void swapModel(const std::string &machineId,
                   MachinePowerModel model);

    /** @return Number of registered machines. */
    std::size_t size() const;

    /** @return All machine ids, sorted. */
    std::vector<std::string> ids() const;

    /**
     * Call @p fn(id, slot, index) for every machine in id order (the
     * deterministic snapshot order), reading the id table and the
     * state slots in place. Holds the table lock, so add() waits
     * until the walk ends; @p fn must not call back into the
     * registry.
     */
    template <typename Fn>
    void
    forEachById(Fn &&fn) const
    {
        std::lock_guard<std::mutex> lock(orderMu);
        sortLocked();
        for (const std::uint32_t index : byId)
            fn(idTable[index], slotLocked(index), index);
    }

    /** @return The stripe (and queue shard) count. */
    std::size_t numShards() const { return shards.size(); }

    /** @return The shard (lookup stripe and queue) of @p machineId. */
    std::size_t shardOf(const std::string &machineId) const;

  private:
    /** State slots per contiguous block. */
    static constexpr std::size_t kStateBlock = 256;

    struct Shard
    {
        mutable std::mutex mu;
        std::unordered_map<std::string, MachineEntry *> entries;
    };

    using StateBlock = std::array<MachineStateSlot, kStateBlock>;

    void sortLocked() const;
    MachineStateSlot &
    slotLocked(std::uint32_t index) const
    {
        return (*blocks[index / kStateBlock])[index % kStateBlock];
    }

    std::vector<Shard> shards;
    /** Outlives the entries and every queue that holds its pointers. */
    ProjectionTable projections;

    /** The machine table, guarded by orderMu. */
    mutable std::mutex orderMu;
    std::vector<std::unique_ptr<MachineEntry>> entries; ///< By index.
    std::vector<std::string> idTable;                   ///< By index.
    std::vector<std::unique_ptr<StateBlock>> blocks;
    /** Indices in id order, unless an add() since the last sort. */
    mutable std::vector<std::uint32_t> byId;
    mutable bool byIdSorted = true;
};

} // namespace chaos::serve

#endif // CHAOS_SERVE_REGISTRY_HPP
