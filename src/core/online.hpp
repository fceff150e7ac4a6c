/**
 * @file
 * Online power estimation: stream catalog counter vectors through a
 * deployed machine model and track residual statistics against any
 * available metered readings. This is the "online deployment" mode
 * the paper targets (model as a complement to, or replacement for,
 * physical instrumentation).
 *
 * Deployed collectors misbehave in ways training traces never do:
 * counters go NaN when a provider restarts, stick at a frozen value,
 * or arrive corrupted; whole machines drop off the telemetry network
 * for seconds at a time. The estimator therefore validates every
 * input against the catalog's plausibility bounds, imputes rejected
 * values from the last known-good reading within a staleness budget,
 * clamps predictions to the machine's physical power envelope, and
 * tracks an explicit health state so operators can tell a trusted
 * estimate from a substituted one. Cluster composition (paper Eq. 5,
 * served by serve::FleetServer) then degrades gracefully instead of
 * propagating one machine's NaN into the cluster total.
 */
#ifndef CHAOS_CORE_ONLINE_HPP
#define CHAOS_CORE_ONLINE_HPP

#include <cstdint>
#include <limits>
#include <vector>

#include "core/cluster_model.hpp"
#include "sim/machine_spec.hpp"
#include "stats/descriptive.hpp"

namespace chaos {

/**
 * The counters a queued sample carries: sorted, duplicate-free
 * catalog indices. A serving queue slot holds the producer's values
 * at these indices, in this order, instead of the whole catalog row.
 * Immutable once built; serve::EstimatorRegistry interns one per
 * distinct set, so machines that read the same counters share it.
 */
class CounterProjection
{
  public:
    /** @param indices Sorted, duplicate-free catalog indices. */
    explicit CounterProjection(std::vector<std::size_t> indices)
        : indices_(std::move(indices))
    {}

    /** The projected catalog indices, ascending. */
    const std::vector<std::size_t> &indices() const { return indices_; }

    /** Number of projected counters (values per queued sample). */
    std::size_t size() const { return indices_.size(); }

  private:
    std::vector<std::size_t> indices_;
};

/**
 * Where one model's catalog indices sit among a sample's values,
 * cached per projection: resolve() recomputes only when handed a
 * different projection than the call before, so a drain resolves
 * once per (model, projection) pair, not once per sample. The owner
 * calls reset() when its model changes.
 */
class ProjectedPositions
{
  public:
    /** Position of an index the projection lacks. */
    static constexpr std::size_t kMissing =
        std::numeric_limits<std::size_t>::max();

    /**
     * Positions of @p indices among the values of a sample gathered
     * through @p projection, kMissing where it lacks one. A null
     * projection means the values are a full catalog row, whose
     * positions are the indices themselves.
     */
    const std::vector<std::size_t> &
    resolve(const std::vector<std::size_t> &indices,
            const CounterProjection *projection);

    /** True when the last resolve() found every index. */
    bool complete() const { return complete_; }

    /** Forget the cached pair (the owner's model changed). */
    void reset() { valid_ = false; }

  private:
    const CounterProjection *projection_ = nullptr;
    bool valid_ = false;
    bool complete_ = true;
    std::vector<std::size_t> pos_;
};

/**
 * Borrowed view of one machine-second inside a drain batch: the
 * counters are read in place (typically straight from the queue
 * slot's buffer), so batching adds no per-sample copy. The
 * pointed-to storage must outlive the estimateBatch call.
 */
struct SampleView
{
    /**
     * The counters at @c projection's indices, in its order; a full
     * catalog-ordered row when @c projection is null.
     */
    const double *values = nullptr;
    std::size_t size = 0; ///< Values present.
    /** Metered reference power; NaN when the sample carries none. */
    double meteredW = std::numeric_limits<double>::quiet_NaN();
    /** What @c values were gathered through; null for a full row. */
    const CounterProjection *projection = nullptr;
    /**
     * Width of the row the producer sent. Projected indices at or
     * past it were absent from that row; their values are NaN.
     */
    std::size_t rowSize = 0;
};

/** Telemetry health of one estimated machine, worst to best. */
enum class MachineHealth
{
    Healthy,    ///< All model inputs valid this second.
    Degraded,   ///< Some inputs imputed from recent known-good values.
    Stale,      ///< Imputation exceeded the staleness budget.
    Lost,       ///< No valid telemetry long enough to distrust the model.
};

/** Human-readable health-state name. */
std::string machineHealthName(MachineHealth health);

/**
 * Model-quality verdict for one deployed machine model. Orthogonal to
 * MachineHealth: health describes the *telemetry feeding the model*
 * (are the inputs trustworthy?), quality describes the *model itself*
 * (do its estimates still track the metered reference?). A machine
 * can be Healthy yet Drifting — clean counters through a model the
 * workload has outgrown — or Degraded yet Ok.
 *
 * The verdict is produced by the monitoring layer (src/monitor) from
 * rolling residual statistics; the estimator only stores it so the
 * serving snapshot can report both axes side by side.
 */
enum class ModelQuality
{
    Unknown,  ///< No reference readings observed (or model just swapped).
    Ok,       ///< Residuals consistent with the calibration baseline.
    Drifting, ///< Drift detector fired: estimates no longer trusted.
};

/** Human-readable model-quality name. */
std::string modelQualityName(ModelQuality quality);

/** Knobs for the hardened online estimation path. */
struct OnlineEstimatorConfig
{
    /**
     * Physical power envelope [idlePowerW, maxPowerW] of the machine
     * (Table I "Power Range"). Predictions are clamped to it and the
     * midpoint is the substitution of last resort when telemetry is
     * lost. Clamping is disabled when maxPowerW <= idlePowerW (the
     * default, envelope unknown).
     */
    double idlePowerW = 0.0;
    double maxPowerW = 0.0;

    /**
     * How long a last-known-good value may stand in for a rejected
     * input before the estimate is flagged Stale rather than merely
     * Degraded.
     */
    double stalenessBudgetSeconds = 5.0;

    /**
     * Consecutive seconds with no valid input at all before the
     * machine is declared Lost and model output is replaced by a
     * substitute.
     */
    double lostAfterSeconds = 10.0;

    /**
     * Number of recent trusted estimates averaged for the Lost-state
     * substitute (falls back to the envelope midpoint when none have
     * been produced yet).
     */
    size_t recentMeanWindow = 30;

    /**
     * Label identifying this machine in health events (obs::EventLog).
     * Empty means "machine"; serve::FleetServer::addMachine fills in
     * the machine id when left empty.
     */
    std::string sourceLabel;

    /** True when a physical envelope was provided. */
    bool hasEnvelope() const { return maxPowerW > idlePowerW; }

    /** Config with the envelope of the given platform. */
    static OnlineEstimatorConfig forSpec(const MachineSpec &spec);
};

/** Tallies of what the validation/imputation path did so far. */
struct OnlineHealthCounters
{
    size_t validInputs = 0;       ///< Feature values accepted as-is.
    size_t rejectedInputs = 0;    ///< Feature values failing validation.
    size_t imputedInputs = 0;     ///< Rejected values bridged by
                                  ///< last-known-good imputation.
    size_t substitutedEstimates = 0; ///< Seconds the model was bypassed.
    size_t clampedEstimates = 0;  ///< Predictions pulled into envelope.
};

/** Streaming estimator for one machine. */
class OnlinePowerEstimator
{
  public:
    /**
     * @param model Deployed machine model.
     * @param config Hardening knobs; the default disables envelope
     *        clamping (envelope unknown) but still validates inputs.
     */
    explicit OnlinePowerEstimator(MachinePowerModel model,
                                  OnlineEstimatorConfig config = {});

    /**
     * Estimate power for one second of counters. Never returns NaN or
     * infinity: invalid inputs are imputed or, once the machine is
     * Lost, the whole prediction is substituted (recent mean, then
     * envelope midpoint).
     *
     * @param catalogRow Catalog-ordered counter vector; may be short
     *        or empty (missing columns count as invalid inputs).
     */
    double estimate(const std::vector<double> &catalogRow);

    /**
     * Estimate and, where a finite metered reading exists, accumulate
     * the residual (meter minus estimate) statistics. Non-finite
     * meter readings (dropouts) are skipped, not accumulated.
     */
    double estimateWithReference(const std::vector<double> &catalogRow,
                                 double meteredW);

    /**
     * Estimate a whole drain batch in one call. Sample for sample and
     * bit for bit equivalent to calling estimate() (or, for samples
     * with a finite meteredW, estimateWithReference()) serially in
     * order — health transitions, tallies, residual statistics, and
     * every returned watt match the serial path exactly. The speed
     * comes from the middle of the pipeline: validation/imputation
     * packs projected rows into a reused row-major scratch matrix,
     * the model evaluates all of them in a single predictBatch pass
     * (compiled struct-of-arrays plan, no per-row virtual dispatch),
     * and the registry metrics are flushed once per batch instead of
     * once per feature.
     *
     * A projected sample (SampleView::projection set) is equivalent
     * to the full row it was gathered from whenever the projection
     * holds every counter the model reads; a counter it lacks reads
     * as a missing input.
     *
     * @param samples  n sample views (storage must stay valid).
     * @param n        Batch size.
     * @param wattsOut n estimates, in arrival order.
     */
    void estimateBatch(const SampleView *samples, std::size_t n,
                       double *wattsOut);

    /**
     * Replace the deployed model in place (hot-swap). Health state,
     * tallies, and residual/estimate statistics carry over; the
     * last-known-good imputation state survives for every counter the
     * new model shares with the old one (matched by catalog index)
     * and starts fresh for counters only the new model consumes.
     * Model quality resets to Unknown: verdicts about the old model
     * say nothing about the new one.
     */
    void swapModel(MachinePowerModel newModel);

    /** The deployed machine model. */
    const MachinePowerModel &deployedModel() const { return model; }

    /** Health after the most recent sample (Healthy before any). */
    MachineHealth health() const { return healthState; }

    /** Model-quality verdict (Unknown until a monitor produces one). */
    ModelQuality modelQuality() const { return quality; }

    /** Store the monitoring layer's model-quality verdict. */
    void setModelQuality(ModelQuality q) { quality = q; }

    /** The hardening configuration this estimator was built with. */
    const OnlineEstimatorConfig &configuration() const
    {
        return config;
    }

    /** Most recent estimate in watts (0 before any sample). */
    double lastEstimateW() const { return lastEstimate; }

    /** Validation/imputation tallies so far. */
    const OnlineHealthCounters &healthCounters() const
    {
        return tallies;
    }

    /** Number of estimates produced. */
    size_t samples() const { return count; }

    /** Residual statistics against metered references so far. */
    const RunningStats &residuals() const { return residualStats; }

    /** Running mean of the estimates (average power draw). */
    double meanEstimateW() const { return estimateStats.mean(); }

  private:
    /** Imputation bookkeeping for one consumed feature. */
    struct FeatureState
    {
        double lastGood = 0.0;    ///< Most recent valid value.
        double ageSeconds = 0.0;  ///< Seconds since it was observed.
        bool seen = false;        ///< Any valid value yet?
    };

    /**
     * Per-call mirror of the global chaos.online.* registry counters.
     * The hot path accumulates into these plain integers and flushes
     * once per estimate()/estimateBatch() call, so a batched drain
     * performs one atomic add per counter per batch rather than one
     * per feature per sample.
     */
    struct LocalTallies
    {
        std::uint64_t valid = 0;
        std::uint64_t rejected = 0;
        std::uint64_t imputed = 0;
        std::uint64_t substituted = 0;
        std::uint64_t clamped = 0;
        std::uint64_t transitions = 0;
    };

    /**
     * Front half of one sample: validate/impute the inputs (input i
     * is values[pos[i]], or missing when pos[i] >= size), advance
     * the health state machine, and write the projected feature row
     * (model input order) to @p projected. Serial, arrival-order
     * state; must be called exactly once per sample, in order.
     *
     * @return True when the machine is Lost for this sample (the
     *         model output must be discarded and substituted).
     */
    bool prepareSample(const double *values, std::size_t size,
                       const std::vector<std::size_t> &pos,
                       double *projected, LocalTallies &local);

    /**
     * Back half of one sample: substitution, envelope clamp, trusted
     * window, and estimate statistics. @p modelWatts is ignored when
     * @p lost. Serial, arrival-order state.
     *
     * @return The final estimate in watts.
     */
    double finishSample(double modelWatts, bool lost,
                        LocalTallies &local);

    /** One atomic add per nonzero local tally. */
    static void flushTallies(const LocalTallies &local);

    /** Stand-in power while the machine is Lost. */
    double substitutePowerW() const;

    /** Record a trusted (model-produced) estimate for substitution. */
    void rememberTrusted(double watts);

    MachinePowerModel model;
    OnlineEstimatorConfig config;
    std::vector<FeatureState> featureStates;
    std::vector<double> plausibleBounds;
    /** The model's inputs among estimateBatch's projected values. */
    ProjectedPositions positions;

    /** Projected-row scratch for the scalar estimate() path (reused
     *  across calls; estimate() used to build this vector per sample,
     *  which dominated the allocator profile under load). */
    std::vector<double> rowScratch;
    /** Packed row-major projected rows for estimateBatch (reused). */
    std::vector<double> batchRows;
    /** Per-sample Lost flags for estimateBatch (reused). */
    std::vector<unsigned char> batchLost;

    MachineHealth healthState = MachineHealth::Healthy;
    ModelQuality quality = ModelQuality::Unknown;
    double secondsAllInvalid = 0.0;
    OnlineHealthCounters tallies;

    /** Ring of the last recentMeanWindow trusted estimates, sized at
     *  construction so remembering one never allocates. */
    std::vector<double> recentTrusted;
    size_t recentHead = 0; ///< Next write position.
    size_t recentFill = 0;
    double recentTrustedSum = 0.0;

    size_t count = 0;
    double lastEstimate = 0.0;
    RunningStats residualStats;
    RunningStats estimateStats;
};

} // namespace chaos

#endif // CHAOS_CORE_ONLINE_HPP
