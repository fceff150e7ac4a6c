/**
 * @file
 * Fleet-wide online model-quality monitoring for the serving path.
 *
 * FleetMonitor plugs into a FleetServer through the SampleObserver
 * hook: for every evaluated sample that carried a metered reference,
 * the machine's RollingQuality tracker is updated (rolling rMSE,
 * rolling DRE, bias, Page-Hinkley drift detection) and the verdict is
 * written back onto the machine's OnlinePowerEstimator so fleet
 * snapshots report model quality alongside telemetry health.
 *
 * The hot path is deliberately minimal: the per-machine tracker is
 * reached through a slot pointer cached on the MachineEntry itself
 * (no map lookup), and the update is O(1) arithmetic with no atomics
 * and no registry traffic — the
 * chaos.monitor.* gauges and histograms are refreshed at snapshot /
 * publish cadence instead of per sample, which keeps the serving
 * throughput cost under the 1% budget.
 *
 * Slots are addressed by the registry's dense machine index; the
 * string id is resolved to it only at the API edge (acknowledgeDrift,
 * machineDrifted, onModelSwap).
 *
 * Threading: onSample runs under the machine's entry mutex (see
 * SampleObserver), so per-machine state needs no extra lock; the
 * machine table itself is immutable after attach(). Every change to
 * a tracker (under that mutex) republishes the window sums and the
 * drift state into the slot's cache line with a sequence counter, so
 * snapshot() reads one contiguous array without taking any lock and
 * still sees each machine consistently.
 *
 * Drift firings emit a ModelDrift event into the process EventLog and
 * bump chaos.monitor.drift_events; both are deterministic for a given
 * trace because per-machine evaluation order equals arrival order
 * regardless of thread count.
 */
#ifndef CHAOS_MONITOR_FLEET_MONITOR_HPP
#define CHAOS_MONITOR_FLEET_MONITOR_HPP

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "monitor/quality.hpp"
#include "serve/server.hpp"
#include "util/seqlock.hpp"

namespace chaos::monitor {

/** One machine's slice of a quality snapshot. */
struct MachineQualityReport
{
    std::string id;
    /** Registry index (serve::kNoMachineIndex by hand); not JSON. */
    std::uint32_t index = serve::kNoMachineIndex;
    ModelQuality quality = ModelQuality::Unknown;
    std::uint64_t referenceSamples = 0; ///< Residuals consumed.
    std::uint64_t windowFill = 0;       ///< Residuals in the window.
    double windowRmseW = 0.0;
    double rollingDre = 0.0;            ///< NaN without an envelope.
    double biasW = 0.0;
    double driftStatistic = 0.0;        ///< Page-Hinkley excursion.
    bool drifted = false;
};

/** Point-in-time model-quality view of the whole fleet. */
struct QualitySnapshot
{
    std::uint64_t tsMs = 0;                    ///< Wall clock, ms.
    std::vector<MachineQualityReport> machines; ///< Sorted by id.

    /** Machines currently flagged Drifting. */
    std::size_t driftingCount() const;

    /** Serialize as one single-line JSON object. */
    std::string toJson() const;
};

/** The fleet-wide monitor (see file comment). */
class FleetMonitor : public serve::SampleObserver
{
  public:
    explicit FleetMonitor(QualityMonitorConfig config = {});

    /** Detaches from the server if still attached. */
    ~FleetMonitor() override;

    FleetMonitor(const FleetMonitor &) = delete;
    FleetMonitor &operator=(const FleetMonitor &) = delete;

    /**
     * Track every machine currently registered with @p server and
     * install this monitor as the server's sample observer. Machines
     * with no envelope in the monitor config inherit the DRE
     * denominator from their estimator's own configuration. Call
     * after the fleet is registered and before serving starts;
     * machines added later are not monitored until re-attach.
     */
    void attach(serve::FleetServer &server);

    /** Remove this monitor from the attached server (idempotent). */
    void detach();

    /** True while installed on a server. */
    bool attached() const { return server_ != nullptr; }

    // SampleObserver:
    void onSample(serve::MachineEntry &entry,
                  OnlinePowerEstimator &estimator, double estimateW,
                  double meteredW) override;
    void onModelSwap(const std::string &machineId) override;

    /** Consistent per-machine quality view (takes no entry lock). */
    QualitySnapshot snapshot() const;

    /**
     * Refresh the chaos.monitor.* registry metrics from the current
     * state: per-machine rolling DRE / window rMSE / |bias| histogram
     * observations plus fleet-level gauges. Returns the snapshot the
     * metrics were derived from. Deterministic for a fixed call
     * pattern (histogram counts grow once per publish).
     */
    QualitySnapshot publishMetrics() const;

    /** ModelDrift events emitted so far. */
    std::uint64_t driftEvents() const;

    /**
     * Install a callback invoked right after a drift firing (after
     * the ModelDrift event is emitted), with the machine id. Runs on
     * the drain thread UNDER that machine's entry mutex: the callback
     * must only touch leaf state (e.g. append to its own queue) and
     * must never take entry or registry locks. Set before serving
     * starts; pass nullptr to remove.
     */
    void setDriftListener(std::function<void(const std::string &)> fn);

    /**
     * Clear machine @p id's latched drift verdict while keeping its
     * calibration baseline (RollingQuality::acknowledge), and write
     * the fresh verdict back to the estimator. Used when remediation
     * keeps the incumbent model. No-op for unknown ids.
     */
    void acknowledgeDrift(const std::string &id);

    /** True when machine @p id's detector is currently latched. */
    bool machineDrifted(const std::string &id) const;

    /** Number of monitored machines. */
    std::size_t numMachines() const { return numSlots_; }

    /** The configuration the monitor was built with. */
    const QualityMonitorConfig &config() const { return config_; }

  private:
    /**
     * What snapshot() reads of one tracker: one cache line, next to
     * the tracker state onSample is already writing.
     */
    struct alignas(64) Published
    {
        SeqLock lock;
        std::atomic<std::uint32_t> flags{0}; ///< Quality, drifted.
        std::atomic<std::uint64_t> samples{0};
        std::atomic<std::uint64_t> fill{0};
        std::atomic<double> sumW{0.0};
        std::atomic<double> sumSqW{0.0};
        std::atomic<double> driftStatistic{0.0};
        double envelopeSpanW = 0.0;  ///< Fixed at attach().
        std::uint32_t machineIndex = 0;
    };

    /** One monitored machine (tracker touched under its mutex). */
    struct Slot
    {
        Published published;
        serve::MachineEntry *entry = nullptr;
        RollingQuality rolling;
    };

    static constexpr std::uint32_t kUnmonitored = 0xffffffffu;

    /** Slot of machine @p id, or nullptr when unmonitored. */
    Slot *findSlot(const std::string &id) const;

    /** Republish @p slot's tracker (its entry mutex held). */
    static void publish(Slot &slot);

    QualityMonitorConfig config_;
    serve::FleetServer *server_ = nullptr;
    /** The server last attached to: resolves ids after detach(). */
    serve::FleetServer *fleet_ = nullptr;
    /** Sorted by id; sized once, since entries point into it. */
    std::unique_ptr<Slot[]> slots_;
    std::size_t numSlots_ = 0;
    std::vector<std::string> ids_;            ///< Aligned with slots_.
    /** Machine index -> position in slots_ (kUnmonitored if none). */
    std::vector<std::uint32_t> positionOf_;
    std::atomic<std::uint64_t> driftEvents_{0};
    std::function<void(const std::string &)> driftListener_;
};

} // namespace chaos::monitor

#endif // CHAOS_MONITOR_FLEET_MONITOR_HPP
