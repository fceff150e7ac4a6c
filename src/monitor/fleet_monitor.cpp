#include "monitor/fleet_monitor.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <sstream>

#include "obs/events.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "util/result.hpp"

namespace chaos::monitor {

namespace {

/**
 * chaos.monitor.* registry metrics. The drift-event counter and the
 * publish-time histograms are Stable: per-machine residual streams
 * are processed in arrival order regardless of thread count, so for a
 * fixed trace and publish cadence their values are bit-identical.
 * Fleet-level level gauges are Scheduling (point-in-time readings).
 */
struct MonitorMetrics
{
    obs::Counter &driftEventsTotal;
    obs::Counter &publishes;
    obs::Histogram &rollingDre;
    obs::Histogram &windowRmseW;
    obs::Histogram &absBiasW;
    obs::Gauge &driftingMachines;
    obs::Gauge &warmingMachines;
    obs::Gauge &referenceSamples;

    static MonitorMetrics &
    get()
    {
        auto &registry = obs::Registry::instance();
        static MonitorMetrics m{
            registry.counter("chaos.monitor.drift_events"),
            registry.counter("chaos.monitor.publishes"),
            registry.histogram("chaos.monitor.rolling_dre",
                               {0.01, 0.02, 0.05, 0.10, 0.20, 0.50}),
            registry.histogram("chaos.monitor.window_rmse_w",
                               {0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0}),
            registry.histogram("chaos.monitor.abs_bias_w",
                               {0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0}),
            registry.gauge("chaos.monitor.drifting_machines"),
            registry.gauge("chaos.monitor.warming_machines"),
            registry.gauge("chaos.monitor.reference_samples"),
        };
        return m;
    }
};

/** %.17g rendering, with NaN/inf mapped to null for JSON safety. */
std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

std::size_t
QualitySnapshot::driftingCount() const
{
    std::size_t n = 0;
    for (const MachineQualityReport &m : machines) {
        if (m.quality == ModelQuality::Drifting)
            ++n;
    }
    return n;
}

std::string
QualitySnapshot::toJson() const
{
    std::ostringstream out;
    out << "{\"ts_ms\": " << tsMs << ", \"drifting\": "
        << driftingCount() << ", \"machines\": [";
    for (std::size_t i = 0; i < machines.size(); ++i) {
        const MachineQualityReport &m = machines[i];
        if (i > 0)
            out << ", ";
        out << "{\"id\": \"" << obs::jsonEscape(m.id)
            << "\", \"quality\": \"" << modelQualityName(m.quality)
            << "\", \"reference_samples\": " << m.referenceSamples
            << ", \"window_fill\": " << m.windowFill
            << ", \"window_rmse_w\": " << jsonNumber(m.windowRmseW)
            << ", \"rolling_dre\": " << jsonNumber(m.rollingDre)
            << ", \"bias_w\": " << jsonNumber(m.biasW)
            << ", \"drift_statistic\": "
            << jsonNumber(m.driftStatistic) << ", \"drifted\": "
            << (m.drifted ? "true" : "false") << "}";
    }
    out << "]}";
    return out.str();
}

FleetMonitor::FleetMonitor(QualityMonitorConfig config)
    : config_(config)
{}

FleetMonitor::~FleetMonitor()
{
    detach();
}

void
FleetMonitor::attach(serve::FleetServer &server)
{
    raiseIf(server_ != nullptr && server_ != &server,
            "monitor: already attached to a different server");
    detach();
    slots_.clear();
    for (const std::string &id : server.machineIds()) {
        serve::MachineEntry *entry = server.machine(id);
        raiseIf(entry == nullptr,
                "monitor: machine '" + id +
                    "' vanished during attach");
        QualityMonitorConfig machineConfig = config_;
        if (!machineConfig.hasEnvelope()) {
            entry->withEstimator([&](OnlinePowerEstimator &est) {
                machineConfig.idlePowerW =
                    est.configuration().idlePowerW;
                machineConfig.maxPowerW =
                    est.configuration().maxPowerW;
            });
        }
        slots_.push_back(
            std::make_unique<Slot>(entry, id, machineConfig));
        // Cache the slot on the entry (under its mutex) so onSample
        // reaches the tracker without any lookup.
        Slot *slot = slots_.back().get();
        entry->withEstimator([&](OnlinePowerEstimator &) {
            entry->setObserverState(slot);
        });
    }
    server_ = &server;
    server.setSampleObserver(this);
}

void
FleetMonitor::detach()
{
    if (server_ == nullptr)
        return;
    server_->setSampleObserver(nullptr);
    for (const auto &slot : slots_) {
        slot->entry->withEstimator([&](OnlinePowerEstimator &) {
            slot->entry->setObserverState(nullptr);
        });
    }
    server_ = nullptr;
}

void
FleetMonitor::onSample(serve::MachineEntry &entry,
                       OnlinePowerEstimator &estimator,
                       double estimateW, double meteredW)
{
    if (!std::isfinite(meteredW))
        return;
    // Machines registered after attach() carry no slot: unmonitored.
    Slot *slotPtr = static_cast<Slot *>(entry.observerState());
    if (slotPtr == nullptr)
        return;
    Slot &slot = *slotPtr;
    const bool fired = slot.rolling.addResidual(meteredW - estimateW);
    const ModelQuality verdict = slot.rolling.quality();
    if (verdict != estimator.modelQuality())
        estimator.setModelQuality(verdict);
    if (fired) {
        // Cold path: a detector fires at most once per deployment.
        driftEvents_.fetch_add(1, std::memory_order_relaxed);
        MonitorMetrics::get().driftEventsTotal.add();
        std::ostringstream detail;
        detail << std::setprecision(4)
               << "model drift detected: rolling DRE "
               << slot.rolling.rollingDre() << ", bias "
               << slot.rolling.biasW() << " W after "
               << slot.rolling.samples() << " reference samples";
        obs::EventLog::instance().emit(obs::EventKind::ModelDrift,
                                       slot.id, detail.str());
        if (driftListener_)
            driftListener_(slot.id);
    }
}

void
FleetMonitor::setDriftListener(
    std::function<void(const std::string &)> fn)
{
    driftListener_ = std::move(fn);
}

FleetMonitor::Slot *
FleetMonitor::findSlot(const std::string &id) const
{
    for (const auto &slot : slots_) {
        if (slot->id == id)
            return slot.get();
    }
    return nullptr;
}

void
FleetMonitor::acknowledgeDrift(const std::string &id)
{
    Slot *slot = findSlot(id);
    if (slot == nullptr)
        return;
    slot->entry->withEstimator([&](OnlinePowerEstimator &est) {
        slot->rolling.acknowledge();
        est.setModelQuality(slot->rolling.quality());
    });
}

bool
FleetMonitor::machineDrifted(const std::string &id) const
{
    Slot *slot = findSlot(id);
    if (slot == nullptr)
        return false;
    bool drifted = false;
    slot->entry->withEstimator([&](OnlinePowerEstimator &) {
        drifted = slot->rolling.drifted();
    });
    return drifted;
}

void
FleetMonitor::onModelSwap(const std::string &machineId)
{
    for (const auto &slot : slots_) {
        if (slot->id != machineId)
            continue;
        // Under the entry mutex so the reset cannot interleave with a
        // concurrent onSample for the same machine.
        slot->entry->withEstimator(
            [&](OnlinePowerEstimator &) { slot->rolling.reset(); });
        return;
    }
}

QualitySnapshot
FleetMonitor::snapshot() const
{
    QualitySnapshot snap;
    snap.tsMs = obs::wallClockMs();
    snap.machines.reserve(slots_.size());
    for (const auto &slot : slots_) {
        MachineQualityReport report;
        report.id = slot->id;
        slot->entry->withEstimator([&](OnlinePowerEstimator &) {
            const RollingQuality &rolling = slot->rolling;
            report.quality = rolling.quality();
            report.referenceSamples = rolling.samples();
            report.windowFill = rolling.windowFill();
            report.windowRmseW = rolling.windowRmseW();
            report.rollingDre = rolling.rollingDre();
            report.biasW = rolling.biasW();
            report.driftStatistic = rolling.driftStatistic();
            report.drifted = rolling.drifted();
        });
        snap.machines.push_back(std::move(report));
    }
    return snap;
}

QualitySnapshot
FleetMonitor::publishMetrics() const
{
    QualitySnapshot snap = snapshot();
    auto &metrics = MonitorMetrics::get();
    metrics.publishes.add();
    std::int64_t warming = 0;
    std::int64_t references = 0;
    for (const MachineQualityReport &m : snap.machines) {
        if (m.quality == ModelQuality::Unknown)
            ++warming;
        references += static_cast<std::int64_t>(m.referenceSamples);
        if (m.windowFill == 0)
            continue;
        if (std::isfinite(m.rollingDre))
            metrics.rollingDre.observe(m.rollingDre);
        metrics.windowRmseW.observe(m.windowRmseW);
        metrics.absBiasW.observe(std::abs(m.biasW));
    }
    metrics.driftingMachines.set(
        static_cast<std::int64_t>(snap.driftingCount()));
    metrics.warmingMachines.set(warming);
    metrics.referenceSamples.set(references);
    return snap;
}

std::uint64_t
FleetMonitor::driftEvents() const
{
    return driftEvents_.load(std::memory_order_relaxed);
}

} // namespace chaos::monitor
