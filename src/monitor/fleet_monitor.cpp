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
    positionOf_.clear();
    ids_ = server.machineIds();
    numSlots_ = ids_.size();
    slots_ = std::make_unique<Slot[]>(numSlots_);
    for (std::size_t position = 0; position < numSlots_; ++position) {
        const std::string &id = ids_[position];
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
        Slot &slot = slots_[position];
        slot.entry = entry;
        slot.rolling = RollingQuality(machineConfig);
        slot.published.envelopeSpanW = machineConfig.envelopeSpanW();
        slot.published.machineIndex = entry->index();
        if (entry->index() >= positionOf_.size())
            positionOf_.resize(entry->index() + 1, kUnmonitored);
        positionOf_[entry->index()] =
            static_cast<std::uint32_t>(position);
        // Cache the slot on the entry (under its mutex) so onSample
        // reaches the tracker without any lookup.
        entry->withEstimator([&](OnlinePowerEstimator &) {
            entry->setObserverState(&slot);
            publish(slot);
        });
    }
    server_ = &server;
    fleet_ = &server;
    server.setSampleObserver(this);
}

void
FleetMonitor::detach()
{
    if (server_ == nullptr)
        return;
    server_->setSampleObserver(nullptr);
    for (std::size_t i = 0; i < numSlots_; ++i) {
        Slot &slot = slots_[i];
        slot.entry->withEstimator([&](OnlinePowerEstimator &) {
            slot.entry->setObserverState(nullptr);
        });
    }
    server_ = nullptr;
}

void
FleetMonitor::publish(Slot &slot)
{
    constexpr auto relaxed = std::memory_order_relaxed;
    const RollingQuality &rolling = slot.rolling;
    Published &p = slot.published;
    p.lock.write([&] {
        p.flags.store(static_cast<std::uint32_t>(rolling.quality()) |
                          static_cast<std::uint32_t>(rolling.drifted())
                              << 8,
                      relaxed);
        p.samples.store(rolling.samples(), relaxed);
        p.fill.store(rolling.windowFill(), relaxed);
        p.sumW.store(rolling.windowSumW(), relaxed);
        p.sumSqW.store(rolling.windowSumSqW(), relaxed);
        p.driftStatistic.store(rolling.driftStatistic(), relaxed);
    });
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
    publish(slot);
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
                                       entry.id(), detail.str());
        if (driftListener_)
            driftListener_(entry.id());
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
    serve::MachineEntry *entry =
        fleet_ == nullptr ? nullptr : fleet_->machine(id);
    if (entry == nullptr || entry->index() >= positionOf_.size())
        return nullptr;
    const std::uint32_t position = positionOf_[entry->index()];
    if (position == kUnmonitored)
        return nullptr;
    return &slots_[position];
}

void
FleetMonitor::acknowledgeDrift(const std::string &id)
{
    Slot *slot = findSlot(id);
    if (slot == nullptr)
        return;
    slot->entry->withEstimator([&](OnlinePowerEstimator &est) {
        slot->rolling.acknowledge();
        publish(*slot);
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
    Slot *slot = findSlot(machineId);
    if (slot == nullptr)
        return;
    // Under the entry mutex so the reset cannot interleave with a
    // concurrent onSample for the same machine.
    slot->entry->withEstimator([&](OnlinePowerEstimator &) {
        slot->rolling.reset();
        publish(*slot);
    });
}

QualitySnapshot
FleetMonitor::snapshot() const
{
    constexpr auto relaxed = std::memory_order_relaxed;
    QualitySnapshot snap;
    snap.tsMs = obs::wallClockMs();
    snap.machines.reserve(numSlots_);
    for (std::size_t pos = 0; pos < numSlots_; ++pos) {
        const Published &p = slots_[pos].published;
        std::uint32_t flags = 0;
        std::uint64_t fill = 0;
        double sumW = 0.0;
        double sumSqW = 0.0;
        MachineQualityReport &report = snap.machines.emplace_back();
        p.lock.read([&] {
            flags = p.flags.load(relaxed);
            report.referenceSamples = p.samples.load(relaxed);
            fill = p.fill.load(relaxed);
            sumW = p.sumW.load(relaxed);
            sumSqW = p.sumSqW.load(relaxed);
            report.driftStatistic = p.driftStatistic.load(relaxed);
        });
        report.id = ids_[pos];
        report.index = p.machineIndex;
        report.quality = static_cast<ModelQuality>(flags & 0xff);
        report.drifted = ((flags >> 8) & 1) != 0;
        report.windowFill = fill;
        report.windowRmseW = RollingQuality::rmseOf(sumSqW, fill);
        report.rollingDre =
            RollingQuality::dreOf(report.windowRmseW, p.envelopeSpanW);
        report.biasW = RollingQuality::meanOf(sumW, fill);
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
