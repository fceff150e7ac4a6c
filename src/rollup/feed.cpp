#include "rollup/feed.hpp"

#include "obs/json.hpp"
#include "util/result.hpp"

#include <fstream>
#include <limits>

namespace chaos::rollup {

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

MachineHealth
healthFromName(const std::string &name)
{
    if (name == "Degraded")
        return MachineHealth::Degraded;
    if (name == "Stale")
        return MachineHealth::Stale;
    if (name == "Lost")
        return MachineHealth::Lost;
    return MachineHealth::Healthy;
}

ModelQuality
qualityFromName(const std::string &name)
{
    if (name == "Ok")
        return ModelQuality::Ok;
    if (name == "Drifting")
        return ModelQuality::Drifting;
    return ModelQuality::Unknown;
}

/** Placement lookup with the honest catch-all fallback. */
void
applyPlacement(const std::map<std::string, Placement> &placements,
               MachineObservation &m, std::string &path)
{
    auto it = placements.find(m.id);
    if (it == placements.end()) {
        path = kUnplacedGroup;
        m.platform = "unknown";
    } else {
        path = it->second.path;
        m.platform = it->second.platform;
    }
}

} // namespace

void
LiveRollupFeed::place(const std::string &id,
                      const std::string &groupPath,
                      const std::string &platform)
{
    std::lock_guard<std::mutex> lock(mu_);
    placements_[id] =
        Resolved{tree_.group(groupPath), tree_.platform(platform)};
    // A moved machine binds afresh on the next observe().
    machineOf_.clear();
}

std::uint32_t
LiveRollupFeed::bind(const serve::MachineSnapshot &row)
{
    const bool indexed = row.index != serve::kNoMachineIndex;
    if (indexed && row.index < machineOf_.size() &&
        machineOf_[row.index] != kUnbound)
        return machineOf_[row.index];
    // Edge: resolve the id through its placement, with the honest
    // catch-all for unplaced machines.
    const auto it = placements_.find(row.id);
    const Resolved where =
        it != placements_.end()
            ? it->second
            : Resolved{tree_.group(kUnplacedGroup),
                       tree_.platform("unknown")};
    const std::uint32_t machine =
        tree_.machine(where.group, row.id, where.platform);
    if (indexed) {
        if (row.index >= machineOf_.size())
            machineOf_.resize(row.index + 1, kUnbound);
        machineOf_[row.index] = machine;
    }
    return machine;
}

void
LiveRollupFeed::observe(const serve::FleetSnapshot &fleet,
                        const monitor::QualitySnapshot &quality)
{
    std::lock_guard<std::mutex> lock(mu_);
    // Index the quality rows by machine index; rows built by hand
    // carry none and fall back to the merge join on sorted ids.
    const std::uint64_t stamp = ++observed_;
    bool byIndex = true;
    for (std::size_t qi = 0; qi < quality.machines.size(); ++qi) {
        const std::uint32_t index = quality.machines[qi].index;
        if (index == serve::kNoMachineIndex) {
            byIndex = false;
            break;
        }
        if (index >= qualityStamp_.size()) {
            qualityStamp_.resize(index + 1, 0);
            qualityRow_.resize(index + 1, 0);
        }
        qualityStamp_[index] = stamp;
        qualityRow_[index] = static_cast<std::uint32_t>(qi);
    }

    std::size_t qi = 0;
    for (const serve::MachineSnapshot &ms : fleet.machines) {
        const monitor::MachineQualityReport *q = nullptr;
        if (byIndex && ms.index != serve::kNoMachineIndex) {
            if (ms.index < qualityStamp_.size() &&
                qualityStamp_[ms.index] == stamp)
                q = &quality.machines[qualityRow_[ms.index]];
        } else {
            while (qi < quality.machines.size() &&
                   quality.machines[qi].id < ms.id)
                ++qi;
            if (qi < quality.machines.size() &&
                quality.machines[qi].id == ms.id)
                q = &quality.machines[qi];
        }

        MachineState &m = tree_.state(bind(ms));
        m.watts = ms.watts;
        m.samples = ms.samples;
        m.dropped = ms.dropped;
        m.health = ms.health;
        m.quality = ms.quality;
        m.quarantined = ms.quarantined;
        if (q != nullptr) {
            m.windowRmseW = q->windowRmseW;
            m.rollingDre = q->rollingDre;
            m.biasW = q->biasW;
            m.drifted = q->drifted;
            m.referenceSamples = q->referenceSamples;
        } else {
            m.windowRmseW = 0.0;
            m.rollingDre = kNaN;
            m.biasW = ms.meanResidualW;
            m.drifted = false;
            m.referenceSamples = ms.residualSamples;
        }
    }
}

void
LiveRollupFeed::attach(serve::FleetServer &server,
                       monitor::FleetMonitor &monitor)
{
    server.onSnapshot([this, &monitor](
                          const serve::FleetSnapshot &snapshot) {
        // Drainer thread, no entry locks held: monitor.snapshot()
        // may take them (see FleetServer::onSnapshot).
        observe(snapshot, monitor.snapshot());
    });
}

NodeSummary
LiveRollupFeed::aggregate() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return tree_.aggregate();
}

std::uint64_t
LiveRollupFeed::observed() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return observed_;
}

void
JsonlRollupFeed::place(const std::string &id,
                       const std::string &groupPath,
                       const std::string &platform)
{
    placements_[id] = Placement{groupPath, platform};
}

MachineObservation &
JsonlRollupFeed::slot(const std::string &id)
{
    auto it = current_.find(id);
    if (it == current_.end()) {
        MachineObservation fresh;
        fresh.id = id;
        it = current_.emplace(id, std::move(fresh)).first;
    }
    return it->second;
}

void
JsonlRollupFeed::push(const MachineObservation &m)
{
    MachineObservation placed = m;
    std::string path;
    applyPlacement(placements_, placed, path);
    tree_.update(path, placed);
}

bool
JsonlRollupFeed::feedLine(const std::string &line,
                          JsonlReplayStats &stats)
{
    obs::JsonValue record;
    raiseIf(!obs::jsonParse(line, record) || !record.isObject(),
            "rollup: malformed telemetry line: " +
                line.substr(0, 120));

    const std::uint64_t tick =
        static_cast<std::uint64_t>(record.numberOr("tick", 0.0));
    if (tick > stats.lastTick)
        stats.lastTick = tick;

    const std::string type = record.stringOr("type", "");
    if (type == "fleet") {
        const obs::JsonValue *fleet = record.find("fleet");
        if (!fleet || !fleet->isObject())
            return false;
        const obs::JsonValue *machines = fleet->find("machines");
        if (!machines || !machines->isArray())
            return false;
        for (const obs::JsonValue &ms : machines->items()) {
            if (!ms.isObject())
                continue;
            const std::string id = ms.stringOr("id", "");
            if (id.empty())
                continue;
            MachineObservation &m = slot(id);
            m.watts = ms.numberOr("watts", 0.0);
            m.samples = static_cast<std::uint64_t>(
                ms.numberOr("samples", 0.0));
            m.referenceSamples = static_cast<std::uint64_t>(
                ms.numberOr("residual_samples",
                            static_cast<double>(m.referenceSamples)));
            m.dropped = static_cast<std::uint64_t>(
                ms.numberOr("dropped", 0.0));
            m.health = healthFromName(ms.stringOr("health", "Healthy"));
            m.quality =
                qualityFromName(ms.stringOr("quality", "Unknown"));
            m.quarantined = ms.boolOr("quarantined", false);
            push(m);
        }
        ++stats.fleetRecords;
        return true;
    }
    if (type == "quality") {
        const obs::JsonValue *quality = record.find("quality");
        if (!quality || !quality->isObject())
            return false;
        const obs::JsonValue *machines = quality->find("machines");
        if (!machines || !machines->isArray())
            return false;
        for (const obs::JsonValue &qs : machines->items()) {
            if (!qs.isObject())
                continue;
            const std::string id = qs.stringOr("id", "");
            if (id.empty())
                continue;
            MachineObservation &m = slot(id);
            m.quality =
                qualityFromName(qs.stringOr("quality", "Unknown"));
            m.referenceSamples = static_cast<std::uint64_t>(
                qs.numberOr("reference_samples", 0.0));
            m.windowRmseW = qs.numberOr("window_rmse_w", 0.0);
            m.rollingDre = qs.numberOr("rolling_dre", kNaN);
            m.biasW = qs.numberOr("bias_w", 0.0);
            m.drifted = qs.boolOr("drifted", false);
            push(m);
        }
        ++stats.qualityRecords;
        return true;
    }
    ++stats.skipped;
    return false;
}

JsonlReplayStats
JsonlRollupFeed::replayFile(const std::string &path)
{
    std::ifstream in(path);
    raiseIf(!in.is_open(), "rollup: cannot open telemetry: " + path);
    JsonlReplayStats stats;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        ++stats.lines;
        feedLine(line, stats);
    }
    return stats;
}

} // namespace chaos::rollup
