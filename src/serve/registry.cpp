#include "serve/registry.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "util/result.hpp"

namespace chaos::serve {

const CounterProjection *
ProjectionTable::intern(std::vector<std::size_t> indices)
{
    std::lock_guard<std::mutex> lock(mu);
    return &*table.emplace(std::move(indices)).first;
}

MachineEntry::MachineEntry(std::string machineId, std::uint32_t index,
                           std::uint32_t shard, MachineStateSlot &state,
                           ProjectionTable &projections,
                           MachinePowerModel model,
                           OnlineEstimatorConfig config)
    : id_(std::move(machineId)), index_(index), shard_(shard),
      state_(state), projections_(projections),
      estimator_(std::move(model), std::move(config))
{
    refreshProjectionLocked();
    publishLocked();
}

void
MachineEntry::refreshProjectionLocked()
{
    std::vector<std::size_t> want =
        estimator_.deployedModel().catalogIndices();
    const auto add = [&](const MachinePowerModel &reader) {
        const std::vector<std::size_t> &idx = reader.catalogIndices();
        want.insert(want.end(), idx.begin(), idx.end());
    };
    if (quarantined_ && substituteModel_ != nullptr)
        add(*substituteModel_);
    if (shadow_ != nullptr)
        add(shadow_->candidate);
    std::sort(want.begin(), want.end());
    want.erase(std::unique(want.begin(), want.end()), want.end());
    const CounterProjection *current =
        projection_.load(std::memory_order_relaxed);
    if (current != nullptr && current->indices() == want)
        return;
    projection_.store(projections_.intern(std::move(want)),
                      std::memory_order_release);
}

bool
MachineEntry::coversLocked(const CounterProjection *p) const
{
    const CounterProjection *current =
        projection_.load(std::memory_order_relaxed);
    // Samples differ from the current projection only while the
    // queue turns over after a change of readers.
    return p == current ||
           (p != nullptr &&
            std::includes(p->indices().begin(), p->indices().end(),
                          current->indices().begin(),
                          current->indices().end()));
}

std::size_t
MachineEntry::countMissesLocked(const SampleView *samples,
                                std::size_t n) const
{
    std::size_t misses = 0;
    for (std::size_t i = 0; i < n; ++i)
        misses += coversLocked(samples[i].projection) ? 0 : 1;
    return misses;
}

void
MachineEntry::publishLocked()
{
    MachineStateSlot::Values v;
    v.watts = servedWattsLocked();
    v.modelW = estimator_.lastEstimateW();
    v.meanResidualW = estimator_.residuals().mean();
    v.samples = estimator_.samples();
    v.residualSamples = estimator_.residuals().count();
    v.health = estimator_.health();
    v.quality = estimator_.modelQuality();
    v.quarantined = quarantined_;
    state_.store(v);
}

void
MachineEntry::engageQuarantine(
    std::shared_ptr<const MachinePowerModel> substitute)
{
    std::lock_guard<std::mutex> lock(mu_);
    quarantined_ = true;
    substituteModel_ = std::move(substitute);
    substitutePos_.reset();
    refreshProjectionLocked();
    // Until the next sample arrives, serve the last-known-good level:
    // the running mean estimate when the machine has history, else
    // NaN so servedWattsLocked falls back to the raw estimate.
    substituteW_ = estimator_.samples() > 0
                       ? estimator_.meanEstimateW()
                       : std::numeric_limits<double>::quiet_NaN();
    // Restart the reference window: a retrain must fit the drifted
    // regime, not the pre-drift samples that trained the incumbent.
    ref_.head = 0;
    ref_.fill = 0;
    publishLocked();
}

void
MachineEntry::liftQuarantine()
{
    std::lock_guard<std::mutex> lock(mu_);
    quarantined_ = false;
    substituteModel_.reset();
    substituteW_ = std::numeric_limits<double>::quiet_NaN();
    refreshProjectionLocked();
    publishLocked();
}

bool
MachineEntry::quarantined()
{
    std::lock_guard<std::mutex> lock(mu_);
    return quarantined_;
}

void
MachineEntry::beginShadow(MachinePowerModel candidate)
{
    std::lock_guard<std::mutex> lock(mu_);
    shadow_ = std::make_unique<ShadowState>(std::move(candidate));
    shadowPos_.reset();
    refreshProjectionLocked();
}

void
MachineEntry::endShadow()
{
    std::lock_guard<std::mutex> lock(mu_);
    shadow_.reset();
    refreshProjectionLocked();
}

MachineEntry::ShadowReport
MachineEntry::shadowReport()
{
    std::lock_guard<std::mutex> lock(mu_);
    ShadowReport report;
    if (shadow_ == nullptr)
        return report;
    report.active = true;
    report.refSamples = shadow_->refSamples;
    if (shadow_->refSamples > 0) {
        const double n = static_cast<double>(shadow_->refSamples);
        report.candidateRmseW =
            std::sqrt(std::max(shadow_->candidateSumSq, 0.0) / n);
        report.incumbentRmseW =
            std::sqrt(std::max(shadow_->incumbentSumSq, 0.0) / n);
    }
    return report;
}

MachinePowerModel
MachineEntry::shadowModel()
{
    std::lock_guard<std::mutex> lock(mu_);
    raiseIf(shadow_ == nullptr,
            "registry: no shadow candidate on machine '" + id_ + "'");
    return shadow_->candidate;
}

void
MachineEntry::enableReferenceWindow(std::size_t capacity)
{
    std::lock_guard<std::mutex> lock(mu_);
    ref_ = ReferenceRing{};
    ref_.cap = capacity;
    if (capacity > 0) {
        ref_.rows.resize(capacity);
        ref_.watts.resize(capacity, 0.0);
    }
}

std::size_t
MachineEntry::referenceFill()
{
    std::lock_guard<std::mutex> lock(mu_);
    return ref_.fill;
}

MachineEntry::ReferenceData
MachineEntry::referenceData()
{
    std::lock_guard<std::mutex> lock(mu_);
    ReferenceData out;
    out.features = estimator_.deployedModel().featureSet();
    const std::size_t n = ref_.fill;
    const std::size_t p = out.features.counters.size();
    out.x = Matrix(n, p);
    out.y.resize(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        // Oldest first: the ring's head points at the next write, so
        // with a full ring the oldest sample lives at head.
        const std::size_t src =
            (ref_.head + ref_.cap - n + i) % ref_.cap;
        const std::vector<double> &row = ref_.rows[src];
        for (std::size_t j = 0; j < p && j < row.size(); ++j)
            out.x(i, j) = row[j];
        out.y[i] = ref_.watts[src];
    }
    return out;
}

bool
MachineEntry::predictAuxLocked(const MachinePowerModel &model,
                               ProjectedPositions &positions,
                               const SampleView &sample, double &watts)
{
    const std::vector<std::size_t> &pos =
        positions.resolve(model.catalogIndices(), sample.projection);
    if (!positions.complete())
        return false;
    auxRow_.resize(pos.size());
    for (std::size_t j = 0; j < pos.size(); ++j) {
        auxRow_[j] = pos[j] < sample.size
                         ? sample.values[pos[j]]
                         : std::numeric_limits<double>::quiet_NaN();
    }
    watts = model.predictFromFeatureRow(auxRow_);
    return true;
}

void
MachineEntry::recordSampleLocked(const SampleView &sample,
                                 double estimateW)
{
    if (quarantined_ && substituteModel_ != nullptr)
        predictAuxLocked(*substituteModel_, substitutePos_, sample,
                         substituteW_);
    const double meteredW = sample.meteredW;
    const bool metered = std::isfinite(meteredW);
    double candW = 0.0;
    if (shadow_ != nullptr && metered &&
        predictAuxLocked(shadow_->candidate, shadowPos_, sample,
                         candW)) {
        const double cd = meteredW - candW;
        const double id = meteredW - estimateW;
        shadow_->candidateSumSq += cd * cd;
        shadow_->incumbentSumSq += id * id;
        ++shadow_->refSamples;
    }
    if (ref_.cap > 0 && metered) {
        // Project through the deployed model's feature indices at
        // capture time: reference rows stay tiny and already
        // feature-ordered for retraining. A counter past the
        // producer's row is recorded as 0.
        const std::vector<size_t> &idx =
            estimator_.deployedModel().catalogIndices();
        const std::vector<std::size_t> &pos =
            refPos_.resolve(idx, sample.projection);
        if (!refPos_.complete())
            return;
        std::vector<double> &slot = ref_.rows[ref_.head];
        slot.resize(idx.size());
        for (std::size_t j = 0; j < idx.size(); ++j)
            slot[j] = idx[j] < sample.rowSize ? sample.values[pos[j]]
                                              : 0.0;
        ref_.watts[ref_.head] = meteredW;
        if (++ref_.head == ref_.cap)
            ref_.head = 0;
        if (ref_.fill < ref_.cap)
            ++ref_.fill;
    }
}

double
MachineEntry::servedWattsLocked() const
{
    if (quarantined_ && std::isfinite(substituteW_))
        return substituteW_;
    return estimator_.lastEstimateW();
}

void
MachineEntry::onModelSwappedLocked()
{
    shadow_.reset();
    ref_.head = 0;
    ref_.fill = 0;
    refPos_.reset();
    refreshProjectionLocked();
}

EstimatorRegistry::EstimatorRegistry(std::size_t numShards)
    : shards(std::max<std::size_t>(numShards, 1))
{}

std::size_t
EstimatorRegistry::shardOf(const std::string &machineId) const
{
    return std::hash<std::string>{}(machineId) % shards.size();
}

MachineEntry &
EstimatorRegistry::add(const std::string &machineId,
                       MachinePowerModel model,
                       OnlineEstimatorConfig config)
{
    raiseIf(machineId.empty(), "registry: empty machine id");
    if (config.sourceLabel.empty())
        config.sourceLabel = machineId;

    Shard &shard = shards[shardOf(machineId)];
    std::lock_guard<std::mutex> lock(shard.mu);
    raiseIf(shard.entries.count(machineId) != 0,
            "registry: duplicate machine id '" + machineId + "'");
    std::lock_guard<std::mutex> orderLock(orderMu);
    const auto index = static_cast<std::uint32_t>(entries.size());
    if (index % kStateBlock == 0)
        blocks.push_back(std::make_unique<StateBlock>());
    entries.push_back(std::make_unique<MachineEntry>(
        machineId, index,
        static_cast<std::uint32_t>(shardOf(machineId)),
        slotLocked(index), projections, std::move(model),
        std::move(config)));
    idTable.push_back(machineId);
    byIdSorted = byIdSorted &&
                 (byId.empty() || idTable[byId.back()] < machineId);
    byId.push_back(index);
    MachineEntry &entry = *entries.back();
    shard.entries.emplace(machineId, &entry);
    return entry;
}

MachineEntry *
EstimatorRegistry::find(const std::string &machineId)
{
    Shard &shard = shards[shardOf(machineId)];
    std::lock_guard<std::mutex> lock(shard.mu);
    const auto it = shard.entries.find(machineId);
    return it == shard.entries.end() ? nullptr : it->second;
}

void
EstimatorRegistry::swapModel(const std::string &machineId,
                             MachinePowerModel model)
{
    MachineEntry *entry = find(machineId);
    raiseIf(entry == nullptr,
            "registry: cannot swap model of unknown machine '" +
                machineId + "'");
    entry->withEstimator([&](OnlinePowerEstimator &estimator) {
        estimator.swapModel(std::move(model));
        entry->onModelSwappedLocked();
    });
    static auto &swaps =
        obs::Registry::instance().counter("chaos.serve.model_swaps");
    swaps.add();
    obs::EventLog::instance().emit(obs::EventKind::HealthTransition,
                                   machineId, "model hot-swapped");
}

std::size_t
EstimatorRegistry::size() const
{
    std::lock_guard<std::mutex> lock(orderMu);
    return entries.size();
}

std::vector<std::string>
EstimatorRegistry::ids() const
{
    std::vector<std::string> out;
    forEachById(
        [&](const std::string &id, const MachineStateSlot &,
            std::uint32_t) { out.push_back(id); });
    return out;
}

void
EstimatorRegistry::sortLocked() const
{
    if (byIdSorted)
        return;
    std::sort(byId.begin(), byId.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  return idTable[a] < idTable[b];
              });
    byIdSorted = true;
}

} // namespace chaos::serve
