#include "core/online.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "oscounters/counter_catalog.hpp"
#include "util/logging.hpp"

namespace chaos {

namespace {

/** Event-source label for estimators that were not given one. */
const std::string kDefaultSource = "machine";

/**
 * Registry mirror of the per-estimator OnlineHealthCounters plus the
 * transition count. The online path is serial per estimator, so the
 * tallies are Stable (work-proportional) metrics.
 */
struct OnlineMetrics {
    obs::Counter &validInputs;
    obs::Counter &rejectedInputs;
    obs::Counter &imputedInputs;
    obs::Counter &substitutedEstimates;
    obs::Counter &clampedEstimates;
    obs::Counter &healthTransitions;

    static OnlineMetrics &
    get()
    {
        auto &registry = obs::Registry::instance();
        static OnlineMetrics m{
            registry.counter("chaos.online.valid_inputs"),
            registry.counter("chaos.online.rejected_inputs"),
            registry.counter("chaos.online.imputed_inputs"),
            registry.counter("chaos.online.substituted_estimates"),
            registry.counter("chaos.online.clamped_estimates"),
            registry.counter("chaos.online.health_transitions"),
        };
        return m;
    }
};

} // namespace

std::string
machineHealthName(MachineHealth health)
{
    switch (health) {
      case MachineHealth::Healthy:  return "Healthy";
      case MachineHealth::Degraded: return "Degraded";
      case MachineHealth::Stale:    return "Stale";
      case MachineHealth::Lost:     return "Lost";
    }
    panic("unknown machine health state");
}

std::string
modelQualityName(ModelQuality quality)
{
    switch (quality) {
      case ModelQuality::Unknown:  return "Unknown";
      case ModelQuality::Ok:       return "Ok";
      case ModelQuality::Drifting: return "Drifting";
    }
    panic("unknown model quality state");
}

OnlineEstimatorConfig
OnlineEstimatorConfig::forSpec(const MachineSpec &spec)
{
    OnlineEstimatorConfig config;
    config.idlePowerW = spec.idlePowerW;
    config.maxPowerW = spec.maxPowerW;
    return config;
}

OnlinePowerEstimator::OnlinePowerEstimator(MachinePowerModel model,
                                           OnlineEstimatorConfig config)
    : model(std::move(model)), config(config),
      recentTrusted(std::max<size_t>(config.recentMeanWindow, 1), 0.0)
{
    const auto &catalog = CounterCatalog::instance();
    const auto &indices = this->model.catalogIndices();
    featureStates.resize(indices.size());
    plausibleBounds.reserve(indices.size());
    for (size_t idx : indices)
        plausibleBounds.push_back(catalog.def(idx).maxPlausible);
}

double
OnlinePowerEstimator::substitutePowerW() const
{
    if (recentFill > 0)
        return recentTrustedSum / double(recentFill);
    if (config.hasEnvelope())
        return 0.5 * (config.idlePowerW + config.maxPowerW);
    return 0.0;
}

void
OnlinePowerEstimator::rememberTrusted(double watts)
{
    // Add the new estimate, then subtract the one it evicts: the
    // order a growing queue trimmed from the front would use.
    recentTrustedSum += watts;
    if (recentFill == recentTrusted.size())
        recentTrustedSum -= recentTrusted[recentHead];
    else
        ++recentFill;
    recentTrusted[recentHead] = watts;
    if (++recentHead == recentTrusted.size())
        recentHead = 0;
}

const std::vector<std::size_t> &
ProjectedPositions::resolve(const std::vector<std::size_t> &indices,
                            const CounterProjection *projection)
{
    if (projection == nullptr) {
        complete_ = true;
        return indices;
    }
    if (valid_ && projection == projection_)
        return pos_;
    const std::vector<std::size_t> &have = projection->indices();
    pos_.resize(indices.size());
    complete_ = true;
    for (std::size_t i = 0; i < indices.size(); ++i) {
        const auto it =
            std::lower_bound(have.begin(), have.end(), indices[i]);
        const bool found = it != have.end() && *it == indices[i];
        pos_[i] = found ? static_cast<std::size_t>(it - have.begin())
                        : kMissing;
        complete_ = complete_ && found;
    }
    projection_ = projection;
    valid_ = true;
    return pos_;
}

bool
OnlinePowerEstimator::prepareSample(const double *values,
                                    std::size_t size,
                                    const std::vector<std::size_t> &pos,
                                    double *projected,
                                    LocalTallies &local)
{
    const auto &indices = model.catalogIndices();
    auto &events = obs::EventLog::instance();
    const std::string &source =
        config.sourceLabel.empty() ? kDefaultSource : config.sourceLabel;

    bool anyValid = false;
    bool anyImputed = false;
    bool anyStale = false;
    std::uint64_t imputedThisSample = 0;
    for (size_t i = 0; i < indices.size(); ++i) {
        const double raw = pos[i] < size
                               ? values[pos[i]]
                               : std::numeric_limits<double>::quiet_NaN();
        FeatureState &fs = featureStates[i];
        const bool valid = std::isfinite(raw) && raw >= -1e-9 &&
                           raw <= plausibleBounds[i];
        if (valid) {
            const double value = std::max(raw, 0.0);
            fs.lastGood = value;
            fs.ageSeconds = 0.0;
            fs.seen = true;
            projected[i] = value;
            anyValid = true;
            ++tallies.validInputs;
            ++local.valid;
            continue;
        }
        ++tallies.rejectedInputs;
        ++local.rejected;
        fs.ageSeconds += 1.0;
        if (fs.seen) {
            projected[i] = fs.lastGood;
            ++tallies.imputedInputs;
            ++local.imputed;
            ++imputedThisSample;
            anyImputed = true;
            if (fs.ageSeconds > config.stalenessBudgetSeconds)
                anyStale = true;
        } else {
            // Nothing ever observed for this feature: model with 0
            // (the idle reading) and flag the estimate stale.
            projected[i] = 0.0;
            anyStale = true;
        }
    }

    // One aggregated event per sample keeps the log readable under
    // sustained degradation (vs one event per imputed feature).
    if (imputedThisSample > 0) {
        events.emit(obs::EventKind::Imputation, source,
                    "inputs imputed from last-known-good",
                    imputedThisSample);
    }

    const bool allInvalid = !indices.empty() && !anyValid;
    secondsAllInvalid = allInvalid ? secondsAllInvalid + 1.0 : 0.0;

    const MachineHealth previous = healthState;
    if (secondsAllInvalid >= config.lostAfterSeconds)
        healthState = MachineHealth::Lost;
    else if (anyStale)
        healthState = MachineHealth::Stale;
    else if (anyImputed)
        healthState = MachineHealth::Degraded;
    else
        healthState = MachineHealth::Healthy;

    if (healthState != previous) {
        ++local.transitions;
        events.emit(obs::EventKind::HealthTransition, source,
                    machineHealthName(previous) + " -> " +
                        machineHealthName(healthState));
    }
    return healthState == MachineHealth::Lost;
}

double
OnlinePowerEstimator::finishSample(double modelWatts, bool lost,
                                   LocalTallies &local)
{
    auto &events = obs::EventLog::instance();
    const std::string &source =
        config.sourceLabel.empty() ? kDefaultSource : config.sourceLabel;

    double watts;
    bool trusted = false;
    if (lost) {
        watts = substitutePowerW();
        ++tallies.substitutedEstimates;
        ++local.substituted;
        events.emit(obs::EventKind::Substitution, source,
                    "machine Lost: estimate substituted");
    } else {
        watts = modelWatts;
        if (std::isfinite(watts)) {
            trusted = true;
        } else {
            watts = substitutePowerW();
            ++tallies.substitutedEstimates;
            ++local.substituted;
            events.emit(obs::EventKind::Substitution, source,
                        "non-finite model output: estimate substituted");
        }
    }

    if (config.hasEnvelope()) {
        const double clamped =
            std::clamp(watts, config.idlePowerW, config.maxPowerW);
        if (clamped != watts) {
            ++tallies.clampedEstimates;
            ++local.clamped;
            events.emit(obs::EventKind::Clamp, source,
                        clamped >= watts
                            ? "estimate clamped up to idle power"
                            : "estimate clamped down to max power");
        }
        watts = clamped;
    }

    if (trusted)
        rememberTrusted(watts);

    estimateStats.add(watts);
    lastEstimate = watts;
    ++count;
    return watts;
}

void
OnlinePowerEstimator::flushTallies(const LocalTallies &local)
{
    auto &metrics = OnlineMetrics::get();
    if (local.valid > 0)
        metrics.validInputs.add(local.valid);
    if (local.rejected > 0)
        metrics.rejectedInputs.add(local.rejected);
    if (local.imputed > 0)
        metrics.imputedInputs.add(local.imputed);
    if (local.substituted > 0)
        metrics.substitutedEstimates.add(local.substituted);
    if (local.clamped > 0)
        metrics.clampedEstimates.add(local.clamped);
    if (local.transitions > 0)
        metrics.healthTransitions.add(local.transitions);
}

double
OnlinePowerEstimator::estimate(const std::vector<double> &catalogRow)
{
    LocalTallies local;
    rowScratch.resize(model.catalogIndices().size());
    const bool lost =
        prepareSample(catalogRow.data(), catalogRow.size(),
                      model.catalogIndices(), rowScratch.data(), local);
    // The serial path deliberately stays on the scalar virtual
    // predict(): it is the bit-identity oracle the compiled batch
    // plans are verified against.
    double modelWatts = std::numeric_limits<double>::quiet_NaN();
    if (!lost)
        modelWatts = model.predictFromFeatureRow(rowScratch);
    const double watts = finishSample(modelWatts, lost, local);
    flushTallies(local);
    return watts;
}

void
OnlinePowerEstimator::estimateBatch(const SampleView *samples,
                                    std::size_t n, double *wattsOut)
{
    if (n == 0)
        return;
    const size_t width = model.catalogIndices().size();
    LocalTallies local;

    // Phase A: serial validation/imputation/health in arrival order
    // (the health state machine is sequential), packing projected
    // rows into the reused row-major scratch matrix.
    batchRows.resize(n * width);
    batchLost.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        const SampleView &s = samples[i];
        const std::vector<std::size_t> &pos =
            positions.resolve(model.catalogIndices(), s.projection);
        batchLost[i] = prepareSample(s.values, s.size, pos,
                                     batchRows.data() + i * width,
                                     local)
                           ? 1
                           : 0;
    }

    // Phase B: one model pass over the packed rows (the compiled
    // struct-of-arrays plan). Lost samples are evaluated too — their
    // rows hold valid last-known-good projections — but phase C
    // discards those outputs, matching the serial path, which never
    // consults the model once the machine is Lost.
    model.predictBatchFromFeatureRows(batchRows.data(), n, width,
                                      wattsOut);

    // Phase C: serial substitution/clamp/statistics in arrival order
    // (the trusted-estimate window is sequential).
    for (std::size_t i = 0; i < n; ++i) {
        const double watts =
            finishSample(wattsOut[i], batchLost[i] != 0, local);
        wattsOut[i] = watts;
        if (std::isfinite(samples[i].meteredW))
            residualStats.add(samples[i].meteredW - watts);
    }
    flushTallies(local);
}

void
OnlinePowerEstimator::swapModel(MachinePowerModel newModel)
{
    const auto &catalog = CounterCatalog::instance();
    const std::vector<size_t> oldIndices = model.catalogIndices();
    const std::vector<FeatureState> oldStates = featureStates;

    model = std::move(newModel);
    positions.reset();
    quality = ModelQuality::Unknown;
    const auto &indices = model.catalogIndices();
    featureStates.assign(indices.size(), FeatureState{});
    plausibleBounds.clear();
    plausibleBounds.reserve(indices.size());
    for (size_t i = 0; i < indices.size(); ++i) {
        plausibleBounds.push_back(catalog.def(indices[i]).maxPlausible);
        // Carry last-known-good state across the swap for counters
        // both models consume, so a swap during degraded telemetry
        // does not discard the imputation history.
        for (size_t j = 0; j < oldIndices.size(); ++j) {
            if (oldIndices[j] == indices[i]) {
                featureStates[i] = oldStates[j];
                break;
            }
        }
    }
}

double
OnlinePowerEstimator::estimateWithReference(
    const std::vector<double> &catalogRow, double meteredW)
{
    const double watts = estimate(catalogRow);
    if (std::isfinite(meteredW))
        residualStats.add(meteredW - watts);
    return watts;
}

} // namespace chaos
