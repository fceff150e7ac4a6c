#include "faults/injectors.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/events.hpp"
#include "obs/metrics.hpp"

namespace chaos {

namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

/**
 * Activation tallies per fault class. Stable: the injectors are
 * seeded and run serially, so counts are work-proportional.
 */
struct FaultMetrics {
    obs::Counter &meterDropouts;
    obs::Counter &meterSpikes;
    obs::Counter &machineOutages;
    obs::Counter &jitterRepeats;
    obs::Counter &stuckOnsets;
    obs::Counter &counterNans;

    static FaultMetrics &
    get()
    {
        auto &registry = obs::Registry::instance();
        static FaultMetrics m{
            registry.counter("chaos.faults.meter_dropouts"),
            registry.counter("chaos.faults.meter_spikes"),
            registry.counter("chaos.faults.machine_outages"),
            registry.counter("chaos.faults.jitter_repeats"),
            registry.counter("chaos.faults.stuck_onsets"),
            registry.counter("chaos.faults.counter_nans"),
        };
        return m;
    }
};

/** Episode length in whole seconds with the given mean (>= 1). */
double
episodeSeconds(Rng &rng, double meanSeconds)
{
    const double mean = std::max(meanSeconds, 1.0);
    return std::max(1.0, std::ceil(rng.exponential(1.0 / mean)));
}

} // namespace

MeterFaultInjector::MeterFaultInjector(const FaultProfile &profile,
                                       Rng rng)
    : profile(profile), rng(rng)
{}

double
MeterFaultInjector::apply(double readingW)
{
    if (profile.meterDropoutRate > 0 &&
        rng.bernoulli(profile.meterDropoutRate)) {
        FaultMetrics::get().meterDropouts.add();
        return kNan;
    }
    if (profile.meterSpikeRate > 0 &&
        rng.bernoulli(profile.meterSpikeRate)) {
        FaultMetrics::get().meterSpikes.add();
        // Transient glitch: up to the full relative magnitude, either
        // direction, never below zero watts.
        const double swing = profile.meterSpikeRelMagnitude *
                             rng.uniform(0.5, 1.0);
        const double sign = rng.bernoulli(0.5) ? 1.0 : -1.0;
        readingW = std::max(0.0, readingW * (1.0 + sign * swing));
    }
    if (profile.meterQuantizationW > 0) {
        readingW = std::round(readingW / profile.meterQuantizationW) *
                   profile.meterQuantizationW;
    }
    return readingW;
}

CounterFaultInjector::CounterFaultInjector(const FaultProfile &profile,
                                           Rng rng)
    : profile(profile), rng(rng)
{}

void
CounterFaultInjector::reset()
{
    outageSecondsLeft = 0.0;
    stuckSecondsLeft.clear();
    heldValues.clear();
    lastVector.clear();
    haveLastVector = false;
}

std::vector<double>
CounterFaultInjector::apply(std::vector<double> values)
{
    // Whole-machine outage: every counter is gone until the episode
    // ends. Episodes cannot overlap; a new onset is drawn only while
    // telemetry is up.
    if (outageSecondsLeft > 0.0) {
        outageSecondsLeft -= 1.0;
        std::fill(values.begin(), values.end(), kNan);
        return values;
    }
    if (profile.machineLossRate > 0 &&
        rng.bernoulli(profile.machineLossRate)) {
        outageSecondsLeft =
            episodeSeconds(rng, profile.machineLossMeanSeconds) - 1.0;
        FaultMetrics::get().machineOutages.add();
        obs::EventLog::instance().emit(
            obs::EventKind::FaultActivation, "counter_injector",
            "machine outage for " +
                std::to_string(static_cast<long>(outageSecondsLeft) + 1) +
                "s");
        std::fill(values.begin(), values.end(), kNan);
        return values;
    }

    // Sample-interval jitter: the collector missed its tick and the
    // previous vector repeats (values one second stale).
    if (profile.sampleJitterRate > 0 && haveLastVector &&
        lastVector.size() == values.size() &&
        rng.bernoulli(profile.sampleJitterRate)) {
        FaultMetrics::get().jitterRepeats.add();
        return lastVector;
    }

    const bool anyStuck =
        profile.stuckOnsetRate > 0 ||
        std::any_of(stuckSecondsLeft.begin(), stuckSecondsLeft.end(),
                    [](double s) { return s > 0.0; });
    if (anyStuck) {
        stuckSecondsLeft.resize(values.size(), 0.0);
        heldValues.resize(values.size(), 0.0);
        for (size_t i = 0; i < values.size(); ++i) {
            if (stuckSecondsLeft[i] > 0.0) {
                stuckSecondsLeft[i] -= 1.0;
                values[i] = heldValues[i];
            } else if (profile.stuckOnsetRate > 0 &&
                       rng.bernoulli(profile.stuckOnsetRate)) {
                heldValues[i] = values[i];
                stuckSecondsLeft[i] =
                    episodeSeconds(rng, profile.stuckMeanSeconds);
                FaultMetrics::get().stuckOnsets.add();
            }
        }
    }

    if (profile.counterNanRate > 0) {
        for (double &v : values) {
            if (rng.bernoulli(profile.counterNanRate)) {
                v = kNan;
                FaultMetrics::get().counterNans.add();
            }
        }
    }

    lastVector = values;
    haveLastVector = true;
    return values;
}

void
injectFaults(std::vector<EtwRecord> &records,
             const FaultProfile &profile, Rng rng)
{
    CounterFaultInjector counterInjector(profile, rng.fork(0x5eed));
    MeterFaultInjector meterInjector(profile, rng.fork(0x7a77));
    for (auto &record : records) {
        record.counters = counterInjector.apply(std::move(record.counters));
        record.measuredPowerW = meterInjector.apply(record.measuredPowerW);
    }
}

} // namespace chaos
