/**
 * @file
 * Fault injectors for the measurement pipeline.
 *
 * MeterFaultInjector and CounterFaultInjector corrupt one reading or
 * one catalog vector per second, the way the physical meter and the
 * Perfmon session degrade; injectFaults() replays a fault profile
 * over an already-logged trace, so any recorded campaign can be
 * re-evaluated under degraded telemetry without re-simulating the
 * machines.
 *
 * All injectors draw from private seeded Rng streams, so a (profile,
 * seed) pair reproduces the exact same fault pattern bit-for-bit.
 */
#ifndef CHAOS_FAULTS_INJECTORS_HPP
#define CHAOS_FAULTS_INJECTORS_HPP

#include <vector>

#include "faults/fault_profile.hpp"
#include "oscounters/etw_session.hpp"
#include "util/random.hpp"

namespace chaos {

/** Applies meter-path faults to one reading per second. */
class MeterFaultInjector
{
  public:
    /** @param rng Private fault stream (consumed only on fault draws). */
    MeterFaultInjector(const FaultProfile &profile, Rng rng);

    /**
     * Corrupt one metered reading: dropout (NaN), transient spike,
     * then coarse quantization, in that order.
     */
    double apply(double readingW);

  private:
    FaultProfile profile;
    Rng rng;
};

/** Applies counter-path faults to one catalog vector per second. */
class CounterFaultInjector
{
  public:
    /** @param rng Private fault stream. */
    CounterFaultInjector(const FaultProfile &profile, Rng rng);

    /**
     * Corrupt one catalog-ordered counter vector in place:
     * whole-machine outage (all NaN), sample jitter (previous vector
     * repeats), stuck counters (frozen at their held value), and
     * per-counter NaN gaps.
     */
    std::vector<double> apply(std::vector<double> values);

    /** True while a whole-machine outage episode is running. */
    bool inOutage() const { return outageSecondsLeft > 0.0; }

    /** Forget all episode state (new run). */
    void reset();

  private:
    FaultProfile profile;
    Rng rng;
    double outageSecondsLeft = 0.0;
    std::vector<double> stuckSecondsLeft;
    std::vector<double> heldValues;
    std::vector<double> lastVector;
    bool haveLastVector = false;
};

/**
 * Replay-mode injection: corrupt an already-logged trace in place
 * according to @p profile. Counter vectors and metered power are
 * faulted with independent child streams of @p rng.
 */
void injectFaults(std::vector<EtwRecord> &records,
                  const FaultProfile &profile, Rng rng);

} // namespace chaos

#endif // CHAOS_FAULTS_INJECTORS_HPP
