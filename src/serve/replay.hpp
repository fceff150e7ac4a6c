/**
 * @file
 * Recorded-trace replay into a FleetServer.
 *
 * A collected Dataset *is* a recorded fleet counter trace: every row
 * is one machine-second with the full catalog vector (and the metered
 * power, which replay forwards as the residual reference). The
 * replayer regroups rows per machine in recorded order and feeds them
 * tick by tick — tick t carries the t-th recorded second of every
 * machine — at a configurable speed multiplier, from ×1 real time
 * (one tick per wall second, the live 1 Hz collector cadence) up to
 * as-fast-as-possible.
 */
#ifndef CHAOS_SERVE_REPLAY_HPP
#define CHAOS_SERVE_REPLAY_HPP

#include <atomic>
#include <functional>
#include <string>
#include <vector>

#include "serve/server.hpp"
#include "trace/dataset.hpp"

namespace chaos::serve {

/** Replay pacing knobs. */
struct ReplayConfig
{
    /**
     * Speed multiplier over the recorded 1 Hz cadence: 1.0 replays in
     * real time (one tick per second), 60.0 replays a recorded minute
     * per wall second, and <= 0 replays as fast as possible.
     */
    double speed = 0.0;
    /**
     * Invoked on the replay thread after each tick's samples were
     * submitted (before any pacing sleep). A synchronous caller can
     * drain the server here to get per-tick lockstep — the monitor
     * dashboard does exactly that.
     */
    std::function<void(std::size_t tick)> onTick;
};

/** What a replay run did. */
struct ReplayStats
{
    std::size_t ticks = 0;      ///< Trace seconds replayed.
    std::size_t submitted = 0;  ///< Samples handed to the server.
};

/** Dataset rows regrouped into a per-machine, per-tick trace. */
class TraceReplayer
{
  public:
    /**
     * @param data Recorded trace; rows are assigned to ticks in
     *        per-machine recorded order. Raises RecoverableError on
     *        an empty dataset.
     */
    explicit TraceReplayer(const Dataset &data);

    /** Machine ids in the trace ("machine<id>"), sorted. */
    const std::vector<std::string> &machineIds() const
    {
        return ids;
    }

    /** Trace length in ticks (the longest machine's row count). */
    std::size_t numTicks() const { return ticks; }

    /** Total samples the trace holds. */
    std::size_t numSamples() const;

    /**
     * Feed the trace into @p server. Every machine id must already be
     * registered (raises RecoverableError otherwise). Returns early
     * when @p stopFlag (optional) becomes true.
     */
    ReplayStats replayInto(FleetServer &server,
                           const ReplayConfig &config,
                           const std::atomic<bool> *stopFlag =
                               nullptr) const;

  private:
    struct MachineTrace
    {
        std::string id;
        std::vector<std::vector<double>> rows;  ///< Catalog rows.
        std::vector<double> meteredW;           ///< Aligned meter.
    };

    std::vector<MachineTrace> machines;  ///< Sorted by id.
    std::vector<std::string> ids;
    std::size_t ticks = 0;
};

} // namespace chaos::serve

#endif // CHAOS_SERVE_REPLAY_HPP
