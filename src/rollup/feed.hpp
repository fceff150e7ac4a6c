/**
 * @file
 * Feeds that turn per-fleet telemetry into roll-up tree updates.
 *
 * Both feeds share a placement map — machine id → (group path,
 * platform) — because neither the serving layer nor the telemetry
 * stream knows where a machine sits in the datacenter; placement is
 * deployment metadata. Unplaced machines land under the "unplaced"
 * group with platform "unknown" rather than being dropped: a roll-up
 * that silently loses machines is worse than one with an honest
 * catch-all row.
 *
 *  - LiveRollupFeed joins a FleetServer's FleetSnapshot (watts,
 *    health, quarantine) with the FleetMonitor's QualitySnapshot
 *    (rolling rMSE/DRE, drift) by registry machine index and writes
 *    one MachineState per machine into the tree. place() resolves a
 *    machine's group path and platform to tree ids once; the first
 *    snapshot row of a machine binds its index to a tree machine, so
 *    a tick does no string work. Rows built by hand (no index) take
 *    the id-keyed edge path instead. attach() hooks the server's
 *    periodic-snapshot callback; observe() serves lockstep replay
 *    loops.
 *
 *  - JsonlRollupFeed replays the TelemetryExporter's JSONL file
 *    offline through obs::jsonParse. "fleet" and "quality" records
 *    update complementary halves of a machine's observation (the
 *    stream interleaves them), "metrics" records are skipped.
 *
 * Threading: LiveRollupFeed serializes observe()/aggregate() behind
 * one mutex because the live callback runs on the server's drainer
 * thread. JsonlRollupFeed is single-threaded by construction.
 */
#ifndef CHAOS_ROLLUP_FEED_HPP
#define CHAOS_ROLLUP_FEED_HPP

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "monitor/fleet_monitor.hpp"
#include "rollup/rollup.hpp"
#include "serve/server.hpp"

namespace chaos::rollup {

/** Where a machine lives and what it is. */
struct Placement
{
    std::string path;     ///< Group path ("dc0/row1/rack2/fleet0").
    std::string platform; ///< Machine-class name ("Core2").
};

/** Group path used for machines with no placement entry. */
inline constexpr const char *kUnplacedGroup = "unplaced";

/** Joins live fleet + quality snapshots into a RollupTree. */
class LiveRollupFeed
{
  public:
    /** @p tree must outlive the feed. */
    explicit LiveRollupFeed(RollupTree &tree) : tree_(tree) {}

    /** Register machine @p id's placement (replaces any previous). */
    void place(const std::string &id, const std::string &groupPath,
               const std::string &platform);

    /**
     * Join one fleet snapshot with one quality snapshot (on machine
     * index, or on id for rows without one; machines absent from
     * @p quality keep NaN DRE) and upsert every machine into the
     * tree. Indexed rows must come from one server's registry.
     */
    void observe(const serve::FleetSnapshot &fleet,
                 const monitor::QualitySnapshot &quality);

    /**
     * Install an onSnapshot callback on @p server that calls
     * observe(snapshot, monitor.snapshot()). The callback runs on the
     * drainer thread with no entry locks held (see FleetServer), so
     * taking the monitor snapshot inside it is safe. Call before
     * server.start(); the feed and monitor must outlive the server's
     * serving.
     */
    void attach(serve::FleetServer &server,
                monitor::FleetMonitor &monitor);

    /** Aggregate the tree (serialized against observe()). */
    NodeSummary aggregate() const;

    /** Snapshots consumed so far. */
    std::uint64_t observed() const;

  private:
    /** A placement resolved to tree ids. */
    struct Resolved
    {
        std::uint32_t group = 0;
        std::uint32_t platform = 0;
    };

    static constexpr std::uint32_t kUnbound = 0xffffffffu;

    /** Tree machine of @p row, binding its index on first sight. */
    std::uint32_t bind(const serve::MachineSnapshot &row);

    RollupTree &tree_;
    std::unordered_map<std::string, Resolved> placements_;
    /** Registry machine index -> tree machine (kUnbound if none). */
    std::vector<std::uint32_t> machineOf_;
    /** Per-tick join scratch, by registry machine index. */
    std::vector<std::uint32_t> qualityRow_;
    std::vector<std::uint64_t> qualityStamp_;
    std::uint64_t observed_ = 0;
    mutable std::mutex mu_;
};

/** Counters from one JSONL replay. */
struct JsonlReplayStats
{
    std::uint64_t lines = 0;          ///< Lines read.
    std::uint64_t fleetRecords = 0;
    std::uint64_t qualityRecords = 0;
    std::uint64_t skipped = 0;        ///< Other record types.
    std::uint64_t lastTick = 0;       ///< Highest tick seen.
};

/** Replays exporter telemetry JSONL into a RollupTree. */
class JsonlRollupFeed
{
  public:
    /** @p tree must outlive the feed. */
    explicit JsonlRollupFeed(RollupTree &tree) : tree_(tree) {}

    /** Register machine @p id's placement (replaces any previous). */
    void place(const std::string &id, const std::string &groupPath,
               const std::string &platform);

    /**
     * Replay the telemetry file at @p path front to back. Later
     * records win, so after replay the tree holds each machine's
     * final state. Raises RecoverableError when the file cannot be
     * opened or a line is not valid JSON.
     */
    JsonlReplayStats replayFile(const std::string &path);

    /**
     * Feed one telemetry line. @return False when the line was
     * skipped (not a fleet/quality record); raises RecoverableError
     * on malformed JSON.
     */
    bool feedLine(const std::string &line, JsonlReplayStats &stats);

  private:
    /** Current (partially joined) per-machine state. */
    MachineObservation &slot(const std::string &id);
    void push(const MachineObservation &m);

    RollupTree &tree_;
    std::map<std::string, Placement> placements_;
    std::map<std::string, MachineObservation> current_;
};

} // namespace chaos::rollup

#endif // CHAOS_ROLLUP_FEED_HPP
