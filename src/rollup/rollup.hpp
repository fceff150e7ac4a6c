/**
 * @file
 * Hierarchical quality roll-up: the paper's Eq. 5 composed one level
 * further, from machines to a whole datacenter.
 *
 * The serving and monitoring layers produce per-machine truth —
 * watts, health, model quality, rolling rMSE/DRE — for one fleet.
 * Answering "which rack is drifting?" or "what is the p99 DRE across
 * the row?" at 10k–100k machines must not require replaying every
 * machine's telemetry: this layer arranges machines under recursively
 * nestable groups (machine → fleet → rack → row →
 * datacenter — any depth works, the levels are just path segments)
 * and rolls per-machine observations up the tree as mergeable
 * aggregates:
 *
 *  - fleet-weighted DRE and rMSE *distributions* (one point per
 *    machine) carried by obs::QuantileSketch, so any node can report
 *    p50/p90/p99 and two sibling summaries merge in O(buckets);
 *  - health / model-quality mixes, watt and substituted-watt sums,
 *    sample/drop accounting — commutative integer and ordered double
 *    sums;
 *  - per-platform machine counts and drift rates (the paper's
 *    pooling result extended to fleet scale: how many metered
 *    references per class the roll-up verdict rests on);
 *  - a bounded worst-N machine ranking by rolling DRE, merged like a
 *    tournament so every level can name its worst offenders without
 *    carrying full machine lists.
 *
 * Layout: nodes and machines live in flat arrays addressed by integer
 * ids. A node keeps its children sorted by name and its machines
 * sorted by id, so the fold visits them in a fixed order, and a
 * machine's state is a string-free MachineState. Strings stay at the
 * edges: group paths and machine ids resolve to ids once
 * (group(), machine()) or per call on the update(path, observation)
 * edge API, and NodeSummary output names nodes, platforms and the
 * worst machines. A per-tick feed writes MachineStates by machine id
 * and calls aggregate(), which folds over integer ids serially.
 *
 * Determinism: every aggregate is either integer, commutative
 * (min/max), sketch (integer bucket counts), or a double sum taken in
 * that fixed traversal order — so aggregate() serializes to
 * bit-identical JSON for any feed order that ends in the same
 * per-machine state.
 *
 * Threading: updates and aggregation are externally synchronized (the
 * feeds in feed.hpp serialize them); aggregate() is const and takes
 * no locks.
 */
#ifndef CHAOS_ROLLUP_ROLLUP_HPP
#define CHAOS_ROLLUP_ROLLUP_HPP

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/online.hpp"
#include "obs/sketch.hpp"

namespace chaos::rollup {

/** One machine's latest state, without its id and platform. */
struct MachineState
{
    double watts = 0.0;            ///< Contribution to the cluster sum.
    double windowRmseW = 0.0;      ///< Rolling window rMSE, watts.
    /** Rolling DRE (Eq. 6); NaN without references or envelope. */
    double rollingDre = std::numeric_limits<double>::quiet_NaN();
    double biasW = 0.0;            ///< Rolling mean residual, watts.
    std::uint64_t samples = 0;     ///< Estimates produced.
    std::uint64_t referenceSamples = 0; ///< Metered refs consumed.
    std::uint64_t dropped = 0;     ///< Backpressure losses.
    MachineHealth health = MachineHealth::Healthy;
    ModelQuality quality = ModelQuality::Unknown;
    bool quarantined = false;      ///< Serving a substitute model.
    bool drifted = false;          ///< Drift detector latched.
};

/** One machine's latest state, as fed to the tree by name. */
struct MachineObservation : MachineState
{
    std::string id;
    /** Machine-class name ("Core2"); "unknown" when unmapped. */
    std::string platform = "unknown";
};

/** Roll-up knobs, fixed for the life of a tree. */
struct RollupConfig
{
    /** Worst machines ranked at every node. */
    std::size_t worstN = 10;
    /** Relative-error bound of the DRE/rMSE sketches. */
    double sketchAccuracy = 0.01;
};

/** One entry of a node's worst-machines ranking. */
struct MachineRank
{
    std::string id;
    std::string path;      ///< Group path the machine lives under.
    double rollingDre = 0.0;
    double windowRmseW = 0.0;
    bool drifted = false;
};

/** Per-platform slice of a subtree (pooling view). */
struct PlatformStats
{
    std::uint64_t machines = 0;
    std::uint64_t metered = 0;  ///< Machines with >= 1 reference sample.
    std::uint64_t drifting = 0;
    double watts = 0.0;

    /**
     * Fraction of this platform's *metered* machines flagged
     * Drifting — only machines with references can earn a verdict,
     * so the denominator is the pooled evidence base, not the
     * machine count (0 when no machine is metered).
     */
    double driftRate() const
    {
        return metered ? static_cast<double>(drifting) /
                             static_cast<double>(metered)
                       : 0.0;
    }

    void merge(const PlatformStats &other);
};

/** Mergeable aggregate of one subtree (see file comment). */
struct RollupStats
{
    explicit RollupStats(double sketchAccuracy = 0.01)
        : dre(sketchAccuracy), rmseW(sketchAccuracy)
    {}

    std::uint64_t machines = 0;
    std::uint64_t metered = 0;
    double watts = 0.0;
    double substitutedW = 0.0;  ///< Watts served by substitutes.
    std::uint64_t samples = 0;
    std::uint64_t referenceSamples = 0;
    std::uint64_t dropped = 0;

    std::uint64_t healthy = 0;  ///< Health mix.
    std::uint64_t degraded = 0;
    std::uint64_t stale = 0;
    std::uint64_t lost = 0;

    std::uint64_t qualityUnknown = 0;  ///< Model-quality mix.
    std::uint64_t qualityOk = 0;
    std::uint64_t qualityDrifting = 0;
    std::uint64_t quarantined = 0;

    /** Fleet-weighted rolling-DRE distribution (finite DREs only). */
    obs::QuantileSketch dre;
    /** Rolling-rMSE distribution over metered machines. */
    obs::QuantileSketch rmseW;

    /** Per-platform slices, keyed by platform name (sorted). */
    std::map<std::string, PlatformStats> platforms;

    /** Worst machines by rolling DRE, descending, bounded. */
    std::vector<MachineRank> worst;

    /** Fold one machine in. @p path labels the ranking entries. */
    void addMachine(const MachineObservation &m,
                    const std::string &path, std::size_t worstN);

    /** Fold a sibling/child aggregate in (associative). */
    void merge(const RollupStats &other, std::size_t worstN);

    /**
     * The parts of addMachine() and merge() that need no names:
     * counts, sums and sketch points (mergeTotals leaves the
     * sketches to the caller), without the platform slices and the
     * ranking (RollupTree keeps those by integer id).
     */
    void addState(const MachineState &m);
    void mergeTotals(const RollupStats &other);

    /** Drifting fraction of metered machines across the subtree. */
    double driftRate() const
    {
        return metered ? static_cast<double>(qualityDrifting) /
                             static_cast<double>(metered)
                       : 0.0;
    }
};

/** Aggregated view of one node, with its children. */
struct NodeSummary
{
    std::string name;   ///< Last path segment ("" for the root).
    std::string path;   ///< Full group path ("" for the root).
    std::size_t depth = 0;
    RollupStats stats;
    std::vector<NodeSummary> children;  ///< Sorted by name.

    /**
     * Descend along @p relPath ("row1/rack2"; "" names this node).
     * @return nullptr when a segment does not exist.
     */
    const NodeSummary *find(const std::string &relPath) const;

    /**
     * This node as one single-line JSON object (children are listed
     * by name only — emit each child's own line for a full dump).
     * Deterministic: equal aggregates serialize to equal bytes.
     */
    std::string toJson() const;
};

/** The roll-up tree: integer-addressed nodes and machines. */
class RollupTree
{
  public:
    /** Node id of the root group (""). */
    static constexpr std::uint32_t kRoot = 0;

    explicit RollupTree(RollupConfig config = {});

    /**
     * Insert or replace one machine's observation under group
     * @p groupPath ("dc0/row1/rack2/fleet0"; "" attaches to the
     * root). Segments are created on first use — the tree *is* the
     * topology. The machine is keyed by m.id within the group. The
     * string edge: it resolves the path, platform and id per call.
     */
    void update(const std::string &groupPath,
                const MachineObservation &m);

    /**
     * Node id of group @p groupPath, created (empty) when new. An
     * empty group shows in aggregate() only once a machine is placed
     * under it. Ids stay valid for the life of the tree.
     */
    std::uint32_t group(const std::string &groupPath);

    /** Dense id of platform name @p name, added when new. */
    std::uint32_t platform(const std::string &name);

    /**
     * Machine id of machine @p id under group node @p group, created
     * when new; sets its platform. Ids stay valid for the life of
     * the tree, so a feed resolves each machine once and then writes
     * state(machine) per tick.
     */
    std::uint32_t machine(std::uint32_t group, const std::string &id,
                          std::uint32_t platform);

    /** The state aggregate() reads for machine id @p machine. */
    MachineState &state(std::uint32_t machine)
    {
        return machines_[machine].state;
    }

    /** One full aggregation pass, serial, in the fixed order. */
    NodeSummary aggregate() const;

    /** Machines currently in the tree. */
    std::size_t numMachines() const { return machines_.size(); }

    /** Aggregation nodes holding machines (incl. the root). */
    std::size_t numNodes() const { return liveNodes_; }

    /** Approximate heap footprint of the tree, bytes. */
    std::size_t memoryBytes() const;

    /** The configuration the tree was built with. */
    const RollupConfig &config() const { return cfg_; }

  private:
    struct Node
    {
        std::string name;
        std::string path;     ///< Full group path ("" for the root).
        std::uint32_t parent = 0;
        std::uint32_t depth = 0;
        bool live = false;    ///< Some machine lives in the subtree.
        std::vector<std::uint32_t> children; ///< Sorted by name.
        std::vector<std::uint32_t> machines; ///< Sorted by id.
    };

    struct Machine
    {
        MachineState state;
        std::uint32_t node = 0;
        std::uint32_t platform = 0;
    };

    /** A ranking entry before it is named (see MachineRank). */
    struct RankRef
    {
        double rollingDre = 0.0;
        double windowRmseW = 0.0;
        std::uint32_t machine = 0;
        bool drifted = false;
    };

    /** Per-depth fold scratch: platform slices and ranking. */
    struct FoldLevel
    {
        std::vector<PlatformStats> platforms;
        std::vector<RankRef> worst;
        std::vector<RankRef> merged; ///< Ranking merge target.
        std::vector<const obs::QuantileSketch *> sketches;
    };

    bool rankBefore(const RankRef &a, const RankRef &b) const;
    void rankInsert(std::vector<RankRef> &worst,
                    const RankRef &rank) const;
    NodeSummary fold(std::uint32_t node,
                     std::vector<FoldLevel> &levels) const;

    RollupConfig cfg_;
    std::vector<Node> nodes_;
    std::vector<Machine> machines_;
    std::vector<std::string> ids_;        ///< By machine id.
    std::vector<std::string> platforms_;  ///< By platform id.
    /** Group path as spelled by callers -> node id. */
    std::unordered_map<std::string, std::uint32_t> groups_;
    std::size_t liveNodes_ = 1;
    std::uint32_t maxDepth_ = 0;
};

} // namespace chaos::rollup

#endif // CHAOS_ROLLUP_ROLLUP_HPP
