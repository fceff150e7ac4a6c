#include "rollup/rollup.hpp"

#include "obs/json.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace chaos::rollup {

namespace {

/// Shortest round-trip double formatting; non-finite becomes null so
/// the output stays valid JSON.
std::string
jsonNum(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/// Ranking order: worst (largest) DRE first, machine id as the
/// deterministic tie-break.
bool
rankBefore(const MachineRank &a, const MachineRank &b)
{
    if (a.rollingDre != b.rollingDre)
        return a.rollingDre > b.rollingDre;
    return a.id < b.id;
}

/// Insert into a bounded ranking kept sorted by @p before.
template <typename Rank, typename Before>
void
insertRanked(std::vector<Rank> &worst, const Rank &rank,
             std::size_t worstN, Before before)
{
    if (worstN == 0)
        return;
    auto it = std::lower_bound(worst.begin(), worst.end(), rank, before);
    if (worst.size() >= worstN) {
        if (it == worst.end())
            return; // Not bad enough to displace anyone.
        worst.pop_back();
        it = std::lower_bound(worst.begin(), worst.end(), rank, before);
    }
    worst.insert(it, rank);
}

/// Merge two rankings already sorted by @p before into @p merged and
/// keep the worst @p worstN. Linear, like a tournament round.
template <typename Rank, typename Before>
void
mergeRankings(const std::vector<Rank> &a, const std::vector<Rank> &b,
              std::size_t worstN, Before before, std::vector<Rank> &merged)
{
    merged.clear();
    merged.reserve(std::min(a.size() + b.size(), worstN));
    std::size_t i = 0, j = 0;
    while (merged.size() < worstN && (i < a.size() || j < b.size())) {
        if (j >= b.size() || (i < a.size() && before(a[i], b[j])))
            merged.push_back(a[i++]);
        else
            merged.push_back(b[j++]);
    }
}

void
sketchJson(std::ostringstream &out, const obs::QuantileSketch &sketch)
{
    out << "{\"count\": " << sketch.count();
    if (!sketch.empty()) {
        out << ", \"p50\": " << jsonNum(sketch.quantile(0.5))
            << ", \"p90\": " << jsonNum(sketch.quantile(0.9))
            << ", \"p99\": " << jsonNum(sketch.quantile(0.99))
            << ", \"max\": " << jsonNum(sketch.maxValue());
    }
    out << "}";
}

} // namespace

void
PlatformStats::merge(const PlatformStats &other)
{
    machines += other.machines;
    metered += other.metered;
    drifting += other.drifting;
    watts += other.watts;
}

void
RollupStats::addState(const MachineState &m)
{
    ++machines;
    watts += m.watts;
    samples += m.samples;
    referenceSamples += m.referenceSamples;
    dropped += m.dropped;

    switch (m.health) {
      case MachineHealth::Healthy: ++healthy; break;
      case MachineHealth::Degraded: ++degraded; break;
      case MachineHealth::Stale: ++stale; break;
      case MachineHealth::Lost: ++lost; break;
    }
    switch (m.quality) {
      case ModelQuality::Unknown: ++qualityUnknown; break;
      case ModelQuality::Ok: ++qualityOk; break;
      case ModelQuality::Drifting: ++qualityDrifting; break;
    }
    if (m.quarantined) {
        ++quarantined;
        substitutedW += m.watts;
    }
    if (m.referenceSamples > 0) {
        ++metered;
        rmseW.add(m.windowRmseW);
    }
    if (std::isfinite(m.rollingDre))
        dre.add(m.rollingDre);
}

void
RollupStats::addMachine(const MachineObservation &m,
                        const std::string &path, std::size_t worstN)
{
    addState(m);
    if (std::isfinite(m.rollingDre)) {
        insertRanked(worst,
                     MachineRank{m.id, path, m.rollingDre,
                                 m.windowRmseW, m.drifted},
                     worstN, rankBefore);
    }
    PlatformStats &p = platforms[m.platform];
    ++p.machines;
    p.watts += m.watts;
    if (m.referenceSamples > 0)
        ++p.metered;
    if (m.quality == ModelQuality::Drifting)
        ++p.drifting;
}

void
RollupStats::mergeTotals(const RollupStats &other)
{
    machines += other.machines;
    metered += other.metered;
    watts += other.watts;
    substitutedW += other.substitutedW;
    samples += other.samples;
    referenceSamples += other.referenceSamples;
    dropped += other.dropped;
    healthy += other.healthy;
    degraded += other.degraded;
    stale += other.stale;
    lost += other.lost;
    qualityUnknown += other.qualityUnknown;
    qualityOk += other.qualityOk;
    qualityDrifting += other.qualityDrifting;
    quarantined += other.quarantined;
}

void
RollupStats::merge(const RollupStats &other, std::size_t worstN)
{
    mergeTotals(other);
    dre.merge(other.dre);
    rmseW.merge(other.rmseW);
    for (const auto &[name, stats] : other.platforms)
        platforms[name].merge(stats);
    std::vector<MachineRank> merged;
    mergeRankings(worst, other.worst, worstN, rankBefore, merged);
    worst = std::move(merged);
}

const NodeSummary *
NodeSummary::find(const std::string &relPath) const
{
    const NodeSummary *node = this;
    std::size_t start = 0;
    while (start < relPath.size()) {
        std::size_t end = relPath.find('/', start);
        if (end == std::string::npos)
            end = relPath.size();
        const std::string segment = relPath.substr(start, end - start);
        start = end + 1;
        if (segment.empty())
            continue;
        const NodeSummary *next = nullptr;
        for (const NodeSummary &child : node->children) {
            if (child.name == segment) {
                next = &child;
                break;
            }
        }
        if (!next)
            return nullptr;
        node = next;
    }
    return node;
}

std::string
NodeSummary::toJson() const
{
    std::ostringstream out;
    out << "{\"path\": \"" << obs::jsonEscape(path) << "\", \"name\": \""
        << obs::jsonEscape(name) << "\", \"depth\": " << depth
        << ", \"machines\": " << stats.machines
        << ", \"metered\": " << stats.metered
        << ", \"watts\": " << jsonNum(stats.watts)
        << ", \"substituted_w\": " << jsonNum(stats.substitutedW)
        << ", \"samples\": " << stats.samples
        << ", \"reference_samples\": " << stats.referenceSamples
        << ", \"dropped\": " << stats.dropped
        << ", \"health\": {\"healthy\": " << stats.healthy
        << ", \"degraded\": " << stats.degraded
        << ", \"stale\": " << stats.stale
        << ", \"lost\": " << stats.lost << "}"
        << ", \"quality\": {\"unknown\": " << stats.qualityUnknown
        << ", \"ok\": " << stats.qualityOk
        << ", \"drifting\": " << stats.qualityDrifting << "}"
        << ", \"quarantined\": " << stats.quarantined
        << ", \"drift_rate\": " << jsonNum(stats.driftRate())
        << ", \"dre\": ";
    sketchJson(out, stats.dre);
    out << ", \"rmse_w\": ";
    sketchJson(out, stats.rmseW);
    out << ", \"platforms\": {";
    bool first = true;
    for (const auto &[platform, p] : stats.platforms) {
        out << (first ? "" : ", ") << "\"" << obs::jsonEscape(platform)
            << "\": {\"machines\": " << p.machines
            << ", \"metered\": " << p.metered
            << ", \"drifting\": " << p.drifting
            << ", \"drift_rate\": " << jsonNum(p.driftRate())
            << ", \"watts\": " << jsonNum(p.watts) << "}";
        first = false;
    }
    out << "}, \"worst\": [";
    for (std::size_t i = 0; i < stats.worst.size(); ++i) {
        const MachineRank &r = stats.worst[i];
        out << (i ? ", " : "") << "{\"id\": \"" << obs::jsonEscape(r.id)
            << "\", \"path\": \"" << obs::jsonEscape(r.path)
            << "\", \"dre\": " << jsonNum(r.rollingDre)
            << ", \"rmse_w\": " << jsonNum(r.windowRmseW)
            << ", \"drifted\": " << (r.drifted ? "true" : "false")
            << "}";
    }
    out << "], \"children\": [";
    for (std::size_t i = 0; i < children.size(); ++i)
        out << (i ? ", " : "") << "\""
            << obs::jsonEscape(children[i].name) << "\"";
    out << "]}";
    return out.str();
}

RollupTree::RollupTree(RollupConfig config) : cfg_(config)
{
    // Degenerate knobs would silently drop data; clamp instead.
    if (cfg_.sketchAccuracy <= 0.0)
        cfg_.sketchAccuracy = 0.01;
    nodes_.emplace_back();
    nodes_.back().live = true;
    groups_.emplace("", kRoot);
}

std::uint32_t
RollupTree::group(const std::string &groupPath)
{
    const auto known = groups_.find(groupPath);
    if (known != groups_.end())
        return known->second;
    std::uint32_t node = kRoot;
    std::size_t start = 0;
    while (start < groupPath.size()) {
        std::size_t end = groupPath.find('/', start);
        if (end == std::string::npos)
            end = groupPath.size();
        const std::string segment =
            groupPath.substr(start, end - start);
        start = end + 1;
        if (segment.empty())
            continue;
        std::vector<std::uint32_t> &children = nodes_[node].children;
        const auto it = std::lower_bound(
            children.begin(), children.end(), segment,
            [&](std::uint32_t c, const std::string &name) {
                return nodes_[c].name < name;
            });
        if (it != children.end() && nodes_[*it].name == segment) {
            node = *it;
            continue;
        }
        const auto child = static_cast<std::uint32_t>(nodes_.size());
        children.insert(it, child);
        Node fresh;
        fresh.name = segment;
        fresh.path = nodes_[node].path.empty()
                         ? segment
                         : nodes_[node].path + "/" + segment;
        fresh.parent = node;
        fresh.depth = nodes_[node].depth + 1;
        maxDepth_ = std::max(maxDepth_, fresh.depth);
        nodes_.push_back(std::move(fresh));
        node = child;
    }
    groups_.emplace(groupPath, node);
    return node;
}

std::uint32_t
RollupTree::platform(const std::string &name)
{
    for (std::size_t p = 0; p < platforms_.size(); ++p) {
        if (platforms_[p] == name)
            return static_cast<std::uint32_t>(p);
    }
    platforms_.push_back(name);
    return static_cast<std::uint32_t>(platforms_.size() - 1);
}

std::uint32_t
RollupTree::machine(std::uint32_t group, const std::string &id,
                    std::uint32_t platform)
{
    std::vector<std::uint32_t> &list = nodes_[group].machines;
    const auto it = std::lower_bound(
        list.begin(), list.end(), id,
        [&](std::uint32_t m, const std::string &key) {
            return ids_[m] < key;
        });
    if (it != list.end() && ids_[*it] == id) {
        machines_[*it].platform = platform;
        return *it;
    }
    const auto machine = static_cast<std::uint32_t>(machines_.size());
    list.insert(it, machine);
    machines_.push_back(Machine{MachineState{}, group, platform});
    ids_.push_back(id);
    // The group and its ancestors now show in aggregate().
    for (std::uint32_t n = group; !nodes_[n].live; n = nodes_[n].parent) {
        nodes_[n].live = true;
        ++liveNodes_;
    }
    return machine;
}

void
RollupTree::update(const std::string &groupPath,
                   const MachineObservation &m)
{
    const std::uint32_t node = group(groupPath);
    state(machine(node, m.id, platform(m.platform))) = m;
}

std::size_t
RollupTree::memoryBytes() const
{
    // Approximate: array capacities plus string and hash-map heap
    // (a hash node: key, value and next pointer, plus its bucket).
    constexpr std::size_t kHashNode =
        sizeof(std::string) + 3 * sizeof(void *);
    std::size_t bytes = sizeof(*this) + nodes_.capacity() * sizeof(Node) +
                        machines_.capacity() * sizeof(Machine) +
                        ids_.capacity() * sizeof(std::string) +
                        platforms_.capacity() * sizeof(std::string);
    for (const Node &node : nodes_) {
        bytes += node.name.capacity() + node.path.capacity() +
                 (node.children.capacity() + node.machines.capacity()) *
                     sizeof(std::uint32_t);
    }
    for (const std::string &id : ids_)
        bytes += id.capacity();
    for (const std::string &name : platforms_)
        bytes += name.capacity();
    for (const auto &[path, node] : groups_)
        bytes += kHashNode + path.capacity();
    bytes += groups_.bucket_count() * sizeof(void *);
    return bytes;
}

bool
RollupTree::rankBefore(const RankRef &a, const RankRef &b) const
{
    // Worst (largest) DRE first; ids are compared only to order two
    // machines whose DREs are bit-equal.
    if (a.rollingDre != b.rollingDre)
        return a.rollingDre > b.rollingDre;
    return ids_[a.machine] < ids_[b.machine];
}

void
RollupTree::rankInsert(std::vector<RankRef> &worst,
                       const RankRef &rank) const
{
    insertRanked(worst, rank, cfg_.worstN,
                 [this](const RankRef &a, const RankRef &b) {
                     return rankBefore(a, b);
                 });
}

NodeSummary
RollupTree::fold(std::uint32_t id, std::vector<FoldLevel> &levels) const
{
    const Node &node = nodes_[id];
    NodeSummary out;
    out.name = node.name;
    out.path = node.path;
    out.depth = node.depth;
    out.stats = RollupStats(cfg_.sketchAccuracy);
    FoldLevel &level = levels[node.depth];
    level.platforms.assign(platforms_.size(), PlatformStats{});
    level.worst.clear();

    // Own machines in id order, then children in name order: the
    // order every double sum is taken in.
    for (const std::uint32_t m : node.machines) {
        const Machine &machine = machines_[m];
        const MachineState &s = machine.state;
        out.stats.addState(s);
        if (std::isfinite(s.rollingDre)) {
            rankInsert(level.worst,
                       RankRef{s.rollingDre, s.windowRmseW, m, s.drifted});
        }
        PlatformStats &p = level.platforms[machine.platform];
        ++p.machines;
        p.watts += s.watts;
        if (s.referenceSamples > 0)
            ++p.metered;
        if (s.quality == ModelQuality::Drifting)
            ++p.drifting;
    }
    FoldLevel &below = levels[node.depth + 1];
    std::size_t live = 0;
    for (const std::uint32_t c : node.children)
        live += nodes_[c].live ? 1 : 0;
    out.children.reserve(live);
    for (const std::uint32_t c : node.children) {
        if (!nodes_[c].live)
            continue;
        out.children.push_back(fold(c, levels));
        out.stats.mergeTotals(out.children.back().stats);
        for (std::size_t p = 0; p < platforms_.size(); ++p) {
            if (below.platforms[p].machines > 0)
                level.platforms[p].merge(below.platforms[p]);
        }
        mergeRankings(level.worst, below.worst, cfg_.worstN,
                      [this](const RankRef &a, const RankRef &b) {
                          return rankBefore(a, b);
                      },
                      below.merged);
        level.worst.swap(below.merged);
    }
    // The children's sketches fold in together: one pass over their
    // buckets, the same counts and min/max as merging one by one.
    if (!out.children.empty()) {
        level.sketches.clear();
        for (const NodeSummary &child : out.children)
            level.sketches.push_back(&child.stats.dre);
        out.stats.dre.mergeAll(level.sketches.data(),
                               level.sketches.size());
        level.sketches.clear();
        for (const NodeSummary &child : out.children)
            level.sketches.push_back(&child.stats.rmseW);
        out.stats.rmseW.mergeAll(level.sketches.data(),
                                 level.sketches.size());
    }

    // Name what the output shows: platform slices and worst machines.
    for (std::size_t p = 0; p < platforms_.size(); ++p) {
        if (level.platforms[p].machines > 0)
            out.stats.platforms.emplace(platforms_[p], level.platforms[p]);
    }
    out.stats.worst.reserve(level.worst.size());
    for (const RankRef &r : level.worst) {
        out.stats.worst.push_back(
            MachineRank{ids_[r.machine], nodes_[machines_[r.machine].node].path,
                        r.rollingDre, r.windowRmseW, r.drifted});
    }
    return out;
}

NodeSummary
RollupTree::aggregate() const
{
    std::vector<FoldLevel> levels(maxDepth_ + 2);
    return fold(kRoot, levels);
}

} // namespace chaos::rollup
