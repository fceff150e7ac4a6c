/**
 * @file
 * A string-keyed roll-up tree: the reference the index-addressed
 * rollup::RollupTree is checked against. Every node keeps its child
 * groups and its machines in sorted std::maps, and aggregation folds
 * through the public RollupStats::addMachine / merge in map order —
 * slower, but with no ids, no dense slices and no liveness to get
 * wrong.
 */
#ifndef CHAOS_TESTS_SUPPORT_ROLLUP_REFERENCE_HPP
#define CHAOS_TESTS_SUPPORT_ROLLUP_REFERENCE_HPP

#include <map>
#include <memory>
#include <string>

#include "rollup/rollup.hpp"

namespace chaos::rollup_testing {

class ReferenceTree
{
  public:
    explicit ReferenceTree(rollup::RollupConfig config = {})
        : config_(config)
    {}

    /** Insert or replace @p m under @p groupPath (see RollupTree). */
    void
    update(const std::string &groupPath,
           const rollup::MachineObservation &m)
    {
        Node *node = &root_;
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
            auto &child = node->children[segment];
            if (!child)
                child = std::make_unique<Node>();
            node = child.get();
        }
        node->machines[m.id] = m;
    }

    rollup::NodeSummary
    aggregate() const
    {
        return aggregate(root_, "", "", 0);
    }

  private:
    struct Node
    {
        std::map<std::string, std::unique_ptr<Node>> children;
        std::map<std::string, rollup::MachineObservation> machines;
    };

    rollup::NodeSummary
    aggregate(const Node &node, const std::string &name,
              const std::string &path, std::size_t depth) const
    {
        rollup::NodeSummary out;
        out.name = name;
        out.path = path;
        out.depth = depth;
        out.stats = rollup::RollupStats(config_.sketchAccuracy);
        for (const auto &[id, m] : node.machines)
            out.stats.addMachine(m, path, config_.worstN);
        for (const auto &[childName, child] : node.children) {
            const std::string childPath =
                path.empty() ? childName : path + "/" + childName;
            out.children.push_back(
                aggregate(*child, childName, childPath, depth + 1));
            out.stats.merge(out.children.back().stats, config_.worstN);
        }
        return out;
    }

    rollup::RollupConfig config_;
    Node root_;
};

/** Every node's NodeSummary::toJson(), pre-order, one per line. */
inline std::string
dumpTree(const rollup::NodeSummary &node)
{
    std::string out = node.toJson() + "\n";
    for (const rollup::NodeSummary &child : node.children)
        out += dumpTree(child);
    return out;
}

} // namespace chaos::rollup_testing

#endif // CHAOS_TESTS_SUPPORT_ROLLUP_REFERENCE_HPP
