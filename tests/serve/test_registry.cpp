/**
 * @file
 * Tests for the sharded estimator registry: registration rules,
 * lock-striped lookup, deterministic enumeration, and model hot-swap
 * semantics.
 */
#include <gtest/gtest.h>

#include "../support/raises.hpp"
#include "serve_support.hpp"

#include "serve/registry.hpp"

namespace chaos::serve {
namespace {

using serve_testing::catalogRow;
using serve_testing::makeTestModel;

TEST(EstimatorRegistry, AddAndFind)
{
    EstimatorRegistry registry(4);
    MachineEntry &added = registry.add("m1", makeTestModel(1));
    EXPECT_EQ(registry.size(), 1u);
    EXPECT_EQ(registry.find("m1"), &added);
    EXPECT_EQ(registry.find("m2"), nullptr);
    EXPECT_EQ(added.id(), "m1");
}

TEST(EstimatorRegistry, IndicesAreDenseAndShardsFixedAtAdd)
{
    EstimatorRegistry registry(4);
    for (std::uint32_t i = 0; i < 10; ++i) {
        const std::string id = "m" + std::to_string(9 - i);
        MachineEntry &entry = registry.add(id, makeTestModel(1));
        EXPECT_EQ(entry.index(), i);
        EXPECT_EQ(entry.shard(), registry.shardOf(id));
    }
}

TEST(EstimatorRegistry, RejectsEmptyAndDuplicateIds)
{
    EstimatorRegistry registry(4);
    EXPECT_RAISES(registry.add("", makeTestModel(1)),
                  "empty machine id");
    registry.add("m1", makeTestModel(1));
    EXPECT_RAISES(registry.add("m1", makeTestModel(2)),
                  "duplicate machine id 'm1'");
    EXPECT_EQ(registry.size(), 1u);
}

TEST(EstimatorRegistry, EnumerationIsSortedById)
{
    EstimatorRegistry registry(4);
    for (const char *id : {"zeta", "alpha", "mid"})
        registry.add(id, makeTestModel(3));

    const std::vector<std::string> ids = registry.ids();
    ASSERT_EQ(ids.size(), 3u);
    EXPECT_EQ(ids[0], "alpha");
    EXPECT_EQ(ids[1], "mid");
    EXPECT_EQ(ids[2], "zeta");

    std::vector<std::string> visited;
    std::vector<std::uint32_t> indices;
    registry.forEachById([&](const std::string &id,
                             const MachineStateSlot &,
                             std::uint32_t index) {
        visited.push_back(id);
        indices.push_back(index);
    });
    EXPECT_EQ(visited, ids);
    for (size_t i = 0; i < ids.size(); ++i)
        EXPECT_EQ(registry.find(ids[i])->index(), indices[i]);
}

TEST(EstimatorRegistry, ShardingIsStableAndInRange)
{
    EstimatorRegistry registry(4);
    EXPECT_EQ(registry.numShards(), 4u);
    for (int i = 0; i < 50; ++i) {
        const std::string id = "machine" + std::to_string(i);
        const std::size_t shard = registry.shardOf(id);
        EXPECT_LT(shard, registry.numShards());
        EXPECT_EQ(shard, registry.shardOf(id));
    }
    // Shard count clamps to at least one stripe.
    EstimatorRegistry single(0);
    EXPECT_EQ(single.numShards(), 1u);
    EXPECT_EQ(single.shardOf("anything"), 0u);
}

TEST(EstimatorRegistry, SwapModelRequiresKnownMachine)
{
    EstimatorRegistry registry(2);
    EXPECT_RAISES(registry.swapModel("ghost", makeTestModel(1)),
                  "unknown machine 'ghost'");
}

TEST(EstimatorRegistry, SwapModelChangesPredictionsKeepsState)
{
    EstimatorRegistry registry(2);
    MachineEntry &entry = registry.add("m1", makeTestModel(1, 25.0));

    const std::vector<double> row = catalogRow(40.0, 60.0);
    const double before = entry.withEstimator(
        [&](OnlinePowerEstimator &e) { return e.estimate(row); });

    registry.swapModel("m1", makeTestModel(1, 100.0));

    const double after = entry.withEstimator(
        [&](OnlinePowerEstimator &e) { return e.estimate(row); });
    // Same inputs, ~75 W heavier model: predictions must move.
    EXPECT_GT(after, before + 50.0);
    // Sample count and health carry across the swap.
    entry.withEstimator([&](OnlinePowerEstimator &e) {
        EXPECT_EQ(e.samples(), 2u);
        EXPECT_EQ(e.health(), MachineHealth::Healthy);
    });
}

} // namespace
} // namespace chaos::serve
