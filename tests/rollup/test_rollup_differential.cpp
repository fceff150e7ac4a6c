/**
 * @file
 * Differential test of the index-addressed roll-up: a seeded fleet of
 * 2,000 machines over three platforms, fed for several ticks through
 *  - the live path: LiveRollupFeed::observe on index-carrying fleet
 *    and quality snapshots, then aggregate();
 *  - the string edge: RollupTree::update(path, observation) per
 *    machine, then aggregate();
 *  - the reference: a std::map-keyed tree folded through
 *    RollupStats::addMachine / merge (tests/support).
 * Every node's NodeSummary JSON must agree byte for byte. The fleet
 * mixes metered and unmetered machines, NaN and tied DREs, quarantined
 * machines serving substitute watts, Degraded/Stale/Lost health,
 * machines on interior groups and one unplaced machine.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "../serve/serve_support.hpp"
#include "../support/rollup_reference.hpp"
#include "monitor/fleet_monitor.hpp"
#include "rollup/feed.hpp"
#include "rollup/rollup.hpp"
#include "serve/server.hpp"
#include "util/random.hpp"

namespace chaos {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

struct FleetMachine
{
    std::string id;
    std::string path;       ///< "" when unplaced.
    std::string platform;
    bool metered = false;
};

/**
 * The fleet, in registration (index) order. Ids are a shuffled
 * numbering, so index order and id order differ.
 */
std::vector<FleetMachine>
makeFleet(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::size_t> numbers(n);
    for (std::size_t i = 0; i < n; ++i)
        numbers[i] = i;
    rng.shuffle(numbers);
    const char *platforms[] = {"Atom", "Core2", "Xeon"};
    std::vector<FleetMachine> fleet(n);
    for (std::size_t i = 0; i < n; ++i) {
        FleetMachine &m = fleet[i];
        char id[32];
        std::snprintf(id, sizeof id, "m%05zu", numbers[i]);
        m.id = id;
        const std::size_t rack = numbers[i] / 40;
        const std::size_t row = rack / 10;
        m.platform = platforms[row % 3];
        // Most machines sit in racks; some hang off their row group
        // directly, so interior nodes hold machines too.
        m.path = "dc" + std::to_string(row % 2) + "/row" +
                 std::to_string(row);
        if (numbers[i] % 17 != 0)
            m.path += "/rack" + std::to_string(rack);
        m.metered = rng.bernoulli(0.4);
    }
    fleet[n / 2].path.clear(); // Unplaced: lands under "unplaced".
    return fleet;
}

struct Tick
{
    serve::FleetSnapshot fleet;
    monitor::QualitySnapshot quality;
};

/** One seeded tick of snapshots, rows sorted by id like the real ones. */
Tick
makeTick(const std::vector<FleetMachine> &fleet, std::uint64_t tick)
{
    Rng rng(1000 + tick);
    Tick t;
    for (std::size_t i = 0; i < fleet.size(); ++i) {
        const FleetMachine &fm = fleet[i];
        serve::MachineSnapshot m;
        m.id = fm.id;
        m.index = static_cast<std::uint32_t>(i);
        m.modelW = rng.uniform(20.0, 300.0);
        m.quarantined = rng.bernoulli(0.03);
        m.watts = m.quarantined ? rng.uniform(20.0, 300.0) : m.modelW;
        const double h = rng.uniform();
        m.health = h < 0.03   ? MachineHealth::Lost
                   : h < 0.06 ? MachineHealth::Stale
                   : h < 0.12 ? MachineHealth::Degraded
                              : MachineHealth::Healthy;
        m.samples = 100 * (tick + 1) + rng.uniformInt(50);
        m.dropped = rng.uniformInt(4);
        if (fm.metered) {
            m.residualSamples = m.samples / 2;
            m.meanResidualW = rng.normal(0.0, 2.0);
        }
        t.fleet.machines.push_back(m);
        if (!fm.metered)
            continue;
        monitor::MachineQualityReport q;
        q.id = fm.id;
        q.index = m.index;
        q.referenceSamples = m.residualSamples;
        q.windowFill = std::min<std::uint64_t>(q.referenceSamples, 120);
        q.windowRmseW = rng.uniform(0.0, 12.0);
        // NaN DREs (no envelope) and bit-equal DREs (rank ties).
        const double d = rng.uniform();
        q.rollingDre = d < 0.1 ? kNaN : d < 0.2 ? 0.0625 : d * 0.3;
        q.biasW = rng.normal(0.0, 1.0);
        q.drifted = rng.bernoulli(0.05);
        q.quality = q.drifted ? ModelQuality::Drifting : ModelQuality::Ok;
        m.quality = q.quality;
        t.fleet.machines.back().quality = q.quality;
        t.quality.machines.push_back(q);
    }
    const auto byId = [](const auto &a, const auto &b) {
        return a.id < b.id;
    };
    std::sort(t.fleet.machines.begin(), t.fleet.machines.end(), byId);
    std::sort(t.quality.machines.begin(), t.quality.machines.end(),
              byId);
    return t;
}

/** What the live join makes of one fleet row: the string edge's input. */
rollup::MachineObservation
observationOf(const serve::MachineSnapshot &ms,
              const monitor::MachineQualityReport *q,
              const FleetMachine &fm)
{
    rollup::MachineObservation m;
    m.id = ms.id;
    m.platform = fm.path.empty() ? "unknown" : fm.platform;
    m.watts = ms.watts;
    m.samples = ms.samples;
    m.referenceSamples = ms.residualSamples;
    m.dropped = ms.dropped;
    m.health = ms.health;
    m.quality = ms.quality;
    m.quarantined = ms.quarantined;
    m.biasW = ms.meanResidualW;
    m.rollingDre = kNaN;
    if (q != nullptr) {
        m.windowRmseW = q->windowRmseW;
        m.rollingDre = q->rollingDre;
        m.biasW = q->biasW;
        m.drifted = q->drifted;
        m.referenceSamples = q->referenceSamples;
    }
    return m;
}

TEST(RollupDifferential, IndexPathMatchesStringPathAndReference)
{
    const std::vector<FleetMachine> fleet = makeFleet(2000, 22);
    rollup::RollupTree liveTree;
    rollup::LiveRollupFeed feed(liveTree);
    for (const FleetMachine &m : fleet) {
        if (!m.path.empty())
            feed.place(m.id, m.path, m.platform);
    }
    rollup::RollupTree stringTree;
    rollup_testing::ReferenceTree reference;

    std::size_t ranked = 0;
    for (std::uint64_t tick = 0; tick < 4; ++tick) {
        const Tick t = makeTick(fleet, tick);
        feed.observe(t.fleet, t.quality);

        std::size_t qi = 0;
        for (const serve::MachineSnapshot &ms : t.fleet.machines) {
            while (qi < t.quality.machines.size() &&
                   t.quality.machines[qi].id < ms.id)
                ++qi;
            const monitor::MachineQualityReport *q =
                qi < t.quality.machines.size() &&
                        t.quality.machines[qi].id == ms.id
                    ? &t.quality.machines[qi]
                    : nullptr;
            const FleetMachine &fm = fleet[ms.index];
            const std::string path =
                fm.path.empty() ? rollup::kUnplacedGroup : fm.path;
            const rollup::MachineObservation m = observationOf(ms, q, fm);
            stringTree.update(path, m);
            reference.update(path, m);
        }

        const rollup::NodeSummary live = feed.aggregate();
        const std::string liveDump = rollup_testing::dumpTree(live);
        const std::string stringDump =
            rollup_testing::dumpTree(stringTree.aggregate());
        const std::string referenceDump =
            rollup_testing::dumpTree(reference.aggregate());
        ASSERT_EQ(liveDump, stringDump) << "tick " << tick;
        ASSERT_EQ(stringDump, referenceDump) << "tick " << tick;

        // The fixture exercises what it claims to.
        EXPECT_EQ(live.stats.machines, fleet.size());
        EXPECT_GT(live.stats.quarantined, 0u);
        EXPECT_GT(live.stats.substitutedW, 0.0);
        EXPECT_GT(live.stats.lost, 0u);
        EXPECT_GT(live.stats.stale, 0u);
        EXPECT_GT(live.stats.metered, 0u);
        EXPECT_LT(live.stats.dre.count(), live.stats.metered);
        EXPECT_EQ(live.stats.platforms.size(), 4u); // + "unknown".
        ASSERT_NE(live.find(rollup::kUnplacedGroup), nullptr);
        ranked += live.stats.worst.size();
    }
    EXPECT_GT(ranked, 0u);
    EXPECT_EQ(liveTree.numNodes(), stringTree.numNodes());
    EXPECT_EQ(liveTree.numMachines(), fleet.size());
}

TEST(RollupDifferential, LiveServerSnapshotsMatchStringPath)
{
    // Real snapshots: indices from a registry that saw the ids out of
    // id order, quality from an attached monitor, one quarantine and
    // one unmetered half of the fleet.
    serve::FleetServer server;
    std::vector<FleetMachine> fleet;
    std::vector<serve::MachineEntry *> entries;
    const char *platforms[] = {"Atom", "Core2", "Xeon"};
    for (int i = 29; i >= 0; --i) {
        FleetMachine m;
        m.id = "m" + std::to_string(i);
        m.platform = platforms[i % 3];
        m.path = i == 7 ? "" : "dc0/rack" + std::to_string(i % 4);
        m.metered = i % 2 == 0;
        OnlineEstimatorConfig config;
        config.idlePowerW = 20.0;
        config.maxPowerW = 80.0;
        entries.push_back(&server.addMachine(
            m.id, serve_testing::makeTestModel(1 + i % 3), config));
        fleet.push_back(m);
    }
    monitor::FleetMonitor monitor;
    monitor.attach(server);
    entries[3]->engageQuarantine(nullptr);

    rollup::RollupTree liveTree;
    rollup::LiveRollupFeed feed(liveTree);
    for (const FleetMachine &m : fleet) {
        if (!m.path.empty())
            feed.place(m.id, m.path, m.platform);
    }
    rollup::RollupTree stringTree;

    Rng rng(5);
    for (int tick = 0; tick < 3; ++tick) {
        for (int k = 0; k < 40; ++k) {
            for (std::size_t m = 0; m < entries.size(); ++m) {
                const double u0 = rng.uniform(0.0, 100.0);
                const double u1 = rng.uniform(0.0, 100.0);
                const double meteredW =
                    fleet[m].metered
                        ? 25.0 + 0.1 * u0 + 0.08 * u1 + rng.normal()
                        : kNaN;
                server.submitTo(*entries[m],
                                serve_testing::catalogRow(u0, u1),
                                meteredW);
            }
        }
        while (server.drainOnce() > 0) {
        }
        const serve::FleetSnapshot snap = server.snapshot();
        const monitor::QualitySnapshot quality = monitor.snapshot();
        feed.observe(snap, quality);

        std::size_t qi = 0;
        for (const serve::MachineSnapshot &ms : snap.machines) {
            while (qi < quality.machines.size() &&
                   quality.machines[qi].id < ms.id)
                ++qi;
            const monitor::MachineQualityReport *q =
                qi < quality.machines.size() &&
                        quality.machines[qi].id == ms.id
                    ? &quality.machines[qi]
                    : nullptr;
            const FleetMachine &fm = fleet[ms.index];
            ASSERT_EQ(fm.id, ms.id);
            stringTree.update(
                fm.path.empty() ? rollup::kUnplacedGroup : fm.path,
                observationOf(ms, q, fm));
        }
        const rollup::NodeSummary live = feed.aggregate();
        ASSERT_EQ(rollup_testing::dumpTree(live),
                  rollup_testing::dumpTree(stringTree.aggregate()))
            << "tick " << tick;
        EXPECT_EQ(live.stats.machines, fleet.size());
        EXPECT_EQ(live.stats.quarantined, 1u);
        EXPECT_GT(live.stats.dre.count(), 0u);
    }
}

} // namespace
} // namespace chaos
