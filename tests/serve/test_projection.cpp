/**
 * @file
 * Projected queue slots: a served machine's samples carry only the
 * counters its deployed model, quarantine substitute and shadow
 * candidate read, and every estimate stays bitwise equal to a serial
 * OnlinePowerEstimator fed the full catalog rows. A reader change
 * that widens the projection counts the samples gathered before it
 * (chaos.serve.projection_misses); the deployed model reads their
 * missing counters through imputation and nothing else changes.
 */
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/cluster_model.hpp"
#include "models/linear.hpp"
#include "obs/metrics.hpp"
#include "oscounters/counter_catalog.hpp"
#include "serve/server.hpp"
#include "util/parallel.hpp"
#include "util/random.hpp"

#include "serve_support.hpp"

namespace chaos::serve {
namespace {

using serve_testing::modelOver;
using serve_testing::randomRow;
using serve_testing::Recorder;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

std::uint64_t
projectionMisses()
{
    return obs::Registry::instance()
        .counter("chaos.serve.projection_misses",
                 obs::Stability::Scheduling)
        .value();
}

/** The catalog counters the machines below read. */
constexpr std::size_t kA = 3, kB = 7, kC = 12, kD = 20, kE = 30,
                      kF = 40, kG = 5;

TEST(FleetServer, ProjectedDrainMatchesFullRowEstimator)
{
    FleetServerConfig config;
    config.numShards = 2;
    config.maxBatch = 16; // Some passes fill it and fan out.
    FleetServer server(config);
    const std::vector<MachinePowerModel> models = {
        modelOver({kA, kB}, 1),      // m0
        modelOver({kB, kD}, 2),      // m1: shares kB with m0
        modelOver({kG, kG, kE}, 3),  // m2: reads kG twice
        modelOver({kA, kB}, 1),      // m3: m0's counters
    };
    std::vector<MachineEntry *> entries;
    std::vector<OnlinePowerEstimator> serial;
    for (std::size_t m = 0; m < models.size(); ++m) {
        entries.push_back(
            &server.addMachine("m" + std::to_string(m), models[m]));
        serial.emplace_back(models[m]);
    }
    // One interned projection per distinct index set, duplicates
    // removed.
    EXPECT_EQ(&entries[0]->projection(), &entries[3]->projection());
    EXPECT_NE(&entries[0]->projection(), &entries[1]->projection());
    EXPECT_EQ(entries[2]->projection().indices(),
              (std::vector<std::size_t>{kG, kE}));
    Recorder recorder;
    server.setSampleObserver(&recorder);
    setGlobalThreadCount(2);

    // Shadow candidate on m1 and quarantine substitute on m2, begun
    // halfway: kC sits between m1's counters and kF past m2's, so
    // both readers move the deployed models' positions.
    const MachinePowerModel candidate = modelOver({kB, kC}, 4);
    const auto substitute =
        std::make_shared<const MachinePowerModel>(modelOver({kE, kF}, 5));
    double candSumSq = 0.0, incSumSq = 0.0;
    std::uint64_t shadowSamples = 0;
    double substituteW = kNaN;

    Rng rng(77);
    std::vector<std::vector<double>> expected(models.size());
    const std::uint64_t missesBefore = projectionMisses();
    for (int t = 0; t < 240; ++t) {
        if (t == 120) {
            while (server.drainOnce() > 0) {
            }
            entries[1]->beginShadow(candidate);
            entries[2]->engageQuarantine(substitute);
            EXPECT_EQ(entries[1]->projection().indices(),
                      (std::vector<std::size_t>{kB, kC, kD}));
            EXPECT_EQ(entries[2]->projection().indices(),
                      (std::vector<std::size_t>{kG, kE, kF}));
        }
        for (std::size_t m = 0; m < models.size(); ++m) {
            std::vector<double> row = randomRow(rng);
            // The shadow's machine stays clean once it shadows: a
            // NaN candidate prediction would make its sums NaN.
            const bool clean = t >= 120 && m == 1;
            switch (clean ? 0 : (t + static_cast<int>(m)) % 9) {
              case 1: row[kB] = kNaN; row[kG] = kNaN; break;
              case 2: row[kA] = -5.0; row[kE] = -1.0; break;
              case 3: // Implausible: past the catalog's bound.
                row[kD] = 1e300;
                row[kG] = 1e300;
                break;
              case 4: row.resize(kD); break;  // Drops kD, kE, kF.
              case 5: row.resize(kB); break;  // Keeps only kA, kG.
              case 6: row.clear(); break;
              default: break;
            }
            const double metered =
                t % 3 == 0 ? kNaN : 30.0 + static_cast<double>(t % 11);
            if (m == 3) // The reject-newest door projects the same.
                ASSERT_TRUE(server.offer(*entries[m], row.data(),
                                         row.size(), metered));
            else
                server.submitTo(*entries[m], row, metered);
            const double w = serial[m].estimateWithReference(row, metered);
            expected[m].push_back(w);

            // The aux readers on their own counters, NaN past the row.
            const auto project = [&](const MachinePowerModel &reader) {
                std::vector<double> x;
                for (std::size_t idx : reader.catalogIndices())
                    x.push_back(idx < row.size() ? row[idx] : kNaN);
                return reader.predictFromFeatureRow(x);
            };
            if (t >= 120 && m == 1 && std::isfinite(metered)) {
                const double cd = metered - project(candidate);
                const double id = metered - w;
                candSumSq += cd * cd;
                incSumSq += id * id;
                ++shadowSamples;
            }
            if (t >= 120 && m == 2)
                substituteW = project(*substitute);
        }
        if (t % 5 == 4) {
            while (server.drainOnce() > 0) {
            }
        }
    }
    while (server.drainOnce() > 0) {
    }
    setGlobalThreadCount(1);
    server.setSampleObserver(nullptr);

    EXPECT_EQ(projectionMisses() - missesBefore, 0u);
    ASSERT_EQ(recorder.watts.size(), models.size());
    for (std::size_t m = 0; m < models.size(); ++m) {
        ASSERT_EQ(recorder.watts[m].size(), expected[m].size());
        for (std::size_t k = 0; k < expected[m].size(); ++k) {
            ASSERT_EQ(recorder.watts[m][k], expected[m][k])
                << "machine " << m << " sample " << k;
        }
        entries[m]->withEstimator([&](OnlinePowerEstimator &e) {
            const OnlineHealthCounters &got = e.healthCounters();
            const OnlineHealthCounters &want = serial[m].healthCounters();
            EXPECT_EQ(got.validInputs, want.validInputs);
            EXPECT_EQ(got.rejectedInputs, want.rejectedInputs);
            EXPECT_EQ(got.imputedInputs, want.imputedInputs);
            EXPECT_EQ(e.health(), serial[m].health());
            EXPECT_EQ(e.residuals().mean(), serial[m].residuals().mean());
        });
    }
    const MachineEntry::ShadowReport report = entries[1]->shadowReport();
    ASSERT_TRUE(report.active);
    EXPECT_EQ(report.refSamples, shadowSamples);
    const double n = static_cast<double>(shadowSamples);
    EXPECT_EQ(report.candidateRmseW, std::sqrt(candSumSq / n));
    EXPECT_EQ(report.incumbentRmseW, std::sqrt(incSumSq / n));
    ASSERT_TRUE(std::isfinite(substituteW));
    EXPECT_EQ(server.snapshot().machines[2].watts, substituteW);
}

TEST(FleetServer, WideningSwapUnderActiveProducerCountsInFlightMisses)
{
    // Nothing drains until the producer is done, so every sample
    // submitted before the swap published the wider projection is in
    // flight at the swap: exactly those are misses, and they read the
    // new counter as missing; every later sample is exact.
    const std::size_t total = 20000;
    FleetServerConfig config;
    config.numShards = 1;
    config.queueCapacity = total;
    FleetServer server(config);
    const MachinePowerModel narrow = modelOver({kA, kB}, 11);
    const MachinePowerModel wide = modelOver({kA, kC, kB}, 12);
    MachineEntry &entry = server.addMachine("m0", narrow);
    Recorder recorder;
    server.setSampleObserver(&recorder);

    Rng rng(5);
    std::vector<std::vector<double>> rows;
    for (int i = 0; i < 64; ++i)
        rows.push_back(randomRow(rng));

    const std::uint64_t missesBefore = projectionMisses();
    std::atomic<std::size_t> submitted{0};
    std::thread producer([&] {
        for (std::size_t i = 0; i < total; ++i) {
            server.submitTo(entry, rows[i % rows.size()], 40.0);
            submitted.store(i + 1, std::memory_order_release);
        }
    });
    while (submitted.load(std::memory_order_acquire) < total / 4)
        std::this_thread::yield();
    const std::size_t atSwapStart = submitted.load();
    server.swapModel("m0", wide);
    const std::size_t atSwapEnd = submitted.load();
    producer.join();
    while (server.drainOnce() > 0) {
    }
    server.setSampleObserver(nullptr);

    const std::uint64_t misses = projectionMisses() - missesBefore;
    EXPECT_GE(misses, atSwapStart);
    EXPECT_LE(misses, atSwapEnd + 1);
    EXPECT_LT(misses, total);
    EXPECT_EQ(server.processed(), total);

    OnlinePowerEstimator serial(narrow);
    serial.swapModel(wide);
    ASSERT_EQ(recorder.watts.size(), 1u);
    ASSERT_EQ(recorder.watts[0].size(), total);
    for (std::size_t i = 0; i < total; ++i) {
        std::vector<double> row = rows[i % rows.size()];
        if (i < misses)
            row[kC] = kNaN; // Not in the slot: a missing input.
        ASSERT_EQ(recorder.watts[0][i],
                  serial.estimateWithReference(row, 40.0))
            << "sample " << i << " of " << misses << " misses";
    }
}

TEST(FleetServer, NonWideningReaderChangesRecordNoMisses)
{
    // A swap, a substitute and a shadow that read only the deployed
    // model's counters, each with samples in flight, keep the
    // projection and count no miss; lifting a widening substitute
    // narrows it again without a miss either. Nothing drains until
    // the end of each phase, so the swapped-in model evaluates every
    // sample and the shadow scores every one.
    FleetServer server;
    const MachinePowerModel first = modelOver({kA, kB, kD}, 21);
    const MachinePowerModel second = modelOver({kD, kA, kB}, 22);
    MachineEntry &entry = server.addMachine("m0", first);
    const CounterProjection *projection = &entry.projection();
    Recorder recorder;
    server.setSampleObserver(&recorder);

    Rng rng(9);
    std::vector<std::vector<double>> rows;
    const auto submit = [&](int n) {
        for (int i = 0; i < n; ++i) {
            rows.push_back(randomRow(rng));
            server.submitTo(entry, rows.back(), 35.0);
        }
    };
    const std::uint64_t missesBefore = projectionMisses();
    submit(10);
    server.swapModel("m0", second);
    submit(10);
    entry.engageQuarantine(
        std::make_shared<const MachinePowerModel>(modelOver({kB}, 23)));
    submit(10);
    entry.beginShadow(modelOver({kD, kA}, 24));
    submit(10);
    EXPECT_EQ(&entry.projection(), projection);
    while (server.drainOnce() > 0) {
    }

    entry.liftQuarantine();
    entry.engageQuarantine(std::make_shared<const MachinePowerModel>(
        modelOver({kA, kF}, 25)));
    EXPECT_NE(&entry.projection(), projection);
    submit(10);
    entry.liftQuarantine();
    EXPECT_EQ(&entry.projection(), projection);
    submit(10);
    while (server.drainOnce() > 0) {
    }
    server.setSampleObserver(nullptr);

    EXPECT_EQ(projectionMisses() - missesBefore, 0u);
    EXPECT_EQ(entry.shadowReport().refSamples, rows.size());
    OnlinePowerEstimator serial(first);
    serial.swapModel(second);
    ASSERT_EQ(recorder.watts.size(), 1u);
    ASSERT_EQ(recorder.watts[0].size(), rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(recorder.watts[0][i],
                  serial.estimateWithReference(rows[i], 35.0))
            << "sample " << i;
    }
}

} // namespace
} // namespace chaos::serve
