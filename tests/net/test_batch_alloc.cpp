/**
 * @file
 * The steady-state batch path allocates nothing: SampleBatch frames
 * fed through FrameReader decode and the ingest server's slot
 * bindings into FleetServer::offer, then drained, make zero heap
 * allocations on the calling thread once the reader's buffer, the
 * queues and the estimators have warmed up, counted separately for
 * the decode + offer side and the drain side. Own executable, because
 * it replaces the global operator new to count.
 */
#include <cstdlib>
#include <limits>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/ingest_server.hpp"
#include "net/protocol.hpp"
#include "serve/server.hpp"
#include "serve/stage_metrics.hpp"

#include "../serve/serve_support.hpp"

namespace {

/** Heap allocations made by this thread (counted by operator new). */
thread_local std::size_t tAllocations = 0;

} // namespace

void *
operator new(std::size_t size)
{
    ++tAllocations;
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace chaos::net {
namespace {

using serve_testing::catalogRow;
using serve_testing::makeTestModel;

TEST(IngestBatch, SteadyStateBatchesDoNotAllocate)
{
    ASSERT_TRUE(serve::stageTracingEnabled());
    serve::FleetServerConfig config;
    config.numShards = 4;
    config.queueCapacity = 256;
    config.maxBatch = 64; // Above the 12-sample pass: no pool fan-out.
    serve::FleetServer server(config);
    SlotBindings slots(server);
    std::vector<std::vector<std::size_t>> projections;
    for (std::uint32_t m = 0; m < 12; ++m) {
        BindFrame bind;
        bind.slot = m;
        bind.machineId = "m" + std::to_string(m);
        server.addMachine(bind.machineId, makeTestModel(1 + m % 3));
        ASSERT_EQ(slots.bind(bind), SlotBindings::BindOutcome::Bound);
        projections.push_back(slots.at(m).projection->indices());
    }

    // One frame per pass, every machine once, half of them metered.
    const std::vector<double> row = catalogRow(40.0, 60.0);
    const auto encodePass = [&](std::uint64_t tick) {
        std::vector<std::uint8_t> wire;
        SampleBatchEncoder batch;
        for (std::uint32_t m = 0; m < 12; ++m) {
            const double meteredW =
                m % 2 == 0 ? 40.0 + static_cast<double>(tick % 7)
                           : std::numeric_limits<double>::quiet_NaN();
            batch.add(wire, m, tick, m % 2 == 0, meteredW, row.data(),
                      row.size(), projections[m].data(),
                      projections[m].size());
        }
        batch.seal(wire);
        return wire;
    };
    std::vector<std::vector<std::uint8_t>> frames;
    for (std::uint64_t tick = 0; tick < 600; ++tick)
        frames.push_back(encodePass(tick));

    FrameReader reader;
    Frame frame;
    std::vector<std::uint8_t> out;
    std::uint64_t rejectedTotal = 0;
    std::size_t offerAllocations = 0;
    std::size_t drainAllocations = 0;
    const auto pass = [&](const std::vector<std::uint8_t> &wire) {
        std::size_t before = tAllocations;
        reader.append(wire.data(), wire.size());
        EXPECT_EQ(reader.next(frame), DecodeStatus::Ok);
        EXPECT_TRUE(slots.admits(frame.batch));
        const SlotBindings::BatchResult r = slots.offer(
            frame.batch, serve::stageStampNs(), rejectedTotal, out);
        EXPECT_EQ(r.accepted, 12u);
        offerAllocations += tAllocations - before;
        before = tAllocations;
        const std::size_t drained = server.drainOnce();
        drainAllocations += tAllocations - before;
        return drained;
    };
    // Warm-up: the reader's buffer, queue buffers, grouping arrays,
    // estimator scratch and the metric singletons.
    for (std::size_t i = 0; i < 100; ++i)
        ASSERT_EQ(pass(frames[i]), 12u);

    offerAllocations = 0;
    drainAllocations = 0;
    for (std::size_t i = 100; i < frames.size(); ++i)
        pass(frames[i]);
    EXPECT_EQ(offerAllocations, 0u);
    EXPECT_EQ(drainAllocations, 0u);
    EXPECT_TRUE(out.empty()); // No Bound, no Nack: nothing to answer.
    EXPECT_EQ(server.processed(), 600u * 12);
}

} // namespace
} // namespace chaos::net
