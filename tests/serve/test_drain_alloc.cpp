/**
 * @file
 * The steady-state drain allocates nothing: N passes of submitTo()
 * into every machine plus drainOnce(), with stage tracing on as
 * shipped and a FleetMonitor observing every sample, make zero heap
 * allocations on the calling thread once the queues, the grouping
 * arrays and the estimators have warmed up, counted separately for
 * the submit side and the drain side. Own executable, because it
 * replaces the global operator new to count.
 */
#include <cmath>
#include <cstdlib>
#include <limits>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "monitor/fleet_monitor.hpp"
#include "serve/server.hpp"
#include "serve/stage_metrics.hpp"
#include "serve_support.hpp"

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

namespace chaos::serve {
namespace {

using serve_testing::catalogRow;
using serve_testing::makeTestModel;

TEST(FleetServerDrain, SteadyStatePassesDoNotAllocate)
{
    ASSERT_TRUE(stageTracingEnabled());
    FleetServerConfig config;
    config.numShards = 4;
    config.queueCapacity = 256;
    config.maxBatch = 64; // Above the 12-sample pass: no pool fan-out.
    FleetServer server(config);
    std::vector<MachineEntry *> entries;
    for (int m = 0; m < 12; ++m) {
        entries.push_back(&server.addMachine(
            "m" + std::to_string(m), makeTestModel(1 + m % 3)));
    }
    monitor::FleetMonitor monitor;
    monitor.attach(server);

    const std::vector<double> row = catalogRow(40.0, 60.0);
    const double unmetered = std::numeric_limits<double>::quiet_NaN();
    std::uint64_t tick = 0;
    std::size_t submitAllocations = 0;
    std::size_t drainAllocations = 0;
    const auto pass = [&] {
        std::size_t before = tAllocations;
        for (std::size_t m = 0; m < entries.size(); ++m) {
            // Half the fleet metered, so the monitor and the residual
            // statistics run too.
            const double meteredW =
                m % 2 == 0 ? 40.0 + static_cast<double>(tick % 7)
                           : unmetered;
            server.submitTo(*entries[m], row, meteredW);
        }
        ++tick;
        submitAllocations += tAllocations - before;
        before = tAllocations;
        const std::size_t drained = server.drainOnce();
        drainAllocations += tAllocations - before;
        return drained;
    };
    // Warm-up: queue buffers, grouping arrays, estimator scratch,
    // the recent-estimate rings and the metric singletons.
    for (int i = 0; i < 100; ++i)
        ASSERT_EQ(pass(), entries.size());

    submitAllocations = 0;
    drainAllocations = 0;
    for (int i = 0; i < 500; ++i)
        pass();
    // Both sides of the queue: the producer's projection gather and
    // the drain pass.
    EXPECT_EQ(submitAllocations, 0u);
    EXPECT_EQ(drainAllocations, 0u);
    EXPECT_EQ(server.processed(), 600u * entries.size());
    monitor.detach();
}

} // namespace
} // namespace chaos::serve
