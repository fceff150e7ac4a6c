/**
 * @file
 * Tests for the bounded MPSC ingestion queue: FIFO order, the
 * drop-oldest overflow policy, batch draining, and the recycled-
 * buffer contract (popBatch swaps row buffers instead of freeing,
 * and push writes the one returned last).
 */
#include <gtest/gtest.h>

#include <cstdint>
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

/** Push a sample tagged with @p id in its only row slot. */
MachineEntry *
pushTagged(BoundedSampleQueue &queue, double id)
{
    const double row[1] = {id};
    return queue.push(entryOf(id), row, 1, id);
}

double
tagOf(const QueuedSample &sample)
{
    return sample.catalogRow.at(0);
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
            queue.push(entryOf(i), row.data(), row.size(), 0.0);
        EXPECT_EQ(queue.popBatch(batch.data(), 4), 4u);
    }
    // Capture the batch buffers, run another full round, and verify
    // the data pointers all came back from the fixed ring+batch pool.
    std::vector<const double *> pool;
    for (const QueuedSample &sample : batch)
        pool.push_back(sample.catalogRow.data());
    for (int i = 0; i < 4; ++i)
        queue.push(entryOf(i), row.data(), row.size(), 0.0);
    EXPECT_EQ(queue.popBatch(batch.data(), 4), 4u);
    for (const QueuedSample &sample : batch) {
        EXPECT_EQ(sample.catalogRow,
                  (std::vector<double>{1.0, 2.0, 3.0}));
        // The buffer now held was previously a ring slot's; the ring
        // slots hold what were batch buffers. No pointer should be
        // brand new — the pool is closed. (We can only assert the
        // batch side without reaching into the queue: the four
        // buffers must be distinct and stable-capacity.)
        EXPECT_GE(sample.catalogRow.capacity(), 3u);
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
        sample.catalogRow.reserve(row.size());
    const double *returnedFirst = batch[0].catalogRow.data();
    const double *returnedLast = batch[1].catalogRow.data();

    queue.push(entryOf(0), row.data(), row.size(), 0.0);
    queue.push(entryOf(1), row.data(), row.size(), 0.0);
    ASSERT_EQ(queue.popBatch(batch.data(), 2), 2u);

    queue.push(entryOf(2), row.data(), row.size(), 0.0);
    ASSERT_TRUE(queue.tryPush(entryOf(3), row.data(), row.size(), 0.0));
    const std::vector<QueuedSample> out = popAll(queue, 2);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0].catalogRow.data(), returnedLast);
    EXPECT_EQ(out[1].catalogRow.data(), returnedFirst);
    EXPECT_EQ(out[0].catalogRow, row);
    EXPECT_EQ(out[1].catalogRow, row);
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
    const double row[1] = {0.0};
    for (std::uint64_t i = 0; i < 3; ++i)
        queue.push(entryOf(0), row, 1, 0.0, 1000 + i);
    ASSERT_TRUE(queue.tryPush(entryOf(0), row, 1, 0.0, 2000));

    std::vector<QueuedSample> batch(4);
    ASSERT_EQ(queue.popBatch(batch.data(), 4), 4u);
    EXPECT_EQ(batch[0].ingestNs, 1000u);
    EXPECT_EQ(batch[1].ingestNs, 1001u);
    EXPECT_EQ(batch[2].ingestNs, 1002u);
    EXPECT_EQ(batch[3].ingestNs, 2000u);

    // An unstamped push (the in-process replay path) reuses the slot
    // that just held 1000 — it must read back as 0, not 1000.
    queue.push(entryOf(0), row, 1, 0.0);
    ASSERT_EQ(queue.popBatch(batch.data(), 4), 1u);
    EXPECT_EQ(batch[0].ingestNs, 0u);

    // Drop-oldest keeps the stamps aligned with the surviving
    // samples.
    for (std::uint64_t i = 0; i < 6; ++i)
        queue.push(entryOf(0), row, 1, 0.0, 100 + i);
    ASSERT_EQ(queue.popBatch(batch.data(), 4), 4u);
    for (std::uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(batch[i].ingestNs, 102 + i);
}

} // namespace
} // namespace chaos::serve
