/**
 * @file
 * Bounded multi-producer/single-consumer ingestion queue for the
 * streaming serving subsystem.
 *
 * Collectors push one counter sample per machine-second; the drain
 * loop pops them in batches. The queue is bounded with an explicit
 * drop-oldest overflow policy: when a shard falls behind, the samples
 * sacrificed are the *stalest* ones — exactly the ones whose estimate
 * would be least useful by the time it was produced — and every drop
 * is counted so backpressure is observable, never silent.
 *
 * A slot carries only the counters its machine's models read: push()
 * gathers the producer's full catalog row through the machine's
 * CounterProjection (typically 6-8 of 186 counters) and stores the
 * projection pointer beside the values, so the row never crosses
 * cores whole. Rows arrive as native doubles (CounterRow) or still in
 * wire layout (CounterRowLE), gathered in place either way; a wire
 * SampleBatch entry arrives already projected (ProjectedRowLE) and
 * is copied as is.
 *
 * Value buffers are owned by the queue and recycled, never freed on
 * the hot path: popBatch() *swaps* slot buffers with the consumer's
 * recycled batch buffers rather than moving ownership out, and the
 * batch buffers it gets back go onto a LIFO spare stack; push()
 * gathers into the top spare, i.e. the buffer the consumer returned
 * last. After warmup, steady-state ingestion and draining perform
 * zero heap allocation.
 *
 * The stack, not the ring, decides which buffer a push writes: a
 * drained ring slot is reused only after the ring wraps, by when a
 * buffer parked in it is cold. Off the stack, the buffer a push
 * writes is one the consumer released moments ago, still in cache.
 */
#ifndef CHAOS_SERVE_SAMPLE_QUEUE_HPP
#define CHAOS_SERVE_SAMPLE_QUEUE_HPP

#include <cstddef>
#include <algorithm>
#include <cstdint>
#include <limits>
#include <mutex>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/online.hpp"
#include "util/endian.hpp"

namespace chaos::serve {

class MachineEntry;

/** A producer's catalog-ordered counter row, as native doubles. */
struct CounterRow
{
    const double *values = nullptr;
    std::size_t size = 0;

    double operator[](std::size_t i) const { return values[i]; }
};

/**
 * The same row still in wire layout: @c size little-endian IEEE-754
 * doubles back to back at any alignment, read in place.
 */
struct CounterRowLE
{
    const std::uint8_t *bytes = nullptr;
    std::size_t size = 0;

    double
    operator[](std::size_t i) const
    {
        return loadLE<double>(bytes + sizeof(double) * i);
    }
};

/**
 * Values a producer already gathered at a projection's indices, in
 * wire layout (a SampleBatch entry's values): one little-endian
 * double per projected counter, NaN where the row was too short. The
 * count is the projection's size; @c rowSize is the width of the row
 * they came from.
 */
struct ProjectedRowLE
{
    const std::uint8_t *bytes = nullptr;
    std::size_t rowSize = 0;
};

/** One enqueued machine-second of telemetry. */
struct QueuedSample
{
    /** Registry entry of the machine this sample belongs to. */
    MachineEntry *entry = nullptr;
    /** What @c values were gathered through (interned; never null). */
    const CounterProjection *projection = nullptr;
    /**
     * The row's counters at @c projection's indices, NaN where the
     * row was too short (recycled buffer, see file).
     */
    std::vector<double> values;
    /** Width of the row the producer sent. */
    std::size_t rowSize = 0;
    /** Metered reference power; NaN when the machine has no meter. */
    double meteredW = std::numeric_limits<double>::quiet_NaN();
    /**
     * Monotonic stamp (obs::traceNowNs) taken where the sample entered
     * the pipeline — at wire decode for network ingest, at submit for
     * in-process producers. 0 when stage tracing is disabled. Rides
     * the recycled slot like the value buffer, so stamping adds no
     * allocation to the hot path.
     */
    std::uint64_t ingestNs = 0;
};

/**
 * Mutex-protected bounded FIFO of QueuedSamples (MPSC: any number of
 * producers, one draining consumer). Storage is a preallocated ring
 * of capacity slots plus a fixed spare stack; the value buffers are
 * recycled (values gathered into the latest spare, buffers swapped
 * out), so steady-state pushing and popping never touch the
 * allocator. Pushes are linear in the projection's width, popBatch
 * in the batch it returns; everything else is O(1).
 */
class BoundedSampleQueue
{
  public:
    /** @param capacity Maximum retained samples; at least 1. */
    explicit BoundedSampleQueue(std::size_t capacity)
        : slots(capacity == 0 ? 1 : capacity),
          spare(std::min(slots.size(), kMaxSpares))
    {}

    /**
     * Enqueue one sample: the counters of @p row at @p projection's
     * indices are gathered into the most recently returned spare
     * buffer (no allocation once that buffer has held a projection
     * at least as wide); an index at or past the row's size reads as
     * NaN. When the queue is full the *oldest* sample is discarded to
     * make room (drop-oldest policy). The producer keeps (and can
     * reuse) its own row storage.
     *
     * @param row A CounterRow, CounterRowLE or ProjectedRowLE (the
     *        last already at @p projection's indices).
     * @return The registry entry of the machine whose sample was
     *         dropped by this push, or nullptr when nothing was
     *         dropped. The victim is the evicted (oldest) sample's
     *         machine — not necessarily the pushing one — so callers
     *         can attribute backpressure loss per machine.
     */
    template <typename Row>
    MachineEntry *
    push(MachineEntry *entry, const CounterProjection &projection,
         const Row &row, double meteredW, std::uint64_t ingestNs = 0)
    {
        std::lock_guard<std::mutex> lock(mu);
        MachineEntry *droppedFrom = nullptr;
        if (count == slots.size()) {
            droppedFrom = slots[head].entry;
            head = next(head);
            --count;
        }
        fill(slots[(head + count) % slots.size()], entry, projection,
             row, meteredW, ingestNs);
        ++count;
        return droppedFrom;
    }

    /**
     * Enqueue one sample only if the queue has room: the reject-newest
     * counterpart of push() for ingest boundaries that signal
     * backpressure to the producer (NACK) instead of sacrificing the
     * oldest queued sample. Nothing is enqueued on refusal, so the
     * caller still owns the sample and can retry, shed, or report it.
     *
     * @return True when the sample was enqueued.
     */
    template <typename Row>
    bool
    tryPush(MachineEntry *entry, const CounterProjection &projection,
            const Row &row, double meteredW, std::uint64_t ingestNs = 0)
    {
        std::lock_guard<std::mutex> lock(mu);
        if (count == slots.size())
            return false;
        fill(slots[(head + count) % slots.size()], entry, projection,
             row, meteredW, ingestNs);
        ++count;
        return true;
    }

    /**
     * Transfer up to @p maxItems samples into @p out, oldest first.
     * Value buffers are *swapped*, not moved: each out element's
     * previous buffer goes onto the spare stack for reuse, so a caller
     * draining with the same scratch array reaches a steady state
     * where no allocation happens at all. Elements of @p out past the
     * returned count are untouched.
     *
     * @param out At least @p maxItems default-constructed or recycled
     *        QueuedSamples.
     * @return The number of samples transferred.
     */
    std::size_t
    popBatch(QueuedSample *out, std::size_t maxItems)
    {
        std::lock_guard<std::mutex> lock(mu);
        std::size_t moved = 0;
        while (moved < maxItems && count > 0) {
            QueuedSample &slot = slots[head];
            out[moved].entry = slot.entry;
            out[moved].projection = slot.projection;
            out[moved].rowSize = slot.rowSize;
            out[moved].meteredW = slot.meteredW;
            out[moved].ingestNs = slot.ingestNs;
            std::swap(out[moved].values, slot.values);
            // A full stack leaves the buffer parked in the slot.
            if (slot.values.capacity() != 0 && spareTop < spare.size())
                spare[spareTop++].swap(slot.values);
            head = next(head);
            --count;
            ++moved;
        }
        return moved;
    }

    /** @return Samples currently queued. */
    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mu);
        return count;
    }

    /** @return True when nothing is queued. */
    bool empty() const { return size() == 0; }

    /** @return The configured capacity. */
    std::size_t capacity() const { return slots.size(); }

  private:
    /**
     * Write one sample into the free @p slot. The slot takes the top
     * spare buffer unless it still holds one (a drop-oldest overwrite
     * reuses the evicted sample's, and a slot drained while the stack
     * was full kept its own); resize() then reuses its capacity.
     */
    template <typename Row>
    void
    fill(QueuedSample &slot, MachineEntry *entry,
         const CounterProjection &projection, const Row &row,
         double meteredW, std::uint64_t ingestNs)
    {
        if (slot.values.capacity() == 0 && spareTop != 0)
            slot.values.swap(spare[--spareTop]);
        const std::vector<std::size_t> &indices = projection.indices();
        slot.values.resize(indices.size());
        if constexpr (std::is_same_v<Row, ProjectedRowLE>) {
            for (std::size_t j = 0; j < indices.size(); ++j)
                slot.values[j] = loadLE<double>(row.bytes + 8 * j);
            slot.rowSize = row.rowSize;
        } else {
            for (std::size_t j = 0; j < indices.size(); ++j) {
                slot.values[j] =
                    indices[j] < row.size
                        ? row[indices[j]]
                        : std::numeric_limits<double>::quiet_NaN();
            }
            slot.rowSize = row.size;
        }
        slot.entry = entry;
        slot.projection = &projection;
        slot.meteredW = meteredW;
        slot.ingestNs = ingestNs;
    }

    /** The ring position after @p pos. */
    std::size_t
    next(std::size_t pos) const
    {
        return pos + 1 == slots.size() ? 0 : pos + 1;
    }

    mutable std::mutex mu;
    std::vector<QueuedSample> slots; ///< Preallocated ring storage.
    std::size_t head = 0;            ///< Oldest queued sample.
    std::size_t count = 0;           ///< Samples currently queued.
    /**
     * Stack depth: a default-sized drain pass. Fixed at construction,
     * so popBatch never grows (and moves) it; a burst deeper than
     * this leaves the rest of its buffers in their drained slots.
     */
    static constexpr std::size_t kMaxSpares = 1024;
    /** Buffers the consumer returned; spare[spareTop - 1] is the latest. */
    std::vector<std::vector<double>> spare;
    std::size_t spareTop = 0;
};

} // namespace chaos::serve

#endif // CHAOS_SERVE_SAMPLE_QUEUE_HPP
