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
 * Row buffers are owned by the queue and recycled, never freed on the
 * hot path: popBatch() *swaps* slot buffers with the consumer's
 * recycled batch buffers rather than moving ownership out, and the
 * batch buffers it gets back go onto a LIFO spare stack; push()
 * copies counter values into the top spare, i.e. the buffer the
 * consumer returned last. After warmup, steady-state ingestion and
 * draining perform zero heap allocation — the malloc/free-per-sample
 * churn that used to dominate the drain path (one free per evaluated
 * row) is gone entirely.
 *
 * The stack, not the ring, decides which buffer a push writes: a
 * drained ring slot is reused only after the ring wraps, by when a
 * buffer parked in it is cold and copying a wide counter row into it
 * costs a cache miss per line. Off the stack, the buffer a push
 * writes is one the consumer released moments ago, still in cache.
 */
#ifndef CHAOS_SERVE_SAMPLE_QUEUE_HPP
#define CHAOS_SERVE_SAMPLE_QUEUE_HPP

#include <cstddef>
#include <algorithm>
#include <cstdint>
#include <limits>
#include <mutex>
#include <utility>
#include <vector>

namespace chaos::serve {

class MachineEntry;

/** One enqueued machine-second of telemetry. */
struct QueuedSample
{
    /** Registry entry of the machine this sample belongs to. */
    MachineEntry *entry = nullptr;
    /** Catalog-ordered counter vector (recycled buffer, see file). */
    std::vector<double> catalogRow;
    /** Metered reference power; NaN when the machine has no meter. */
    double meteredW = std::numeric_limits<double>::quiet_NaN();
    /**
     * Monotonic stamp (obs::traceNowNs) taken where the sample entered
     * the pipeline — at wire decode for network ingest, at submit for
     * in-process producers. 0 when stage tracing is disabled. Rides
     * the recycled slot like the row buffer, so stamping adds no
     * allocation to the hot path.
     */
    std::uint64_t ingestNs = 0;
};

/**
 * Mutex-protected bounded FIFO of QueuedSamples (MPSC: any number of
 * producers, one draining consumer). Storage is a preallocated ring
 * of capacity slots plus a fixed spare stack; the row buffers are
 * recycled (values copied into the latest spare, buffers swapped
 * out), so steady-state pushing and popping never touch the
 * allocator. All operations are O(1) apart
 * from popBatch, which is linear in the batch it returns.
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
     * Enqueue one sample by value: the counter row is *copied* into
     * the most recently returned spare buffer (no allocation once
     * that buffer has seen a row at least as wide). When the queue is
     * full the *oldest* sample is discarded to make room (drop-oldest
     * policy).
     *
     * @return The registry entry of the machine whose sample was
     *         dropped by this push, or nullptr when nothing was
     *         dropped. The victim is the evicted (oldest) sample's
     *         machine — not necessarily the pushing one — so callers
     *         can attribute backpressure loss per machine.
     */
    MachineEntry *
    push(MachineEntry *entry, const double *row, std::size_t rowSize,
         double meteredW, std::uint64_t ingestNs = 0)
    {
        std::lock_guard<std::mutex> lock(mu);
        MachineEntry *droppedFrom = nullptr;
        if (count == slots.size()) {
            droppedFrom = slots[head].entry;
            head = next(head);
            --count;
        }
        // assign() reuses the evicted occupant's capacity or the top
        // spare's; the producer keeps (and can reuse) its own row
        // storage.
        QueuedSample &slot = slots[(head + count) % slots.size()];
        takeSpare(slot);
        slot.entry = entry;
        slot.catalogRow.assign(row, row + rowSize);
        slot.meteredW = meteredW;
        slot.ingestNs = ingestNs;
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
    bool
    tryPush(MachineEntry *entry, const double *row, std::size_t rowSize,
            double meteredW, std::uint64_t ingestNs = 0)
    {
        std::lock_guard<std::mutex> lock(mu);
        if (count == slots.size())
            return false;
        QueuedSample &slot = slots[(head + count) % slots.size()];
        takeSpare(slot);
        slot.entry = entry;
        slot.catalogRow.assign(row, row + rowSize);
        slot.meteredW = meteredW;
        slot.ingestNs = ingestNs;
        ++count;
        return true;
    }

    /**
     * Transfer up to @p maxItems samples into @p out, oldest first.
     * Row buffers are *swapped*, not moved: each out element's
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
            out[moved].meteredW = slot.meteredW;
            out[moved].ingestNs = slot.ingestNs;
            std::swap(out[moved].catalogRow, slot.catalogRow);
            // A full stack leaves the buffer parked in the slot.
            if (slot.catalogRow.capacity() != 0 &&
                spareTop < spare.size())
                spare[spareTop++].swap(slot.catalogRow);
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
     * Give the free @p slot the top spare buffer, unless it still
     * holds one (a drop-oldest overwrite reuses the evicted row's, and
     * a slot drained while the stack was full kept its own).
     */
    void
    takeSpare(QueuedSample &slot)
    {
        if (slot.catalogRow.capacity() != 0 || spareTop == 0)
            return;
        slot.catalogRow.swap(spare[--spareTop]);
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
