/**
 * @file
 * A sequence lock: one writer at a time (serialized by the caller's
 * own mutex) publishes a group of atomics, and readers take no lock.
 * A reader that overlaps a write sees an odd or changed sequence
 * number and reads again, so it never returns a torn group.
 *
 * The guarded fields must be std::atomic and accessed with relaxed
 * order inside the callbacks; the sequence number's fences order
 * them. Used for the per-machine state that fleet snapshots read
 * (serve/registry.hpp, monitor/fleet_monitor.hpp).
 */
#ifndef CHAOS_UTIL_SEQLOCK_HPP
#define CHAOS_UTIL_SEQLOCK_HPP

#include <atomic>
#include <cstdint>

namespace chaos {

class SeqLock
{
  public:
    /** Run @p store (relaxed atomic stores) as one publication. */
    template <typename Fn>
    void
    write(Fn &&store)
    {
        const std::uint32_t s = seq_.load(std::memory_order_relaxed);
        seq_.store(s + 1, std::memory_order_relaxed);
        std::atomic_thread_fence(std::memory_order_release);
        store();
        seq_.store(s + 2, std::memory_order_release);
    }

    /**
     * Run @p load (relaxed atomic loads into the caller's locals)
     * until it ran entirely between two publications.
     */
    template <typename Fn>
    void
    read(Fn &&load) const
    {
        for (;;) {
            const std::uint32_t s0 = seq_.load(std::memory_order_acquire);
            load();
            std::atomic_thread_fence(std::memory_order_acquire);
            if ((s0 & 1) == 0 &&
                seq_.load(std::memory_order_relaxed) == s0)
                return;
        }
    }

  private:
    std::atomic<std::uint32_t> seq_{0};
};

} // namespace chaos

#endif // CHAOS_UTIL_SEQLOCK_HPP
