/**
 * @file
 * Tests for the check helpers: a passing raiseIf() or panicIf() with
 * a literal message must not touch the heap (hot paths check per
 * sample), and a failing raiseIf() raises RecoverableError carrying
 * its message.
 */
#include <cstdlib>
#include <new>
#include <string>

#include <gtest/gtest.h>

#include "../support/raises.hpp"
#include "util/logging.hpp"
#include "util/result.hpp"

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

namespace chaos {
namespace {

TEST(Result, PassingRaiseIfDoesNotAllocate)
{
    // The message is longer than std::string's in-object buffer, so
    // building a std::string from it would allocate. volatile keeps
    // the condition a run-time value.
    volatile bool failing = false;
    const std::size_t before = tAllocations;
    for (int i = 0; i < 100; ++i)
        raiseIf(failing, "net: ack window stalled (server not acking)");
    EXPECT_EQ(tAllocations - before, 0u);
}

TEST(Result, PassingPanicIfDoesNotAllocate)
{
    volatile bool failing = false;
    const std::size_t before = tAllocations;
    for (int i = 0; i < 100; ++i)
        panicIf(failing, "sealFrame: payload writes do not end where "
                         "the frame ends");
    EXPECT_EQ(tAllocations - before, 0u);
}

TEST(Result, FailingRaiseIfRaisesItsMessage)
{
    volatile bool failing = true;
    EXPECT_RAISES(raiseIf(failing, "encodeSample: machine id length "
                                   "out of range"),
                  "machine id length out of range");
    EXPECT_RAISES(raiseIf(failing, "serve: unknown machine id '" +
                                       std::string("m7") + "'"),
                  "unknown machine id 'm7'");
}

} // namespace
} // namespace chaos
