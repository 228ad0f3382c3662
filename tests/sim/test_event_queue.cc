/**
 * @file
 * Unit tests for the event-queue scheduling primitive: the indexed
 * priority structure (lazily cached minimum vs. a naive scan oracle).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "sim/event_queue.hh"

namespace mtp {
namespace {

Cycle
naiveMin(const EventQueue &q)
{
    Cycle m = invalidCycle;
    for (std::size_t i = 0; i < q.size(); ++i)
        m = std::min(m, q.key(i));
    return m;
}

TEST(EventQueue, ResetArmsEverythingAtZero)
{
    EventQueue q;
    q.reset(5);
    EXPECT_EQ(q.size(), 5u);
    for (std::size_t i = 0; i < 5; ++i)
        EXPECT_EQ(q.key(i), 0u);
    EXPECT_EQ(q.earliest(), 0u);
    EXPECT_EQ(q.pushes(), 0u);
    EXPECT_EQ(q.pops(), 0u);
}

TEST(EventQueue, ArmMovesKeysAndTracksMinimum)
{
    EventQueue q;
    q.reset(3);
    q.arm(0, 10);
    q.arm(1, 5);
    q.arm(2, 7);
    EXPECT_EQ(q.earliest(), 5u);
    // Move the minimum later: the cached min must be rescanned.
    q.arm(1, 20);
    EXPECT_EQ(q.earliest(), 7u);
    // Move a non-minimum later: no effect on the minimum.
    q.arm(0, 30);
    EXPECT_EQ(q.earliest(), 7u);
    // Move below the minimum: tracked without a rescan.
    q.arm(0, 2);
    EXPECT_EQ(q.earliest(), 2u);
}

TEST(EventQueue, ArmEarlierNeverMovesKeysLater)
{
    EventQueue q;
    q.reset(2);
    q.arm(0, 10);
    q.armEarlier(0, 15);
    EXPECT_EQ(q.key(0), 10u);
    q.armEarlier(0, 4);
    EXPECT_EQ(q.key(0), 4u);
    EXPECT_EQ(q.earliest(), 0u); // id 1 still armed at reset's 0
}

TEST(EventQueue, ParkedComponentsUseInvalidCycle)
{
    EventQueue q;
    q.reset(2);
    q.arm(0, invalidCycle);
    q.arm(1, invalidCycle);
    EXPECT_EQ(q.earliest(), invalidCycle);
    q.arm(1, 42);
    EXPECT_EQ(q.earliest(), 42u);
}

TEST(EventQueue, MatchesNaiveMinOverOpSequence)
{
    // Deterministic pseudo-random op sequence: after every arm, the
    // cached earliest() must equal an exhaustive scan of the keys, and
    // earliest(floor) that scan raised to the floor. A floor query may
    // stop its rescan early; the plain query after it stays exact.
    EventQueue q;
    const std::size_t n = 8;
    q.reset(n);
    std::uint64_t state = 12345;
    for (int op = 0; op < 2000; ++op) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        std::size_t id = (state >> 33) % n;
        Cycle at = (state >> 40) & 0xff;
        if (((state >> 20) & 7) == 0)
            at = invalidCycle; // occasionally park
        if (state & 1)
            q.arm(id, at);
        else
            q.armEarlier(id, at);
        if (op % 2 == 0) {
            Cycle floor = (state >> 48) & 0xff;
            ASSERT_EQ(q.earliest(floor), std::max(naiveMin(q), floor))
                << "op " << op;
        }
        ASSERT_EQ(q.earliest(), naiveMin(q)) << "op " << op;
    }
}

TEST(EventQueue, CountsPushesAndPops)
{
    EventQueue q;
    q.reset(2);
    q.arm(0, 5);
    q.arm(0, 5); // no-op: key unchanged
    q.arm(1, 9);
    EXPECT_EQ(q.pushes(), 2u);
    q.notePop();
    q.notePop();
    EXPECT_EQ(q.pops(), 2u);
    q.reset(2);
    EXPECT_EQ(q.pushes(), 0u);
    EXPECT_EQ(q.pops(), 0u);
}

} // namespace
} // namespace mtp
