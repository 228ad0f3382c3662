#include <gtest/gtest.h>

#include "mem/cache.hh"

namespace mtp {
namespace {

TEST(SetAssocCache, Geometry)
{
    SetAssocCache c(16 * 1024, 8);
    EXPECT_EQ(c.numSets(), 32u);
    EXPECT_EQ(c.assoc(), 8u);
    EXPECT_EQ(c.capacityBytes(), 16u * 1024);
}

TEST(SetAssocCache, InsertLookupInvalidate)
{
    SetAssocCache c(1024, 2);
    EXPECT_FALSE(c.contains(0x1000));
    EXPECT_FALSE(c.insert(0x1000, 0x3).has_value());
    EXPECT_TRUE(c.contains(0x1000));
    EXPECT_TRUE(c.contains(0x1004)); // same block
    auto *line = c.lookup(0x1000);
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->flags, 0x3);
    auto old = c.invalidate(0x1000);
    ASSERT_TRUE(old.has_value());
    EXPECT_EQ(old->addr, 0x1000u);
    EXPECT_FALSE(c.contains(0x1000));
    EXPECT_FALSE(c.invalidate(0x1000).has_value());
}

TEST(SetAssocCache, LruEviction)
{
    SetAssocCache c(256, 2); // 4 blocks, 2 sets, 2 ways
    unsigned sets = c.numSets();
    // Three blocks mapping to set 0: stride = sets * blockBytes.
    Addr a = 0, b = sets * blockBytes, d = 2 * sets * blockBytes;
    c.insert(a, 0);
    c.insert(b, 0);
    c.lookup(a); // make a MRU, b LRU
    auto evicted = c.insert(d, 0);
    ASSERT_TRUE(evicted.has_value());
    EXPECT_EQ(evicted->addr, b);
    EXPECT_TRUE(c.contains(a));
    EXPECT_TRUE(c.contains(d));
}

TEST(SetAssocCache, ReinsertRefreshesWithoutEviction)
{
    SetAssocCache c(128, 2); // one set, two ways
    c.insert(0, 1);
    c.insert(64 * c.numSets(), 2);
    auto evicted = c.insert(0, 7); // already resident
    EXPECT_FALSE(evicted.has_value());
    EXPECT_EQ(c.lookup(0)->flags, 7);
    EXPECT_EQ(c.validLines(), 2u);
}

TEST(SetAssocCache, ResetClearsEverything)
{
    SetAssocCache c(512, 4);
    for (Addr a = 0; a < 512; a += blockBytes)
        c.insert(a, 0);
    EXPECT_GT(c.validLines(), 0u);
    c.reset();
    EXPECT_EQ(c.validLines(), 0u);
    EXPECT_FALSE(c.contains(0));
}

/** Property: most-recently-used line is never the victim. */
TEST(SetAssocCache, MruNeverEvicted)
{
    SetAssocCache c(512, 4); // 8 blocks, 2 sets
    unsigned stride = c.numSets() * blockBytes;
    Addr mru = 0;
    c.insert(mru, 0);
    for (unsigned i = 1; i < 32; ++i) {
        c.lookup(mru); // keep hot
        auto evicted = c.insert(static_cast<Addr>(i) * stride, 0);
        if (evicted) {
            EXPECT_NE(evicted->addr, mru);
        }
    }
    EXPECT_TRUE(c.contains(mru));
}

} // namespace
} // namespace mtp
