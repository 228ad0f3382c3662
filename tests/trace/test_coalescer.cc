#include <gtest/gtest.h>

#include <set>

#include "trace/coalescer.hh"

namespace mtp {
namespace {

AddressPattern
pattern(Addr base, Stride thread_stride, unsigned elem = 4)
{
    AddressPattern p;
    p.base = base;
    p.threadStride = thread_stride;
    p.elemBytes = elem;
    return p;
}

TEST(Coalescer, FullyCoalescedAccessIsTwoBlocks)
{
    // 32 lanes x 4 B = 128 B starting block-aligned: exactly 2 blocks.
    std::vector<MemTxn> txns;
    coalesceWarpAccess(pattern(0x10000, 4), 0, 0, txns);
    ASSERT_EQ(txns.size(), 2u);
    EXPECT_EQ(txns[0].addr, 0x10000u);
    EXPECT_EQ(txns[1].addr, 0x10040u);
    EXPECT_EQ(txns[0].bytes, blockBytes); // dense
    EXPECT_EQ(txns[1].bytes, blockBytes);
}

TEST(Coalescer, HalfWordAccessIsOneBlock)
{
    std::vector<MemTxn> txns;
    coalesceWarpAccess(pattern(0x10000, 2, 2), 0, 0, txns);
    ASSERT_EQ(txns.size(), 1u);
    EXPECT_EQ(txns[0].bytes, blockBytes);
}

TEST(Coalescer, FullyUncoalescedAccessIs32SparseTxns)
{
    std::vector<MemTxn> txns;
    coalesceWarpAccess(pattern(0x20000, 2112), 0, 0, txns);
    EXPECT_EQ(txns.size(), 32u);
    std::set<Addr> unique;
    for (const auto &t : txns) {
        EXPECT_EQ(t.addr, blockAlign(t.addr));
        EXPECT_EQ(t.bytes, minTxnBytes); // sparse: one 4 B lane
        unique.insert(t.addr);
    }
    EXPECT_EQ(unique.size(), 32u);
}

TEST(Coalescer, PartiallyCoalescedTxnSizes)
{
    // 16 B lane stride: 4 lanes per block touch 16 B -> sparse 32 B.
    std::vector<MemTxn> txns;
    coalesceWarpAccess(pattern(0x30000, 16), 0, 0, txns);
    EXPECT_EQ(txns.size(), 8u);
    for (const auto &t : txns)
        EXPECT_EQ(t.bytes, minTxnBytes);

    // 8 B lane stride: 8 lanes per block touch 32 B -> still 32 B.
    coalesceWarpAccess(pattern(0x30000, 8), 0, 0, txns);
    EXPECT_EQ(txns.size(), 4u);
    for (const auto &t : txns)
        EXPECT_EQ(t.bytes, minTxnBytes);
}

TEST(Coalescer, StraddlingElementTouchesBothBlocks)
{
    // Every lane sits 2 B before a block boundary (offset 62 with a
    // 4 KB lane stride), so each 4 B element straddles two blocks.
    AddressPattern p = pattern(0x1003E, 4096);
    std::vector<MemTxn> txns;
    coalesceWarpAccess(p, 0, 0, txns);
    EXPECT_EQ(txns.size(), 64u);
    EXPECT_EQ(txns[0].addr, 0x10000u);
    EXPECT_EQ(txns[1].addr, 0x10040u);

    // Contiguous 8 B lanes from 4 B before a boundary: the first block
    // gets 4 B (sparse), the last 60 B (dense), three full ones between.
    coalesceWarpAccess(pattern(0x1003C, 8, 8), 0, 0, txns);
    ASSERT_EQ(txns.size(), 5u);
    for (std::size_t i = 0; i < txns.size(); ++i) {
        EXPECT_EQ(txns[i].addr, 0x10000u + i * blockBytes);
        EXPECT_EQ(txns[i].bytes, i == 0 ? minTxnBytes : blockBytes);
    }
}

TEST(Coalescer, DuplicateBlocksMergeIntoOneTransaction)
{
    // All 32 lanes in the same block (stride 0): one transaction. The
    // per-lane byte accounting is conservative (it accumulates), so
    // the merged transaction fetches the whole block.
    std::vector<MemTxn> txns;
    coalesceWarpAccess(pattern(0x40000, 0), 0, 0, txns);
    ASSERT_EQ(txns.size(), 1u);
    EXPECT_EQ(txns[0].bytes, blockBytes);
}

TEST(Coalescer, CountMatchesMaterialized)
{
    AddressPattern p = pattern(0x50000, 48);
    std::vector<MemTxn> txns;
    coalesceWarpAccess(p, 5, 2, txns);
    EXPECT_EQ(countWarpTransactions(p, 5, 2), txns.size());
}

TEST(Coalescer, LaneZeroTidOffsetsAddresses)
{
    AddressPattern p = pattern(0, 4);
    std::vector<MemTxn> a, b;
    coalesceWarpAccess(p, 0, 0, a);
    coalesceWarpAccess(p, warpSize, 0, b);
    EXPECT_EQ(b[0].addr, a[0].addr + warpSize * 4);
}

} // namespace
} // namespace mtp
