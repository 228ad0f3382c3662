#include <gtest/gtest.h>

#include "core/sw_prefetch.hh"
#include "tests/test_helpers.hh"

namespace mtp {
namespace {

unsigned
countOps(const KernelDesc &k, Opcode op)
{
    unsigned n = 0;
    for (const auto &seg : k.segments)
        for (const auto &inst : seg.insts)
            n += inst.op == op ? 1 : 0;
    return n;
}

TEST(SwPrefetch, StrideInsertsOnePrefetchPerLoopLoad)
{
    KernelDesc k = test::tinyStreamKernel(2, 4, 4, /*loads=*/2);
    k.swpOpts.strideDistance = 1;
    KernelDesc out = applyStridePrefetch(k);
    EXPECT_EQ(countOps(out, Opcode::Prefetch), 2u);
    EXPECT_EQ(countOps(out, Opcode::Load), 2u);
    EXPECT_TRUE(out.finalized());
    EXPECT_NE(out.name.find("+swp_stride"), std::string::npos);
    // The prefetch targets the access `distance` iterations ahead.
    const auto &loop = out.segments[0];
    const StaticInst *pref = nullptr;
    const StaticInst *load = nullptr;
    for (const auto &inst : loop.insts) {
        if (inst.op == Opcode::Prefetch && !pref)
            pref = &inst;
        if (inst.op == Opcode::Load && !load)
            load = &inst;
    }
    ASSERT_NE(pref, nullptr);
    ASSERT_NE(load, nullptr);
    EXPECT_EQ(pref->pattern.laneAddr(0, 0), load->pattern.laneAddr(0, 1));
}

TEST(SwPrefetch, StrideSkipsStraightLineCode)
{
    KernelDesc k = test::tinyMpKernel();
    KernelDesc out = applyStridePrefetch(k);
    // No loops, so no insertion points (Fig. 3).
    EXPECT_EQ(countOps(out, Opcode::Prefetch), 0u);
}

TEST(SwPrefetch, IpTargetsWarpsAhead)
{
    KernelDesc k = test::tinyMpKernel();
    k.swpOpts.ipDistanceWarps = 2;
    KernelDesc out = applyInterThreadPrefetch(k);
    ASSERT_EQ(countOps(out, Opcode::Prefetch), 1u);
    const StaticInst *pref = nullptr;
    const StaticInst *load = nullptr;
    for (const auto &inst : out.segments[0].insts) {
        if (inst.op == Opcode::Prefetch)
            pref = &inst;
        if (inst.op == Opcode::Load)
            load = &inst;
    }
    ASSERT_NE(pref, nullptr);
    // Thread tid prefetches the address of tid + 2*32 (Fig. 4).
    EXPECT_EQ(pref->pattern.laneAddr(0, 0),
              load->pattern.laneAddr(2 * warpSize, 0));
}

TEST(SwPrefetch, IpPrecedesItsLoad)
{
    KernelDesc k = test::tinyMpKernel();
    KernelDesc out = applyInterThreadPrefetch(k);
    const auto &insts = out.segments[0].insts;
    int pref_idx = -1, load_idx = -1;
    for (std::size_t i = 0; i < insts.size(); ++i) {
        if (insts[i].op == Opcode::Prefetch)
            pref_idx = static_cast<int>(i);
        if (insts[i].op == Opcode::Load && load_idx < 0)
            load_idx = static_cast<int>(i);
    }
    ASSERT_GE(pref_idx, 0);
    EXPECT_EQ(pref_idx + 1, load_idx);
}

TEST(SwPrefetch, RegisterPrefetchPipelinesLoopLoads)
{
    KernelDesc k = test::tinyStreamKernel(2, 4, 4, 1);
    k.swpOpts.registerBlocksLost = 1;
    KernelDesc out = applyRegisterPrefetch(k);
    // Loads become binding one-iteration-ahead prefetches...
    unsigned relaxed = 0;
    for (const auto &seg : out.segments)
        for (const auto &inst : seg.insts)
            relaxed += inst.regPrefetch ? 1 : 0;
    EXPECT_EQ(relaxed, 1u);
    // ...at the cost of extra address math and occupancy.
    EXPECT_GT(out.warpInstsPerWarp(), k.warpInstsPerWarp());
    EXPECT_EQ(out.maxBlocksPerCore, k.maxBlocksPerCore - 1);
    EXPECT_EQ(countOps(out, Opcode::Prefetch), 0u);
}

TEST(SwPrefetch, RegisterPrefetchNeverDropsOccupancyToZero)
{
    KernelDesc k = test::tinyStreamKernel();
    k.maxBlocksPerCore = 1;
    k.swpOpts.registerBlocksLost = 3;
    KernelDesc out = applyRegisterPrefetch(k);
    EXPECT_EQ(out.maxBlocksPerCore, 1u);
}

TEST(SwPrefetch, CombinedCoversEachLoadOnce)
{
    // A kernel with one loop load and one straight-line load.
    KernelDesc k = test::tinyStreamKernel(2, 4, 4, 1);
    Segment tail;
    AddressPattern p;
    p.base = 0x7000'0000ULL;
    p.threadStride = 4;
    tail.insts.push_back(StaticInst::load(p, 1));
    k.segments.push_back(tail);
    k.finalize();

    KernelDesc out = applySwPrefetch(k, SwPrefKind::StrideIP);
    // One stride prefetch (loop load) + one IP prefetch (tail load).
    EXPECT_EQ(countOps(out, Opcode::Prefetch), 2u);
}

TEST(SwPrefetch, NonPrefetchableLoadsAreSkipped)
{
    KernelDesc k = test::tinyMpKernel();
    for (auto &seg : k.segments)
        for (auto &inst : seg.insts)
            if (inst.op == Opcode::Load)
                inst.swPrefetchable = false;
    k.finalize();
    KernelDesc out = applyInterThreadPrefetch(k);
    EXPECT_EQ(countOps(out, Opcode::Prefetch), 0u);
}

TEST(SwPrefetch, NoneVariantIsIdentity)
{
    KernelDesc k = test::tinyStreamKernel();
    KernelDesc out = applySwPrefetch(k, SwPrefKind::None);
    EXPECT_EQ(out.warpInstsPerWarp(), k.warpInstsPerWarp());
    EXPECT_EQ(countOps(out, Opcode::Prefetch), 0u);
}

} // namespace
} // namespace mtp
