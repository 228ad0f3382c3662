#include <gtest/gtest.h>

#include "sim/gpu.hh"
#include "tests/test_helpers.hh"

namespace mtp {
namespace {

TEST(Core, BranchStallsDecodePipeline)
{
    // The same kernel with branches instead of plain ALU ops must take
    // longer (5-cycle stall on branch, Table II).
    SimConfig cfg = test::tinyConfig();
    cfg.perfectMemory = true;

    KernelDesc plain = test::tinyComputeKernel(1, 2, 8);

    KernelDesc branchy;
    branchy.name = "branchy";
    branchy.warpsPerBlock = 1;
    branchy.numBlocks = 2;
    branchy.maxBlocksPerCore = 2;
    Segment s;
    for (int i = 0; i < 8; ++i)
        s.insts.push_back(StaticInst::branch());
    branchy.segments.push_back(s);
    branchy.finalize();

    EXPECT_GT(simulate(cfg, branchy).cycles,
              simulate(cfg, plain).cycles);
}

TEST(Core, LongLatencyOpcodesOccupyLonger)
{
    SimConfig cfg = test::tinyConfig();
    cfg.perfectMemory = true;

    auto mk = [](Opcode op) {
        KernelDesc k;
        k.name = "ops";
        k.warpsPerBlock = 2;
        k.numBlocks = 2;
        k.maxBlocksPerCore = 1;
        Segment s;
        for (int i = 0; i < 16; ++i) {
            StaticInst inst;
            inst.op = op;
            s.insts.push_back(inst);
        }
        k.segments.push_back(s);
        k.finalize();
        return k;
    };

    Cycle comp = simulate(cfg, mk(Opcode::Comp)).cycles;
    Cycle imul = simulate(cfg, mk(Opcode::Imul)).cycles;
    Cycle fdiv = simulate(cfg, mk(Opcode::Fdiv)).cycles;
    EXPECT_GT(imul, comp);
    EXPECT_GT(fdiv, imul);
    // Occupancy ratios roughly 4 : 16 : 32.
    EXPECT_NEAR(static_cast<double>(imul) / comp, 4.0, 1.0);
}

TEST(Core, ChainedLoadsSerializeLatency)
{
    // Two chained loads must roughly double the single-load runtime of
    // a single-warp kernel (per-warp MLP 1).
    SimConfig cfg = test::tinyConfig();

    auto mk = [](bool chain) {
        KernelDesc k;
        k.name = "chain";
        k.warpsPerBlock = 1;
        k.numBlocks = 2;
        k.maxBlocksPerCore = 1;
        Segment s;
        AddressPattern a;
        a.base = 0x1000'0000ULL;
        a.threadStride = 4;
        AddressPattern b = a;
        b.base = 0x2000'0000ULL;
        s.insts.push_back(StaticInst::load(a, 0));
        StaticInst second = StaticInst::load(b, 1);
        if (chain)
            second.srcSlots = {0, -1};
        s.insts.push_back(second);
        s.insts.push_back(StaticInst::compUse(0, 1, 1));
        k.segments.push_back(s);
        k.finalize();
        return k;
    };

    Cycle parallel = simulate(cfg, mk(false)).cycles;
    Cycle chained = simulate(cfg, mk(true)).cycles;
    EXPECT_GT(chained, parallel + 100);
}

TEST(Core, UncoalescedLoadsSerializeThroughLsu)
{
    SimConfig cfg = test::tinyConfig();

    auto mk = [](Stride lane_stride) {
        KernelDesc k = test::tinyMpKernel(2, 4);
        for (auto &seg : k.segments)
            for (auto &inst : seg.insts)
                if (inst.op == Opcode::Load)
                    inst.pattern.threadStride = lane_stride;
        k.finalize();
        return k;
    };

    Cycle coalesced = simulate(cfg, mk(4)).cycles;
    Cycle uncoalesced = simulate(cfg, mk(2112)).cycles;
    EXPECT_GT(uncoalesced, coalesced);
}

TEST(Core, HwPrefetcherFillsPrefetchCache)
{
    SimConfig cfg = test::tinyConfig();
    cfg.hwPref = HwPrefKind::StridePC;
    RunResult r = simulate(cfg, test::tinyStreamKernel(2, 8, 12, 1));
    EXPECT_GT(r.prefFills, 0u);
    EXPECT_GT(r.prefUseful, 0u);
    EXPECT_GT(r.prefCoverage(), 0.0);
}

TEST(Core, SwPrefetchInstructionsIssueRequests)
{
    SimConfig cfg = test::tinyConfig();
    KernelDesc k = test::tinyStreamKernel(2, 8, 12, 1);
    RunResult r = simulate(cfg, applyStridePrefetch(k));
    EXPECT_GT(r.prefFills, 0u);
    double issued = r.stats.sumMatching("core", ".swPrefIssued");
    EXPECT_GT(issued, 0.0);
}

TEST(Core, ThrottleDegreeFiveStopsPrefetchFlow)
{
    SimConfig cfg = test::tinyConfig();
    cfg.hwPref = HwPrefKind::StridePC;
    cfg.throttleEnable = true;
    cfg.throttleInitDegree = 5;
    cfg.throttlePeriod = 1'000'000; // never updates during the run
    RunResult r = simulate(cfg, test::tinyStreamKernel(2, 8, 12, 1));
    EXPECT_EQ(r.prefFills, 0u);
    double dropped =
        r.stats.sumMatching("core", ".hwPrefDroppedThrottle");
    EXPECT_GT(dropped, 0.0);
}

TEST(Core, PrefetchCacheHitsSkipMemory)
{
    // Re-loading the same addresses after a prefetcher warmed the
    // cache produces prefetch-cache hit transactions.
    SimConfig cfg = test::tinyConfig();
    cfg.hwPref = HwPrefKind::StridePC;
    RunResult r = simulate(cfg, test::tinyStreamKernel(2, 8, 16, 1));
    EXPECT_GT(r.prefCacheHits, 0u);
    // Covered demands do not appear as memory transactions.
    EXPECT_LT(r.demandTxns + r.prefCacheHits,
              2 * r.demandTxns + 1000000u);
}

TEST(Core, LatenessThrottleRampsUnderLatePrefetches)
{
    SimConfig cfg = test::tinyConfig();
    cfg.hwPref = HwPrefKind::StridePC;
    cfg.stridePcLateThrottle = true;
    cfg.throttlePeriod = 1000;
    // Many warps + tiny iteration bodies: distance-1 prefetches late.
    RunResult r = simulate(cfg, test::tinyStreamKernel(4, 16, 16, 2));
    double dropped =
        r.stats.sumMatching("core", ".hwPrefDroppedThrottle");
    EXPECT_GE(dropped, 0.0); // engine exercised without crashing
}

} // namespace
} // namespace mtp
