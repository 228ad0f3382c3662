#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sim/gpu.hh"
#include "tests/test_helpers.hh"

namespace mtp {
namespace {

TEST(Gpu, ComputeOnlyKernelCpiNearIssueFloor)
{
    // With no memory instructions, CPI approaches the 4-cycle SIMD
    // occupancy of a 32-thread warp on 8-wide units (Table III PMEM).
    SimConfig cfg = test::tinyConfig();
    RunResult r = simulate(cfg, test::tinyComputeKernel(2, 8, 64));
    EXPECT_GT(r.cpi, 3.9);
    EXPECT_LT(r.cpi, 5.0);
    EXPECT_EQ(r.warpInsts, 8u * 2 * 64);
}

TEST(Gpu, PerfectMemoryMatchesComputeBound)
{
    SimConfig cfg = test::tinyConfig();
    cfg.perfectMemory = true;
    RunResult r = simulate(cfg, test::tinyStreamKernel(2, 8, 8, 2));
    EXPECT_LT(r.cpi, 6.0);
    EXPECT_EQ(r.prefFills, 0u);
    EXPECT_EQ(r.demandTxns, 0u); // no memory traffic at all
}

TEST(Gpu, RealMemorySlowerThanPerfect)
{
    SimConfig cfg = test::tinyConfig();
    KernelDesc k = test::tinyStreamKernel(2, 8, 8, 2);
    RunResult real = simulate(cfg, k);
    SimConfig pcfg = cfg;
    pcfg.perfectMemory = true;
    RunResult perfect = simulate(pcfg, k);
    EXPECT_GT(real.cycles, perfect.cycles);
    EXPECT_GT(real.avgDemandLatency, 2.0 * cfg.icntLatency);
}

TEST(Gpu, AllWarpsAndBlocksComplete)
{
    SimConfig cfg = test::tinyConfig();
    Gpu gpu(cfg, test::tinyMpKernel(2, 10));
    RunResult r = gpu.run();
    double blocks = r.stats.sumMatching("core", ".blocksCompleted");
    double warps = r.stats.sumMatching("core", ".warpsCompleted");
    EXPECT_DOUBLE_EQ(blocks, 10.0);
    EXPECT_DOUBLE_EQ(warps, 20.0);
    EXPECT_TRUE(gpu.done());
}

TEST(Gpu, DeterministicAcrossRuns)
{
    SimConfig cfg = test::tinyConfig();
    cfg.hwPref = HwPrefKind::MTHWP;
    cfg.throttleEnable = true;
    KernelDesc k = test::tinyStreamKernel(2, 12, 6, 2);
    RunResult a = simulate(cfg, k);
    RunResult b = simulate(cfg, k);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.warpInsts, b.warpInsts);
    EXPECT_EQ(a.prefFills, b.prefFills);
    EXPECT_EQ(a.dramBytes, b.dramBytes);
}

TEST(Gpu, ContiguousBlockPartitioning)
{
    // With 2 cores and 10 blocks, each core runs 5 consecutive blocks;
    // both cores make progress from cycle 0.
    SimConfig cfg = test::tinyConfig();
    Gpu gpu(cfg, test::tinyMpKernel(2, 10));
    for (int i = 0; i < 50; ++i)
        gpu.step();
    EXPECT_GT(gpu.core(0).activeWarps(), 0u);
    EXPECT_GT(gpu.core(1).activeWarps(), 0u);
}

TEST(Gpu, OccupancyLimitRespected)
{
    SimConfig cfg = test::tinyConfig();
    KernelDesc k = test::tinyMpKernel(2, 64);
    k.maxBlocksPerCore = 2;
    Gpu gpu(cfg, k);
    for (int i = 0; i < 200; ++i) {
        gpu.step();
        EXPECT_LE(gpu.core(0).activeWarps(), 2u * k.warpsPerBlock);
        EXPECT_LE(gpu.core(0).maxActiveWarps(), 2u * k.warpsPerBlock);
    }
}

TEST(Gpu, RoundRobinDispatchAblationConservesWork)
{
    SimConfig cfg = test::tinyConfig();
    cfg.dispatchContiguous = false;
    KernelDesc k = test::tinyMpKernel(2, 10);
    RunResult r = simulate(cfg, k);
    EXPECT_EQ(r.warpInsts, k.warpInstsPerWarp() * k.totalWarps());
    double blocks = r.stats.sumMatching("core", ".blocksCompleted");
    EXPECT_DOUBLE_EQ(blocks, 10.0);
    EXPECT_EQ(simulate(cfg, k).cycles, r.cycles); // still deterministic
}

TEST(Gpu, RoundRobinSchedulingAblationConservesWork)
{
    SimConfig cfg = test::tinyConfig();
    cfg.schedGreedy = false;
    KernelDesc k = test::tinyStreamKernel(2, 8, 6, 2);
    RunResult r = simulate(cfg, k);
    EXPECT_EQ(r.warpInsts, k.warpInstsPerWarp() * k.totalWarps());
    EXPECT_EQ(simulate(cfg, k).cycles, r.cycles);
}

TEST(Gpu, MoreCoresRunFaster)
{
    KernelDesc k = test::tinyMpKernel(2, 32);
    SimConfig two = test::tinyConfig();
    SimConfig four = test::tinyConfig();
    four.numCores = 4;
    EXPECT_LT(simulate(four, k).cycles, simulate(two, k).cycles);
}

TEST(Gpu, StatsContainCoreAndMemoryHierarchy)
{
    SimConfig cfg = test::tinyConfig();
    RunResult r = simulate(cfg, test::tinyMpKernel());
    EXPECT_TRUE(r.stats.has("sim.cycles"));
    EXPECT_TRUE(r.stats.has("sim.cpi"));
    EXPECT_TRUE(r.stats.has("core0.warpInsts"));
    EXPECT_TRUE(r.stats.has("core1.mshr.totalRequests"));
    EXPECT_TRUE(r.stats.has("mem.dram0.reads"));
    EXPECT_TRUE(r.stats.has("mem.dramBytes"));
    // The latency histogram agrees with the scalar counters.
    double hist_count = r.stats.sumMatching("core",
                                            ".demandLatency.count");
    double demand_count = r.stats.sumMatching("core", ".demandTxns");
    EXPECT_GT(hist_count, 0.0);
    EXPECT_LE(hist_count, demand_count);
    EXPECT_GT(r.stats.get("core0.demandLatency.mean"), 0.0);
}

/**
 * StatSet appends without looking for the name, so an exporter that
 * added a name twice would write a second row into every dump. Every
 * prefetcher with its option, the throttle, MT-SWP and two machine
 * shapes export each name once, across `stats` and `sched` together
 * (mtp-sim dumps them as one set).
 */
TEST(Gpu, StatNamesAreUnique)
{
    KernelDesc k = test::tinyStreamKernel(2, 6, 2, 2);
    std::vector<std::pair<SimConfig, KernelDesc>> runs;
    for (HwPrefKind kind :
         {HwPrefKind::None, HwPrefKind::StrideRPT, HwPrefKind::StridePC,
          HwPrefKind::Stream, HwPrefKind::GHB, HwPrefKind::MTHWP})
        for (bool throttle : {false, true})
            for (unsigned cores : {14u, 20u}) {
                SimConfig cfg;
                cfg.numCores = cores;
                cfg.hwPref = kind;
                cfg.throttleEnable = throttle;
                cfg.ghbFeedback = kind == HwPrefKind::GHB;
                cfg.stridePcLateThrottle = kind == HwPrefKind::StridePC;
                runs.emplace_back(cfg, k);
            }
    SimConfig swp;
    swp.throttleEnable = true;
    runs.emplace_back(swp, applySwPrefetch(k, SwPrefKind::StrideIP));

    for (const auto &[cfg, kernel] : runs) {
        RunResult r = simulate(cfg, kernel);
        ASSERT_GT(r.stats.size(), 0u);
        std::set<std::string> seen;
        for (const StatSet *set : {&r.stats, &r.sched})
            for (const auto &e : set->entries())
                EXPECT_TRUE(seen.insert(e.name).second)
                    << e.name << " repeated: " << kernel.name << " hw="
                    << toString(cfg.hwPref)
                    << " throttle=" << cfg.throttleEnable
                    << " cores=" << cfg.numCores;
    }
}

TEST(RunResult, DerivedMetrics)
{
    RunResult r;
    r.prefFills = 100;
    r.prefUseful = 60;
    r.prefEarlyEvicted = 20;
    r.prefLate = 10;
    r.prefCacheHits = 50;
    r.demandTxns = 150;
    EXPECT_DOUBLE_EQ(r.accuracy(), 0.6);
    EXPECT_DOUBLE_EQ(r.earlyRatio(), 0.2);
    EXPECT_DOUBLE_EQ(r.lateRatio(), 0.1);
    EXPECT_DOUBLE_EQ(r.prefCoverage(), 0.25);
}

} // namespace
} // namespace mtp
