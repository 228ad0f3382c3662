/**
 * @file
 * Golden-equivalence suite for event-driven cycle skipping: the two
 * scheduler modes — the naive cycle-by-cycle oracle (fastForward =
 * false) and the event-queue schedule (fastForward = true, the
 * default) — must be bit-identical in every RunResult field and the
 * full statistics dump, across kernels, prefetcher configurations,
 * throttling, the scheduler/dispatch ablations and MSHR/MRQ budgets
 * tight enough to block the LSU. Also
 * regression-tests the O(1) done() counters against the exhaustive
 * scan at every step.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/sw_prefetch.hh"
#include "driver/run_cache.hh"
#include "sim/cycle_accounting.hh"
#include "sim/gpu.hh"
#include "tests/test_helpers.hh"

namespace mtp {
namespace {

std::string
dumpStats(const RunResult &r)
{
    std::ostringstream os;
    r.stats.dumpText(os);
    return os.str();
}

void
expectBitIdentical(const RunResult &fast, const RunResult &naive,
                   const std::string &label)
{
    EXPECT_EQ(fast.cycles, naive.cycles) << label;
    EXPECT_EQ(fast.warpInsts, naive.warpInsts) << label;
    EXPECT_EQ(fast.dramBytes, naive.dramBytes) << label;
    EXPECT_EQ(fast.prefFills, naive.prefFills) << label;
    EXPECT_EQ(fast.prefUseful, naive.prefUseful) << label;
    EXPECT_EQ(fast.prefEarlyEvicted, naive.prefEarlyEvicted) << label;
    EXPECT_EQ(fast.prefLate, naive.prefLate) << label;
    EXPECT_EQ(fast.prefCacheHits, naive.prefCacheHits) << label;
    EXPECT_EQ(fast.demandTxns, naive.demandTxns) << label;
    EXPECT_DOUBLE_EQ(fast.cpi, naive.cpi) << label;
    EXPECT_DOUBLE_EQ(fast.avgDemandLatency, naive.avgDemandLatency)
        << label;
    EXPECT_DOUBLE_EQ(fast.avgPrefetchLatency, naive.avgPrefetchLatency)
        << label;
    EXPECT_DOUBLE_EQ(fast.avgActiveWarps, naive.avgActiveWarps) << label;
    // The strongest check: the entire hierarchical stat dump — every
    // counter of every core, channel and prefetch structure — must
    // match byte for byte.
    EXPECT_EQ(dumpStats(fast), dumpStats(naive)) << label;

    // The scheduler counters (RunResult::sched) differ between the
    // loops by design but obey each loop's identities: every cycle is
    // stepped or skipped, the naive loop steps every cycle and ticks
    // every core, and the queued loop's elided core ticks fill the
    // rest of its stepped cycles' core slots.
    auto sched = [](const RunResult &r, const char *name) {
        return r.sched.get(std::string("sim.sched.") + name);
    };
    const double cores = naive.stats.get("sim.numCores");
    for (const RunResult *r : {&fast, &naive})
        EXPECT_EQ(sched(*r, "cyclesStepped") + sched(*r, "cyclesSkipped"),
                  static_cast<double>(r->cycles))
            << label;
    EXPECT_EQ(sched(naive, "cyclesSkipped"), 0.0) << label;
    EXPECT_EQ(sched(naive, "skipSuccesses"), 0.0) << label;
    EXPECT_EQ(sched(naive, "coreTicks"),
              static_cast<double>(naive.cycles) * cores)
        << label;
    EXPECT_EQ(sched(fast, "coreTicks") + sched(fast, "coreTicksElided"),
              sched(fast, "cyclesStepped") * cores)
        << label;
    EXPECT_LE(sched(fast, "skipSuccesses"), sched(fast, "cyclesStepped"))
        << label;
}

/**
 * Every core loads the same two blocks per trip, so requests of
 * different cores meet in the DRAM request buffer and merge there.
 */
KernelDesc
sharedBlocksKernel()
{
    KernelDesc k;
    k.name = "shared_blocks";
    k.warpsPerBlock = 2;
    k.numBlocks = 8;
    k.maxBlocksPerCore = 1;
    Segment loop;
    loop.trips = 16;
    for (int slot = 0; slot < 2; ++slot) {
        AddressPattern p;
        p.base = 0x5000'0000ULL + (static_cast<Addr>(slot) << 20);
        p.threadStride = 0;
        p.iterStride = blockBytes;
        loop.insts.push_back(StaticInst::load(p, slot));
    }
    loop.insts.push_back(StaticInst::compUse(0, 1, 1));
    loop.insts.push_back(StaticInst::branch());
    k.segments.push_back(loop);
    k.finalize();
    return k;
}

std::vector<std::pair<std::string, KernelDesc>>
goldenKernels()
{
    std::vector<std::pair<std::string, KernelDesc>> kernels;
    kernels.emplace_back("stream", test::tinyStreamKernel(2, 4, 4, 1));
    kernels.emplace_back("stream2", test::tinyStreamKernel(2, 4, 4, 2));
    kernels.emplace_back("mp", test::tinyMpKernel(2, 8));
    kernels.emplace_back("compute", test::tinyComputeKernel());
    kernels.emplace_back(
        "swpref_stride",
        applySwPrefetch(test::tinyStreamKernel(2, 4, 6, 1),
                        SwPrefKind::Stride));
    kernels.emplace_back(
        "swpref_mtswp",
        applySwPrefetch(test::tinyStreamKernel(2, 4, 6, 1),
                        SwPrefKind::StrideIP));
    kernels.emplace_back("shared_blocks", sharedBlocksKernel());
    return kernels;
}

/**
 * Configs whose tight MSHR or MRQ blocks the LSU for long stretches,
 * so the matrix covers the queued loop parking a blocked LSU.
 */
std::vector<std::pair<std::string, SimConfig>>
blockingConfigs()
{
    std::vector<std::pair<std::string, SimConfig>> configs;

    SimConfig mshr = test::tinyConfig();
    mshr.mshrEntries = 2;
    configs.emplace_back("mshr2", mshr);

    SimConfig mrq = test::tinyConfig();
    mrq.mrqEntries = 1;
    mrq.memBufEntries = 2;
    mrq.hwPref = HwPrefKind::MTHWP;
    mrq.throttleEnable = true;
    mrq.throttlePeriod = 500;
    configs.emplace_back("mrq1_mthwp_throttle", mrq);

    return configs;
}

std::vector<std::pair<std::string, SimConfig>>
goldenConfigs()
{
    std::vector<std::pair<std::string, SimConfig>> configs;

    configs.emplace_back("baseline", test::tinyConfig());

    SimConfig mthwp = test::tinyConfig();
    mthwp.hwPref = HwPrefKind::MTHWP;
    configs.emplace_back("mthwp", mthwp);

    SimConfig throttled = test::tinyConfig();
    throttled.hwPref = HwPrefKind::MTHWP;
    throttled.throttleEnable = true;
    throttled.throttlePeriod = 500;
    configs.emplace_back("mthwp_throttle", throttled);

    SimConfig late = test::tinyConfig();
    late.hwPref = HwPrefKind::StridePC;
    late.stridePcLateThrottle = true;
    late.throttlePeriod = 500;
    configs.emplace_back("stridepc_late", late);

    SimConfig ghb = test::tinyConfig();
    ghb.hwPref = HwPrefKind::GHB;
    ghb.ghbFeedback = true;
    ghb.throttlePeriod = 500;
    configs.emplace_back("ghb_feedback", ghb);

    SimConfig ablation = test::tinyConfig();
    ablation.schedGreedy = false;
    ablation.dispatchContiguous = false;
    configs.emplace_back("rr_sched_dispatch", ablation);

    SimConfig perfect = test::tinyConfig();
    perfect.perfectMemory = true;
    configs.emplace_back("perfect_memory", perfect);

    // Four cores on a two-entry controller buffer: MRQ heads wait on
    // channel credit, and shared blocks merge in the buffer.
    SimConfig credit = test::tinyConfig();
    credit.numCores = 4;
    credit.mrqEntries = 2;
    credit.memBufEntries = 2;
    configs.emplace_back("cores4_buf2", credit);

    for (auto &entry : blockingConfigs())
        configs.push_back(std::move(entry));
    return configs;
}

/** Sum of stat `<prefix><core>.<suffix>` over @p r's cores. */
double
sumOverCores(const RunResult &r, const std::string &prefix,
             const std::string &suffix)
{
    double sum = 0.0;
    for (unsigned c = 0; c < r.stats.get("sim.numCores"); ++c)
        sum += r.stats.get(prefix + std::to_string(c) + "." + suffix);
    return sum;
}

/**
 * The full golden matrix: every kernel under every configuration must
 * produce byte-identical results in both scheduler modes — the naive
 * oracle and the event-queue schedule. The matrix must also reach
 * every way the LSU blocks: a load on a full MSHR, a load on a full
 * MRQ and a store on a full MRQ; and an MRQ head held back by channel
 * credit, whose repeated injection passes the queued loop books from
 * its cached pass, in a run where requests also merge in the DRAM
 * request buffer (a merge frees a credit).
 */
TEST(FastForwardGolden, MatrixIdentical)
{
    double mshrFull = 0.0, mrqGated = 0.0, mrqFull = 0.0, credit = 0.0;
    bool mergeUnderCredit = false;
    for (const auto &[cname, cfg] : goldenConfigs()) {
        for (const auto &[kname, kernel] : goldenKernels()) {
            SimConfig naive = cfg;
            naive.fastForward = false;
            SimConfig queued = cfg;
            queued.fastForward = true;
            RunResult oracle = simulate(naive, kernel);
            expectBitIdentical(simulate(queued, kernel), oracle,
                               cname + "/" + kname);
            mshrFull += sumOverCores(oracle, "core", "mshr.fullStalls");
            mrqGated += sumOverCores(oracle, "mem.core", "mrq.gatedStalls");
            mrqFull += sumOverCores(oracle, "mem.core", "mrq.fullStalls");
            const double stalls = oracle.stats.get("mem.injCreditStalls");
            double merges = 0.0;
            for (unsigned ch = 0; ch < cfg.dramChannels; ++ch)
                merges += oracle.stats.get("mem.dram" + std::to_string(ch) +
                                           ".interCoreMerges");
            credit += stalls;
            mergeUnderCredit = mergeUnderCredit || (stalls > 0 && merges > 0);
        }
    }
    EXPECT_GT(mshrFull, 0.0) << "no load blocked on a full MSHR";
    EXPECT_GT(mrqGated, 0.0) << "no load blocked on a full MRQ";
    EXPECT_GT(mrqFull, 0.0) << "no store blocked on a full MRQ";
    EXPECT_GT(credit, 0.0) << "no injection held back by channel credit";
    EXPECT_TRUE(mergeUnderCredit)
        << "no run both gates injection on credit and merges requests";
}

/**
 * A blocked LSU parks: the queued loop ticks a core stalled on a full
 * MSHR or MRQ when a completion or an MRQ pop can unblock it, not on
 * every cycle of the stall. Tick counts are exact, so the bound is
 * deterministic.
 */
TEST(FastForwardGolden, BlockedLsuParks)
{
    for (const auto &[cname, cfg] : blockingConfigs()) {
        double ticks = 0.0, coreCycles = 0.0;
        for (const auto &[kname, kernel] : goldenKernels()) {
            RunResult r = simulate(cfg, kernel);
            ticks += r.sched.get("sim.sched.coreTicks");
            coreCycles += static_cast<double>(r.cycles) * cfg.numCores;
        }
        EXPECT_LE(ticks, coreCycles / 4) << cname;
    }
}

/**
 * Cycle accounting across the matrix: the nine exclusive categories of
 * every core must sum to the elapsed cycles in every configuration
 * (MatrixIdentical already proves fast == naive byte-for-byte on the
 * same stats; this pins the accounting identity itself).
 */
TEST(FastForwardGolden, MatrixCycleAccountingComplete)
{
    for (const auto &[cname, cfg] : goldenConfigs()) {
        for (const auto &[kname, kernel] : goldenKernels()) {
            RunResult r = simulate(cfg, kernel);
            std::string label = cname + "/" + kname;
            for (unsigned c = 0; c < cfg.numCores; ++c) {
                std::string p = "core" + std::to_string(c) + ".cycles.";
                double sum = 0.0;
                for (unsigned k = 0; k < numCycleCats; ++k)
                    sum += r.stats.get(
                        p + cycleCatName(static_cast<CycleCat>(k)));
                EXPECT_DOUBLE_EQ(sum, static_cast<double>(r.cycles))
                    << label << ": core " << c;
                EXPECT_DOUBLE_EQ(r.stats.get(p + "total"),
                                 static_cast<double>(r.cycles))
                    << label << ": core " << c;
            }
        }
    }
}

/**
 * Throttle periods that are not multiples of the sampling window (128)
 * force skips to stop exactly at observable period boundaries; an
 * off-by-one there shifts every subsequent throttle decision.
 */
TEST(FastForwardGolden, ThrottlePeriodBoundaries)
{
    KernelDesc kernel = test::tinyStreamKernel(2, 6, 8, 2);
    for (Cycle period : {137u, 500u, 777u, 2000u}) {
        SimConfig cfg = test::tinyConfig();
        cfg.hwPref = HwPrefKind::MTHWP;
        cfg.throttleEnable = true;
        cfg.throttlePeriod = period;
        SimConfig naive = cfg;
        naive.fastForward = false;
        expectBitIdentical(simulate(cfg, kernel), simulate(naive, kernel),
                           "period=" + std::to_string(period));
    }
}

/**
 * The counter-based done() must agree with the exhaustive scan after
 * every single step of a naive run (the scan is the definition).
 */
TEST(DoneCounter, MatchesExhaustiveScanEveryStep)
{
    SimConfig cfg = test::tinyConfig();
    cfg.hwPref = HwPrefKind::MTHWP;
    Gpu gpu(cfg, test::tinyStreamKernel(2, 4, 4, 2));
    std::size_t steps = 0;
    while (!gpu.doneScan()) {
        EXPECT_EQ(gpu.done(), gpu.doneScan()) << "cycle " << gpu.now();
        gpu.step();
        ASSERT_LT(++steps, 1'000'000u) << "runaway simulation";
    }
    EXPECT_TRUE(gpu.done());
}

/** Same regression under the round-robin dispatch ablation. */
TEST(DoneCounter, MatchesExhaustiveScanRrDispatch)
{
    SimConfig cfg = test::tinyConfig();
    cfg.dispatchContiguous = false;
    cfg.schedGreedy = false;
    Gpu gpu(cfg, test::tinyMpKernel(2, 8));
    std::size_t steps = 0;
    while (!gpu.doneScan()) {
        EXPECT_EQ(gpu.done(), gpu.doneScan()) << "cycle " << gpu.now();
        gpu.step();
        ASSERT_LT(++steps, 1'000'000u) << "runaway simulation";
    }
    EXPECT_TRUE(gpu.done());
}

/**
 * fastForward feeds the config dump and hence the RunCache
 * fingerprint: oracle and queued runs must be distinct cache entries
 * that agree on results. Run under the parallel driver so the TSan
 * build exercises the scheduler counters across worker threads.
 */
TEST(FastForwardGolden, DriverMatrixUnderParallelExecutor)
{
    std::vector<KernelDesc> kernels = {
        test::tinyStreamKernel(2, 6, 4),
        test::tinyMpKernel(2, 8),
    };
    SimConfig queued = test::tinyConfig();
    queued.hwPref = HwPrefKind::MTHWP;
    SimConfig naive = queued;
    naive.fastForward = false;

    driver::ParallelExecutor exec(4);
    driver::RunCache cache(exec);
    for (const auto &k : kernels) {
        cache.submit(queued, k);
        cache.submit(naive, k);
    }
    EXPECT_EQ(cache.misses(), 4u);
    for (const auto &k : kernels)
        expectBitIdentical(cache.submit(queued, k).get(),
                           cache.submit(naive, k).get(), k.name);
}

} // namespace
} // namespace mtp
