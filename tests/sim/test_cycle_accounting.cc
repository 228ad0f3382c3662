/**
 * @file
 * Cycle-accounting tests (DESIGN.md §9): every core cycle lands in
 * exactly one category, the categories reconcile with issueCycles and
 * the per-warp tallies, pressure scenarios are attributed to the right
 * category, fast-forwarded attribution matches the naive loop, and the
 * sampler exposes the breakdown as per-period fractions that sum to 1.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/sw_prefetch.hh"
#include "obs/observer.hh"
#include "sim/cycle_accounting.hh"
#include "sim/gpu.hh"
#include "tests/test_helpers.hh"

namespace mtp {
namespace {

double
catStat(const RunResult &r, unsigned core, CycleCat cat)
{
    return r.stats.get("core" + std::to_string(core) + ".cycles." +
                       cycleCatName(cat));
}

/** Invariants every run must satisfy, checked from the stat dump. */
void
expectAccountingInvariants(const RunResult &r, unsigned numCores,
                           const std::string &label)
{
    double issued_total = 0.0;
    for (unsigned c = 0; c < numCores; ++c) {
        std::string p = "core" + std::to_string(c);
        double sum = 0.0;
        for (unsigned k = 0; k < numCycleCats; ++k)
            sum += catStat(r, c, static_cast<CycleCat>(k));
        EXPECT_DOUBLE_EQ(sum, static_cast<double>(r.cycles))
            << label << ": core " << c
            << " categories do not sum to elapsed cycles";
        EXPECT_DOUBLE_EQ(r.stats.get(p + ".cycles.total"),
                         static_cast<double>(r.cycles))
            << label << ": core " << c;
        // Per-warp issue tallies partition the Issued category.
        double warp_issued = 0.0;
        for (unsigned w = 0;; ++w) {
            std::string wp = p + ".warp" + std::to_string(w);
            if (!r.stats.has(wp + ".issuedCycles"))
                break;
            warp_issued += r.stats.get(wp + ".issuedCycles");
        }
        EXPECT_DOUBLE_EQ(warp_issued, catStat(r, c, CycleCat::Issued))
            << label << ": core " << c;
        issued_total += catStat(r, c, CycleCat::Issued);
    }
    EXPECT_DOUBLE_EQ(r.stats.get("sim.cycles.issued"), issued_total)
        << label;
    // Issued cycles are issue cycles: one instruction per cycle, so
    // the per-core warpInsts total matches the Issued category.
    double warp_insts = 0.0;
    for (unsigned c = 0; c < numCores; ++c)
        warp_insts +=
            r.stats.get("core" + std::to_string(c) + ".warpInsts");
    EXPECT_DOUBLE_EQ(issued_total, warp_insts) << label;
}

TEST(CycleAccounting, InvariantsHoldAcrossKernels)
{
    SimConfig cfg = test::tinyConfig();
    std::vector<KernelDesc> kernels = {
        test::tinyStreamKernel(2, 4, 4, 1),
        test::tinyMpKernel(2, 8),
        test::tinyComputeKernel(),
    };
    for (const auto &kernel : kernels) {
        RunResult r = simulate(cfg, kernel);
        expectAccountingInvariants(r, cfg.numCores, kernel.name);
    }
}

TEST(CycleAccounting, ComputeKernelNeverBlamesMemory)
{
    SimConfig cfg = test::tinyConfig();
    RunResult r = simulate(cfg, test::tinyComputeKernel());
    EXPECT_GT(r.stats.get("sim.cycles.issued"), 0.0);
    EXPECT_GT(r.stats.get("sim.cycles.stallExecBusy"), 0.0);
    EXPECT_DOUBLE_EQ(r.stats.get("sim.cycles.stallMem"), 0.0);
    EXPECT_DOUBLE_EQ(r.stats.get("sim.cycles.stallMshrFull"), 0.0);
    EXPECT_DOUBLE_EQ(r.stats.get("sim.cycles.stallIcnt"), 0.0);
    EXPECT_DOUBLE_EQ(r.stats.get("sim.cycles.stallFetchBranch"), 0.0);
    EXPECT_DOUBLE_EQ(r.stats.get("sim.cycles.throttleInhibited"), 0.0);
}

TEST(CycleAccounting, StreamKernelStallsOnMemoryAndBranches)
{
    SimConfig cfg = test::tinyConfig();
    RunResult r = simulate(cfg, test::tinyStreamKernel(2, 4, 8, 1));
    EXPECT_GT(r.stats.get("sim.cycles.stallMem"), 0.0);
    EXPECT_GT(r.stats.get("sim.cycles.stallFetchBranch"), 0.0);
    EXPECT_GT(r.stats.get("sim.cycles.idleNoWarps"), 0.0);
}

TEST(CycleAccounting, PerfectMemoryHasNoMemoryStalls)
{
    SimConfig cfg = test::tinyConfig();
    cfg.perfectMemory = true;
    RunResult r = simulate(cfg, test::tinyStreamKernel(2, 4, 8, 1));
    expectAccountingInvariants(r, cfg.numCores, "perfect_memory");
    EXPECT_DOUBLE_EQ(r.stats.get("sim.cycles.stallMem"), 0.0);
    EXPECT_DOUBLE_EQ(r.stats.get("sim.cycles.stallMshrFull"), 0.0);
    EXPECT_DOUBLE_EQ(r.stats.get("sim.cycles.stallIcnt"), 0.0);
}

TEST(CycleAccounting, MshrPressureAttributedToMshrFull)
{
    SimConfig cfg = test::tinyConfig();
    cfg.mshrEntries = 2;
    RunResult r = simulate(cfg, test::tinyStreamKernel(2, 4, 8, 2));
    expectAccountingInvariants(r, cfg.numCores, "mshr_pressure");
    EXPECT_GT(r.stats.get("sim.cycles.stallMshrFull"), 0.0);
}

TEST(CycleAccounting, MrqPressureAttributedToIcntBackpressure)
{
    SimConfig cfg = test::tinyConfig();
    cfg.mrqEntries = 1;
    RunResult r = simulate(cfg, test::tinyStreamKernel(2, 4, 8, 2));
    expectAccountingInvariants(r, cfg.numCores, "mrq_pressure");
    EXPECT_GT(r.stats.get("sim.cycles.stallIcnt"), 0.0);
    // The MRQs saw the same gated cycles the LSU retried through.
    EXPECT_GT(r.stats.sumMatching("mem", ".gatedStalls"), 0.0);
}

TEST(CycleAccounting, SwPrefetchTxnsAttributedToThrottleInhibited)
{
    SimConfig cfg = test::tinyConfig();
    KernelDesc kernel =
        applySwPrefetch(test::tinyStreamKernel(2, 4, 8, 1),
                        SwPrefKind::Stride);
    RunResult r = simulate(cfg, kernel);
    expectAccountingInvariants(r, cfg.numCores, "swpref");
    EXPECT_GT(r.stats.get("sim.cycles.throttleInhibited"), 0.0);
}

/**
 * Pressure configurations exercise the LSU-retry categories, which
 * only occur in stepped cycles — the fast-forwarded run must attribute
 * them identically to the naive loop, per core and per category.
 */
TEST(CycleAccounting, FastForwardAttributionMatchesNaive)
{
    std::vector<std::pair<std::string, SimConfig>> configs;
    configs.emplace_back("tiny", test::tinyConfig());
    SimConfig mshr = test::tinyConfig();
    mshr.mshrEntries = 2;
    configs.emplace_back("mshr2", mshr);
    SimConfig mrq = test::tinyConfig();
    mrq.mrqEntries = 1;
    configs.emplace_back("mrq1", mrq);

    KernelDesc kernel = test::tinyStreamKernel(2, 4, 8, 2);
    for (const auto &[name, cfg] : configs) {
        SimConfig naive_cfg = cfg;
        naive_cfg.fastForward = false;
        RunResult fast = simulate(cfg, kernel);
        RunResult naive = simulate(naive_cfg, kernel);
        ASSERT_EQ(fast.cycles, naive.cycles) << name;
        for (unsigned c = 0; c < cfg.numCores; ++c) {
            for (unsigned k = 0; k < numCycleCats; ++k) {
                auto cat = static_cast<CycleCat>(k);
                EXPECT_DOUBLE_EQ(catStat(fast, c, cat),
                                 catStat(naive, c, cat))
                    << name << ": core " << c << " "
                    << cycleCatName(cat);
            }
        }
    }
}

/**
 * The sampled breakdown probes are per-period fractions of the nine
 * exclusive categories, so each sampled row sums to 1 (the first row
 * also covers cycle 0, hence (period + 1) / period).
 */
TEST(CycleAccounting, SampledFractionsSumToOne)
{
    obs::ObsConfig ocfg;
    ocfg.samplePeriod = 100;
    obs::Observer observer(ocfg);
    obs::CaptureSink *cap = observer.addCapture();
    SimConfig cfg = test::tinyConfig();
    Gpu gpu(cfg, test::tinyStreamKernel(2, 4, 8, 1), &observer);
    gpu.run();

    std::vector<int> cols;
    for (unsigned k = 0; k < numCycleCats; ++k) {
        int idx = cap->column(std::string("core0.cycles.") +
                              cycleCatName(static_cast<CycleCat>(k)));
        ASSERT_GE(idx, 0) << cycleCatName(static_cast<CycleCat>(k));
        cols.push_back(idx);
    }
    ASSERT_GE(cap->samples.size(), 2u);
    for (std::size_t row = 0; row < cap->samples.size(); ++row) {
        double sum = 0.0;
        for (int idx : cols)
            sum += cap->samples[row].values[static_cast<unsigned>(idx)];
        double expect =
            row == 0 ? (100.0 + 1.0) / 100.0 : 1.0; // first row quirk
        EXPECT_NEAR(sum, expect, 1e-9) << "sample row " << row;
    }
}

} // namespace
} // namespace mtp
