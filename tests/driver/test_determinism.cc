#include <gtest/gtest.h>

#include <vector>

#include "driver/run_cache.hh"
#include "tests/test_helpers.hh"

namespace mtp {
namespace driver {
namespace {

/** The fields a figure/table harness consumes, for exact comparison. */
void
expectIdentical(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.warpInsts, b.warpInsts);
    EXPECT_EQ(a.dramBytes, b.dramBytes);
    EXPECT_EQ(a.prefFills, b.prefFills);
    EXPECT_EQ(a.prefUseful, b.prefUseful);
    EXPECT_EQ(a.prefEarlyEvicted, b.prefEarlyEvicted);
    EXPECT_EQ(a.prefLate, b.prefLate);
    EXPECT_EQ(a.prefCacheHits, b.prefCacheHits);
    EXPECT_EQ(a.demandTxns, b.demandTxns);
    EXPECT_DOUBLE_EQ(a.cpi, b.cpi);
    EXPECT_DOUBLE_EQ(a.avgDemandLatency, b.avgDemandLatency);
    EXPECT_DOUBLE_EQ(a.avgPrefetchLatency, b.avgPrefetchLatency);
    EXPECT_DOUBLE_EQ(a.avgActiveWarps, b.avgActiveWarps);
}

/**
 * A 12-job matrix (3 kernels x 4 configs) must produce identical
 * RunResults whether executed sequentially (--jobs 1) or on 8 workers:
 * each run is single-threaded and seeded, so scheduling cannot leak
 * into results.
 */
TEST(DriverDeterminism, JobCountDoesNotChangeResults)
{
    std::vector<KernelDesc> kernels = {
        test::tinyStreamKernel(2, 6, 4),
        test::tinyMpKernel(2, 8),
        test::tinyStreamKernel(2, 4, 4, 2),
    };
    std::vector<SimConfig> configs;
    for (unsigned i = 0; i < 4; ++i) {
        SimConfig cfg = test::tinyConfig();
        switch (i) {
          case 0:
            break;
          case 1:
            cfg.hwPref = HwPrefKind::MTHWP;
            break;
          case 2:
            cfg.hwPref = HwPrefKind::MTHWP;
            cfg.throttleEnable = true;
            break;
          default:
            cfg.hwPref = HwPrefKind::StridePC;
            break;
        }
        configs.push_back(cfg);
    }

    ParallelExecutor serialExec(1);
    RunCache serial(serialExec);
    ParallelExecutor parallelExec(8);
    RunCache parallel(parallelExec);

    // Submit the full matrix up front on both, like a harness does.
    for (const auto &cfg : configs)
        for (const auto &k : kernels) {
            serial.submit(cfg, k);
            parallel.submit(cfg, k);
        }
    ASSERT_EQ(serial.misses(), 12u);
    ASSERT_EQ(parallel.misses(), 12u);

    for (const auto &cfg : configs)
        for (const auto &k : kernels)
            expectIdentical(serial.submit(cfg, k).get(),
                            parallel.submit(cfg, k).get());
}

/** Submitting in a different order must not change results either. */
TEST(DriverDeterminism, SubmissionOrderDoesNotChangeResults)
{
    SimConfig cfg = test::tinyConfig();
    cfg.hwPref = HwPrefKind::MTHWP;
    std::vector<KernelDesc> kernels = {
        test::tinyStreamKernel(2, 6, 4),
        test::tinyMpKernel(2, 8),
        test::tinyComputeKernel(),
    };

    ParallelExecutor forwardExec(4);
    RunCache forward(forwardExec);
    for (auto it = kernels.begin(); it != kernels.end(); ++it)
        forward.submit(cfg, *it);

    ParallelExecutor reverseExec(4);
    RunCache reverse(reverseExec);
    for (auto it = kernels.rbegin(); it != kernels.rend(); ++it)
        reverse.submit(cfg, *it);

    for (const auto &k : kernels)
        expectIdentical(forward.submit(cfg, k).get(),
                        reverse.submit(cfg, k).get());
}

} // namespace
} // namespace driver
} // namespace mtp
