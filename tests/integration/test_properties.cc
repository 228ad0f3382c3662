/**
 * @file
 * Parameterized property sweeps: invariants that must hold for every
 * prefetcher, workload class and configuration point.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "tests/test_helpers.hh"

namespace mtp {
namespace {

// ---------------------------------------------------------------------
// Accounting invariants across every hardware prefetcher x kernel shape
// ---------------------------------------------------------------------

using PrefetcherParam = std::tuple<HwPrefKind, bool /*warpTraining*/>;

class PrefetcherProperty
    : public ::testing::TestWithParam<PrefetcherParam>
{
};

TEST_P(PrefetcherProperty, AccountingInvariantsHold)
{
    auto [kind, warp_training] = GetParam();
    SimConfig cfg = test::tinyConfig();
    cfg.hwPref = kind;
    cfg.hwPrefWarpTraining = warp_training;

    for (const KernelDesc &k :
         {test::tinyStreamKernel(2, 8, 8, 2), test::tinyMpKernel(2, 12),
          test::tinyComputeKernel(2, 4, 12)}) {
        RunResult r = simulate(cfg, k);
        // Every useful/early prefetch must have been filled.
        EXPECT_LE(r.prefUseful + r.prefEarlyEvicted, r.prefFills)
            << toString(kind) << " on " << k.name;
        // Derived ratios stay in [0, 1].
        EXPECT_GE(r.accuracy(), 0.0);
        EXPECT_LE(r.accuracy(), 1.0);
        EXPECT_GE(r.earlyRatio(), 0.0);
        EXPECT_LE(r.earlyRatio(), 1.0);
        EXPECT_LE(r.prefCoverage(), 1.0);
        // The machine retired every warp instruction exactly once.
        EXPECT_EQ(r.warpInsts,
                  k.warpInstsPerWarp() * k.totalWarps());
        // DRAM moved at least the demanded bytes.
        if (k.memInstsPerWarp() > 0) {
            EXPECT_GT(r.dramBytes, 0u);
        }
    }
}

TEST_P(PrefetcherProperty, DeterministicCycleCounts)
{
    auto [kind, warp_training] = GetParam();
    SimConfig cfg = test::tinyConfig();
    cfg.hwPref = kind;
    cfg.hwPrefWarpTraining = warp_training;
    KernelDesc k = test::tinyStreamKernel(2, 8, 6, 2);
    EXPECT_EQ(simulate(cfg, k).cycles, simulate(cfg, k).cycles);
}

INSTANTIATE_TEST_SUITE_P(
    AllPrefetchers, PrefetcherProperty,
    ::testing::Combine(::testing::Values(HwPrefKind::None,
                                         HwPrefKind::StrideRPT,
                                         HwPrefKind::StridePC,
                                         HwPrefKind::Stream,
                                         HwPrefKind::GHB,
                                         HwPrefKind::MTHWP),
                       ::testing::Bool()),
    [](const auto &info) {
        return toString(std::get<0>(info.param)) +
               std::string(std::get<1>(info.param) ? "_warp" : "_naive");
    });

// ---------------------------------------------------------------------
// Prefetch cache size monotonicity (Fig. 16's underlying property)
// ---------------------------------------------------------------------

class CacheSizeProperty : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(CacheSizeProperty, GeometryValidAndEarlyEvictionsBounded)
{
    SimConfig cfg = test::tinyConfig();
    cfg.prefCacheBytes = GetParam();
    cfg.hwPref = HwPrefKind::StridePC;
    cfg.validate();
    RunResult r = simulate(cfg, test::tinyStreamKernel(2, 8, 10, 2));
    EXPECT_LE(r.prefUseful + r.prefEarlyEvicted, r.prefFills);
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, CacheSizeProperty,
                         ::testing::Values(1024u, 4096u, 16384u, 65536u,
                                           131072u));

// ---------------------------------------------------------------------
// Distance/degree sweeps never break accounting (Fig. 17's substrate)
// ---------------------------------------------------------------------

using AggressivenessParam = std::tuple<unsigned, unsigned>;

class AggressivenessProperty
    : public ::testing::TestWithParam<AggressivenessParam>
{
};

TEST_P(AggressivenessProperty, SweepStaysSane)
{
    auto [distance, degree] = GetParam();
    SimConfig cfg = test::tinyConfig();
    cfg.hwPref = HwPrefKind::MTHWP;
    cfg.prefDistance = distance;
    cfg.prefDegree = degree;
    RunResult r = simulate(cfg, test::tinyStreamKernel(2, 8, 10, 1));
    EXPECT_GT(r.cycles, 0u);
    EXPECT_LE(r.prefUseful + r.prefEarlyEvicted, r.prefFills);
    // Aggressiveness can only add traffic, never lose demand bytes.
    SimConfig base = test::tinyConfig();
    RunResult b = simulate(base, test::tinyStreamKernel(2, 8, 10, 1));
    EXPECT_GE(r.dramBytes + 1, b.dramBytes / 2);
}

INSTANTIATE_TEST_SUITE_P(
    DistanceDegree, AggressivenessProperty,
    ::testing::Combine(::testing::Values(1u, 3u, 7u, 15u),
                       ::testing::Values(1u, 2u, 4u)));

// ---------------------------------------------------------------------
// Core-count sweep (Fig. 18's substrate)
// ---------------------------------------------------------------------

class CoreCountProperty : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(CoreCountProperty, WorkConservesAcrossCoreCounts)
{
    SimConfig cfg = test::tinyConfig();
    cfg.numCores = GetParam();
    KernelDesc k = test::tinyMpKernel(2, 24);
    RunResult r = simulate(cfg, k);
    EXPECT_EQ(r.warpInsts, k.warpInstsPerWarp() * k.totalWarps());
    double blocks = r.stats.sumMatching("core", ".blocksCompleted");
    EXPECT_DOUBLE_EQ(blocks, static_cast<double>(k.numBlocks));
}

INSTANTIATE_TEST_SUITE_P(CoreCounts, CoreCountProperty,
                         ::testing::Values(1u, 2u, 4u, 8u, 14u, 20u));

// ---------------------------------------------------------------------
// Software-prefetch variants preserve demand semantics
// ---------------------------------------------------------------------

class SwVariantProperty : public ::testing::TestWithParam<SwPrefKind>
{
};

TEST_P(SwVariantProperty, DemandWorkUnchanged)
{
    SwPrefKind kind = GetParam();
    KernelDesc base = test::tinyStreamKernel(2, 6, 6, 2);
    KernelDesc variant = applySwPrefetch(base, kind);
    // Same demand loads/stores; only prefetches/compute overhead added.
    EXPECT_EQ(variant.memInstsPerWarp(), base.memInstsPerWarp());
    EXPECT_GE(variant.warpInstsPerWarp(), base.warpInstsPerWarp());
    // And it still runs to completion deterministically.
    SimConfig cfg = test::tinyConfig();
    RunResult a = simulate(cfg, variant);
    RunResult b = simulate(cfg, variant);
    EXPECT_EQ(a.cycles, b.cycles);
}

INSTANTIATE_TEST_SUITE_P(AllVariants, SwVariantProperty,
                         ::testing::Values(SwPrefKind::None,
                                           SwPrefKind::Register,
                                           SwPrefKind::Stride,
                                           SwPrefKind::IP,
                                           SwPrefKind::StrideIP),
                         [](const auto &info) {
                             return toString(info.param);
                         });

} // namespace
} // namespace mtp
