#include <gtest/gtest.h>

#include <sstream>

#include "driver/fingerprint.hh"
#include "tests/test_helpers.hh"
#include "trace/kernel_io.hh"
#include "workloads/workload.hh"

namespace mtp {
namespace {

/** Structural equality of two kernels (PCs are reassigned on read). */
void
expectSameKernel(const KernelDesc &a, const KernelDesc &b)
{
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.warpsPerBlock, b.warpsPerBlock);
    EXPECT_EQ(a.numBlocks, b.numBlocks);
    EXPECT_EQ(a.maxBlocksPerCore, b.maxBlocksPerCore);
    EXPECT_EQ(a.swpOpts.strideDistance, b.swpOpts.strideDistance);
    EXPECT_EQ(a.swpOpts.ipDistanceWarps, b.swpOpts.ipDistanceWarps);
    EXPECT_EQ(a.swpOpts.registerBlocksLost, b.swpOpts.registerBlocksLost);
    ASSERT_EQ(a.segments.size(), b.segments.size());
    for (std::size_t s = 0; s < a.segments.size(); ++s) {
        const auto &sa = a.segments[s];
        const auto &sb = b.segments[s];
        EXPECT_EQ(sa.trips, sb.trips);
        ASSERT_EQ(sa.insts.size(), sb.insts.size());
        for (std::size_t i = 0; i < sa.insts.size(); ++i) {
            const auto &ia = sa.insts[i];
            const auto &ib = sb.insts[i];
            EXPECT_EQ(ia.op, ib.op);
            EXPECT_EQ(ia.repeat, ib.repeat);
            EXPECT_EQ(ia.destSlot, ib.destSlot);
            EXPECT_EQ(ia.srcSlots[0], ib.srcSlots[0]);
            EXPECT_EQ(ia.regPrefetch, ib.regPrefetch);
            EXPECT_EQ(ia.swPrefetchable, ib.swPrefetchable);
            if (isMemOp(ia.op)) {
                EXPECT_EQ(ia.pattern.base, ib.pattern.base);
                EXPECT_EQ(ia.pattern.threadStride,
                          ib.pattern.threadStride);
                EXPECT_EQ(ia.pattern.iterStride, ib.pattern.iterStride);
                EXPECT_EQ(ia.pattern.elemBytes, ib.pattern.elemBytes);
                EXPECT_EQ(ia.pattern.scatterFrac, ib.pattern.scatterFrac);
                EXPECT_EQ(ia.pattern.scatterSpan, ib.pattern.scatterSpan);
                EXPECT_EQ(ia.pattern.scatterSalt, ib.pattern.scatterSalt);
            }
        }
    }
}

KernelDesc
roundTrip(const KernelDesc &k)
{
    std::stringstream ss;
    writeKernel(ss, k);
    return readKernel(ss, "roundtrip");
}

TEST(KernelIo, RoundTripTinyKernels)
{
    expectSameKernel(test::tinyStreamKernel(2, 4, 4, 2),
                     roundTrip(test::tinyStreamKernel(2, 4, 4, 2)));
    expectSameKernel(test::tinyMpKernel(),
                     roundTrip(test::tinyMpKernel()));
    expectSameKernel(test::tinyComputeKernel(),
                     roundTrip(test::tinyComputeKernel()));
}

std::vector<std::string>
everyBenchmark()
{
    std::vector<std::string> names = Suite::memoryIntensiveNames();
    names.insert(names.end(), Suite::computeNames().begin(),
                 Suite::computeNames().end());
    return names;
}

constexpr SwPrefKind everyVariant[] = {
    SwPrefKind::None, SwPrefKind::Register, SwPrefKind::Stride,
    SwPrefKind::IP, SwPrefKind::StrideIP};

TEST(KernelIo, RoundTripEveryBenchmark)
{
    for (const auto &name : everyBenchmark()) {
        Workload w = Suite::get(name, 16);
        for (SwPrefKind kind : everyVariant) {
            KernelDesc k = w.variant(kind);
            expectSameKernel(k, roundTrip(k));
        }
    }
    // A fraction that needs all 17 significant digits comes back whole.
    KernelDesc third = test::tinyStreamKernel();
    AddressPattern &p = third.segments[0].insts[0].pattern;
    p.scatterFrac = 1.0 / 3.0;
    p.scatterSpan = 1 << 20;
    p.scatterSalt = 7;
    expectSameKernel(third, roundTrip(third));
}

/**
 * A dumped benchmark is the same input as the benchmark: its file
 * carries the SW-prefetch tuning, so transforming the file gives
 * exactly the benchmark's variant.
 */
TEST(KernelIo, DumpedBenchmarkTransformsLikeTheBenchmark)
{
    for (const auto &name : everyBenchmark()) {
        Workload w = Suite::get(name, 8);
        KernelDesc dumped = roundTrip(w.kernel);
        for (SwPrefKind kind : everyVariant)
            EXPECT_EQ(driver::hashKernel(applySwPrefetch(dumped, kind)),
                      driver::hashKernel(w.variant(kind)))
                << name << ' ' << toString(kind);
    }
}

TEST(KernelIo, RoundTripTransformedVariants)
{
    Workload w = Suite::get("bfs", 32); // scatter + chains + loops
    for (auto kind : {SwPrefKind::Stride, SwPrefKind::IP,
                      SwPrefKind::Register, SwPrefKind::StrideIP}) {
        KernelDesc variant = w.variant(kind);
        expectSameKernel(variant, roundTrip(variant));
    }
}

TEST(KernelIo, RoundTripPreservesSimulation)
{
    SimConfig cfg = test::tinyConfig();
    KernelDesc k = test::tinyStreamKernel(2, 6, 5, 2);
    RunResult a = simulate(cfg, k);
    RunResult b = simulate(cfg, roundTrip(k));
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.warpInsts, b.warpInsts);
}

TEST(KernelIo, ParsesHandWrittenDescription)
{
    std::stringstream ss;
    ss << "# a comment\n"
          "kernel demo\n"
          "grid 4 16 2\n"
          "segment 3\n"
          "  comp 2\n"
          "  load 0 0x1000 4 256 4\n"
          "  load 1 0x2000 48 0 4 0.25 1048576 7 src=0\n"
          "  imul 1 -1\n"
          "  store 1 0x3000 4 256 4\n"
          "  branch\n"
          "end\n"
          "segment 1\n"
          "  comp 1\n"
          "end\n";
    KernelDesc k = readKernel(ss, "demo");
    EXPECT_EQ(k.name, "demo");
    EXPECT_EQ(k.warpsPerBlock, 4u);
    EXPECT_EQ(k.numBlocks, 16u);
    ASSERT_EQ(k.segments.size(), 2u);
    EXPECT_EQ(k.segments[0].trips, 3u);
    const auto &chained = k.segments[0].insts[2];
    EXPECT_EQ(chained.op, Opcode::Load);
    EXPECT_EQ(chained.srcSlots[0], 0);
    EXPECT_NEAR(chained.pattern.scatterFrac, 0.25, 1e-12);
    EXPECT_TRUE(k.finalized());
    EXPECT_EQ(k.warpInstsPerWarp(), 3u * 7u + 1u);
    // No swp line: the default tuning.
    EXPECT_EQ(k.swpOpts.strideDistance, 1u);
    EXPECT_EQ(k.swpOpts.ipDistanceWarps, 1u);
    EXPECT_EQ(k.swpOpts.registerBlocksLost, 0u);

    std::stringstream tuned("kernel t\ngrid 1 1 1\nswp 2 8 1\n"
                            "segment 1\ncomp 1\nend\n");
    KernelDesc t = readKernel(tuned, "tuned");
    EXPECT_EQ(t.swpOpts.strideDistance, 2u);
    EXPECT_EQ(t.swpOpts.ipDistanceWarps, 8u);
    EXPECT_EQ(t.swpOpts.registerBlocksLost, 1u);
}

TEST(KernelIo, FlagsRoundTrip)
{
    KernelDesc k = test::tinyStreamKernel(1, 1, 2, 1);
    for (auto &seg : k.segments) {
        for (auto &inst : seg.insts) {
            if (inst.op == Opcode::Load) {
                inst.swPrefetchable = false;
                inst.regPrefetch = true;
            }
        }
    }
    k.finalize();
    expectSameKernel(k, roundTrip(k));
}

/**
 * Malformed lines exit 1 with one line naming file:line; none aborts
 * or wraps.
 */
TEST(KernelIo, MalformedLinesExitNamingFileAndLine)
{
    const std::string head = "kernel p\ngrid 1 1 1\nsegment 1\n";
    for (const char *line :
         {"comp", "load", "comp 65537", "comp 1 256 -1", "comp 1 2",
          "imul 1", "load -1 0x1000 4 0 4", "load 0 0x1000 4 0",
          "store 0 0x1000 4 0 -4", "pref 0x-1000 4 0 4", "swp 1 2",
          "swp 1 -1 0"}) {
        std::stringstream ss(head + line + "\nend\n");
        EXPECT_EXIT(readKernel(ss, "k.mtk"), ::testing::ExitedWithCode(1),
                    "^fatal: [^\n]*k\\.mtk:4[^\n]*\n$")
            << line;
    }
    std::stringstream ss("kernel p\ngrid 1 1 1\nsegment 4294967296\n");
    EXPECT_EXIT(readKernel(ss, "k.mtk"), ::testing::ExitedWithCode(1),
                "^fatal: [^\n]*k\\.mtk:3[^\n]*\n$");
}

/**
 * Grids that would allocate absurd warp slots, SW-prefetch tuning
 * outside its ranges, a scatter span with no room for one element and
 * programs without a segment are user errors: one fatal line from
 * finalize(), shared by kernel files and suite kernels.
 */
TEST(KernelIo, GridLimitsAndEmptyProgramsAreFatal)
{
    const std::string body = "segment 1\ncomp 1\nend\n";
    for (const char *text :
         {"kernel p\ngrid 4294967295 1 1\n", "kernel p\ngrid 33 1 1\n",
          "kernel p\ngrid 1 1 33\n", "kernel p\ngrid 1 1 0\n",
          "kernel p\ngrid 1 1 1\nswp 0 1 0\n",
          "kernel p\ngrid 1 1 1\nswp 257 1 0\n",
          "kernel p\ngrid 1 1 1\nswp 1 1025 0\n",
          "kernel p\ngrid 1 1 1\nswp 1 4294967295 0\n",
          "kernel p\ngrid 1 1 1\nswp 1 1 33\n",
          "kernel p\ngrid 1 1 1\nsegment 1\n"
          "load 0 0x1000 4 0 128 0.5 64 3\nend\n"}) {
        std::stringstream ss(text + body);
        EXPECT_EXIT(readKernel(ss, "k.mtk"), ::testing::ExitedWithCode(1),
                    "^fatal: kernel 'p' (has|allows) [^\n]*\n$")
            << text;
    }
    std::stringstream empty("kernel p\ngrid 1 1 1\n");
    EXPECT_EXIT(readKernel(empty, "k.mtk"), ::testing::ExitedWithCode(1),
                "^fatal: kernel 'p' has no segments\n$");
    std::stringstream widest("kernel p\ngrid 32 1 32\n" + body);
    EXPECT_EQ(readKernel(widest, "k.mtk").warpsPerBlock, 32u);
}

} // namespace
} // namespace mtp
