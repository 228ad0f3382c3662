#include <gtest/gtest.h>

#include <sstream>

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
                EXPECT_NEAR(ia.pattern.scatterFrac,
                            ib.pattern.scatterFrac, 1e-9);
                EXPECT_EQ(ia.pattern.scatterSpan, ib.pattern.scatterSpan);
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

TEST(KernelIo, RoundTripEveryBenchmark)
{
    for (const auto &name : Suite::memoryIntensiveNames()) {
        Workload w = Suite::get(name, 16);
        expectSameKernel(w.kernel, roundTrip(w.kernel));
    }
    for (const auto &name : Suite::computeNames()) {
        Workload w = Suite::get(name, 16);
        expectSameKernel(w.kernel, roundTrip(w.kernel));
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

/** Malformed lines exit 1 naming file:line; none aborts or wraps. */
TEST(KernelIo, MalformedLinesExitNamingFileAndLine)
{
    const std::string head = "kernel p\ngrid 1 1 1\nsegment 1\n";
    for (const char *line :
         {"comp", "load", "comp 65537", "comp 1 256 -1", "comp 1 2",
          "imul 1", "load -1 0x1000 4 0 4", "load 0 0x1000 4 0",
          "store 0 0x1000 4 0 -4", "pref 0x-1000 4 0 4"}) {
        std::stringstream ss(head + line + "\nend\n");
        EXPECT_EXIT(readKernel(ss, "k.mtk"), ::testing::ExitedWithCode(1),
                    "k.mtk:4")
            << line;
    }
    std::stringstream ss("kernel p\ngrid 1 1 1\nsegment 4294967296\n");
    EXPECT_EXIT(readKernel(ss, "k.mtk"), ::testing::ExitedWithCode(1),
                "k.mtk:3");
}

/**
 * Grids that would allocate absurd warp slots, and programs without a
 * segment, are user errors: one fatal line from finalize(), shared by
 * kernel files and suite kernels.
 */
TEST(KernelIo, GridLimitsAndEmptyProgramsAreFatal)
{
    const std::string body = "segment 1\ncomp 1\nend\n";
    for (const char *text :
         {"kernel p\ngrid 4294967295 1 1\n", "kernel p\ngrid 33 1 1\n",
          "kernel p\ngrid 1 1 33\n", "kernel p\ngrid 1 1 0\n"}) {
        std::stringstream ss(text + body);
        EXPECT_EXIT(readKernel(ss, "k.mtk"), ::testing::ExitedWithCode(1),
                    "fatal: kernel 'p' (has|allows) ")
            << text;
    }
    std::stringstream empty("kernel p\ngrid 1 1 1\n");
    EXPECT_EXIT(readKernel(empty, "k.mtk"), ::testing::ExitedWithCode(1),
                "fatal: kernel 'p' has no segments");
    std::stringstream widest("kernel p\ngrid 32 1 32\n" + body);
    EXPECT_EQ(readKernel(widest, "k.mtk").warpsPerBlock, 32u);
}

} // namespace
} // namespace mtp
