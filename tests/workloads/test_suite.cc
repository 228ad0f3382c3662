#include <gtest/gtest.h>

#include <set>

#include "driver/fingerprint.hh"
#include "workloads/workload.hh"

namespace mtp {
namespace {

TEST(Suite, FourteenMemoryIntensiveInPaperOrder)
{
    const auto &names = Suite::memoryIntensiveNames();
    ASSERT_EQ(names.size(), 14u);
    EXPECT_EQ(names.front(), "black");
    EXPECT_EQ(names.back(), "sepia");
    for (const auto &n : names)
        EXPECT_TRUE(Suite::has(n));
}

TEST(Suite, TwelveComputeBenchmarks)
{
    const auto &names = Suite::computeNames();
    ASSERT_EQ(names.size(), 12u);
    for (const auto &n : names) {
        Workload w = Suite::get(n, 64);
        EXPECT_EQ(w.info.type, WorkloadType::Compute) << n;
    }
}

TEST(Suite, UnknownNameRejected)
{
    EXPECT_FALSE(Suite::has("nonesuch"));
}

TEST(Suite, TableIIIGeometry)
{
    // Spot-check the published launch geometry (warps, blocks,
    // occupancy) survives into the synthetic kernels.
    struct Row
    {
        const char *name;
        std::uint64_t warps, blocks;
        unsigned max_blocks;
        WorkloadType type;
    };
    const Row rows[] = {
        {"black", 1920, 480, 3, WorkloadType::Stride},
        {"conv", 4128, 688, 2, WorkloadType::Stride},
        {"mersenne", 128, 32, 2, WorkloadType::Stride},
        {"monte", 2048, 256, 2, WorkloadType::Stride},
        {"pns", 144, 18, 1, WorkloadType::Stride},
        {"scalar", 1024, 128, 2, WorkloadType::Stride},
        {"stream", 2048, 128, 1, WorkloadType::Stride},
        {"backprop", 16384, 2048, 2, WorkloadType::Mp},
        {"cell", 21296, 1331, 1, WorkloadType::Mp},
        {"ocean", 32768, 16384, 8, WorkloadType::Mp},
        {"bfs", 2048, 128, 1, WorkloadType::Uncoal},
        {"cfd", 7272, 1212, 1, WorkloadType::Uncoal},
        {"linear", 8192, 1024, 2, WorkloadType::Uncoal},
        {"sepia", 8192, 1024, 3, WorkloadType::Uncoal},
    };
    for (const auto &row : rows) {
        Workload w = Suite::get(row.name, /*scaleDiv=*/1);
        EXPECT_EQ(w.info.paperWarps, row.warps) << row.name;
        EXPECT_EQ(w.info.paperBlocks, row.blocks) << row.name;
        EXPECT_EQ(w.kernel.numBlocks, row.blocks) << row.name;
        EXPECT_EQ(w.kernel.maxBlocksPerCore, row.max_blocks) << row.name;
        EXPECT_EQ(w.info.type, row.type) << row.name;
        EXPECT_EQ(w.kernel.totalWarps(), row.warps) << row.name;
    }
}

TEST(Suite, ScalingPreservesShapeAndFloors)
{
    Workload full = Suite::get("backprop", 1);
    Workload scaled = Suite::get("backprop", 8);
    EXPECT_EQ(scaled.kernel.warpsPerBlock, full.kernel.warpsPerBlock);
    EXPECT_EQ(scaled.kernel.maxBlocksPerCore,
              full.kernel.maxBlocksPerCore);
    EXPECT_LT(scaled.kernel.numBlocks, full.kernel.numBlocks);
    EXPECT_EQ(scaled.kernel.numBlocks, full.kernel.numBlocks / 8);
    // Tiny grids never scale below a few dispatch waves.
    Workload small = Suite::get("pns", 64);
    EXPECT_EQ(small.kernel.numBlocks, 18u);
}

TEST(Suite, TypesPartitionTheSuite)
{
    auto stride = Suite::namesOfType(WorkloadType::Stride);
    auto mp = Suite::namesOfType(WorkloadType::Mp);
    auto uncoal = Suite::namesOfType(WorkloadType::Uncoal);
    EXPECT_EQ(stride.size(), 7u);
    EXPECT_EQ(mp.size(), 3u);
    EXPECT_EQ(uncoal.size(), 4u);
    std::set<std::string> all(stride.begin(), stride.end());
    all.insert(mp.begin(), mp.end());
    all.insert(uncoal.begin(), uncoal.end());
    EXPECT_EQ(all.size(), 14u);
}

TEST(Suite, VariantsApplyTransforms)
{
    Workload w = Suite::get("scalar", 32);
    KernelDesc stride = w.variant(SwPrefKind::Stride);
    EXPECT_GT(stride.prefInstsPerWarp(), 0u);
    KernelDesc reg = w.variant(SwPrefKind::Register);
    EXPECT_LT(reg.maxBlocksPerCore, w.kernel.maxBlocksPerCore);
    // mp-type kernels have no loops: stride insertion is a no-op,
    // IP insertion is not.
    Workload mp = Suite::get("backprop", 32);
    EXPECT_EQ(mp.variant(SwPrefKind::Stride).prefInstsPerWarp(), 0u);
    EXPECT_GT(mp.variant(SwPrefKind::IP).prefInstsPerWarp(), 0u);
}

TEST(Suite, DelinquentLoadMetadataMatchesTableIII)
{
    EXPECT_EQ(Suite::get("stream", 64).info.paperDelinquentIp, 5u);
    EXPECT_EQ(Suite::get("cfd", 64).info.paperDelinquentIp, 36u);
    EXPECT_EQ(Suite::get("linear", 64).info.paperDelinquentIp, 27u);
    EXPECT_EQ(Suite::get("black", 64).info.paperDelinquentStride, 3u);
}

/**
 * One digest over every built-in kernel: the kernel hash of every
 * benchmark and SW-prefetch variant at scales 1, 4, 8 and 64, every
 * WorkloadInfo field, each kernel's SW-prefetch tuning and the name
 * lists. The expected value was computed at the commit before the
 * kernel texts replaced the C++ builders, from the builders' output,
 * so the texts reproduce them exactly. An edit to a kernel text must
 * change it deliberately (README.md: "Editing a benchmark").
 */
TEST(Suite, DigestPinsEveryBuiltInKernel)
{
    driver::Fnv1a h;
    auto addNames = [&](const std::vector<std::string> &names) {
        h.add(static_cast<std::uint64_t>(names.size()));
        for (const std::string &n : names)
            h.add(n);
    };
    addNames(Suite::memoryIntensiveNames());
    addNames(Suite::computeNames());
    for (WorkloadType type : {WorkloadType::Stride, WorkloadType::Mp,
                              WorkloadType::Uncoal, WorkloadType::Compute})
        addNames(Suite::namesOfType(type));
    std::vector<std::string> all = Suite::memoryIntensiveNames();
    all.insert(all.end(), Suite::computeNames().begin(),
               Suite::computeNames().end());
    for (const std::string &name : all) {
        const Workload base = Suite::get(name);
        const WorkloadInfo &info = base.info;
        h.add(info.name);
        h.add(info.suite);
        h.add(static_cast<int>(info.type));
        h.add(info.paperBaseCpi);
        h.add(info.paperPmemCpi);
        h.add(info.paperHwpCpi);
        h.add(info.paperWarps);
        h.add(info.paperBlocks);
        h.add(info.paperDelinquentStride);
        h.add(info.paperDelinquentIp);
        h.add(base.kernel.swpOpts.strideDistance);
        h.add(base.kernel.swpOpts.ipDistanceWarps);
        h.add(base.kernel.swpOpts.registerBlocksLost);
        for (unsigned scale : {1u, 4u, 8u, 64u}) {
            Workload w = Suite::get(name, scale);
            h.add(driver::hashKernel(w.kernel));
            for (SwPrefKind kind : {SwPrefKind::Register, SwPrefKind::Stride,
                                    SwPrefKind::IP, SwPrefKind::StrideIP})
                h.add(driver::hashKernel(w.variant(kind)));
        }
    }
    EXPECT_EQ(h.value(), 0x4783724c09216cc3ULL);
}

TEST(Suite, EveryKernelIsFinalizedAndRunnableShape)
{
    for (const auto &n : Suite::memoryIntensiveNames()) {
        Workload w = Suite::get(n, 64);
        EXPECT_TRUE(w.kernel.finalized()) << n;
        EXPECT_GT(w.kernel.warpInstsPerWarp(), 0u) << n;
        EXPECT_GT(w.kernel.memInstsPerWarp(), 0u) << n;
    }
}

} // namespace
} // namespace mtp
