#include <gtest/gtest.h>

#include <sstream>
#include <thread>
#include <vector>

#include "driver/run_cache.hh"
#include "tests/test_helpers.hh"

namespace mtp {
namespace driver {
namespace {

TEST(Fingerprint, StableAcrossFinalization)
{
    KernelDesc k = test::tinyStreamKernel();
    std::uint64_t before = hashKernel(k);
    k.finalize(); // re-finalizing reassigns PCs
    EXPECT_EQ(hashKernel(k), before);
}

TEST(Fingerprint, SensitiveToEveryContentDimension)
{
    KernelDesc base = test::tinyStreamKernel();
    std::uint64_t h = hashKernel(base);

    KernelDesc renamed = base;
    renamed.name = "other";
    EXPECT_NE(hashKernel(renamed), h);

    KernelDesc regrown = base;
    regrown.numBlocks += 1;
    EXPECT_NE(hashKernel(regrown), h);

    KernelDesc retripped = base;
    retripped.segments[0].trips += 1;
    EXPECT_NE(hashKernel(retripped), h);

    KernelDesc repatterned = base;
    repatterned.segments[0].insts[0].pattern.iterStride *= 2;
    EXPECT_NE(hashKernel(repatterned), h);
}

TEST(Fingerprint, ConfigChangesChangeTheKey)
{
    KernelDesc k = test::tinyMpKernel();
    SimConfig a = test::tinyConfig();
    SimConfig b = a;
    b.mthwpIp = false; // an ablation toggle, not a table size
    EXPECT_FALSE(fingerprint(a, k) == fingerprint(b, k));
    EXPECT_TRUE(fingerprint(a, k) == fingerprint(a, k));
}

/**
 * Regression test for the old bench cache key, which was
 * name|numBlocks|warpsPerBlock|warpInstsPerWarp. Two kernels that
 * agree on all four but differ in instruction content must not share
 * a cache entry.
 */
TEST(RunCache, SameNameDifferentBodyDoesNotCollide)
{
    // Identical name, geometry and instruction *count*; the second
    // kernel streams at twice the iteration stride.
    KernelDesc a = test::tinyStreamKernel(2, 4, 4, 1, 4096);
    KernelDesc b = test::tinyStreamKernel(2, 4, 4, 1, 8192);

    // The old key cannot tell them apart...
    auto oldKey = [](const KernelDesc &k) {
        std::ostringstream key;
        key << k.name << '|' << k.numBlocks << '|' << k.warpsPerBlock
            << '|' << k.warpInstsPerWarp();
        return key.str();
    };
    ASSERT_EQ(oldKey(a), oldKey(b));

    // ...the content fingerprint can.
    EXPECT_NE(hashKernel(a), hashKernel(b));

    SimConfig cfg = test::tinyConfig();
    cfg.hwPref = HwPrefKind::MTHWP;
    ParallelExecutor exec(2);
    RunCache cache(exec);
    const RunResult &ra = cache.submit(cfg, a).get();
    const RunResult &rb = cache.submit(cfg, b).get();
    EXPECT_NE(&ra, &rb);
    EXPECT_EQ(cache.misses(), 2u);
    // Different strides really do simulate differently.
    EXPECT_NE(ra.cycles, rb.cycles);
}

TEST(RunCache, MemoizesIdenticalSubmissions)
{
    SimConfig cfg = test::tinyConfig();
    KernelDesc k = test::tinyMpKernel();
    KernelDesc k2 = test::tinyStreamKernel();
    ParallelExecutor exec(2);
    RunCache cache(exec);
    cache.submit(cfg, k);
    cache.submit(cfg, k2);
    cache.submit(cfg, k);
    const RunResult &a = cache.submit(cfg, k).get();
    const RunResult &b = cache.submit(cfg, k).get();
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.hits(), 3u);

    // Entries are listed in creation order; a repeat adds none. The
    // campaign manifest's per-figure fingerprints depend on this.
    Fingerprint f1 = fingerprint(cfg, k);
    Fingerprint f2 = fingerprint(cfg, k2);
    EXPECT_EQ(cache.entries(), (std::vector<Fingerprint>{f1, f2}));
    EXPECT_EQ(cache.entries(1), (std::vector<Fingerprint>{f2}));
    EXPECT_TRUE(cache.entries(2).empty());
}

/**
 * ThreadSanitizer-friendly stress: many threads concurrently submit
 * and resolve the same small key set. Exactly one simulation per
 * distinct key may run, and every thread must see the same object.
 */
TEST(RunCache, ConcurrentDuplicateSubmissionsRunOnce)
{
    SimConfig cfg = test::tinyConfig();
    std::vector<KernelDesc> kernels = {
        test::tinyMpKernel(2, 4),
        test::tinyMpKernel(2, 6),
        test::tinyStreamKernel(2, 4, 2),
        test::tinyComputeKernel(),
    };

    ParallelExecutor exec(4);
    RunCache cache(exec);

    constexpr unsigned numThreads = 8;
    constexpr unsigned rounds = 5;
    std::vector<std::vector<const RunResult *>> seen(numThreads);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < numThreads; ++t) {
        threads.emplace_back([&, t] {
            for (unsigned round = 0; round < rounds; ++round)
                for (const KernelDesc &k : kernels)
                    seen[t].push_back(&cache.submit(cfg, k).get());
        });
    }
    for (auto &th : threads)
        th.join();

    EXPECT_EQ(cache.misses(), kernels.size());
    // Every thread resolved every key to the same cached object.
    for (unsigned t = 1; t < numThreads; ++t)
        EXPECT_EQ(seen[t], seen[0]);
}

} // namespace
} // namespace driver
} // namespace mtp
