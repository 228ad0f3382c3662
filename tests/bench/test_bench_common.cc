#include <gtest/gtest.h>

#include "bench/bench_common.hh"

namespace mtp {
namespace bench {
namespace {

TEST(BenchCommon, GeomeanBasics)
{
    EXPECT_DOUBLE_EQ(geomean({}), 1.0);
    EXPECT_DOUBLE_EQ(geomean({2.0}), 2.0);
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({0.5, 2.0}), 1.0, 1e-12);
}

TEST(BenchCommon, ParseArgs)
{
    const char *argv[] = {"prog",        "--scale",     "4",
                          "--bench",     "monte,stream", "--jobs",
                          "3",           "numCores=10"};
    Options opts = parseArgs(8, const_cast<char **>(argv));
    EXPECT_EQ(opts.scaleDiv, 4u);
    EXPECT_EQ(opts.jobs, 3u);
    ASSERT_EQ(opts.benchmarks.size(), 2u);
    EXPECT_EQ(opts.benchmarks[0], "monte");
    EXPECT_EQ(opts.benchmarks[1], "stream");
    ASSERT_EQ(opts.overrides.size(), 1u);
    SimConfig cfg = baseConfig(opts);
    EXPECT_EQ(cfg.numCores, 10u);
    // The throttle period scales with the grid divisor.
    EXPECT_EQ(cfg.throttlePeriod, 10000u);

    // Malformed or out-of-range numbers exit naming the flag, and so
    // do unknown flags (--out is the one output flag; there is no -q),
    // a flag whose value is missing (a null value ends argv) and a
    // --bench list that is empty or names a benchmark twice.
    for (auto [flag, value] :
         {std::pair<const char *, const char *>{"--scale", "abc"},
          {"--scale", "0"}, {"--scale", "16385"}, {"--jobs", "x"},
          {"--jobs", "100000"}, {"--jobs", "1025"}, {"--sample-period", "1e3"},
          {"--sample-period", "400000001"},
          {"--json", "x"}, {"--trace-out", "x"}, {"-q", "x"},
          {"--scale", nullptr}, {"--bench", ""}, {"--bench", "stream,"},
          {"--bench", "stream,stream,scalar"}}) {
        const char *bad[] = {"prog", flag, value};
        EXPECT_EXIT(parseArgs(value ? 3 : 2, const_cast<char **>(bad)),
                    ::testing::ExitedWithCode(1), flag);
    }
}

TEST(BenchCommon, SelectBenchmarksFallsBack)
{
    Options opts;
    auto names = selectBenchmarks(opts, {"a", "b"});
    ASSERT_EQ(names.size(), 2u);
    opts.benchmarks = {"monte"};
    names = selectBenchmarks(opts, {"a", "b"});
    ASSERT_EQ(names.size(), 1u);
    EXPECT_EQ(names[0], "monte");
}

TEST(BenchCommon, SweepSubsetCoversAllClasses)
{
    bool stride = false, mp = false, uncoal = false;
    for (const auto &name : sweepSubset()) {
        Workload w = Suite::get(name, 64);
        stride = stride || w.info.type == WorkloadType::Stride;
        mp = mp || w.info.type == WorkloadType::Mp;
        uncoal = uncoal || w.info.type == WorkloadType::Uncoal;
    }
    EXPECT_TRUE(stride);
    EXPECT_TRUE(mp);
    EXPECT_TRUE(uncoal);
}

TEST(BenchCommon, RunnerCachesIdenticalRuns)
{
    Options opts;
    opts.scaleDiv = 64;
    opts.jobs = 2;
    Runner runner(opts);
    Workload w = Suite::get("cell", opts.scaleDiv);
    const RunResult &a = runner.submit(baseConfig(opts), w.kernel).get();
    const RunResult &b = runner.submit(baseConfig(opts), w.kernel).get();
    EXPECT_EQ(&a, &b); // same cached object

    // A config that differs only in an ablation toggle must NOT hit
    // the cache (regression test for the Fig. 14 cache-key bug).
    SimConfig cfg = baseConfig(opts);
    cfg.hwPref = HwPrefKind::MTHWP;
    SimConfig ablated = cfg;
    ablated.mthwpIp = false;
    const RunResult &full = runner.submit(cfg, w.kernel).get();
    const RunResult &pws = runner.submit(ablated, w.kernel).get();
    EXPECT_NE(&full, &pws);
}

} // namespace
} // namespace bench
} // namespace mtp
