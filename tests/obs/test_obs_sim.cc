/**
 * @file
 * End-to-end observability tests against real simulations:
 *
 *  - observation is read-only: end-of-run results are bit-identical
 *    with sampling + tracing on or off, under both the fast-forward
 *    and the naive cycle loop;
 *  - the emitted time series is golden-checked two ways: the fast loop
 *    must reproduce the naive loop's rows exactly (cycle skipping
 *    never jumps a sample boundary), and both must match an oracle
 *    that re-simulates with manual step() calls and recomputes every
 *    probe from raw counters at each period boundary;
 *  - a Chrome trace generated through the same path as `mtp-sim
 *    --trace-out` validates against the trace-event schema, and a
 *    JSONL stream parses line by line;
 *  - throttle period updates reach the event sinks as
 *    `throttle:update` records (what `mtp-sim --events` writes).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hh"
#include "obs/observer.hh"
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

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

SimConfig
observedConfig()
{
    SimConfig cfg = test::tinyConfig();
    cfg.hwPref = HwPrefKind::MTHWP;
    cfg.throttleEnable = true;
    cfg.throttlePeriod = 500;
    return cfg;
}

std::vector<std::pair<std::string, KernelDesc>>
observedKernels()
{
    std::vector<std::pair<std::string, KernelDesc>> kernels;
    kernels.emplace_back("stream", test::tinyStreamKernel(2, 4, 8, 1));
    kernels.emplace_back("mp", test::tinyMpKernel(2, 8));
    return kernels;
}

TEST(ObsSim, ObservationPreservesResults)
{
    for (const auto &[name, kernel] : observedKernels()) {
        for (bool fastForward : {true, false}) {
            SimConfig cfg = observedConfig();
            cfg.fastForward = fastForward;
            RunResult plain = simulate(cfg, kernel);

            obs::ObsConfig ocfg;
            ocfg.samplePeriod = 137;
            ocfg.traceLifecycle = true;
            ocfg.traceThrottle = true;
            obs::Observer observer(ocfg);
            obs::CaptureSink *cap = observer.addCapture();
            Gpu gpu(cfg, kernel, &observer);
            RunResult observed = gpu.run();

            std::string label = name + (fastForward ? "/fast" : "/naive");
            EXPECT_EQ(observed.cycles, plain.cycles) << label;
            EXPECT_EQ(observed.warpInsts, plain.warpInsts) << label;
            EXPECT_EQ(observed.dramBytes, plain.dramBytes) << label;
            EXPECT_EQ(observed.prefFills, plain.prefFills) << label;
            EXPECT_EQ(dumpStats(observed), dumpStats(plain)) << label;
            EXPECT_GT(cap->samples.size(), 0u) << label;
            EXPECT_GT(cap->events.size(), 0u) << label;
        }
    }
}

TEST(ObsSim, FastLoopReproducesNaiveTimeSeriesExactly)
{
    for (const auto &[name, kernel] : observedKernels()) {
        for (Cycle period : {Cycle(137), Cycle(256)}) {
            obs::ObsConfig ocfg;
            ocfg.samplePeriod = period;

            SimConfig fastCfg = observedConfig();
            fastCfg.fastForward = true;
            obs::Observer fastObs(ocfg);
            obs::CaptureSink *fastCap = fastObs.addCapture();
            Gpu fastGpu(fastCfg, kernel, &fastObs);
            fastGpu.run();

            SimConfig naiveCfg = observedConfig();
            naiveCfg.fastForward = false;
            obs::Observer naiveObs(ocfg);
            obs::CaptureSink *naiveCap = naiveObs.addCapture();
            Gpu naiveGpu(naiveCfg, kernel, &naiveObs);
            naiveGpu.run();

            std::string label = name + "@" + std::to_string(period);
            ASSERT_EQ(fastCap->schema.size(), naiveCap->schema.size())
                << label;
            ASSERT_EQ(fastCap->samples.size(), naiveCap->samples.size())
                << label;
            ASSERT_GT(fastCap->samples.size(), 1u) << label;
            for (std::size_t i = 0; i < fastCap->samples.size(); ++i) {
                const auto &f = fastCap->samples[i];
                const auto &n = naiveCap->samples[i];
                EXPECT_EQ(f.cycle, n.cycle) << label << " row " << i;
                // Boundaries land exactly on multiples of the period:
                // a skip may never jump one.
                EXPECT_EQ(f.cycle % period, 0u) << label << " row " << i;
                ASSERT_EQ(f.values.size(), n.values.size());
                for (std::size_t c = 0; c < f.values.size(); ++c)
                    EXPECT_EQ(f.values[c], n.values[c])
                        << label << " row " << i << " col "
                        << fastCap->schema[c].name;
            }
        }
    }
}

/**
 * Oracle golden check: re-simulate with manual step() calls (naive
 * loop, no observer) and recompute a representative probe of every
 * kind from raw component counters at each period boundary. The
 * sampler runs inside step() after all components ticked and before
 * the cycle counter advances, so the oracle reads its counters right
 * after the step() call whose cycle (now() - 1) is a boundary.
 */
TEST(ObsSim, TimeSeriesMatchesPerPeriodOracle)
{
    for (const auto &[name, kernel] : observedKernels()) {
        const Cycle period = 137;
        obs::ObsConfig ocfg;
        ocfg.samplePeriod = period;

        SimConfig cfg = observedConfig();
        obs::Observer observer(ocfg);
        obs::CaptureSink *cap = observer.addCapture();
        {
            Gpu gpu(cfg, kernel, &observer);
            gpu.run();
        }

        struct OracleRow
        {
            Cycle cycle;
            double ipc0, mrqOcc0, mshrOcc0, accuracy0, degree0;
            double rowHit0, blp0, bufOcc0, injStallRate;
        };
        std::vector<OracleRow> oracle;
        {
            SimConfig naiveCfg = cfg;
            naiveCfg.fastForward = false;
            Gpu gpu(naiveCfg, kernel, nullptr);
            double lastInsts = 0.0, lastUseful = 0.0, lastFills = 0.0;
            double lastRowHits = 0.0, lastRw = 0.0, lastStalls = 0.0;
            while (!gpu.done()) {
                gpu.step();
                Cycle t = gpu.now() - 1;
                if (t == 0 || t % period != 0)
                    continue;
                OracleRow row;
                row.cycle = t;
                double insts = static_cast<double>(
                    gpu.core(0).counters().warpInstsIssued);
                row.ipc0 = (insts - lastInsts) / period;
                lastInsts = insts;
                row.mrqOcc0 =
                    static_cast<double>(gpu.mem().mrq(0).size());
                row.mshrOcc0 =
                    static_cast<double>(gpu.core(0).mshr().size());
                double useful = static_cast<double>(
                    gpu.core(0).prefCache().counters().useful);
                double fills = static_cast<double>(
                    gpu.core(0).prefCache().counters().fills);
                double dFills = fills - lastFills;
                row.accuracy0 =
                    dFills != 0.0 ? (useful - lastUseful) / dFills : 0.0;
                lastUseful = useful;
                lastFills = fills;
                row.degree0 = static_cast<double>(
                    gpu.core(0).throttle()->degree());
                const auto &ch = gpu.mem().channel(0);
                double rowHits =
                    static_cast<double>(ch.counters().rowHits);
                double rw = static_cast<double>(ch.counters().reads +
                                                ch.counters().writes);
                double dRw = rw - lastRw;
                row.rowHit0 =
                    dRw != 0.0 ? (rowHits - lastRowHits) / dRw : 0.0;
                lastRowHits = rowHits;
                lastRw = rw;
                row.blp0 = static_cast<double>(ch.busyBanks(t));
                row.bufOcc0 =
                    static_cast<double>(ch.bufferOccupancy());
                double stalls =
                    static_cast<double>(gpu.mem().injCreditStalls());
                row.injStallRate = (stalls - lastStalls) / period;
                lastStalls = stalls;
                oracle.push_back(row);
            }
        }

        ASSERT_GT(oracle.size(), 1u) << name;
        ASSERT_EQ(cap->samples.size(), oracle.size()) << name;
        auto col = [&](const char *n) {
            int i = cap->column(n);
            EXPECT_GE(i, 0) << n;
            return static_cast<std::size_t>(i);
        };
        std::size_t cIpc = col("core0.ipc");
        std::size_t cMrq = col("core0.mrqOcc");
        std::size_t cMshr = col("core0.mshrOcc");
        std::size_t cAcc = col("core0.prefAccuracy");
        std::size_t cDeg = col("core0.throttleDegree");
        std::size_t cRow = col("dram0.rowHitRate");
        std::size_t cBlp = col("dram0.blp");
        std::size_t cBuf = col("dram0.bufOcc");
        std::size_t cStall = col("mem.injCreditStalls");
        for (std::size_t i = 0; i < oracle.size(); ++i) {
            const auto &got = cap->samples[i];
            const auto &want = oracle[i];
            std::string at = name + " row " + std::to_string(i);
            ASSERT_EQ(got.cycle, want.cycle) << at;
            EXPECT_NEAR(got.values[cIpc], want.ipc0, 1e-9) << at;
            EXPECT_NEAR(got.values[cMrq], want.mrqOcc0, 1e-9) << at;
            EXPECT_NEAR(got.values[cMshr], want.mshrOcc0, 1e-9) << at;
            EXPECT_NEAR(got.values[cAcc], want.accuracy0, 1e-9) << at;
            EXPECT_NEAR(got.values[cDeg], want.degree0, 1e-9) << at;
            EXPECT_NEAR(got.values[cRow], want.rowHit0, 1e-9) << at;
            EXPECT_NEAR(got.values[cBlp], want.blp0, 1e-9) << at;
            EXPECT_NEAR(got.values[cBuf], want.bufOcc0, 1e-9) << at;
            EXPECT_NEAR(got.values[cStall], want.injStallRate, 1e-9)
                << at;
        }
    }
}

TEST(ObsSim, ChromeTraceFromSimulationValidates)
{
    // The same code path mtp-sim --trace-out takes: simulate() with an
    // ObsConfig naming a Chrome output file.
    std::string path = "obs_sim_test.trace.json";
    obs::ObsConfig ocfg;
    ocfg.samplePeriod = 256;
    ocfg.chromePath = path;
    SimConfig cfg = observedConfig();
    RunResult plain = simulate(cfg, observedKernels()[0].second);
    RunResult traced = simulate(cfg, observedKernels()[0].second, ocfg);
    EXPECT_EQ(dumpStats(traced), dumpStats(plain));

    std::string text = slurp(path);
    std::string err;
    ASSERT_TRUE(obs::validateChromeTrace(text, &err)) << err;

    obs::JsonValue doc;
    ASSERT_TRUE(obs::parseJson(text, doc, nullptr));
    const obs::JsonValue *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    // Track metadata, lifecycle instants, spans and counter samples
    // must all be present.
    std::map<char, unsigned> phases;
    for (const auto &ev : events->array)
        ++phases[ev.find("ph")->str[0]];
    EXPECT_GT(phases['M'], 0u);
    EXPECT_GT(phases['i'], 0u);
    EXPECT_GT(phases['X'], 0u);
    EXPECT_GT(phases['C'], 0u);
    std::remove(path.c_str());
}

TEST(ObsSim, JsonlStreamParsesLineByLine)
{
    std::string path = "obs_sim_test.events.jsonl";
    obs::ObsConfig ocfg;
    ocfg.samplePeriod = 256;
    ocfg.jsonlPath = path;
    simulate(observedConfig(), observedKernels()[1].second, ocfg);

    std::ifstream in(path);
    std::string line;
    unsigned n = 0;
    while (std::getline(in, line)) {
        obs::JsonValue v;
        std::string err;
        ASSERT_TRUE(obs::parseJson(line, v, &err))
            << "line " << n << ": " << err;
        ASSERT_NE(v.find("t"), nullptr) << "line " << n;
        ++n;
    }
    EXPECT_GT(n, 0u);
    in.close();
    std::remove(path.c_str());
}

TEST(ObsSim, ThrottleEventsFlowThroughSinkApi)
{
    obs::ObsConfig ocfg;
    ocfg.traceThrottle = true;
    obs::Observer observer(ocfg);
    obs::CaptureSink *cap = observer.addCapture();
    SimConfig cfg = observedConfig();
    Gpu gpu(cfg, observedKernels()[0].second, &observer);
    gpu.run();

    unsigned updates = 0;
    for (const auto &ev : cap->events) {
        if (ev.name != "throttle:update")
            continue;
        ++updates;
        EXPECT_EQ(ev.ph, 'i');
        // Update events carry the Table I inputs.
        bool sawMerge = false, sawDegree = false;
        for (const auto &[k, v] : ev.args) {
            sawMerge |= k == "mergeRatio";
            sawDegree |= k == "degree";
        }
        EXPECT_TRUE(sawMerge);
        EXPECT_TRUE(sawDegree);
    }
    EXPECT_GT(updates, 0u);
}

} // namespace
} // namespace mtp
