/**
 * @file
 * Simulation-rate benchmark for the event-driven fast-forward loop.
 *
 * Runs each selected workload twice — with the naive cycle-by-cycle
 * oracle loop (fastForward = false) and with event-driven cycle
 * skipping (the default) — verifies the results are bit-identical
 * (RunResult fields and the full statistics dump), and reports
 * wall-clock time, simulated kilocycles per second and the speedup.
 * Results go to stdout and to a JSON file (--out, default
 * BENCH_simrate.json).
 *
 * The workload set is a latency-bound microkernel built to expose the
 * best case (two dependent-load warps per core, so the machine idles
 * for most of every memory round trip), one benchmark from each
 * workload class, and two event-dense full-machine kernels (a
 * bfs-style irregular pointer walk and a high-MLP streaming kernel)
 * that stress the event-queue schedule. Exits nonzero on any
 * fast/naive mismatch.
 *
 * --gate additionally enforces the performance contract of the
 * event-queue scheduler: every per-workload speedup >= 1.0x and the
 * geomean >= 3.0x. Workloads falling short are re-measured best-of-N so a CI
 * scheduling hiccup in one timing cannot fail the gate; a genuine
 * regression still does. A workload gets at most four measurements
 * and every re-measurement draws from one monotonic-clock budget, so
 * retries can never walk the job past its CTest timeout.
 *
 * --help prints the flags: the common harness rows plus --out,
 * --smoke and --gate.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.hh"
#include "bench/campaign.hh"

namespace {

using namespace mtp;

/**
 * A memory-latency-bound microkernel: one resident block of two warps
 * per core, each iterating a dependent load -> use -> branch chain
 * with a row-crossing stride. Almost every cycle of the naive loop is
 * spent waiting on DRAM round trips.
 */
KernelDesc
latencyMicroKernel(unsigned numCores, unsigned trips)
{
    KernelDesc k;
    k.name = "latency_micro";
    k.warpsPerBlock = 2;
    k.numBlocks = 2ULL * numCores;
    k.maxBlocksPerCore = 1;

    Segment loop;
    loop.trips = trips;
    AddressPattern p;
    p.base = 0x1000'0000ULL;
    p.threadStride = 4;
    p.iterStride = 1 << 20; // a fresh row every trip: no locality
    loop.insts.push_back(StaticInst::load(p, 0));
    loop.insts.push_back(StaticInst::compUse(0, -1, 2));
    loop.insts.push_back(StaticInst::branch());
    k.segments.push_back(loop);
    k.finalize();
    return k;
}

/**
 * A bfs-style irregular kernel at full machine width: every trip is a
 * dependent chain of two scattered loads, so warps stall on
 * unpredictable DRAM round trips and completions arrive at irregular
 * cycles across all cores — the event-dense regime, where few cycles
 * can be skipped and most of the win must come from ticking only the
 * due components.
 */
KernelDesc
scatterWalkKernel(unsigned numCores, unsigned trips)
{
    KernelDesc k;
    k.name = "scatter_walk";
    k.warpsPerBlock = 4;
    k.numBlocks = 4ULL * numCores;
    k.maxBlocksPerCore = 2;

    Segment loop;
    loop.trips = trips;
    AddressPattern frontier;
    frontier.base = 0x2000'0000ULL;
    frontier.threadStride = 64; // one block per lane: fully uncoalesced
    frontier.iterStride = 4096;
    frontier.scatterFrac = 0.75;
    frontier.scatterSpan = 1ULL << 26;
    frontier.scatterSalt = 1;
    AddressPattern neighbor = frontier;
    neighbor.base = 0x6000'0000ULL;
    neighbor.scatterSalt = 2;
    loop.insts.push_back(StaticInst::load(frontier, 0));
    loop.insts.push_back(StaticInst::compUse(0, -1, 1));
    loop.insts.push_back(StaticInst::load(neighbor, 1));
    loop.insts.push_back(StaticInst::compUse(1, -1, 1));
    loop.insts.push_back(StaticInst::branch());
    k.segments.push_back(loop);
    k.finalize();
    return k;
}

/**
 * A high-MLP streaming kernel at full machine width: four independent
 * coalesced loads per trip issue back-to-back before the first use, so
 * every core keeps several DRAM round trips in flight and the memory
 * system stays saturated — dense events on the memory side while cores
 * spend most cycles parked waiting.
 */
KernelDesc
mlpStreamKernel(unsigned numCores, unsigned trips)
{
    KernelDesc k;
    k.name = "mlp_stream";
    k.warpsPerBlock = 4;
    k.numBlocks = 4ULL * numCores;
    k.maxBlocksPerCore = 2;

    Segment loop;
    loop.trips = trips;
    for (int slot = 0; slot < 4; ++slot) {
        AddressPattern p;
        p.base = 0x1000'0000ULL + (static_cast<Addr>(slot) << 26);
        p.threadStride = 4;
        p.iterStride = 512;
        loop.insts.push_back(StaticInst::load(p, slot));
    }
    loop.insts.push_back(StaticInst::compUse(0, 1, 1));
    loop.insts.push_back(StaticInst::compUse(2, 3, 1));
    loop.insts.push_back(StaticInst::branch());
    k.segments.push_back(loop);
    k.finalize();
    return k;
}

struct Measurement
{
    std::string name;
    Cycle cycles = 0;
    std::uint64_t warpInsts = 0;
    double naiveSeconds = 0.0;
    double fastSeconds = 0.0;
    double speedup = 0.0;
    bool identical = false;
};

double
seconds(std::chrono::steady_clock::time_point a,
        std::chrono::steady_clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

std::string
statDump(const RunResult &r)
{
    std::ostringstream os;
    r.stats.dumpText(os);
    return os.str();
}

bool
identicalResults(const RunResult &fast, const RunResult &naive)
{
    return fast.cycles == naive.cycles &&
           fast.warpInsts == naive.warpInsts &&
           fast.dramBytes == naive.dramBytes &&
           fast.demandTxns == naive.demandTxns &&
           fast.prefFills == naive.prefFills &&
           statDump(fast) == statDump(naive);
}

Measurement
measure(const std::string &name, const SimConfig &base,
        const KernelDesc &kernel)
{
    SimConfig naiveCfg = base;
    naiveCfg.fastForward = false;
    SimConfig fastCfg = base;
    fastCfg.fastForward = true;

    auto t0 = std::chrono::steady_clock::now();
    RunResult naive = simulate(naiveCfg, kernel);
    auto t1 = std::chrono::steady_clock::now();
    RunResult fast = simulate(fastCfg, kernel);
    auto t2 = std::chrono::steady_clock::now();

    Measurement m;
    m.name = name;
    m.cycles = naive.cycles;
    m.warpInsts = naive.warpInsts;
    m.naiveSeconds = seconds(t0, t1);
    m.fastSeconds = seconds(t1, t2);
    m.speedup = m.fastSeconds > 0.0 ? m.naiveSeconds / m.fastSeconds : 0.0;
    m.identical = identicalResults(fast, naive);
    return m;
}

double
kcyclesPerSec(Cycle cycles, double secs)
{
    return secs > 0.0 ? static_cast<double>(cycles) / secs / 1000.0 : 0.0;
}

void
writeJson(const std::string &path, const bench::Options &opts,
          const std::vector<Measurement> &rows, double geomeanSpeedup)
{
    unsigned scaleDiv = opts.scaleDiv;
    std::string header;
    bench::appendProvenance(header, bench::collectProvenance(opts), 1);
    std::ofstream os(path);
    os << "{\n  \"bench\": \"simrate\",\n  \"volatile\": true,\n"
       << header << ",\n  \"scaleDiv\": " << scaleDiv
       << ",\n  \"workloads\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Measurement &m = rows[i];
        os << "    {\"name\": \"" << m.name << "\", \"cycles\": "
           << m.cycles << ", \"warpInsts\": " << m.warpInsts
           << ", \"naiveSeconds\": " << m.naiveSeconds
           << ", \"fastSeconds\": " << m.fastSeconds
           << ", \"naiveKcyclesPerSec\": "
           << kcyclesPerSec(m.cycles, m.naiveSeconds)
           << ", \"fastKcyclesPerSec\": "
           << kcyclesPerSec(m.cycles, m.fastSeconds)
           << ", \"speedup\": " << m.speedup << ", \"identical\": "
           << (m.identical ? "true" : "false") << "}"
           << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    os << "  ],\n  \"geomeanSpeedup\": " << geomeanSpeedup << "\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    bool gate = false;
    std::string out = "BENCH_simrate.json";
    bench::Options opts = bench::parseArgs(
        argc, argv,
        {{"--out", "FILE", "result file (default BENCH_simrate.json)",
          [&](const cli::Arg &a) { out = a.value; }},
         {"--smoke", "", "tiny geometry: scale 64, the microkernel only",
          [&](const cli::Arg &) { smoke = true; }},
         {"--gate", "", "fail below 1.0x per workload or 3.0x geomean speedup",
          [&](const cli::Arg &) { gate = true; }}});
    if (smoke)
        opts.setScale(64);
    unsigned scaleDiv = opts.scaleDiv;
    const std::vector<std::string> &filter = opts.benchmarks;
    const bool quiet = opts.quiet;

    SimConfig cfg = bench::baseConfig(opts); // no prefetching

    // The microkernel runs on a two-core machine: severe latency-bound
    // low occupancy, the regime event-driven skipping targets. The
    // suite benchmarks keep the Table II machine.
    SimConfig microCfg = cfg;
    microCfg.numCores = 2;

    // The microkernel, one benchmark per workload class, and the two
    // event-dense full-machine kernels.
    std::vector<std::pair<std::string, KernelDesc>> workloads;
    workloads.emplace_back(
        "latency_micro",
        latencyMicroKernel(microCfg.numCores, smoke ? 256 : 4096));
    if (!smoke) {
        for (WorkloadType type :
             {WorkloadType::Stride, WorkloadType::Mp, WorkloadType::Uncoal,
              WorkloadType::Compute}) {
            std::string name = Suite::namesOfType(type).front();
            workloads.emplace_back(name,
                                   Suite::get(name, scaleDiv).kernel);
        }
        unsigned denseTrips = std::max(1024u / scaleDiv, 16u);
        workloads.emplace_back("scatter_walk",
                               scatterWalkKernel(cfg.numCores, denseTrips));
        workloads.emplace_back("mlp_stream",
                               mlpStreamKernel(cfg.numCores, denseTrips));
    }
    // An unknown name exits before anything is timed.
    for (const std::string &name : filter) {
        auto named = [&](const auto &w) { return w.first == name; };
        if (std::none_of(workloads.begin(), workloads.end(), named)) {
            std::string known;
            for (const auto &w : workloads)
                known += (known.empty() ? "" : ", ") + w.first;
            cli::fail("unknown workload '" + name + "' (this run has: " +
                      known + ")");
        }
    }
    if (!filter.empty()) {
        std::vector<std::pair<std::string, KernelDesc>> kept;
        for (auto &w : workloads)
            for (const auto &name : filter)
                if (w.first == name)
                    kept.push_back(std::move(w));
        workloads = std::move(kept);
    }

    if (!quiet) {
        std::printf("bench_simrate: naive cycle loop vs event-driven "
                    "fast-forward (scale 1/%u)\n\n",
                    scaleDiv);
        std::printf("%-16s %12s %10s %10s %12s %12s %8s %6s\n",
                    "workload", "cycles", "naive_s", "fast_s",
                    "naive_kc/s", "fast_kc/s", "speedup", "equal");
    }

    // The gate's performance contract (see the file comment).
    const double gateMinSpeedup = 1.0;
    const double gateMinGeomean = 3.0;
    const unsigned gateAttempts = 4; // best-of-N re-measurements
    // All gate re-measurements draw on one monotonic-clock budget:
    // once it runs out the best timing so far stands, so retries can
    // never push the job past its CTest timeout.
    const auto retryDeadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(240);
    auto retryAllowed = [&](unsigned attempt) {
        return attempt < gateAttempts &&
               std::chrono::steady_clock::now() < retryDeadline;
    };

    std::vector<Measurement> rows;
    std::vector<double> speedups;
    bool allIdentical = true;
    for (const auto &[name, kernel] : workloads) {
        const SimConfig &wcfg =
            name == "latency_micro" ? microCfg : cfg;
        Measurement m = measure(name, wcfg, kernel);
        // Best-of-N under --gate: every workload is timed twice (a
        // single slow timing must not fail the gate), and a workload
        // still below the per-kernel floor earns further retries —
        // bounded by the attempt budget and the shared deadline. Only
        // the timing can improve — the identity verdict must hold in
        // every attempt.
        for (unsigned a = 1;
             gate && (a < 2 || m.speedup < gateMinSpeedup) &&
             retryAllowed(a);
             ++a) {
            Measurement again = measure(name, wcfg, kernel);
            bool identical = m.identical && again.identical;
            if (again.speedup > m.speedup)
                m = again;
            m.identical = identical;
        }
        if (!quiet)
            std::printf(
                "%-16s %12llu %10.3f %10.3f %12.1f %12.1f %7.2fx %6s\n",
                m.name.c_str(),
                static_cast<unsigned long long>(m.cycles),
                m.naiveSeconds, m.fastSeconds,
                kcyclesPerSec(m.cycles, m.naiveSeconds),
                kcyclesPerSec(m.cycles, m.fastSeconds), m.speedup,
                m.identical ? "yes" : "NO");
        allIdentical = allIdentical && m.identical;
        speedups.push_back(m.speedup);
        rows.push_back(std::move(m));
    }

    double gm = bench::geomean(speedups);
    if (!quiet)
        std::printf("\ngeomean speedup: %.2fx\n", gm);

    writeJson(out, opts, rows, gm);
    if (!quiet)
        std::printf("wrote %s\n", out.c_str());

    if (!allIdentical) {
        std::fprintf(stderr,
                     "FAIL: fast-forward results diverge from the naive "
                     "oracle loop\n");
        return 1;
    }
    if (gate) {
        bool ok = true;
        for (const Measurement &m : rows) {
            if (m.speedup < gateMinSpeedup) {
                std::fprintf(stderr,
                             "FAIL: %s speedup %.2fx below the %.1fx "
                             "per-workload floor\n",
                             m.name.c_str(), m.speedup, gateMinSpeedup);
                ok = false;
            }
        }
        if (gm < gateMinGeomean) {
            std::fprintf(stderr,
                         "FAIL: geomean speedup %.2fx below the %.1fx "
                         "gate\n",
                         gm, gateMinGeomean);
            ok = false;
        }
        if (!ok)
            return 1;
        std::printf("gate passed: all speedups >= %.1fx, geomean >= "
                    "%.1fx\n",
                    gateMinSpeedup, gateMinGeomean);
    }
    return 0;
}
