/**
 * @file
 * mtp-sim: command-line front end of the mtprefetch simulator.
 *
 *   mtp-sim --list
 *   mtp-sim --bench backprop --hw mthwp --throttle --scale 8
 *   mtp-sim --bench scalar --sw stride_ip --stats stats.csv
 *   mtp-sim --kernel my_kernel.mtk --hw stride_pc numCores=20
 *   mtp-sim --bench sepia --dump-kernel sepia.mtk
 *   mtp-sim --bench stream --host-profile f.host.jsonl --watchdog-sec 120
 *
 * Runs one simulation per benchmark and prints the headline summary;
 * --stats picks JSON, CSV or text from the file extension. --help
 * prints the flags: the rows in main() plus bench::parseArgs()'s.
 */

#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_common.hh"
#include "obs/host_profiler.hh"
#include "trace/kernel_io.hh"

int
main(int argc, char **argv)
{
    using namespace mtp;

    bool list = false;
    std::string kernelFile;
    std::string statsFile;
    std::string dumpKernel;
    SwPrefKind sw = SwPrefKind::None;
    SimConfig cfg; // --hw and --throttle; key=value overrides apply last
    obs::ObsConfig ocfg;
    bench::HostObs host;
    std::vector<cli::Flag> flags = {
        {"--list", "", "list available benchmarks and exit",
         [&](const cli::Arg &) { list = true; }},
        {"--kernel", "FILE", "run a kernel description file",
         [&](const cli::Arg &a) { kernelFile = a.value; }},
        {"--sw", "KIND", "software prefetch: none|register|stride|ip|stride_ip",
         [&](const cli::Arg &a) { sw = parseSwPrefKind(a.value); }},
        {"--hw", "KIND",
         "hardware prefetcher: none|stride_rpt|stride_pc|stream|ghb|mthwp",
         [&](const cli::Arg &a) { cfg.hwPref = parseHwPrefKind(a.value); }},
        {"--throttle", "", "enable the adaptive throttle engine",
         [&](const cli::Arg &) { cfg.throttleEnable = true; }},
        {"--stats", "FILE",
         "dump every statistic (*.json: JSON, *.csv: CSV, else text)",
         [&](const cli::Arg &a) { statsFile = a.value; }},
        {"--timeseries", "FILE",
         "write sampled time series as CSV (needs --sample-period)",
         [&](const cli::Arg &a) { ocfg.timeSeriesCsv = a.value; }},
        {"--events", "FILE", "write lifecycle/throttle events as JSONL",
         [&](const cli::Arg &a) { ocfg.jsonlPath = a.value; }},
        {"--trace-out", "FILE", "write a Chrome trace-event JSON (Perfetto)",
         [&](const cli::Arg &a) { ocfg.chromePath = a.value; }},
        {"--dump-kernel", "FILE", "write the (transformed) kernel and exit",
         [&](const cli::Arg &a) { dumpKernel = a.value; }},
    };
    bench::Options opts = bench::parseArgs(argc, argv, flags, &host);

    if (list) {
        std::printf("memory-intensive (Table III):\n");
        for (const auto &n : Suite::memoryIntensiveNames()) {
            Workload w = Suite::get(n, 64);
            std::printf("  %-10s %-8s %s\n", n.c_str(),
                        toString(w.info.type).c_str(),
                        w.info.suite.c_str());
        }
        std::printf("non-memory-intensive (Table IV):\n");
        for (const auto &n : Suite::computeNames())
            std::printf("  %-10s\n", n.c_str());
        return 0;
    }
    cfg.throttlePeriod = opts.throttlePeriod;
    cfg.applyOverrides(opts.overrides);
    ocfg.samplePeriod = opts.samplePeriod;
    ocfg.hostProfile = host.profiling();
    if (opts.benchmarks.empty() == kernelFile.empty())
        cli::fail("exactly one of --bench or --kernel is required");

    // The profiler window opens before kernel assembly so build time is
    // attributed too; the watchdog and crash handler cover the run.
    host.start();

    // Assemble the run matrix: every benchmark named by --bench (or
    // the one --kernel file), each with the requested SW transform.
    std::vector<KernelDesc> kernels;
    {
        obs::HostScope kernelBuild(obs::HostPhase::KernelBuild);
        if (!opts.benchmarks.empty()) {
            for (const auto &name : bench::selectBenchmarks(opts, {}))
                kernels.push_back(Suite::get(name, opts.scaleDiv).variant(sw));
        } else {
            kernels.push_back(applySwPrefetch(readKernelFile(kernelFile), sw));
        }
    }

    if (!dumpKernel.empty()) {
        if (kernels.size() != 1)
            MTP_FATAL("--dump-kernel needs exactly one benchmark");
        std::ofstream out(dumpKernel);
        if (!out)
            MTP_FATAL("cannot write '", dumpKernel, "'");
        writeKernel(out, kernels.front());
        std::printf("wrote %s\n", dumpKernel.c_str());
        return 0;
    }
    if (!statsFile.empty() && kernels.size() != 1)
        MTP_FATAL("--stats needs exactly one benchmark");

    if (ocfg.wantsSampling() && ocfg.timeSeriesCsv.empty() &&
        ocfg.jsonlPath.empty() && ocfg.chromePath.empty())
        cli::fail("--sample-period without --timeseries/--events/"
                  "--trace-out produces no output");
    if (!ocfg.timeSeriesCsv.empty() && !ocfg.wantsSampling())
        cli::fail("--timeseries needs --sample-period to have samples");

    // With several kernels each run needs its own output files: derive
    // per-kernel paths by tagging the requested ones with the kernel
    // name ("out.json" -> "out.mp.json"). Kernels sharing a name get a
    // content-hash suffix so distinct runs never write the same file.
    std::vector<std::string> runTags;
    {
        std::vector<std::string> names;
        std::vector<std::uint64_t> hashes;
        for (const KernelDesc &kernel : kernels) {
            names.push_back(kernel.name);
            hashes.push_back(driver::hashKernel(kernel));
        }
        runTags = obs::uniqueRunTags(names, hashes);
    }
    auto obsFor = [&](std::size_t idx) {
        obs::ObsConfig o = ocfg;
        if (kernels.size() > 1) {
            const std::string &tag = runTags[idx];
            if (!o.timeSeriesCsv.empty())
                o.timeSeriesCsv = obs::perRunPath(o.timeSeriesCsv, tag);
            if (!o.jsonlPath.empty())
                o.jsonlPath = obs::perRunPath(o.jsonlPath, tag);
            if (!o.chromePath.empty())
                o.chromePath = obs::perRunPath(o.chromePath, tag);
        }
        return o;
    };

    // Submit the whole matrix up front, then print in submission
    // order; with any --jobs value the output is byte-identical.
    bench::Runner runner(opts);
    std::vector<std::shared_future<RunResult>> runs;
    for (std::size_t i = 0; i < kernels.size(); ++i)
        runs.push_back(runner.submit(cfg, kernels[i], obsFor(i)));

    bool first = true;
    for (std::size_t i = 0; i < kernels.size(); ++i) {
        const KernelDesc &kernel = kernels[i];
        const RunResult &r = runs[i].get();

        if (!opts.quiet) {
            if (!first)
                std::printf("\n");
            first = false;
            std::printf("kernel      %s\n", kernel.name.c_str());
            std::printf("machine     %u cores, hw=%s%s, sw=%s\n",
                        cfg.numCores, toString(cfg.hwPref).c_str(),
                        cfg.throttleEnable ? "+throttle" : "",
                        toString(sw).c_str());
            std::printf("cycles      %llu\n",
                        static_cast<unsigned long long>(r.cycles));
            std::printf("warp insts  %llu (CPI %.3f)\n",
                        static_cast<unsigned long long>(r.warpInsts),
                        r.cpi);
            std::printf("mem latency %.1f cycles (prefetch %.1f)\n",
                        r.avgDemandLatency, r.avgPrefetchLatency);
            std::printf("dram bytes  %llu (%.2f B/cycle)\n",
                        static_cast<unsigned long long>(r.dramBytes),
                        static_cast<double>(r.dramBytes) / r.cycles);
            if (r.prefFills > 0) {
                std::printf(
                    "prefetching %llu fills, accuracy %.1f%%, "
                    "coverage %.1f%%, late %.1f%%, early %.1f%%\n",
                    static_cast<unsigned long long>(r.prefFills),
                    100.0 * r.accuracy(), 100.0 * r.prefCoverage(),
                    100.0 * r.lateRatio(), 100.0 * r.earlyRatio());
            }
        }

        if (!statsFile.empty()) {
            std::ofstream out(statsFile);
            if (!out)
                MTP_FATAL("cannot write '", statsFile, "'");
            // Simulation stats plus the host-side scheduler counters
            // (sim.sched.* and host.*, kept separate in RunResult so
            // bit-identity comparisons never see them).
            StatSet full = r.stats;
            full.merge(r.sched, "");
            full.merge(runner.hostCounters(), "");
            if (statsFile.ends_with(".json"))
                full.dumpJson(out);
            else if (statsFile.ends_with(".csv"))
                full.dumpCsv(out);
            else
                full.dumpText(out);
            if (!opts.quiet)
                std::printf("stats       %s (%zu entries)\n",
                            statsFile.c_str(), full.size());
        }

        if (!opts.quiet) {
            obs::ObsConfig o = obsFor(i);
            if (!o.timeSeriesCsv.empty())
                std::printf("timeseries  %s\n", o.timeSeriesCsv.c_str());
            if (!o.jsonlPath.empty())
                std::printf("events      %s\n", o.jsonlPath.c_str());
            if (!o.chromePath.empty())
                std::printf("trace       %s\n", o.chromePath.c_str());
        }
    }

    const std::string &profile = host.finish(runner.hostCounters());
    if (!profile.empty() && !opts.quiet)
        std::printf("host        %s (mtp-report host renders it)\n",
                    profile.c_str());
    return 0;
}
