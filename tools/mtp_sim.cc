/**
 * @file
 * mtp-sim: command-line front end of the mtprefetch simulator.
 *
 *   mtp-sim --list
 *   mtp-sim --bench backprop --hw mthwp --throttle --scale 8
 *   mtp-sim --bench scalar --sw stride_ip --stats stats.txt --csv
 *   mtp-sim --kernel my_kernel.mtk --hw stride_pc numCores=20
 *   mtp-sim --bench sepia --dump-kernel sepia.mtk
 *
 * Runs one simulation and prints the headline summary; optionally
 * dumps the complete hierarchical statistics as text or CSV.
 */

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "mtprefetch/mtprefetch.hh"
#include "obs/flight_recorder.hh"
#include "obs/host_profiler.hh"
#include "trace/kernel_io.hh"

namespace {

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options] [key=value ...]\n"
        "  --list                 list available benchmarks and exit\n"
        "  --bench <a,b,...>      run suite benchmarks (comma list)\n"
        "  --kernel <file>        run a kernel description file\n"
        "  --sw <kind>            software prefetch transform\n"
        "                         (none|register|stride|ip|stride_ip)\n"
        "  --hw <kind>            hardware prefetcher\n"
        "                         (none|stride_rpt|stride_pc|stream|\n"
        "                          ghb|mthwp)\n"
        "  --throttle             enable the adaptive throttle engine\n"
        "  --scale <N>            grid divisor vs. the paper (default 8)\n"
        "  --jobs <N>             parallel simulations (default: all\n"
        "                         cores); results are identical for\n"
        "                         every N\n"
        "  --stats <file>         dump full statistics to <file>\n"
        "  --csv                  CSV statistics instead of text\n"
        "  --json                 JSON statistics instead of text\n"
        "  --sample-period <N>    sample time-series probes every N cycles\n"
        "  --timeseries <file>    write sampled time series as CSV\n"
        "  --events <file>        write lifecycle/throttle events as JSONL\n"
        "  --trace-out <file>     write a Chrome trace-event JSON file\n"
        "                         (open in Perfetto / chrome://tracing)\n"
        "  --host-profile [file]  profile host threads (wall-clock per\n"
        "                         engine phase, DESIGN.md §12); merged\n"
        "                         into --trace-out, JSONL to [file]\n"
        "  --watchdog-sec <N>     dump flight-recorder state and abort\n"
        "                         diagnosis to stderr if the process\n"
        "                         makes no progress for N seconds\n"
        "  --dump-kernel <file>   write the (transformed) kernel and exit\n"
        "  --quiet                suppress the summary (stats only)\n"
        "  key=value              override any SimConfig field\n"
        "With several benchmarks, observability paths get a per-kernel\n"
        "tag inserted before the extension (out.json -> out.mp.json).\n",
        argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace mtp;

    std::vector<std::string> benches;
    std::string kernel_file;
    std::string stats_file;
    std::string dump_kernel;
    SwPrefKind sw = SwPrefKind::None;
    bool throttle = false;
    bool csv = false;
    bool json = false;
    bool quiet = false;
    bool hostProfile = false;
    std::string hostProfileOut;
    double watchdogSec = 0.0;
    unsigned scale = 8;
    unsigned jobs = 0; // 0 = all cores
    SimConfig cfg;
    obs::ObsConfig ocfg;
    cfg.throttlePeriod = 5000; // scaled default; overridable below

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&](const char *what) -> std::string {
            if (i + 1 >= argc)
                MTP_FATAL(what, " needs an argument");
            return argv[++i];
        };
        if (arg == "--list") {
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
        } else if (arg == "--bench") {
            std::stringstream ss(next("--bench"));
            std::string name;
            while (std::getline(ss, name, ','))
                benches.push_back(name);
        } else if (arg == "--kernel") {
            kernel_file = next("--kernel");
        } else if (arg == "--sw") {
            sw = parseSwPrefKind(next("--sw"));
        } else if (arg == "--hw") {
            cfg.hwPref = parseHwPrefKind(next("--hw"));
        } else if (arg == "--throttle") {
            throttle = true;
        } else if (arg == "--scale") {
            scale = parseUnsigned("--scale", next("--scale"));
            if (scale == 0)
                MTP_FATAL("--scale must be >= 1");
        } else if (arg == "--jobs") {
            jobs = parseUnsigned("--jobs", next("--jobs"));
            if (jobs == 0)
                MTP_FATAL("--jobs must be >= 1");
        } else if (arg == "--stats") {
            stats_file = next("--stats");
        } else if (arg == "--csv") {
            csv = true;
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--sample-period") {
            ocfg.samplePeriod =
                parseU64("--sample-period", next("--sample-period"));
        } else if (arg == "--timeseries") {
            ocfg.timeSeriesCsv = next("--timeseries");
        } else if (arg == "--events") {
            ocfg.jsonlPath = next("--events");
        } else if (arg == "--trace-out") {
            ocfg.chromePath = next("--trace-out");
        } else if (arg == "--host-profile") {
            hostProfile = true;
            // Optional output path: consume the next token unless it
            // is another flag or a key=value override.
            if (i + 1 < argc && argv[i + 1][0] != '-' &&
                std::string(argv[i + 1]).find('=') == std::string::npos)
                hostProfileOut = argv[++i];
        } else if (arg == "--watchdog-sec") {
            watchdogSec =
                parseDouble("--watchdog-sec", next("--watchdog-sec"));
            if (watchdogSec <= 0.0)
                MTP_FATAL("--watchdog-sec must be > 0");
        } else if (arg == "--dump-kernel") {
            dump_kernel = next("--dump-kernel");
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (arg.find('=') != std::string::npos) {
            cfg.applyOverride(arg);
        } else {
            std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
            usage(argv[0]);
            return 1;
        }
    }
    cfg.throttleEnable = throttle || cfg.throttleEnable;

    if (benches.empty() == kernel_file.empty()) {
        std::fprintf(stderr,
                     "exactly one of --bench or --kernel is required\n");
        usage(argv[0]);
        return 1;
    }

    // Host observability (DESIGN.md §12): the profiler window opens
    // before kernel assembly so build time is attributed too; the
    // watchdog and crash handler cover the whole run.
    ocfg.hostProfile = hostProfile;
    if (hostProfile) {
        obs::HostProfiler::enable();
        obs::HostProfiler::nameThread("main");
    }
    std::unique_ptr<obs::Watchdog> watchdog;
    if (watchdogSec > 0.0) {
        obs::FlightRecorder::installCrashHandler();
        watchdog = std::make_unique<obs::Watchdog>(watchdogSec,
                                                   hostProfileOut);
    }

    // Assemble the run matrix: every benchmark named by --bench (or
    // the one --kernel file), each with the requested SW transform.
    std::vector<KernelDesc> kernels;
    {
        obs::HostScope kernelBuild(obs::HostPhase::KernelBuild);
        if (!benches.empty()) {
            for (const auto &bench : benches) {
                if (!Suite::has(bench)) {
                    std::fprintf(stderr, "unknown benchmark '%s'\n",
                                 bench.c_str());
                    return 1;
                }
                Workload w = Suite::get(bench, scale);
                KernelDesc kernel = w.kernel;
                if (sw != SwPrefKind::None)
                    kernel = applySwPrefetch(kernel, sw, w.info.swpOpts);
                kernels.push_back(std::move(kernel));
            }
        } else {
            KernelDesc kernel = readKernelFile(kernel_file);
            if (sw != SwPrefKind::None)
                kernel = applySwPrefetch(kernel, sw, SwPrefetchOptions{});
            kernels.push_back(std::move(kernel));
        }
    }

    if (!dump_kernel.empty()) {
        if (kernels.size() != 1)
            MTP_FATAL("--dump-kernel needs exactly one benchmark");
        std::ofstream out(dump_kernel);
        if (!out)
            MTP_FATAL("cannot write '", dump_kernel, "'");
        writeKernel(out, kernels.front());
        std::printf("wrote %s\n", dump_kernel.c_str());
        return 0;
    }
    if (!stats_file.empty() && kernels.size() != 1)
        MTP_FATAL("--stats needs exactly one benchmark");

    if (ocfg.wantsSampling() && ocfg.timeSeriesCsv.empty() &&
        ocfg.jsonlPath.empty() && ocfg.chromePath.empty()) {
        std::fprintf(stderr,
                     "--sample-period without --timeseries/--events/"
                     "--trace-out produces no output\n");
        return 1;
    }

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
    driver::ParallelExecutor exec(jobs);
    driver::RunCache cache(exec);
    for (std::size_t i = 0; i < kernels.size(); ++i)
        cache.submit(cfg, kernels[i], obsFor(i));

    bool first = true;
    for (std::size_t i = 0; i < kernels.size(); ++i) {
        const KernelDesc &kernel = kernels[i];
        const RunResult &r = cache.result(cfg, kernel);

        if (!quiet) {
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

        if (!stats_file.empty()) {
            std::ofstream out(stats_file);
            if (!out)
                MTP_FATAL("cannot write '", stats_file, "'");
            // Simulation stats plus the host-side scheduler counters
            // (sim.sched.* and host.*, kept separate in RunResult so
            // bit-identity comparisons never see them).
            StatSet full = r.stats;
            full.merge(r.sched, "");
            full.add("host.cache.hits",
                     static_cast<double>(cache.hits()),
                     "run-cache submissions served from an entry");
            full.add("host.cache.misses",
                     static_cast<double>(cache.misses()),
                     "distinct runs scheduled");
            full.add("host.cache.evictions",
                     static_cast<double>(cache.evictions()),
                     "entries discarded (0 by contract)");
            full.add("host.cache.entries",
                     static_cast<double>(cache.size()),
                     "distinct entries resident");
            full.add("host.exec.threads",
                     static_cast<double>(exec.threads()),
                     "executor worker threads");
            full.add("host.exec.executed",
                     static_cast<double>(exec.executed()),
                     "tasks finished so far");
            full.add("host.exec.steals",
                     static_cast<double>(exec.steals()),
                     "tasks stolen across worker deques");
            if (csv)
                full.dumpCsv(out);
            else if (json)
                full.dumpJson(out);
            else
                full.dumpText(out);
            if (!quiet)
                std::printf("stats       %s (%zu entries)\n",
                            stats_file.c_str(), full.size());
        }

        if (!quiet) {
            obs::ObsConfig o = obsFor(i);
            if (!o.timeSeriesCsv.empty())
                std::printf("timeseries  %s\n", o.timeSeriesCsv.c_str());
            if (!o.jsonlPath.empty())
                std::printf("events      %s\n", o.jsonlPath.c_str());
            if (!o.chromePath.empty())
                std::printf("trace       %s\n", o.chromePath.c_str());
        }
    }

    if (hostProfile && !hostProfileOut.empty()) {
        obs::HostProfiler::Snapshot snap =
            obs::HostProfiler::snapshot();
        double wallSec =
            static_cast<double>(snap.takenAtNs - snap.enabledAtNs) /
            1e9;
        std::vector<std::pair<std::string, double>> counters = {
            {"host.cache.hits", static_cast<double>(cache.hits())},
            {"host.cache.misses", static_cast<double>(cache.misses())},
            {"host.cache.evictions",
             static_cast<double>(cache.evictions())},
            {"host.cache.entries", static_cast<double>(cache.size())},
            {"host.exec.threads", static_cast<double>(exec.threads())},
            {"host.exec.executed", static_cast<double>(exec.executed())},
            {"host.exec.steals", static_cast<double>(exec.steals())},
            {"host.wallSeconds", wallSec},
            {"host.runsPerSec",
             wallSec > 0.0
                 ? static_cast<double>(exec.executed()) / wallSec
                 : 0.0},
        };
        std::FILE *f = std::fopen(hostProfileOut.c_str(), "w");
        if (!f)
            MTP_FATAL("cannot write '", hostProfileOut, "'");
        obs::writeHostProfileJsonl(f, snap, counters);
        std::fclose(f);
        if (!quiet)
            std::printf("host        %s (mtp-report host renders it)\n",
                        hostProfileOut.c_str());
    }
    return 0;
}
