/**
 * @file
 * Cost of the observability layer on one memory-intensive run.
 *
 * The lifecycle hooks (MTP_OBS_HOOK) sit on the simulator's hottest
 * paths — MRQ enqueue, coalescing, DRAM scheduling, prefetch issue —
 * and with no observer attached each one is a single null check. This
 * harness times one simulation three ways, min-of-reps: hooks
 * disabled (how every other harness runs), lifecycle tracing plus
 * sampling on, and the host profiler on. It reports the two enabled
 * costs relative to the disabled run and asserts nothing: the
 * disabled path's speed is gated by the repository benchmark's
 * absolute kcycles/s figures (BENCHMARK.json).
 *
 * --help prints the flags: the common harness rows plus --out, --reps
 * and --smoke. key=value overrides apply to every timed run.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_common.hh"
#include "bench/provenance.hh"
#include "obs/host_profiler.hh"

namespace {

using namespace mtp;

/** Min-of-reps wall time of one simulation; min rejects noise. */
template <typename Fn>
double
minSeconds(unsigned reps, Fn &&fn)
{
    double best = 0.0;
    for (unsigned r = 0; r < reps; ++r) {
        auto t0 = std::chrono::steady_clock::now();
        fn();
        double s = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
        if (r == 0 || s < best)
            best = s;
    }
    return best;
}

double
kcyclesPerSec(Cycle cycles, double secs)
{
    return secs > 0.0 ? static_cast<double>(cycles) / secs / 1000.0 : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    unsigned reps = 5;
    std::string out = "BENCH_obs_overhead.json";
    bench::Options opts = bench::parseArgs(
        argc, argv,
        {{"--out", "FILE", "result file (default BENCH_obs_overhead.json)",
          [&](const cli::Arg &a) { out = a.value; }},
         {"--reps", "N", "timed runs per variant, min taken (default 5)",
          [&](const cli::Arg &a) { reps = a.number(1u); }},
         {"--smoke", "", "scale 64 and 3 reps",
          [&](const cli::Arg &) { smoke = true; }}});
    if (smoke) {
        opts.setScale(64);
        reps = 3;
    }
    if (!opts.benchmarks.empty())
        cli::fail("--bench is not accepted: this harness times stream");

    // A memory-intensive workload with hardware prefetching and the
    // throttle engine on exercises every hook site: coalesce, MRQ
    // enqueue, prefetch issue/drop, DRAM enqueue/schedule/done, return
    // and throttle updates.
    SimConfig cfg = bench::baseConfig(opts);
    cfg.hwPref = HwPrefKind::MTHWP;
    cfg.throttleEnable = true;
    Workload w = Suite::get("stream", opts.scaleDiv);

    RunResult warm = simulate(cfg, w.kernel); // warm caches, get cycles
    double disabledSec =
        minSeconds(reps, [&] { simulate(cfg, w.kernel); });

    obs::ObsConfig ocfg;
    ocfg.samplePeriod = 512;
    ocfg.chromePath = out + ".enabled.trace.json";
    double enabledSec =
        minSeconds(reps, [&] { simulate(cfg, w.kernel, ocfg); });
    std::remove(ocfg.chromePath.c_str());

    // Host profiler on, sim observation off: the wall-clock cost of
    // the DESIGN.md §12 scoped timers alone.
    obs::HostProfiler::enable();
    double hostProfSec =
        minSeconds(reps, [&] { simulate(cfg, w.kernel); });
    obs::HostProfiler::disable();

    double enabledPct = 100.0 * (enabledSec / disabledSec - 1.0);
    double hostProfPct = 100.0 * (hostProfSec / disabledSec - 1.0);
    if (!opts.quiet) {
        std::printf("bench_obs_overhead: stream/mthwp+throttle, "
                    "scale 1/%u, %u reps, %llu cycles\n",
                    opts.scaleDiv, reps,
                    static_cast<unsigned long long>(warm.cycles));
        std::printf("  hooks disabled: %8.3f s  (%10.1f kcycles/s)\n",
                    disabledSec, kcyclesPerSec(warm.cycles, disabledSec));
        std::printf("  tracing on:     %8.3f s  (%10.1f kcycles/s, "
                    "%+.1f%%)\n",
                    enabledSec, kcyclesPerSec(warm.cycles, enabledSec),
                    enabledPct);
        std::printf("  host profiler:  %8.3f s  (%10.1f kcycles/s, "
                    "%+.1f%%)\n",
                    hostProfSec, kcyclesPerSec(warm.cycles, hostProfSec),
                    hostProfPct);
    }

    std::string text;
    json::Writer doc(text);
    doc.beginObject().field("bench", "obs_overhead").field("volatile", true);
    bench::appendProvenance(
        doc, bench::collectProvenance(opts.scaleDiv, cfg.throttlePeriod,
                                    opts.overrides));
    doc.field("workload", "stream")
        .field("scaleDiv", opts.scaleDiv)
        .field("reps", reps)
        .field("cycles", warm.cycles)
        .field("disabledSeconds", disabledSec)
        .field("disabledKcyclesPerSec",
               kcyclesPerSec(warm.cycles, disabledSec))
        .field("enabledSeconds", enabledSec)
        .field("enabledKcyclesPerSec",
               kcyclesPerSec(warm.cycles, enabledSec))
        .field("enabledOverheadPct", enabledPct)
        .field("hostProfileSeconds", hostProfSec)
        .field("hostProfileOverheadPct", hostProfPct)
        .endObject();
    text += '\n';
    std::ofstream(out) << text;
    if (!opts.quiet)
        std::printf("wrote %s\n", out.c_str());
    return 0;
}
