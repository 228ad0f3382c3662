#include "bench/bench_common.hh"

#include <cmath>
#include <cstring>

#include "driver/fingerprint.hh"
#include "obs/host_profiler.hh"

namespace mtp {
namespace bench {

Options
parseArgs(int argc, char **argv, const std::vector<cli::Flag> &extra,
          HostObs *host)
{
    Options opts;
    cli::Command cmd;
    cmd.operands = "[key=value ...]";
    cmd.flags = extra;
    if (host)
        for (cli::Flag &f : host->flags())
            cmd.flags.push_back(std::move(f));
    cmd.flags.insert(cmd.flags.end(), {
        {"--scale", "N", "grid divisor (default 8); scales the throttle period",
         [&](const cli::Arg &a) { opts.setScale(a.number(1u)); }},
        {"--bench", "LIST", "benchmarks to run (comma list)",
         [&](const cli::Arg &a) { opts.benchmarks = a.list(); }},
        {"--jobs", "N", "parallel simulations (default: all cores; max 1024)",
         [&](const cli::Arg &a) {
             // Capped like numCores: refused before any thread starts.
             opts.jobs = a.number(1u);
             if (opts.jobs > 1024)
                 a.fail("--jobs must be <= 1024");
         }},
        {"--sample-period", "N", "sample time-series probes every N cycles",
         [&](const cli::Arg &a) { opts.samplePeriod = a.number<Cycle>(); }},
        {"--quiet", "", "print no report to stdout",
         [&](const cli::Arg &) { opts.quiet = true; }},
    });
    cmd.operand = [&](const cli::Arg &a) {
        if (a.value.find('=') == std::string::npos)
            a.fail("unexpected argument '" + a.value + "' (not key=value)");
        opts.overrides.push_back(a.value);
    };
    cli::parse(argc, argv, {cmd});
    return opts;
}

std::vector<cli::Flag>
HostObs::flags()
{
    return {
        {"--host-profile", "FILE", "per-thread, per-phase host profile (JSONL)",
         [this](const cli::Arg &a) { profilePath_ = a.value; }},
        {"--watchdog-sec", "N", "dump diagnostics after N s without progress",
         [this](const cli::Arg &a) {
             watchdogSec_ = a.number<double>();
             if (!(watchdogSec_ > 0.0))
                 a.fail("--watchdog-sec must be > 0");
         }},
    };
}

void
HostObs::start()
{
    if (!profilePath_.empty()) {
        obs::HostProfiler::enable();
        obs::HostProfiler::nameThread("main");
    }
    if (watchdogSec_ > 0.0) {
        obs::FlightRecorder::installCrashHandler();
        watchdog_ = std::make_unique<obs::Watchdog>(watchdogSec_,
                                                    profilePath_);
    }
}

const std::string &
HostObs::finish(const StatSet &counters)
{
    if (profilePath_.empty())
        return profilePath_;
    obs::HostProfiler::Snapshot snap = obs::HostProfiler::snapshot();
    double wallSec =
        static_cast<double>(snap.takenAtNs - snap.enabledAtNs) / 1e9;
    std::vector<std::pair<std::string, double>> rows;
    for (const StatSet::Entry &e : counters.entries())
        rows.emplace_back(e.name, e.value);
    double runs = counters.get("host.exec.executed");
    rows.emplace_back("host.wallSeconds", wallSec);
    rows.emplace_back("host.runsPerSec", wallSec > 0.0 ? runs / wallSec : 0.0);
    std::FILE *f = std::fopen(profilePath_.c_str(), "w");
    if (!f)
        MTP_FATAL("cannot write '", profilePath_, "'");
    obs::writeHostProfileJsonl(f, snap, rows);
    std::fclose(f);
    return profilePath_;
}

SimConfig
baseConfig(const Options &opts)
{
    SimConfig cfg;
    cfg.throttlePeriod = opts.throttlePeriod;
    cfg.applyOverrides(opts.overrides);
    return cfg;
}

void
checkBenchmarks(const std::vector<std::string> &names)
{
    for (const std::string &n : names)
        if (!Suite::has(n))
            cli::fail("unknown benchmark '" + n +
                      "' (mtp-sim --list prints them)");
}

std::vector<std::string>
selectBenchmarks(const Options &opts,
                 const std::vector<std::string> &fallback)
{
    checkBenchmarks(opts.benchmarks);
    return opts.benchmarks.empty() ? fallback : opts.benchmarks;
}

const std::vector<std::string> &
sweepSubset()
{
    static const std::vector<std::string> subset = {
        "monte", "scalar", "stream", // stride-type
        "backprop",                  // mp-type
        "cfd", "sepia",              // uncoal-type
    };
    return subset;
}

StatSet
Runner::hostCounters() const
{
    StatSet s;
    s.add("host.cache.hits", static_cast<double>(cache_.hits()),
          "run-cache submissions served from an entry");
    s.add("host.cache.misses", static_cast<double>(cache_.misses()),
          "distinct runs scheduled");
    s.add("host.exec.threads", static_cast<double>(exec_.threads()),
          "executor worker threads");
    s.add("host.exec.executed", static_cast<double>(exec_.executed()),
          "tasks finished so far");
    return s;
}

std::vector<std::string>
Runner::fingerprints(std::size_t from) const
{
    std::vector<std::string> tags;
    for (const driver::Fingerprint &fp : cache_.entries(from)) {
        driver::Fnv1a cfgHash;
        cfgHash.add(fp.config);
        char tag[64];
        std::snprintf(tag, sizeof(tag), ":%016llx:%016llx",
                      static_cast<unsigned long long>(cfgHash.value()),
                      static_cast<unsigned long long>(fp.kernelHash));
        tags.push_back(fp.kernelName + tag);
    }
    return tags;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 1.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

} // namespace bench
} // namespace mtp
