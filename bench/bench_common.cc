#include "bench/bench_common.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "driver/fingerprint.hh"

namespace mtp {
namespace bench {

Options
parseArgs(int argc, char **argv, const std::vector<FlagSpec> &extra,
          const std::string &extraUsage)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        // Harness-specific flags match first so a harness can shadow
        // a common flag with its own shape.
        const FlagSpec *matched = nullptr;
        for (const auto &spec : extra) {
            if (arg == spec.name) {
                matched = &spec;
                break;
            }
        }
        if (matched) {
            std::string value;
            if (matched->takesValue) {
                if (i + 1 >= argc)
                    MTP_FATAL("flag '", arg, "' expects a value");
                value = argv[++i];
            }
            matched->handler(value);
            continue;
        }
        if (arg == "--scale" && i + 1 < argc) {
            opts.scaleDiv = parseNumber<unsigned>("--scale", argv[++i]);
            if (opts.scaleDiv == 0)
                MTP_FATAL("--scale must be >= 1");
            // Keep the throttle period proportional to run length.
            opts.throttlePeriod =
                std::max<Cycle>(1000, 40000 / opts.scaleDiv);
        } else if (arg == "--bench" && i + 1 < argc) {
            std::stringstream ss(argv[++i]);
            std::string name;
            while (std::getline(ss, name, ','))
                opts.benchmarks.push_back(name);
        } else if (arg == "--jobs" && i + 1 < argc) {
            opts.jobs = parseNumber<unsigned>("--jobs", argv[++i]);
            if (opts.jobs == 0)
                MTP_FATAL("--jobs must be >= 1");
        } else if (arg == "--sample-period" && i + 1 < argc) {
            opts.samplePeriod =
                parseNumber<std::uint64_t>("--sample-period", argv[++i]);
        } else if (arg == "--quiet" || arg == "-q") {
            opts.quiet = true;
        } else if (arg == "--help" || arg == "-h") {
            std::printf("usage: %s [--scale N] [--bench a,b,...] "
                        "[--jobs N] [--sample-period N] "
                        "[--quiet]%s%s [key=value ...]\n",
                        argv[0], extraUsage.empty() ? "" : " ",
                        extraUsage.c_str());
            std::exit(0);
        } else if (arg.find('=') != std::string::npos &&
                   arg.rfind("--", 0) != 0) {
            opts.overrides.push_back(arg);
        } else {
            MTP_FATAL("unknown argument '", arg,
                      "' (see --help for the accepted flags)");
        }
    }
    return opts;
}

SimConfig
baseConfig(const Options &opts)
{
    SimConfig cfg;
    cfg.throttlePeriod = opts.throttlePeriod;
    cfg.applyOverrides(opts.overrides);
    return cfg;
}

std::vector<std::string>
selectBenchmarks(const Options &opts,
                 const std::vector<std::string> &fallback)
{
    if (opts.benchmarks.empty())
        return fallback;
    for (const auto &n : opts.benchmarks) {
        if (!Suite::has(n))
            MTP_FATAL("unknown benchmark '", n, "'");
    }
    return opts.benchmarks;
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

void
Runner::recordFingerprint(const SimConfig &cfg, const KernelDesc &kernel)
{
    driver::Fingerprint fp = driver::fingerprint(cfg, kernel);
    driver::Fnv1a cfgHash;
    cfgHash.add(fp.config);
    char tag[64];
    std::snprintf(tag, sizeof(tag), ":%016llx:%016llx",
                  static_cast<unsigned long long>(cfgHash.value()),
                  static_cast<unsigned long long>(fp.kernelHash));
    std::string key = fp.kernelName + tag;
    if (fpSeen_.insert(key).second)
        fps_.push_back(std::move(key));
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
