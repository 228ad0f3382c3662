/**
 * @file
 * Shared infrastructure for the figure/table reproduction harnesses.
 *
 * Every `bench_*` binary regenerates one table or figure of the paper's
 * evaluation. By default the launch grids run at 1/8 of the paper's
 * geometry (occupancy and per-warp behaviour unchanged; see DESIGN.md)
 * and the throttle period is scaled with them. Pass `--scale N` to
 * change the divisor (1 = the paper's full grids) and `key=value`
 * pairs to override any SimConfig field.
 */

#ifndef MTP_BENCH_BENCH_COMMON_HH
#define MTP_BENCH_BENCH_COMMON_HH

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "mtprefetch/mtprefetch.hh"

namespace mtp {
namespace bench {

/** Command-line options common to all harnesses. */
struct Options
{
    unsigned scaleDiv = 8;      //!< grid divisor vs. the paper
    Cycle throttlePeriod = 5000; //!< scaled from the paper's 100K
    unsigned jobs = 0;          //!< worker threads (0 = all cores)
    Cycle samplePeriod = 0;     //!< --sample-period (0 = no sampling)
    std::string traceOut;       //!< --trace-out Chrome trace base path
    std::string jsonOut;        //!< --json machine-readable output path
    bool quiet = false;         //!< --quiet: suppress human tables
    std::vector<std::string> overrides; //!< SimConfig key=value pairs
    std::vector<std::string> benchmarks; //!< subset filter (--bench a,b)
};

/**
 * A harness-specific flag layered on top of the common CLI. Extra
 * flags are matched *before* the common set, so a harness can shadow
 * a common flag when its axis needs a different shape (bench_simrate
 * takes --out as an alias of --json, for example).
 */
struct FlagSpec
{
    std::string name;        //!< e.g. "--out"
    bool takesValue = true;  //!< consumes the following argv entry
    std::function<void(const std::string &)> handler;
};

/** Parse argv; recognises --scale, --bench, --jobs, --sample-period,
 *  --trace-out, --json, --quiet, key=value overrides and any @p extra
 *  harness flags. Unknown flags are fatal with a consistent message
 *  across every harness. @p extraUsage is appended to the --help
 *  line. */
Options parseArgs(int argc, char **argv,
                  const std::vector<FlagSpec> &extra = {},
                  const std::string &extraUsage = "");

/**
 * Observation settings for one run of a harness, derived from
 * --sample-period / --trace-out. @p runTag (e.g. "mthwp.stream") is
 * inserted into the output path so the many runs of one harness don't
 * clobber each other; with --trace-out the Chrome trace doubles as the
 * time-series sink. Returns a disabled config when neither flag was
 * given. Observation never enters the run fingerprint; the first
 * submission of a (config, kernel) key decides its ObsConfig.
 */
obs::ObsConfig obsConfig(const Options &opts, const std::string &runTag);

/** Table II baseline with the scaled throttle period + overrides. */
SimConfig baseConfig(const Options &opts);

/** Names to run: the subset filter or @p fallback. */
std::vector<std::string> selectBenchmarks(
    const Options &opts, const std::vector<std::string> &fallback);

/** A compact subset covering all three classes, for large sweeps. */
const std::vector<std::string> &sweepSubset();

/** Geometric mean of @p values (1.0 when empty). */
double geomean(const std::vector<double> &values);

/** Print the harness banner: title + paper reference + setup. */
void banner(const std::string &title, const std::string &reference,
            const Options &opts);

/**
 * Memoized, parallel simulation front end of every harness.
 *
 * Backed by the driver's work-stealing executor and its thread-safe
 * RunCache (keyed by the full config dump plus a content hash of the
 * kernel's instruction stream — see src/driver/fingerprint.hh).
 * Within one harness the same baseline run backs several columns, and
 * duplicate submissions cost nothing.
 *
 * Harnesses submit their entire run matrix up front (submit() /
 * submitBaseline()), then print in their natural order with run() /
 * baseline(), which block per result. Printing happens on the main
 * thread in submission order, so the output is deterministic and
 * byte-identical for every --jobs value.
 */
class Runner
{
  public:
    explicit Runner(const Options &opts)
        : opts_(opts), exec_(opts.jobs), cache_(exec_)
    {
    }

    /** Schedule a simulation without waiting for it. */
    void
    submit(const SimConfig &cfg, const KernelDesc &kernel,
           const obs::ObsConfig &ocfg = {})
    {
        recordFingerprint(cfg, kernel);
        cache_.submit(cfg, kernel, effectiveObs(ocfg));
    }

    /** Schedule a workload's no-prefetching baseline run. */
    void
    submitBaseline(const Workload &w)
    {
        submit(baseConfig(opts_), w.kernel);
    }

    /** Run (or reuse) a simulation of @p kernel under @p cfg. */
    const RunResult &
    run(const SimConfig &cfg, const KernelDesc &kernel)
    {
        recordFingerprint(cfg, kernel);
        return cache_.result(cfg, kernel, effectiveObs({}));
    }

    /** Baseline (no prefetching) run of a workload's kernel. */
    const RunResult &
    baseline(const Workload &w)
    {
        return run(baseConfig(opts_), w.kernel);
    }

    const Options &options() const { return opts_; }

    /** Worker threads actually in use. */
    unsigned jobs() const { return exec_.threads(); }

    /**
     * Observation applied to submissions whose own ObsConfig is
     * disabled (the campaign runner's live-progress forwarding). A
     * caller-provided enabled config still wins; like every ObsConfig
     * the defaults never enter the fingerprint or change results.
     */
    void setObsDefaults(const obs::ObsConfig &ocfg) { obsDefaults_ = ocfg; }

    /** Submissions served from an existing cache entry. */
    std::uint64_t cacheHits() const { return cache_.hits(); }

    /** Distinct runs scheduled (cache misses). */
    std::uint64_t cacheMisses() const { return cache_.misses(); }

    /** Runs that have finished executing so far. */
    std::uint64_t executed() const { return exec_.executed(); }

    /** Runs stolen across worker deques (load-imbalance telemetry). */
    std::uint64_t steals() const { return exec_.steals(); }

    /** Cache entries discarded (always 0; see RunCache::evictions). */
    std::uint64_t cacheEvictions() const { return cache_.evictions(); }

    /**
     * Fingerprint tag of every distinct run submitted, in
     * first-submission order: "<kernel>:<config hash>:<kernel hash>".
     */
    const std::vector<std::string> &fingerprints() const { return fps_; }

  private:
    void recordFingerprint(const SimConfig &cfg,
                           const KernelDesc &kernel);

    obs::ObsConfig
    effectiveObs(const obs::ObsConfig &ocfg) const
    {
        return ocfg.enabled() || ocfg.forwardSink ? ocfg : obsDefaults_;
    }

    Options opts_;
    driver::ParallelExecutor exec_;
    driver::RunCache cache_;
    obs::ObsConfig obsDefaults_;
    std::vector<std::string> fps_;
    std::unordered_set<std::string> fpSeen_;
};

} // namespace bench
} // namespace mtp

#endif // MTP_BENCH_BENCH_COMMON_HH
