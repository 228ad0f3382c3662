/**
 * @file
 * Shared infrastructure for the figure/table reproduction harnesses.
 *
 * Every registered CampaignSpec regenerates one table or figure of the
 * paper's evaluation (`mtp-campaign --only <spec>` runs one). By
 * default the launch grids run at 1/8 of the paper's geometry
 * (occupancy and per-warp behaviour unchanged; see DESIGN.md) and the
 * throttle period is scaled with them. Pass `--scale N` to change the
 * divisor (1 = the paper's full grids) and `key=value` pairs to
 * override any SimConfig field. mtp-sim takes the same common flags.
 */

#ifndef MTP_BENCH_BENCH_COMMON_HH
#define MTP_BENCH_BENCH_COMMON_HH

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.hh"
#include "mtprefetch/mtprefetch.hh"
#include "obs/flight_recorder.hh"

namespace mtp {
namespace bench {

/** The paper's 100K-cycle throttle period scaled with the grid divisor
 *  (--scale): max(1000, 40000 / scaleDiv). */
constexpr Cycle
scaledThrottlePeriod(unsigned scaleDiv)
{
    return std::max<Cycle>(1000, 40000 / scaleDiv);
}

/** Command-line options common to all harnesses and mtp-sim. */
struct Options
{
    unsigned scaleDiv = 8;      //!< grid divisor vs. the paper
    Cycle throttlePeriod = scaledThrottlePeriod(8); //!< follows scaleDiv
    unsigned jobs = 0;          //!< worker threads (0 = all cores)
    Cycle samplePeriod = 0;     //!< --sample-period (0 = no sampling)
    bool quiet = false;         //!< --quiet: suppress human tables
    std::vector<std::string> overrides; //!< SimConfig key=value pairs
    std::vector<std::string> benchmarks; //!< subset filter (--bench a,b)

    /** Set the grid divisor and the throttle period that follows it. */
    void
    setScale(unsigned div)
    {
        scaleDiv = div;
        throttlePeriod = scaledThrottlePeriod(div);
    }
};

/** --host-profile FILE and --watchdog-sec N: the host observability of
 *  one mtp-sim or mtp-campaign run (DESIGN.md §12). */
class HostObs
{
  public:
    /** The two flag rows; they write into this object. */
    std::vector<cli::Flag> flags();
    bool profiling() const { return !profilePath_.empty(); }

    /** Open the profiling window and arm the watchdog; call before any
     *  executor exists, so its workers name themselves. */
    void start();

    /** Write the profile: @p counters plus host.wallSeconds and
     *  host.runsPerSec. Returns its path, empty when off. */
    const std::string &finish(const StatSet &counters);

  private:
    std::string profilePath_;
    double watchdogSec_ = 0.0;
    std::unique_ptr<obs::Watchdog> watchdog_;
};

/** Parse a command line: the program's @p extra rows, @p host's rows,
 *  the common rows (--scale, --bench, --jobs, --sample-period, --quiet)
 *  and key=value overrides as operands. */
Options parseArgs(int argc, char **argv,
                  const std::vector<cli::Flag> &extra = {},
                  HostObs *host = nullptr);

/** The host.* counters of an executor and its run cache, as --stats
 *  dumps and host profiles carry them. */
StatSet hostCounters(const driver::RunCache &cache,
                     const driver::ParallelExecutor &exec);

/** Table II baseline with the scaled throttle period + overrides. */
SimConfig baseConfig(const Options &opts);

/** Exit with one fatal: line naming the first of @p names that is not
 *  a suite benchmark. */
void checkBenchmarks(const std::vector<std::string> &names);

/** Names to run: the subset filter (checked) or @p fallback. */
std::vector<std::string> selectBenchmarks(
    const Options &opts, const std::vector<std::string> &fallback);

/** A compact subset covering all three classes, for large sweeps. */
const std::vector<std::string> &sweepSubset();

/** Geometric mean of @p values (1.0 when empty). */
double geomean(const std::vector<double> &values);

/**
 * Memoized, parallel simulation front end of every harness.
 *
 * Backed by the driver's work-stealing executor and its thread-safe
 * RunCache (keyed by the full config dump plus a content hash of the
 * kernel's instruction stream — see src/driver/fingerprint.hh), so a
 * run shared by several figures of one campaign simulates once.
 *
 * A harness declares each run once: submit() schedules it and returns
 * its handle, and the harness reads the handles after its whole matrix
 * is submitted (RunMatrix in bench/campaign.hh does both for the
 * benchmark x column figures). Reading happens on the main thread in
 * submission order, so the output is deterministic and byte-identical
 * for every --jobs value.
 */
class Runner
{
  public:
    explicit Runner(const Options &opts) : exec_(opts.jobs), cache_(exec_)
    {
    }

    /** Schedule a simulation without waiting for it; get() on the
     *  handle blocks until its result is ready. */
    std::shared_future<RunResult>
    submit(const SimConfig &cfg, const KernelDesc &kernel)
    {
        return cache_.submit(cfg, kernel, obsDefaults_);
    }

    /** Worker threads actually in use. */
    unsigned jobs() const { return exec_.threads(); }

    /**
     * Observation applied to every submission (the campaign runner's
     * live-progress forwarding). Like every ObsConfig it never enters
     * the fingerprint or changes results.
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

    /** The host.* counters (hostCounters()). */
    StatSet hostCounters() const { return bench::hostCounters(cache_, exec_); }

    /**
     * Fingerprint tag of every distinct run from the @p from-th on, in
     * the order the runs were first submitted:
     * "<kernel>:<config hash>:<kernel hash>".
     */
    std::vector<std::string> fingerprints(std::size_t from) const;

  private:
    driver::ParallelExecutor exec_;
    driver::RunCache cache_;
    obs::ObsConfig obsDefaults_;
};

} // namespace bench
} // namespace mtp

#endif // MTP_BENCH_BENCH_COMMON_HH
