/**
 * @file
 * The paper campaign layer: every figure/table harness exposes its
 * result through a registered CampaignSpec — a name, a paper anchor,
 * and a run function that returns structured tables instead of ad-hoc
 * stdout — so one driver (tools/mtp-campaign) can execute the whole
 * Table II–VI / Fig. 7–18 suite through a single shared Runner,
 * stream live progress, and emit one consolidated manifest
 * (BENCH_campaign.json) that `mtp-report campaign diff --gate` checks
 * against golden snapshots.
 *
 * Determinism contract: the manifest body (provenance + figures) is a
 * pure function of the configuration — figure tables come from
 * bit-identical simulations, and common/json_writer.hh spells every
 * number locale-independently — so it is byte-identical across --jobs.
 * Wall-clock and cache statistics, which legitimately vary, live in a
 * separate "session" block that the diff gate ignores and that
 * --no-session omits entirely.
 */

#ifndef MTP_BENCH_CAMPAIGN_HH
#define MTP_BENCH_CAMPAIGN_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_common.hh"
#include "bench/provenance.hh"
#include "obs/flight_recorder.hh"
#include "obs/json.hh"

namespace mtp {
namespace bench {

/** One table cell: a number (with a display precision) or a string. */
struct Cell
{
    enum class Kind
    {
        Number,
        Text,
    };

    Kind kind = Kind::Text;
    double num = 0.0;
    int prec = 2; //!< digits after the decimal point in human output
    std::string text;

    static Cell
    number(double v, int precision = 2)
    {
        Cell c;
        c.kind = Kind::Number;
        c.num = v;
        c.prec = precision;
        return c;
    }

    static Cell
    str(std::string s)
    {
        Cell c;
        c.kind = Kind::Text;
        c.text = std::move(s);
        return c;
    }
};

/** One result table; the first column is the row label. */
struct Table
{
    std::string name;
    std::vector<std::string> columns;
    std::vector<std::vector<Cell>> rows;

    void
    addRow(std::vector<Cell> cells)
    {
        rows.push_back(std::move(cells));
    }
};

/** Everything one harness produces: tables + rollup metrics + notes. */
struct FigureResult
{
    std::vector<Table> tables;

    /** Named rollup metrics (geomeans, agreement rates, ...), in
     *  insertion order; these are what `campaign show` surfaces and
     *  what per-metric gate rules most often target. */
    std::vector<std::pair<std::string, double>> summary;

    /** Free-form commentary (the paper's expected shape). */
    std::vector<std::string> notes;

    void
    metric(const std::string &name, double value)
    {
        summary.emplace_back(name, value);
    }
};

/**
 * The benchmark x column run matrix most figures are: for each
 * benchmark, the baseline run (baseConfig(), the kernel as built) and
 * one run per column. The constructor submits them in exactly that
 * order — benchmark by benchmark, baseline first — so the figure's
 * runs are declared once, and the accessors block on the handles.
 */
class RunMatrix
{
  public:
    /** A config and the software-prefetch variant of each benchmark's
     *  kernel it runs. */
    struct Column
    {
        std::string name; //!< table header
        SimConfig cfg;
        SwPrefKind sw = SwPrefKind::None;
        std::string metric = name; //!< "geomean.<metric>"; empty: none
    };

    /** Submit the matrix over the --bench list, or over @p fallback. */
    RunMatrix(Runner &runner, const Options &opts,
              const std::vector<std::string> &fallback,
              std::vector<Column> columns);

    /** Number of benchmarks (rows). */
    std::size_t size() const { return workloads_.size(); }

    const Workload &workload(std::size_t b) const { return workloads_[b]; }
    const RunResult &baseline(std::size_t b) const;
    const RunResult &run(std::size_t b, std::size_t c) const;

    /** Baseline cycles over column @p c's cycles for benchmark @p b. */
    double speedup(std::size_t b, std::size_t c) const;

    /** Column @p c's speedups, one per benchmark. */
    std::vector<double> speedups(std::size_t c) const;

    /**
     * Append the speedup table of columns [first, last) to @p out: one
     * row per benchmark (its name, its workload type when
     * @p typeColumn, one speedup per column), a geomean row, and a
     * "geomean.<metric>" summary metric per column.
     */
    void speedupTable(FigureResult &out, const std::string &name,
                      bool typeColumn, std::size_t first = 0,
                      std::size_t last = SIZE_MAX) const;

  private:
    std::vector<Column> columns_;
    std::vector<Workload> workloads_;
    std::vector<std::shared_future<RunResult>> baselines_; //!< [b]
    std::vector<std::vector<std::shared_future<RunResult>>> runs_; //!< [b][c]
};

/** A registered harness: how to run it and where it sits in the paper. */
struct CampaignSpec
{
    std::string name;   //!< manifest key, e.g. "fig10_swp"
    std::string title;  //!< human title
    std::string anchor; //!< paper anchor, e.g. "Fig. 10"
    FigureResult (*run)(Runner &, const Options &);
};

/** Every registered spec, in paper order (tables, then figures). */
const std::vector<CampaignSpec> &campaignSpecs();

/** Lookup by manifest name; nullptr when unknown. */
const CampaignSpec *findSpec(const std::string &name);

/** Render one figure's tables/summary/notes as human-readable text. */
void renderFigure(std::FILE *out, const CampaignSpec &spec,
                  const FigureResult &result);

/** Options overload of bench/provenance.hh's collectProvenance(). */
Provenance collectProvenance(const Options &opts);

/** One executed figure: its spec, tables, and run identities. */
struct FigureRun
{
    const CampaignSpec *spec = nullptr;
    FigureResult result;
    std::vector<std::string> fingerprints; //!< distinct runs, in order
    double wallSeconds = 0.0;              //!< session data, not gated
};

/**
 * A figure produced by a self-timing subprocess harness (bench_simrate,
 * bench_obs_overhead): its JSON artifact embedded verbatim. Marked
 * volatile in the manifest — wall-clock measurements are not gateable.
 */
struct RawFigure
{
    std::string name;
    std::string title;
    std::string anchor;
    obs::JsonValue raw;
    double wallSeconds = 0.0;
};

/** The consolidated campaign outcome behind BENCH_campaign.json. */
struct CampaignResult
{
    Provenance provenance;
    unsigned jobs = 0;
    double wallSeconds = 0.0;
    std::uint64_t runsExecuted = 0;
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    /** Always 0: the executor has one queue and steals nothing. Kept
     *  only because perfbench/ reads it. */
    std::uint64_t steals = 0;
    // Session data (DESIGN.md §12): legitimately varies run to run,
    // excluded from the diff gate.
    double runsPerSec = 0.0;
    StatSet hostCounters; //!< the Runner's host.* counters (hostCounters())
    std::vector<FigureRun> figures;
    std::vector<RawFigure> rawFigures;
};

/**
 * Thread-safe live-progress aggregator. runCampaign() installs it as
 * the obs forwardSink of every run, so each §8 sampler boundary of
 * each concurrent simulation bumps the snapshot counters; a render
 * thread polls view() to draw the status line. All sink callbacks are
 * lock-free (relaxed atomics) — they run inside simulation workers.
 */
class CampaignProgress : public obs::EventSink
{
  public:
    struct View
    {
        bool active = false;
        std::size_t figIndex = 0; //!< 0-based index of current figure
        std::size_t figTotal = 0;
        std::string figure;
        double figSeconds = 0.0; //!< elapsed in the current figure
        Cycle samplePeriod = 0;
        std::uint64_t samples = 0; //!< sampler boundaries forwarded
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t executed = 0;
        std::uint64_t figStartMisses = 0;
        std::uint64_t figStartExecuted = 0;
    };

    /** Start publishing @p runner's counters; @p period = forward period. */
    void bind(const Runner *runner, Cycle period);

    /** Mark the start of figure @p index of @p total named @p name. */
    void beginFigure(std::size_t index, std::size_t total,
                     const std::string &name);

    /** Stop publishing (the campaign is done; runner may die). */
    void finish();

    View view() const;

    void
    sample(Cycle now, const std::vector<double> &values) override
    {
        (void)now;
        (void)values;
        samples_.fetch_add(1, std::memory_order_relaxed);
        // Campaign heartbeat: every sampler boundary of every live
        // simulation proves forward progress to the hung-run watchdog.
        obs::FlightRecorder::beat();
    }

  private:
    mutable std::mutex mutex_;
    const Runner *runner_ = nullptr;
    Cycle period_ = 0;
    std::size_t figIndex_ = 0;
    std::size_t figTotal_ = 0;
    std::string figure_;
    std::chrono::steady_clock::time_point figStart_{};
    std::uint64_t figStartMisses_ = 0;
    std::uint64_t figStartExecuted_ = 0;
    std::atomic<std::uint64_t> samples_{0};
};

/**
 * Execute the registered specs (all of them, or the @p only subset)
 * through one shared Runner — cross-figure duplicate runs hit the one
 * RunCache — and collect the consolidated result. @p progress, when
 * non-null, receives bind/beginFigure/finish calls and is installed
 * as every run's sampler forwardSink (period = --sample-period, or
 * the scaled throttle period). @p onFigure fires after each figure
 * completes, before the next starts.
 */
CampaignResult
runCampaign(const Options &opts, const std::vector<std::string> &only,
            CampaignProgress *progress = nullptr,
            const std::function<void(const FigureRun &)> &onFigure = {});

/**
 * Write the consolidated manifest. @p includeSession controls the
 * volatile "session" block (wall clock, cache stats, thread budget);
 * everything else is byte-identical across --jobs.
 */
void writeManifest(std::ostream &os, const CampaignResult &res,
                   bool includeSession);

/** Re-serialize a parsed JSON value in the manifest's pretty layout,
 *  its first line at @p indent. */
void writeJsonValue(std::string &out, const obs::JsonValue &v,
                    int indent);

} // namespace bench
} // namespace mtp

#endif // MTP_BENCH_CAMPAIGN_HH
