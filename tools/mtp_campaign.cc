/**
 * @file
 * mtp-campaign: reproduce the paper's whole evaluation in one command.
 *
 * Runs every registered figure/table harness (bench/harnesses.hh)
 * through one shared Runner — one work-stealing executor, one
 * RunCache, so a baseline shared by five figures simulates once — and
 * writes the consolidated BENCH_campaign.json manifest: provenance
 * (git sha, host, scale, overrides), per-figure tables and summary
 * metrics, normalized run fingerprints, and a volatile "session"
 * block with wall-clock and cache statistics.
 *
 * While the campaign runs, a live status line on stderr (when stderr
 * is a terminal) streams the §8 sampler forwarding: figure progress,
 * runs completed vs. scheduled, in-flight count, cache-hit total and
 * simulated-cycle throughput. Each completed figure prints its table
 * to stdout unless --quiet.
 *
 * The two self-timing harnesses (bench_simrate, bench_obs_overhead)
 * measure wall-clock performance, which no shared-executor run can do
 * fairly while other simulations compete for cores. They run as serial
 * subprocesses after the deterministic figures, write their usual
 * BENCH_*.json next to --out, and are embedded in the manifest marked
 * "volatile": true — present for the record, ignored by the diff gate.
 *
 * `--only a,b` runs just the named figures (`--list` prints the
 * names) and requires `--out`. --help prints the flags: the rows in
 * main() plus the common harness rows; `--host-profile FILE` and
 * `--watchdog-sec N` are the same rows as mtp-sim's (DESIGN.md §12).
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "bench/campaign.hh"
#include "bench/campaign_diff.hh"

namespace {

using namespace mtp;
using namespace mtp::bench;

std::string
dirnameOf(const std::string &path)
{
    auto slash = path.find_last_of('/');
    return slash == std::string::npos ? std::string(".")
                                      : path.substr(0, slash);
}

/** Render the live status line from one progress snapshot. */
std::string
statusLine(const CampaignProgress::View &v, double totalSeconds)
{
    std::uint64_t figDone = v.executed - v.figStartExecuted;
    std::uint64_t figSched = v.misses - v.figStartMisses;
    std::uint64_t inFlight = v.misses - v.executed;
    double gcycles = static_cast<double>(v.samples) *
                     static_cast<double>(v.samplePeriod) / 1e9;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "[%zu/%zu] %-22s runs %llu/%llu (%llu in flight) | "
                  "%llu cache hits | %.2f Gcyc sampled | %.1fs",
                  v.figIndex + 1, v.figTotal, v.figure.c_str(),
                  static_cast<unsigned long long>(figDone),
                  static_cast<unsigned long long>(figSched),
                  static_cast<unsigned long long>(inFlight),
                  static_cast<unsigned long long>(v.hits), gcycles,
                  totalSeconds);
    return buf;
}

/**
 * Background stderr ticker: redraws the status line a few times a
 * second while the campaign runs. Only used when stderr is a terminal
 * — in CI the per-figure completion lines are the progress record.
 */
class Ticker
{
  public:
    explicit Ticker(const CampaignProgress &progress)
        : progress_(progress), t0_(std::chrono::steady_clock::now()),
          thread_([this] { loop(); })
    {
    }

    ~Ticker()
    {
        stop_.store(true);
        thread_.join();
        std::fprintf(stderr, "\r%*s\r", width_, "");
    }

  private:
    void
    loop()
    {
        while (!stop_.load()) {
            CampaignProgress::View v = progress_.view();
            if (v.active) {
                double total =
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0_)
                        .count();
                std::string line = statusLine(v, total);
                if (static_cast<int>(line.size()) > width_)
                    width_ = static_cast<int>(line.size());
                std::fprintf(stderr, "\r%-*s", width_, line.c_str());
                std::fflush(stderr);
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(200));
        }
    }

    const CampaignProgress &progress_;
    std::chrono::steady_clock::time_point t0_;
    std::atomic<bool> stop_{false};
    int width_ = 0;
    std::thread thread_;
};

/**
 * Run one self-timing harness as a subprocess and embed its JSON
 * artifact. Returns false (with a warning) when the binary is missing
 * or fails — an absent perf harness must not sink the whole campaign.
 */
bool
runVolatile(const std::string &benchDir, const std::string &binary,
            const std::string &title, const std::string &anchor,
            const Options &opts, bool smoke,
            const std::string &artifact, std::vector<RawFigure> &out)
{
    std::string bin = benchDir + "/" + binary;
    if (::access(bin.c_str(), X_OK) != 0) {
        std::fprintf(stderr,
                     "mtp-campaign: skipping %s (no executable at %s; "
                     "use --bench-dir)\n",
                     binary.c_str(), bin.c_str());
        return false;
    }
    std::string cmd = "\"" + bin + "\" --quiet --out \"" + artifact +
                      "\"";
    if (smoke)
        cmd += " --smoke";
    else
        cmd += " --scale " + std::to_string(opts.scaleDiv);

    auto t0 = std::chrono::steady_clock::now();
    int rc = std::system(cmd.c_str());
    double wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    if (rc != 0) {
        std::fprintf(stderr, "mtp-campaign: %s failed (%s)\n",
                     binary.c_str(), cmd.c_str());
        return false;
    }

    RawFigure fig;
    fig.name = binary;
    fig.title = title;
    fig.anchor = anchor;
    fig.wallSeconds = wall;
    std::string error;
    if (!loadManifest(artifact, fig.raw, &error)) {
        std::fprintf(stderr, "mtp-campaign: cannot embed %s: %s\n",
                     artifact.c_str(), error.c_str());
        return false;
    }
    out.push_back(std::move(fig));
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out;
    std::string benchDir;
    std::vector<std::string> only;
    bool list = false;
    bool skipVolatile = false;
    bool noSession = false;
    bool smoke = false;
    HostObs host;

    std::vector<cli::Flag> flags = {
        {"--out", "FILE", "manifest path (default BENCH_campaign.json)",
         [&](const cli::Arg &a) { out = a.value; }},
        {"--only", "LIST", "run just these figures (comma list; needs --out)",
         [&](const cli::Arg &a) { only = a.list(); }},
        {"--list", "", "list the figures and exit",
         [&](const cli::Arg &) { list = true; }},
        {"--smoke", "", "the reduced CI campaign: scale 64, four benchmarks",
         [&](const cli::Arg &) { smoke = true; }},
        {"--skip-volatile", "", "skip the two wall-clock harnesses",
         [&](const cli::Arg &) { skipVolatile = true; }},
        {"--bench-dir", "DIR", "wall-clock harness binaries (default ../bench)",
         [&](const cli::Arg &a) { benchDir = a.value; }},
        {"--no-session", "", "no volatile session block in the manifest",
         [&](const cli::Arg &) { noSession = true; }},
    };
    Options opts = parseArgs(argc, argv, flags, &host);

    if (list) {
        for (const auto &spec : campaignSpecs())
            std::printf("%-24s %-18s %s\n", spec.name.c_str(),
                        spec.anchor.c_str(), spec.title.c_str());
        std::printf("%-24s %-18s %s\n", "bench_simrate", "(volatile)",
                    "simulation-rate benchmark, run as a subprocess");
        std::printf("%-24s %-18s %s\n", "bench_obs_overhead",
                    "(volatile)",
                    "observability overhead, run as a subprocess");
        return 0;
    }
    // A partial manifest must never land on the default path: run from
    // the repository root, that is the committed full record.
    if (!only.empty() && out.empty())
        MTP_FATAL("--only needs --out: a partial campaign must not "
                  "overwrite BENCH_campaign.json");
    if (out.empty())
        out = "BENCH_campaign.json";

    if (smoke) {
        // The reduced campaign behind the CI gate and the unit tests:
        // 1/64 geometry and a class-covering benchmark subset keep the
        // full figure set under a minute on one core.
        opts.setScale(64);
        if (opts.benchmarks.empty())
            opts.benchmarks = {"scalar", "stream", "backprop", "cfd"};
    }
    if (benchDir.empty())
        benchDir = dirnameOf(argv[0]) + "/../bench";

    // The watchdog's heartbeat comes from executor tasks and every
    // simulation's sampler boundaries (CampaignProgress).
    host.start();

    CampaignProgress progress;
    std::unique_ptr<Ticker> ticker;
    if (!opts.quiet && ::isatty(::fileno(stderr)))
        ticker.reset(new Ticker(progress));

    auto t0 = std::chrono::steady_clock::now();
    CampaignResult res = runCampaign(
        opts, only, &progress, [&](const FigureRun &f) {
            std::fprintf(stderr, "mtp-campaign: %-24s done in %.1fs "
                         "(%zu distinct runs)\n",
                         f.spec->name.c_str(), f.wallSeconds,
                         f.fingerprints.size());
            if (!opts.quiet) {
                renderFigure(stdout, *f.spec, f.result);
                std::fflush(stdout);
            }
        });

    // The wall-clock harnesses run serially after the deterministic
    // figures: their timings are only meaningful on an idle machine.
    if (!skipVolatile && only.empty()) {
        std::string dir = dirnameOf(out);
        runVolatile(benchDir, "bench_simrate",
                    "Simulation rate: naive loop vs event-driven "
                    "fast-forward",
                    "DESIGN.md §7", opts, smoke,
                    dir + "/BENCH_simrate.json", res.rawFigures);
        runVolatile(benchDir, "bench_obs_overhead",
                    "Observability overhead: tracing and host profiler "
                    "vs disabled hooks",
                    "DESIGN.md §8", opts, smoke,
                    dir + "/BENCH_obs_overhead.json", res.rawFigures);
    }
    res.wallSeconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - t0)
                          .count();

    ticker.reset(); // clear the status line before the summary

    const std::string &profile = host.finish(res.hostCounters);
    if (!profile.empty())
        std::printf("wrote %s (mtp-report host renders it)\n",
                    profile.c_str());

    std::ofstream os(out, std::ios::binary);
    if (!os)
        MTP_FATAL("cannot open --out path '", out, "'");
    writeManifest(os, res, !noSession);
    os.flush();
    if (!os)
        MTP_FATAL("writing '", out, "' failed");

    std::printf("\nmtp-campaign: %zu figures, %llu distinct runs "
                "(%llu cache hits) in %.1fs at --jobs %u\n",
                res.figures.size() + res.rawFigures.size(),
                static_cast<unsigned long long>(res.runsExecuted),
                static_cast<unsigned long long>(res.cacheHits),
                res.wallSeconds, res.jobs);
    std::printf("wrote %s\n", out.c_str());
    return 0;
}
