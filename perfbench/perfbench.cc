/**
 * @file
 * perfbench: the repository benchmark program.
 *
 * Runs one named workload for a host-time budget, checks every
 * simulated result against a reference, and prints one JSON line: the
 * end-to-end metrics of an untraced run, or with --trace 1 the
 * per-layer metrics of a run with the host profiler on.
 *
 *   perfbench --workload mem_serial|prefetch_serial|campaign_smoke
 *             --seed N --seconds S --trace 0|1
 *             [--reference FILE] [--write-reference]
 *
 * README.md next to this file maps every metric to its layer and to
 * the workload that should move it.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>
#include <sys/resource.h>

#include "bench/campaign.hh"
#include "common/bitutils.hh"
#include "obs/host_profiler.hh"
#include "perfbench/replay.hh"

namespace {

using namespace mtp;
using Clock = std::chrono::steady_clock;
using obs::HostPhase;
using obs::HostProfiler;

/** Warp accesses replayed per workload by the layer timers. */
constexpr std::size_t kReplayAccesses = 60000;

/** Repetitions of the fingerprint timer over a set-up's kernels. */
constexpr int kFingerprintReps = 20;

/** Receives timed hashes, so the fingerprint loop is not optimized away. */
volatile std::uint64_t g_sink = 0;

/** Set-ups per pass (at least this many, for at least kSetupSeconds);
 *  the pass reports their median cost. */
constexpr int kSetupReps = 15;
constexpr double kSetupSeconds = 0.05;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den, double empty = 0.0)
{
    return den != 0.0 ? num / den : empty;
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::uint64_t
digestOf(const std::string &text)
{
    driver::Fnv1a h;
    h.update(text.data(), text.size());
    return h.value();
}

/** Digest of a run's full StatSet dump. */
std::uint64_t
statsDigest(const RunResult &r)
{
    std::ostringstream os;
    r.stats.dumpJson(os);
    return digestOf(os.str());
}

/** CPUs this process may run on (what `nproc` prints). */
unsigned
nprocAvailable()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

double
peakRssMib()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** Deterministic Fisher-Yates permutation of @p v driven by @p seed. */
template <typename T>
void
shuffleBySeed(std::vector<T> &v, std::uint64_t seed)
{
    for (std::size_t i = v.size(); i > 1; --i) {
        std::size_t j = mix64(seed * 0x9e3779b97f4a7c15ULL + i) % i;
        std::swap(v[i - 1], v[j]);
    }
}

/** Re-salt every scattered address pattern of @p k from @p seed. */
void
reseedScatter(KernelDesc &k, std::uint64_t seed)
{
    for (Segment &seg : k.segments)
        for (StaticInst &inst : seg.insts)
            if (inst.pattern.scatterFrac > 0.0)
                inst.pattern.scatterSalt =
                    mix64(inst.pattern.scatterSalt ^ mix64(seed));
}

// --- reference digests ---------------------------------------------------

/**
 * Stored result digests, one "key digest" pair per line. Serial runs
 * are keyed by kernel name, config hash and kernel content hash, so a
 * seed that leaves a kernel unchanged reuses its stored digest and any
 * other kernel is checked against a naive-loop run instead.
 */
class Reference
{
  public:
    explicit Reference(std::string path) : path_(std::move(path))
    {
        std::ifstream in(path_);
        std::string line, key, digest;
        while (std::getline(in, line)) {
            std::istringstream fields(line);
            if (line[0] != '#' && fields >> key >> digest)
                entries_[key] = std::strtoull(digest.c_str(), nullptr, 16);
        }
    }

    std::optional<std::uint64_t>
    find(const std::string &key) const
    {
        auto it = entries_.find(key);
        if (it == entries_.end())
            return std::nullopt;
        return it->second;
    }

    /** Store @p d for @p key; later set-or-keep calls leave it. */
    void
    set(const std::string &key, std::uint64_t d)
    {
        entries_[key] = d;
        fresh_.insert(key);
    }

    bool fresh(const std::string &key) const { return fresh_.count(key); }

    bool
    save() const
    {
        std::ofstream out(path_);
        out << "# perfbench reference digests (FNV-1a 64); regenerate "
               "with --write-reference\n";
        for (const auto &[key, d] : entries_)
            out << key << ' ' << hex64(d) << '\n';
        return static_cast<bool>(out);
    }

  private:
    std::string path_;
    std::map<std::string, std::uint64_t> entries_;
    std::set<std::string> fresh_; //!< keys set by this process
};

/** Runs attempted and failed by the correctness check. */
struct Check
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool write = false; //!< store digests this process has not set

    void
    expect(Reference &ref, const std::string &key,
           std::optional<std::uint64_t> got)
    {
        ++attempted;
        if (write && got && !ref.fresh(key))
            ref.set(key, *got);
        std::optional<std::uint64_t> want = ref.find(key);
        if (!got || !want || *got != *want) {
            ++failed;
            std::fprintf(stderr, "perfbench: result mismatch for %s\n",
                         key.c_str());
        }
    }
};

// --- serial workloads ----------------------------------------------------

/** One serial plan: every kernel simulated under every config. */
struct SerialPlan
{
    std::vector<std::string> names;
    std::vector<SimConfig> cfgs;
    unsigned scale = 4;
};

SimConfig
mthwpThrottle(Cycle period)
{
    SimConfig cfg;
    cfg.hwPref = HwPrefKind::MTHWP;
    cfg.throttleEnable = true;
    cfg.throttlePeriod = period;
    return cfg;
}

SerialPlan
serialPlan(const std::string &workload)
{
    SerialPlan p;
    if (workload == "mem_serial") {
        p.names = {"bfs", "linear", "sepia", "ocean"};
        SimConfig cfg;
        cfg.throttlePeriod = 5000;
        p.cfgs = {cfg};
    } else {
        p.names = Suite::namesOfType(WorkloadType::Stride);
        p.names.push_back("ocean");
        p.cfgs = {mthwpThrottle(5000)};
    }
    return p;
}

/** The kernels of one set-up and what building them cost. */
struct Setup
{
    std::vector<KernelDesc> kernels;
    double seconds = 0.0;
    double buildMs = 0.0; //!< Suite::get (+ variants) share of seconds
};

/** Repeat @p build; keep the last set-up and the median costs. */
template <typename Build>
Setup
repeatedSetup(Build &&build)
{
    std::vector<double> seconds, buildMs;
    Setup s;
    auto t0 = Clock::now();
    while (seconds.size() < kSetupReps || secondsSince(t0) < kSetupSeconds) {
        s = build();
        seconds.push_back(s.seconds);
        buildMs.push_back(s.buildMs);
    }
    s.seconds = median(seconds);
    s.buildMs = median(buildMs);
    return s;
}

Setup
buildSerial(const SerialPlan &p, std::uint64_t seed)
{
    Setup s;
    auto t0 = Clock::now();
    for (const std::string &name : p.names) {
        auto b0 = Clock::now();
        Workload w = Suite::get(name, p.scale);
        s.buildMs += secondsSince(b0) * 1e3;
        reseedScatter(w.kernel, seed);
        s.kernels.push_back(std::move(w.kernel));
    }
    for (const SimConfig &cfg : p.cfgs)
        cfg.validate();
    s.seconds = secondsSince(t0);
    return s;
}

/** One timed pass: set-up, then every (config, kernel) simulation. */
struct SerialPass
{
    double wall = 0.0;
    Setup setup;
    double simSeconds = 0.0;
    std::uint64_t cycles = 0;
    double coreTicks = 0.0; //!< sim.sched.coreTicks over the pass
    double stepped = 0.0;   //!< sim.sched.cyclesStepped over the pass
    double rssMib = 0.0;    //!< peak resident set after the pass
    std::vector<std::optional<std::uint64_t>> digests; //!< none: threw
    std::vector<RunResult> results; //!< kept for a batch's first pass
};

SerialPass
runSerialPass(const SerialPlan &p, std::uint64_t seed, bool timeSetup)
{
    SerialPass pass;
    auto t0 = Clock::now();
    pass.setup = timeSetup
                     ? repeatedSetup([&] { return buildSerial(p, seed); })
                     : buildSerial(p, seed);
    for (const SimConfig &cfg : p.cfgs) {
        for (const KernelDesc &k : pass.setup.kernels) {
            auto s0 = Clock::now();
            try {
                RunResult r = simulate(cfg, k);
                pass.simSeconds += secondsSince(s0);
                pass.cycles += r.cycles;
                pass.results.push_back(std::move(r));
                pass.digests.emplace_back(0);
            } catch (const std::exception &e) {
                std::fprintf(stderr, "perfbench: %s threw: %s\n",
                             k.name.c_str(), e.what());
                pass.digests.emplace_back(std::nullopt);
            }
        }
    }
    pass.wall = secondsSince(t0);
    pass.rssMib = peakRssMib();
    auto r = pass.results.begin();
    for (auto &d : pass.digests) {
        if (!d)
            continue;
        d = statsDigest(*r);
        pass.coreTicks += r->sched.getOr("sim.sched.coreTicks", 0);
        pass.stepped += r->sched.getOr("sim.sched.cyclesStepped", 0);
        ++r;
    }
    std::fprintf(stderr,
                 "perfbench: pass wall %.4f s, setup %.3g s, "
                 "simulate %.4f s, %llu cycles\n",
                 pass.wall, pass.setup.seconds, pass.simSeconds,
                 static_cast<unsigned long long>(pass.cycles));
    return pass;
}

/**
 * Passes until @p seconds of host time have elapsed (at least one).
 * With @p timeSetup each pass repeats its set-up to time it; traced
 * passes set up once, so set-up work stays out of the profile.
 */
std::vector<SerialPass>
runSerialPasses(const SerialPlan &p, std::uint64_t seed, double seconds,
                bool timeSetup)
{
    std::vector<SerialPass> passes;
    auto t0 = Clock::now();
    do {
        passes.push_back(runSerialPass(p, seed, timeSetup));
        if (passes.size() > 1) // the memory kept must not grow with time
            passes.back().results.clear();
    } while (secondsSince(t0) < seconds);
    return passes;
}

std::string
runKey(const SimConfig &cfg, const KernelDesc &k)
{
    std::ostringstream os;
    cfg.dump(os);
    return "run:" + k.name + ":" + hex64(digestOf(os.str())) + ":" +
           hex64(driver::hashKernel(k));
}

/**
 * Check every run of @p passes. The reference for a (config, kernel)
 * pair is its stored digest or, when none is stored (or when writing
 * references), one run of the naive cycle-by-cycle oracle loop.
 */
void
verifySerial(const SerialPlan &p, const std::vector<SerialPass> &passes,
             Reference &ref, Check &check)
{
    const std::vector<KernelDesc> &kernels = passes.front().setup.kernels;
    std::size_t run = 0;
    for (const SimConfig &cfg : p.cfgs) {
        for (const KernelDesc &k : kernels) {
            std::string key = runKey(cfg, k);
            if (check.write || !ref.find(key)) {
                SimConfig naive = cfg;
                naive.fastForward = false;
                ref.set(key, statsDigest(simulate(naive, k)));
            }
            for (const SerialPass &pass : passes)
                check.expect(ref, key, pass.digests[run]);
            ++run;
        }
    }
}

// --- campaign workload ---------------------------------------------------

/** The `mtp-campaign --smoke` options at --jobs = nproc. */
bench::Options
campaignOptions()
{
    bench::Options o;
    o.scaleDiv = 64;
    o.throttlePeriod = std::max<Cycle>(1000, 40000 / 64);
    o.benchmarks = {"scalar", "stream", "backprop", "cfd"};
    o.jobs = nprocAvailable();
    o.quiet = true;
    return o;
}

/**
 * The campaign's set-up outside runCampaign(): build every benchmark
 * and software-prefetch variant the figures simulate, then construct
 * (and join) the Runner with its executor.
 */
Setup
buildCampaign(const bench::Options &o)
{
    Setup s;
    auto t0 = Clock::now();
    for (const std::string &name : o.benchmarks) {
        auto b0 = Clock::now();
        Workload w = Suite::get(name, o.scaleDiv);
        s.kernels.push_back(w.kernel);
        for (SwPrefKind kind : {SwPrefKind::Register, SwPrefKind::Stride,
                                SwPrefKind::IP, SwPrefKind::StrideIP})
            s.kernels.push_back(w.variant(kind));
        s.buildMs += secondsSince(b0) * 1e3;
    }
    { bench::Runner runner(o); }
    s.seconds = secondsSince(t0);
    return s;
}

struct CampaignPass
{
    double wall = 0.0; //!< makespan of runCampaign()
    Setup setup;
    double simCycles = 0.0; //!< sampler boundaries x sample period
    double rssMib = 0.0;    //!< peak resident set after the pass
    bench::CampaignResult res; //!< counters only; figures are digested
    std::vector<std::pair<std::string, std::optional<std::uint64_t>>>
        digests; //!< (reference key, digest)
};

/**
 * Digest each figure's manifest block (the session block is never
 * written). A figure's run list depends on which figure first
 * submitted a shared run, so it is digested apart: the sorted union of
 * all run fingerprints has one digest.
 */
std::vector<std::pair<std::string, std::optional<std::uint64_t>>>
campaignDigests(const bench::CampaignResult &res)
{
    std::ostringstream os;
    bench::writeManifest(os, res, false);
    obs::JsonValue doc;
    const obs::JsonValue *figures = nullptr;
    if (obs::parseJson(os.str(), doc))
        figures = doc.find("figures");
    if (!figures || !figures->isArray())
        return {{"campaign:manifest", std::nullopt}};
    std::vector<std::pair<std::string, std::optional<std::uint64_t>>> out;
    std::vector<std::string> fps;
    for (obs::JsonValue fig : figures->array) {
        if (const obs::JsonValue *list = fig.find("fingerprints"))
            for (const obs::JsonValue &fp : list->array)
                fps.push_back(fp.str);
        fig.object.erase("fingerprints");
        fig.object.erase("runs");
        const obs::JsonValue *name = fig.find("name");
        std::string text;
        bench::writeJsonValue(text, fig, 0);
        out.emplace_back("figure:" + (name ? name->str : "?"),
                         digestOf(text));
    }
    std::sort(fps.begin(), fps.end());
    std::string joined;
    for (const std::string &fp : fps)
        joined += fp + '\n';
    out.emplace_back("campaign:fingerprints", digestOf(joined));
    return out;
}

/**
 * Campaign passes until @p seconds have elapsed (at least one). Traced
 * passes (@p timeSetup false) skip the set-up: every Runner it builds
 * would take host-profiler thread slots.
 */
std::vector<CampaignPass>
runCampaignPasses(const bench::Options &o,
                  const std::vector<std::string> &order, double seconds,
                  bool timeSetup)
{
    std::vector<CampaignPass> passes;
    auto t0 = Clock::now();
    do {
        CampaignPass pass;
        if (timeSetup)
            pass.setup = repeatedSetup([&] { return buildCampaign(o); });
        bench::CampaignProgress progress;
        auto c0 = Clock::now();
        pass.res = bench::runCampaign(o, order, &progress);
        pass.wall = secondsSince(c0);
        pass.rssMib = peakRssMib();
        bench::CampaignProgress::View v = progress.view();
        pass.simCycles = static_cast<double>(v.samples) *
                         static_cast<double>(v.samplePeriod);
        std::fprintf(stderr,
                     "perfbench: pass makespan %.4f s, setup %.3g s, "
                     "%.0f sampled cycles, %llu runs, %llu steals\n",
                     pass.wall, pass.setup.seconds, pass.simCycles,
                     static_cast<unsigned long long>(pass.res.runsExecuted),
                     static_cast<unsigned long long>(pass.res.steals));
        pass.digests = campaignDigests(pass.res);
        pass.res.figures.clear();
        passes.push_back(std::move(pass));
    } while (secondsSince(t0) < seconds);
    return passes;
}

void
verifyCampaign(const std::vector<CampaignPass> &passes, Reference &ref,
               Check &check)
{
    for (const CampaignPass &pass : passes)
        for (const auto &[key, digest] : pass.digests)
            check.expect(ref, key, digest);
}

// --- host profile --------------------------------------------------------

/** Phase totals of one profiling session. */
struct Profile
{
    double windowNs = 0.0;
    std::array<double, obs::kNumHostPhases> ns{};
    double busyNs = 0.0; //!< sum over threads of active - wait
    unsigned lanes = 1;  //!< threads live at once: main + executor

    double
    phaseNs(HostPhase p) const
    {
        return ns[static_cast<int>(p)];
    }

    /** Self-time share of all live threads' wall-clock. */
    double
    share(HostPhase p) const
    {
        return ratio(phaseNs(p), windowNs * lanes);
    }
};

Profile
stopProfile(unsigned executorThreads)
{
    HostProfiler::Snapshot snap = HostProfiler::snapshot();
    HostProfiler::disable();
    Profile p;
    p.windowNs = static_cast<double>(snap.takenAtNs - snap.enabledAtNs);
    p.lanes = 1 + executorThreads;
    for (const auto &th : snap.threads) {
        for (int i = 0; i < obs::kNumHostPhases; ++i)
            p.ns[i] += static_cast<double>(th.phaseNs[i]);
        p.busyNs += static_cast<double>(th.activeNs - th.waitNs);
    }
    return p;
}

void
startProfile()
{
    HostProfiler::enable();
    HostProfiler::nameThread("main");
}

// --- output --------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

void
printResult(const Check &check, const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics)
        std::printf("  %-36s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("  %-36s %14.6g %s\n", "failed_frac",
                ratio(static_cast<double>(check.failed),
                      static_cast<double>(check.attempted)),
                "ratio");
    std::string out = "{\"correct\": ";
    out += check.failed == 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(check.attempted);
    out += ", \"failed\": " + std::to_string(check.failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i)
            out += ", ";
        bench::appendJsonString(out, metrics[i].name);
        out += ": {\"value\": ";
        bench::appendJsonNumber(out, metrics[i].value);
        out += ", \"unit\": ";
        bench::appendJsonString(out, metrics[i].unit);
        out += '}';
    }
    out += "}}";
    std::printf("%s\n", out.c_str());
}

void
printProvenance(const std::string &workload, std::uint64_t seed,
                unsigned scale, unsigned jobs, bool trace)
{
    bench::Provenance p = bench::collectProvenance(scale, 0);
    std::string out = "provenance: {\"gitSha\": ";
    bench::appendJsonString(out, p.gitSha);
    out += ", \"host\": ";
    bench::appendJsonString(out, p.host);
    out += ", \"nproc\": " + std::to_string(nprocAvailable());
    out += ", \"hostThreads\": " +
           std::to_string(std::thread::hardware_concurrency());
    out += ", \"buildType\": ";
    bench::appendJsonString(out, PERFBENCH_BUILD_TYPE);
    out += ", \"compiler\": ";
    bench::appendJsonString(out, PERFBENCH_COMPILER);
    out += ", \"workload\": ";
    bench::appendJsonString(out, workload);
    out += ", \"scale\": " + std::to_string(scale);
    out += ", \"jobs\": " + std::to_string(jobs);
    out += ", \"seed\": " + std::to_string(seed);
    out += ", \"trace\": ";
    out += trace ? "true" : "false";
    out += '}';
    std::printf("%s\n", out.c_str());
}

// --- metric assembly -----------------------------------------------------

/** Median us per driver::hashKernel over a set-up's kernels. */
double
fingerprintUs(const std::vector<KernelDesc> &kernels)
{
    std::vector<double> samples;
    std::uint64_t sink = 0;
    for (int rep = 0; rep < kFingerprintReps; ++rep) {
        auto t0 = Clock::now();
        for (const KernelDesc &k : kernels)
            sink ^= driver::hashKernel(k);
        samples.push_back(secondsSince(t0) * 1e6 /
                          static_cast<double>(kernels.size()));
    }
    g_sink = sink;
    return median(samples);
}

/** Layer metrics of a serial plan's untraced and traced passes. */
std::vector<Metric>
serialLayerMetrics(const std::vector<SerialPass> &untraced,
                   const std::vector<SerialPass> &traced,
                   const Profile &prof)
{
    double stepped = 0, skipped = 0, coreTicks = 0, tracedStepped = 0;
    double hHits = 0, hMisses = 0;
    double rowHits = 0, rowAll = 0, bytes = 0, credit = 0;
    double fills = 0, useful = 0, late = 0, early = 0, pHits = 0, demand = 0;
    for (const RunResult *r = traced.front().results.data(),
                         *end = r + traced.front().results.size();
         r != end; ++r) {
        stepped += r->sched.getOr("sim.sched.cyclesStepped", 0);
        skipped += r->sched.getOr("sim.sched.cyclesSkipped", 0);
        hHits += r->sched.getOr("sim.sched.horizonHits", 0);
        hMisses += r->sched.getOr("sim.sched.horizonMisses", 0);
        rowHits += r->stats.sumMatching("mem.dram", ".rowHits");
        rowAll += r->stats.sumMatching("mem.dram", ".rowHits") +
                  r->stats.sumMatching("mem.dram", ".rowEmpty") +
                  r->stats.sumMatching("mem.dram", ".rowConflicts");
        bytes += static_cast<double>(r->dramBytes);
        credit += r->stats.getOr("mem.injCreditStalls", 0);
        fills += static_cast<double>(r->prefFills);
        useful += static_cast<double>(r->prefUseful);
        late += static_cast<double>(r->prefLate);
        early += static_cast<double>(r->prefEarlyEvicted);
        pHits += static_cast<double>(r->prefCacheHits);
        demand += static_cast<double>(r->demandTxns);
    }
    for (const SerialPass &pass : traced) {
        coreTicks += pass.coreTicks;
        tracedStepped += pass.stepped;
    }
    double untracedSim = 0, untracedStepped = 0;
    for (const SerialPass &pass : untraced) {
        untracedSim += pass.simSeconds;
        untracedStepped += pass.stepped;
    }
    return {
        {"sim.core_tick.ns_per_tick",
         ratio(prof.phaseNs(HostPhase::CoreTick), coreTicks), "ns"},
        {"sim.cycles_stepped", stepped, "count"},
        {"sim.cycles_skipped", skipped, "count"},
        {"sim.ns_per_stepped_cycle", ratio(untracedSim * 1e9, untracedStepped),
         "ns"},
        {"mem.mem_tick.ns_per_stepped_cycle",
         ratio(prof.phaseNs(HostPhase::MemTick), tracedStepped), "ns"},
        {"mem.dram.row_hit_rate", ratio(rowHits, rowAll), "ratio"},
        {"mem.dram.bytes", bytes, "bytes"},
        {"mem.horizon_hit_rate", ratio(hHits, hHits + hMisses), "ratio"},
        {"mem.icnt.credit_stalls", credit, "count"},
        {"core.pref.accuracy", ratio(useful, fills, 1.0), "ratio"},
        {"core.pref.coverage", ratio(pHits, pHits + demand), "ratio"},
        {"core.pref.late_ratio", ratio(late, fills), "ratio"},
        {"core.pref.early_ratio", ratio(early, fills), "ratio"},
    };
}

/** Shares of the workload's own traced passes. */
std::vector<Metric>
shareMetrics(const Profile &prof, unsigned jobs, double tracedWall,
             double untracedWall)
{
    return {
        {"sim.core_tick.self_frac", prof.share(HostPhase::CoreTick),
         "ratio"},
        {"sim.horizon_skip.self_frac", prof.share(HostPhase::HorizonSkip),
         "ratio"},
        {"sim.run_task.self_frac", prof.share(HostPhase::RunTask), "ratio"},
        {"mem.mem_tick.self_frac", prof.share(HostPhase::MemTick), "ratio"},
        {"driver.exec_wait_frac", prof.share(HostPhase::ExecWait), "ratio"},
        {"driver.parallel_eff", ratio(prof.busyNs, jobs * prof.windowNs),
         "ratio"},
        {"obs.host_profile_overhead", ratio(tracedWall, untracedWall) - 1.0,
         "ratio"},
    };
}

std::vector<Metric>
replayMetrics(const std::vector<KernelDesc> &kernels, const SimConfig &cfg)
{
    perfbench::ReplayTimes t =
        perfbench::replayLayers(kernels, cfg, kReplayAccesses);
    return {
        {"mem.dram.tick_ns", t.dramTickNs, "ns"},
        {"mem.pcache.access_ns", t.pcacheNs, "ns"},
        {"core.pref.observe_ns", t.observeNs, "ns"},
        {"core.lru.op_ns", t.lruNs, "ns"},
        {"trace.coalesce_ns", t.coalesceNs, "ns"},
        {"trace.txns_per_access", t.txnsPerAccess, "ratio"},
    };
}

const auto wallOf = [](const auto &pass) { return pass.wall; };
const auto setupOf = [](const auto &pass) { return pass.setup.seconds; };
const auto buildMsOf = [](const auto &pass) { return pass.setup.buildMs; };

/** One value per pass, in pass order. */
template <typename Pass, typename Field>
std::vector<double>
collect(const std::vector<Pass> &passes, Field field)
{
    std::vector<double> out;
    for (const Pass &p : passes)
        out.push_back(field(p));
    return out;
}

/** The end-to-end metrics; @p kcps gives one pass's simulation rate. */
template <typename Pass, typename Kcps>
std::vector<Metric>
endToEnd(const std::vector<Pass> &passes, Kcps kcps)
{
    return {
        {"wall_s", median(collect(passes, wallOf)), "s"},
        {"sim_kcps", median(collect(passes, kcps)), "kcycles/s"},
        {"setup_s", median(collect(passes, setupOf)), "s"},
        // After the first pass, so it does not grow with the pass count.
        {"peak_rss_mb", passes.front().rssMib, "MiB"},
    };
}

void
append(std::vector<Metric> &to, std::vector<Metric> from)
{
    to.insert(to.end(), from.begin(), from.end());
}

// --- workloads -----------------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string reference = "perfbench/reference.txt";
    bool writeReference = false;
};

int
runSerial(const Args &a)
{
    SerialPlan plan = serialPlan(a.workload);
    shuffleBySeed(plan.names, a.seed);
    printProvenance(a.workload, a.seed, plan.scale, 1, a.trace);
    Reference ref(a.reference);
    Check check;
    check.write = a.writeReference;

    double budget = a.trace ? a.seconds / 2 : a.seconds;
    std::vector<SerialPass> passes =
        runSerialPasses(plan, a.seed, budget, true);
    std::vector<Metric> metrics;
    if (!a.trace) {
        metrics = endToEnd(passes, [](const SerialPass &p) {
            return ratio(static_cast<double>(p.cycles), p.simSeconds) / 1e3;
        });
        verifySerial(plan, passes, ref, check);
    } else {
        startProfile();
        std::vector<SerialPass> traced =
            runSerialPasses(plan, a.seed, budget, false);
        Profile prof = stopProfile(0);
        const std::vector<KernelDesc> &kernels =
            passes.front().setup.kernels;
        metrics = shareMetrics(prof, 1,
                               median(collect(traced, wallOf)),
                               median(collect(passes, wallOf)));
        append(metrics, serialLayerMetrics(passes, traced, prof));
        append(metrics, replayMetrics(kernels, plan.cfgs.front()));
        append(metrics, {
            {"workloads.build_ms", median(collect(passes, buildMsOf)), "ms"},
            {"driver.steals", 0.0, "count"},
            {"driver.cache_hit_rate", 0.0, "ratio"},
            {"driver.fingerprint_us", fingerprintUs(kernels), "us"},
        });
        verifySerial(plan, passes, ref, check);
        verifySerial(plan, traced, ref, check);
    }
    if (a.writeReference && !ref.save())
        return 1;
    printResult(check, metrics);
    return 0;
}

int
runCampaignWorkload(const Args &a)
{
    bench::Options opts = campaignOptions();
    std::vector<std::string> order;
    for (const bench::CampaignSpec &spec : bench::campaignSpecs())
        order.push_back(spec.name);
    shuffleBySeed(order, a.seed);
    printProvenance(a.workload, a.seed, opts.scaleDiv, opts.jobs, a.trace);
    Reference ref(a.reference);
    Check check;
    check.write = a.writeReference;

    double budget = a.trace ? a.seconds / 2 : a.seconds;
    std::vector<CampaignPass> passes =
        runCampaignPasses(opts, order, budget, true);
    std::vector<Metric> metrics;
    if (!a.trace) {
        metrics = endToEnd(passes, [](const CampaignPass &p) {
            return ratio(p.simCycles, p.wall) / 1e3;
        });
    } else {
        startProfile();
        std::vector<CampaignPass> traced =
            runCampaignPasses(opts, order, budget, false);
        Profile prof = stopProfile(opts.jobs);
        metrics = shareMetrics(prof, opts.jobs,
                               median(collect(traced, wallOf)),
                               median(collect(passes, wallOf)));

        // The campaign's runs stay inside its Runner, so the simulator
        // counts come from a probe: the campaign's benchmarks run
        // serially under the no-prefetch and MT-HWP+throttle configs.
        SerialPlan probe;
        probe.names = opts.benchmarks;
        probe.scale = opts.scaleDiv;
        SimConfig base;
        base.throttlePeriod = opts.throttlePeriod;
        probe.cfgs = {base, mthwpThrottle(opts.throttlePeriod)};
        std::vector<SerialPass> probeUntraced =
            runSerialPasses(probe, a.seed, 0, true);
        startProfile();
        std::vector<SerialPass> probeTraced =
            runSerialPasses(probe, a.seed, 0, false);
        Profile probeProf = stopProfile(0);
        append(metrics,
               serialLayerMetrics(probeUntraced, probeTraced, probeProf));
        append(metrics, replayMetrics(probeUntraced.front().setup.kernels,
                                      probe.cfgs.back()));

        const bench::CampaignResult &res = passes.front().res;
        append(metrics, {
            {"workloads.build_ms", median(collect(passes, buildMsOf)), "ms"},
            {"driver.steals", median(collect(passes, [](const auto &p) {
                 return static_cast<double>(p.res.steals);
             })),
             "count"},
            {"driver.cache_hit_rate",
             ratio(static_cast<double>(res.cacheHits),
                   static_cast<double>(res.cacheHits + res.cacheMisses)),
             "ratio"},
            {"driver.fingerprint_us",
             fingerprintUs(passes.front().setup.kernels), "us"},
        });
        verifyCampaign(traced, ref, check);
        verifySerial(probe, probeUntraced, ref, check);
    }
    verifyCampaign(passes, ref, check);
    if (a.writeReference && !ref.save())
        return 1;
    printResult(check, metrics);
    return 0;
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "mem_serial|prefetch_serial|campaign_smoke --seed N "
                 "--seconds S --trace 0|1 [--reference FILE] "
                 "[--write-reference]\n",
                 msg);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage((arg + " needs a value").c_str());
            return argv[++i];
        };
        char *end = nullptr;
        if (arg == "--workload") {
            a.workload = value();
        } else if (arg == "--seed") {
            std::string v = value();
            a.seed = std::strtoull(v.c_str(), &end, 10);
            if (v.empty() || *end)
                usage("--seed needs an unsigned integer");
        } else if (arg == "--seconds") {
            std::string v = value();
            a.seconds = std::strtod(v.c_str(), &end);
            if (v.empty() || *end || !(a.seconds >= 0.0))
                usage("--seconds needs a non-negative number");
        } else if (arg == "--trace") {
            std::string v = value();
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            a.trace = v == "1";
        } else if (arg == "--reference") {
            a.reference = value();
        } else if (arg == "--write-reference") {
            a.writeReference = true;
        } else {
            usage(("unknown argument '" + arg + "'").c_str());
        }
    }
    if (a.workload != "mem_serial" && a.workload != "prefetch_serial" &&
        a.workload != "campaign_smoke")
        usage("--workload must be mem_serial, prefetch_serial or "
              "campaign_smoke");
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a = parseArgs(argc, argv);
    setLogLevel(LogLevel::Warn);
    return a.workload == "campaign_smoke" ? runCampaignWorkload(a)
                                          : runSerial(a);
}
