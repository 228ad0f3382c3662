/**
 * @file
 * mtp-report: offline analysis of mtp-sim and mtp-campaign artifacts.
 * `show`, `compare` and `diff` read the StatSet JSON of `mtp-sim
 * --stats f.json`: the stall breakdown (DESIGN.md §9), the speedup
 * with the MTAML check (paper Sec. IV) and the cycle regression gate.
 * `campaign show` and `campaign diff` summarize and gate manifests
 * (DESIGN.md §11); `host` renders a --host-profile FILE (DESIGN.md
 * §12). Each subcommand's flags are rows of the table in main();
 * --help prints them.
 *
 * Exit status: 0 on success, 1 on a detected regression (diff) or
 * gated figure drift (campaign diff --gate), 2 on a usage or input
 * error, with one stderr line naming it.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench/campaign_diff.hh"
#include "common/cli.hh"
#include "mtprefetch/mtprefetch.hh"
#include "sim/cycle_accounting.hh"

namespace {

using namespace mtp;

/** Exit status of a usage or input error; 1 means regression or drift. */
constexpr int usageStatus = 2;

/** An unreadable or malformed input: one stderr line, exit 2. */
template <typename... Args>
[[noreturn]] void
badInput(Args &&...args)
{
    cli::fail(detail::concat(std::forward<Args>(args)...), usageStatus);
}

/** One loaded stats file. */
struct Run
{
    std::string path;
    std::string label; //!< basename without extension
    std::map<std::string, double> stats;

    double
    get(const std::string &name) const
    {
        auto it = stats.find(name);
        if (it == stats.end())
            badInput("'", path, "' has no statistic '", name,
                     "' — was it written by mtp-sim --stats f.json?");
        return it->second;
    }

    double
    getOr(const std::string &name, double fallback) const
    {
        auto it = stats.find(name);
        return it == stats.end() ? fallback : it->second;
    }

    /** Sum of every "core<i><suffix>" entry (all cores). */
    double
    coreSum(const std::string &suffix) const
    {
        double total = 0.0;
        for (unsigned c = 0;; ++c) {
            auto it = stats.find("core" + std::to_string(c) + suffix);
            if (it == stats.end())
                return total;
            total += it->second;
        }
    }

    /** Total core-cycles: elapsed cycles times the core count. */
    double
    coreCycles() const
    {
        return get("sim.cycles") * get("sim.numCores");
    }

    /** Memory-side stall cycles: stall-mem + MSHR-full + icnt. */
    double
    memStallCycles() const
    {
        return get("sim.cycles.stallMem") +
               get("sim.cycles.stallMshrFull") +
               get("sim.cycles.stallIcnt");
    }
};

std::string
basenameNoExt(const std::string &path)
{
    auto slash = path.find_last_of('/');
    std::string base =
        slash == std::string::npos ? path : path.substr(slash + 1);
    auto dot = base.find_last_of('.');
    return dot == std::string::npos ? base : base.substr(0, dot);
}

Run
loadStats(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        badInput("cannot read '", path, "'");
    std::stringstream ss;
    ss << in.rdbuf();
    obs::JsonValue doc;
    std::string error;
    if (!obs::parseJson(ss.str(), doc, &error))
        badInput("'", path, "': invalid JSON: ", error);
    if (!doc.isObject())
        badInput("'", path, "': expected a top-level JSON object");
    Run run;
    run.path = path;
    run.label = basenameNoExt(path);
    for (const auto &[name, entry] : doc.object) {
        const obs::JsonValue *value =
            entry.isObject() ? entry.find("value") : &entry;
        if (value && value->isNumber())
            run.stats.emplace(name, value->number);
    }
    if (run.stats.empty())
        badInput("'", path, "': no numeric statistics found");
    return run;
}

/** Stall-breakdown table: one category per row, one run per column. */
void
printBreakdown(const std::vector<Run> &runs)
{
    std::printf("%-18s", "category");
    for (const auto &run : runs)
        std::printf("  %20s", run.label.c_str());
    std::printf("\n");
    for (unsigned k = 0; k < numCycleCats; ++k) {
        auto cat = static_cast<CycleCat>(k);
        std::printf("%-18s", cycleCatName(cat));
        for (const auto &run : runs) {
            double v =
                run.get(std::string("sim.cycles.") + cycleCatName(cat));
            double frac = run.coreCycles() > 0
                              ? 100.0 * v / run.coreCycles()
                              : 0.0;
            std::printf("  %13.0f %5.1f%%", v, frac);
        }
        std::printf("\n");
    }
    std::printf("%-18s", "total core-cycles");
    for (const auto &run : runs)
        std::printf("  %13.0f       ", run.coreCycles());
    std::printf("\n%-18s", "cycles");
    for (const auto &run : runs)
        std::printf("  %13.0f       ", run.get("sim.cycles"));
    std::printf("\n");
}

/**
 * Host-scheduler section of `show`: how the run was simulated
 * (sim.sched.*, emitted by mtp-sim --stats). Older stats files predate
 * these counters, so the section prints only when at least one run
 * carries them and every read tolerates absence.
 */
void
printScheduler(const std::vector<Run> &runs)
{
    bool any = false;
    for (const auto &run : runs)
        any = any || run.stats.count("sim.sched.cyclesStepped") > 0;
    if (!any)
        return;
    std::printf("\n%-18s", "scheduler");
    for (const auto &run : runs)
        std::printf("  %20s", run.label.c_str());
    std::printf("\n");
    auto row = [&](const char *label, auto fn) {
        std::printf("%-18s", label);
        for (const auto &run : runs)
            std::printf("  %20s", fn(run).c_str());
        std::printf("\n");
    };
    auto count = [](double v) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.0f", v);
        return std::string(buf);
    };
    auto pct = [](double num, double den) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.1f%%",
                      den > 0 ? 100.0 * num / den : 0.0);
        return std::string(buf);
    };
    row("cycles stepped", [&](const Run &r) {
        return count(r.getOr("sim.sched.cyclesStepped", 0.0));
    });
    row("cycles skipped", [&](const Run &r) {
        double stepped = r.getOr("sim.sched.cyclesStepped", 0.0);
        double skipped = r.getOr("sim.sched.cyclesSkipped", 0.0);
        return count(skipped) + " (" + pct(skipped, stepped + skipped) +
               ")";
    });
    row("skip success", [&](const Run &r) {
        return pct(r.getOr("sim.sched.skipSuccesses", 0.0),
                   r.getOr("sim.sched.cyclesStepped", 0.0));
    });
    row("core ticks elided", [&](const Run &r) {
        double ticks = r.getOr("sim.sched.coreTicks", 0.0);
        double elided = r.getOr("sim.sched.coreTicksElided", 0.0);
        return count(elided) + " (" + pct(elided, ticks + elided) + ")";
    });
    row("queue pushes/pops", [&](const Run &r) {
        return count(r.getOr("sim.sched.queuePushes", 0.0)) + "/" +
               count(r.getOr("sim.sched.queuePops", 0.0));
    });
    row("horizon hit rate", [&](const Run &r) {
        double hits = r.getOr("sim.sched.horizonHits", 0.0);
        return pct(hits, hits + r.getOr("sim.sched.horizonMisses", 0.0));
    });
}

/** Demand-latency mean over all cores (histogram-count weighted). */
double
avgDemandLatency(const Run &run)
{
    double count = run.coreSum(".demandLatency.count");
    if (count <= 0)
        return 0.0;
    double sum = 0.0;
    for (unsigned c = 0;; ++c) {
        std::string p = "core" + std::to_string(c);
        auto it = run.stats.find(p + ".demandLatency.count");
        if (it == run.stats.end())
            break;
        sum += it->second * run.getOr(p + ".demandLatency.mean", 0.0);
    }
    return sum / count;
}

/** Measured effect, in MTAML's vocabulary. */
const char *
measuredEffect(double speedup)
{
    if (speedup > 1.02)
        return "useful";
    if (speedup < 0.98)
        return "harmful";
    return "no effect";
}

void
printCompare(const Run &base, const std::vector<Run> &runs)
{
    double base_cycles = base.get("sim.cycles");
    double base_core_cycles = base.coreCycles();
    double base_mem_stall = base.memStallCycles();
    double base_lat = avgDemandLatency(base);

    // MTAML inputs come from the baseline's instruction mix: branches
    // count as computation (they occupy the pipeline, not memory).
    MtamlInputs in;
    in.compInsts =
        base.coreSum(".compInsts") + base.coreSum(".branchInsts");
    in.memInsts = base.coreSum(".memInsts");
    in.activeWarps = base.get("sim.avgActiveWarps");

    std::printf("baseline %s: %.0f cycles, %.1f%% mem-stall, "
                "avg demand latency %.1f\n",
                base.label.c_str(), base_cycles,
                base_core_cycles > 0
                    ? 100.0 * base_mem_stall / base_core_cycles
                    : 0.0,
                base_lat);
    std::printf("MTAML (no prefetch) = %.1f cycles tolerable\n\n",
                mtaml(in));
    std::printf("%-20s %8s %10s %10s %12s %12s\n", "run", "speedup",
                "memstall%", "benefit%", "measured", "MTAML");
    for (const auto &run : runs) {
        double cycles = run.get("sim.cycles");
        double speedup = cycles > 0 ? base_cycles / cycles : 0.0;
        double mem_stall = run.memStallCycles();
        double mem_frac = run.coreCycles() > 0
                              ? 100.0 * mem_stall / run.coreCycles()
                              : 0.0;
        // Prefetch benefit attributed to removed memory-stall cycles,
        // as a fraction of the baseline's total core-cycles.
        double benefit =
            base_core_cycles > 0
                ? 100.0 * (base_mem_stall - mem_stall) / base_core_cycles
                : 0.0;
        double hits = run.coreSum(".prefCacheHitTxns");
        double demands = run.coreSum(".demandTxns");
        MtamlInputs pin = in;
        pin.prefHitProb =
            hits + demands > 0 ? hits / (hits + demands) : 0.0;
        PrefEffect predicted =
            classify(pin, base_lat, avgDemandLatency(run));
        std::printf("%-20s %7.3fx %9.1f%% %9.1f%% %12s %12s\n",
                    run.label.c_str(), speedup, mem_frac, benefit,
                    measuredEffect(speedup),
                    toString(predicted).c_str());
    }
}

int
printDiff(const Run &a, const Run &b, double gatePct)
{
    double ca = a.get("sim.cycles");
    double cb = b.get("sim.cycles");
    double delta = ca > 0 ? 100.0 * (cb - ca) / ca : 0.0;
    std::printf("cycles: %s %.0f -> %s %.0f (%+.3f%%)\n",
                a.label.c_str(), ca, b.label.c_str(), cb, delta);

    // Largest per-category movements, for context.
    for (unsigned k = 0; k < numCycleCats; ++k) {
        std::string name =
            std::string("sim.cycles.") +
            cycleCatName(static_cast<CycleCat>(k));
        double va = a.getOr(name, 0.0);
        double vb = b.getOr(name, 0.0);
        if (va != vb)
            std::printf("  %-28s %13.0f -> %13.0f\n", name.c_str(), va,
                        vb);
    }
    std::size_t only_a = 0;
    std::size_t only_b = 0;
    for (const auto &[name, v] : a.stats)
        only_a += b.stats.find(name) == b.stats.end() ? 1 : 0;
    for (const auto &[name, v] : b.stats)
        only_b += a.stats.find(name) == a.stats.end() ? 1 : 0;
    if (only_a || only_b)
        std::printf("  (schema drift: %zu stats only in A, %zu only "
                    "in B)\n",
                    only_a, only_b);

    // The plain diff gates exactly one metric — sim.cycles — so a
    // regression names it with both the absolute and relative excess.
    if (delta > gatePct) {
        std::printf("REGRESSION: sim.cycles %.0f -> %.0f "
                    "(+%.0f absolute, +%.3f%% relative) exceeds the "
                    "%.3f%% gate by %.3f points\n",
                    ca, cb, cb - ca, delta, gatePct, delta - gatePct);
        return 1;
    }
    std::printf("OK: sim.cycles within the %.3f%% gate (%+.3f%%)\n",
                gatePct, delta);
    return 0;
}

/** `campaign show`: provenance + per-figure summary of a manifest. */
void
campaignShow(const std::string &path)
{
    obs::JsonValue doc;
    std::string error;
    if (!bench::loadManifest(path, doc, &error))
        badInput(error);

    if (const obs::JsonValue *p = doc.find("provenance")) {
        auto field = [&](const char *key) -> std::string {
            const obs::JsonValue *v = p->find(key);
            if (!v)
                return "?";
            if (v->isString())
                return v->str;
            if (v->isNumber()) {
                char buf[32];
                std::snprintf(buf, sizeof(buf), "%.0f", v->number);
                return buf;
            }
            return "?";
        };
        std::printf("campaign %s\n", path.c_str());
        std::printf("  git %s on %s, scale 1/%s, throttle period %s\n",
                    field("gitSha").c_str(), field("host").c_str(),
                    field("scaleDiv").c_str(),
                    field("throttlePeriod").c_str());
    }
    if (const obs::JsonValue *s = doc.find("session")) {
        const obs::JsonValue *wall = s->find("wallSeconds");
        const obs::JsonValue *runs = s->find("runsExecuted");
        const obs::JsonValue *hits = s->find("cacheHits");
        const obs::JsonValue *jobs = s->find("jobs");
        std::printf("  session: %.0f runs (%.0f cache hits) in %.1fs "
                    "at --jobs %.0f\n",
                    runs && runs->isNumber() ? runs->number : 0.0,
                    hits && hits->isNumber() ? hits->number : 0.0,
                    wall && wall->isNumber() ? wall->number : 0.0,
                    jobs && jobs->isNumber() ? jobs->number : 0.0);
    }

    const obs::JsonValue *figs = doc.find("figures");
    if (!figs || !figs->isArray())
        badInput("'", path, "' has no figures array — was it written "
                 "by mtp-campaign?");
    std::printf("\n%-24s %-18s %6s  %s\n", "figure", "anchor", "runs",
                "summary");
    for (const auto &f : figs->array) {
        const obs::JsonValue *name = f.find("name");
        const obs::JsonValue *anchor = f.find("anchor");
        const obs::JsonValue *runs = f.find("runs");
        const obs::JsonValue *vol = f.find("volatile");
        bool isVol = vol && vol->kind == obs::JsonValue::Kind::Bool &&
                     vol->boolean;
        std::string summary;
        if (isVol) {
            summary = "(volatile: not gated)";
        } else if (const obs::JsonValue *s = f.find("summary")) {
            for (const auto &[metric, value] : s->object) {
                if (!summary.empty())
                    summary += ", ";
                char buf[64];
                std::snprintf(buf, sizeof(buf), "%s=%.4g",
                              metric.c_str(),
                              value.isNumber() ? value.number : 0.0);
                summary += buf;
                if (summary.size() > 120) {
                    summary += ", ...";
                    break;
                }
            }
        }
        std::printf("%-24s %-18s %6.0f  %s\n",
                    name && name->isString() ? name->str.c_str() : "?",
                    anchor && anchor->isString() ? anchor->str.c_str()
                                                 : "?",
                    runs && runs->isNumber() ? runs->number : 0.0,
                    summary.c_str());
    }
}

/**
 * `campaign diff`: compare a manifest against a golden snapshot under
 * the tolerance schema; with gate=true any drift exits 1.
 */
int
campaignDiff(const std::string &goldenPath,
             const std::string &currentPath,
             const bench::Tolerances &tol, bool gate)
{
    obs::JsonValue golden, current;
    std::string error;
    if (!bench::loadManifest(goldenPath, golden, &error))
        badInput(error);
    if (!bench::loadManifest(currentPath, current, &error))
        badInput(error);

    std::vector<bench::DiffViolation> violations;
    bool ok = bench::diffManifests(golden, current, tol, violations);
    if (ok) {
        std::printf("OK: %s matches %s (tolerance %.3f%% rel / "
                    "%.3g abs, %zu per-metric rules)\n",
                    currentPath.c_str(), goldenPath.c_str(), tol.relPct,
                    tol.abs, tol.rules.size());
        return 0;
    }
    std::printf("DRIFT: %zu metric%s differ%s from the golden "
                "snapshot:\n",
                violations.size(), violations.size() == 1 ? "" : "s",
                violations.size() == 1 ? "s" : "");
    for (const auto &v : violations)
        std::printf("  %s\n", v.describe().c_str());
    return gate ? 1 : 0;
}

/** Summarize a JSONL events file: counts + mean sampled stall mix. */
void
summarizeJsonl(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        badInput("cannot read '", path, "'");
    std::string line;
    std::uint64_t samples = 0;
    std::uint64_t events = 0;
    Cycle last_cycle = 0;
    std::map<std::string, double> sums; //!< per sampled column
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        obs::JsonValue doc;
        std::string error;
        if (!obs::parseJson(line, doc, &error))
            badInput("'", path, "': invalid JSONL line: ", error);
        const obs::JsonValue *t = doc.find("t");
        if (!t || !t->isString())
            continue;
        if (t->str == "sample") {
            ++samples;
            if (const obs::JsonValue *cyc = doc.find("cycle"))
                last_cycle = static_cast<Cycle>(cyc->number);
            if (const obs::JsonValue *v = doc.find("v")) {
                for (const auto &[name, val] : v->object) {
                    if (val.isNumber())
                        sums[name] += val.number;
                }
            }
        } else if (t->str == "event") {
            ++events;
        }
    }
    std::printf("\n%s: %llu samples (through cycle %llu), %llu events\n",
                path.c_str(), static_cast<unsigned long long>(samples),
                static_cast<unsigned long long>(last_cycle),
                static_cast<unsigned long long>(events));
    if (samples == 0)
        return;
    // Mean per-period stall mix across all cores: average the
    // "core<i>.cycles.<cat>" rate columns (fractions of each period).
    std::printf("mean sampled cycle mix (all cores):");
    bool any = false;
    for (unsigned k = 0; k < numCycleCats; ++k) {
        std::string suffix =
            std::string(".cycles.") +
            cycleCatName(static_cast<CycleCat>(k));
        double total = 0.0;
        std::uint64_t cols = 0;
        for (const auto &[name, sum] : sums) {
            if (name.size() > suffix.size() &&
                name.compare(name.size() - suffix.size(), suffix.size(),
                             suffix) == 0) {
                total += sum;
                ++cols;
            }
        }
        if (cols > 0) {
            any = true;
            std::printf(" %s=%.1f%%",
                        cycleCatName(static_cast<CycleCat>(k)),
                        100.0 * total /
                            (static_cast<double>(cols) * samples));
        }
    }
    std::printf(any ? "\n" : " (no cycle-accounting columns sampled)\n");
}

/**
 * `host`: render a host-profile JSONL artifact (mtp-sim/mtp-campaign
 * --host-profile, DESIGN.md §12) as per-worker utilization and a
 * phase table. Per thread over the profiling window W:
 * busy = active - wait, wait = wait, idle = W - active — the three
 * fractions sum to 100% (up to scopes still open at snapshot time).
 */
void
reportHost(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        badInput("cannot read '", path, "'");

    struct HostThread
    {
        std::string name;
        double activeNs = 0.0;
        double waitNs = 0.0;
        std::vector<std::pair<std::string, double>> phases; //!< self ns
    };
    double wallNs = 0.0;
    std::vector<HostThread> threads;
    std::vector<std::pair<std::string, double>> counters;

    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        obs::JsonValue doc;
        std::string error;
        if (!obs::parseJson(line, doc, &error))
            badInput("'", path, "': invalid JSONL line: ", error);
        const obs::JsonValue *type = doc.find("type");
        if (!type || !type->isString())
            continue;
        if (type->str == "host.meta") {
            if (const obs::JsonValue *w = doc.find("wallNs"))
                wallNs = w->number;
        } else if (type->str == "host.thread") {
            HostThread t;
            if (const obs::JsonValue *n = doc.find("name"))
                t.name = n->isString() ? n->str : "?";
            if (const obs::JsonValue *a = doc.find("activeNs"))
                t.activeNs = a->number;
            if (const obs::JsonValue *w = doc.find("waitNs"))
                t.waitNs = w->number;
            if (const obs::JsonValue *p = doc.find("phases")) {
                for (const auto &[phase, v] : p->object) {
                    const obs::JsonValue *ns = v.find("ns");
                    if (ns && ns->isNumber())
                        t.phases.emplace_back(phase, ns->number);
                }
            }
            threads.push_back(std::move(t));
        } else if (type->str == "host.counter") {
            const obs::JsonValue *n = doc.find("name");
            const obs::JsonValue *v = doc.find("value");
            if (n && n->isString() && v && v->isNumber())
                counters.emplace_back(n->str, v->number);
        }
    }
    if (wallNs <= 0.0 || threads.empty())
        badInput("'", path, "' has no host.meta/host.thread records — "
                 "was it written by --host-profile?");

    std::printf("host profile %s: %.3f s wall, %zu threads\n\n",
                path.c_str(), wallNs / 1e9, threads.size());
    std::printf("%-10s %6s %6s %6s %9s  %s\n", "thread", "busy%",
                "wait%", "idle%", "busy s", "top phases (self time)");
    for (const auto &t : threads) {
        double busy = t.activeNs > t.waitNs ? t.activeNs - t.waitNs : 0.0;
        double idle = wallNs > t.activeNs ? wallNs - t.activeNs : 0.0;
        auto pct = [&](double ns) { return 100.0 * ns / wallNs; };
        // Top three phases by self time, wait-class included (they
        // show up in wait%, not busy%, but are still "where the time
        // went" for this thread).
        std::vector<std::pair<std::string, double>> top = t.phases;
        std::sort(top.begin(), top.end(),
                  [](const auto &a, const auto &b) {
                      return a.second > b.second;
                  });
        std::string detail;
        for (std::size_t i = 0; i < top.size() && i < 3; ++i) {
            char buf[64];
            std::snprintf(buf, sizeof buf, "%s%s %.1f%%",
                          i ? ", " : "", top[i].first.c_str(),
                          t.activeNs > 0
                              ? 100.0 * top[i].second / t.activeNs
                              : 0.0);
            detail += buf;
        }
        std::printf("%-10s %5.1f%% %5.1f%% %5.1f%% %9.3f  %s\n",
                    t.name.c_str(), pct(busy), pct(t.waitNs), pct(idle),
                    busy / 1e9, detail.c_str());
    }

    // Aggregate phase table: self time summed over threads. The busy
    // total equals sum(active - wait) by the §12 accounting identity.
    std::map<std::string, double> phaseTotals;
    double activeTotal = 0.0;
    for (const auto &t : threads) {
        activeTotal += t.activeNs;
        for (const auto &[phase, ns] : t.phases)
            phaseTotals[phase] += ns;
    }
    std::vector<std::pair<std::string, double>> rows(phaseTotals.begin(),
                                                     phaseTotals.end());
    std::sort(rows.begin(), rows.end(),
              [](const auto &a, const auto &b) {
                  return a.second > b.second;
              });
    std::printf("\n%-16s %12s %7s\n", "phase (all thr)", "self ms",
                "active%");
    for (const auto &[phase, ns] : rows)
        std::printf("%-16s %12.3f %6.1f%%\n", phase.c_str(), ns / 1e6,
                    activeTotal > 0 ? 100.0 * ns / activeTotal : 0.0);

    if (!counters.empty()) {
        std::printf("\n%-24s %s\n", "counter", "value");
        for (const auto &[name, value] : counters)
            std::printf("%-24s %.6g\n", name.c_str(), value);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> files;
    std::string jsonl;
    double gatePct = 0.0;
    bool gate = false;
    bench::Tolerances tol;

    auto addFile = [&](const cli::Arg &a) { files.push_back(a.value); };
    const cli::Flag jsonlRow{
        "--jsonl", "FILE", "attach a sampled time-series summary",
        [&](const cli::Arg &a) { jsonl = a.value; }};
    enum { Show, Compare, Diff, CampaignShow, CampaignDiff, Host };
    std::size_t mode = cli::parse(
        argc, argv,
        {
            {"show", "<stats.json>...",
             "per-run stall-breakdown table (DESIGN.md §9)", {jsonlRow},
             addFile, 1},
            {"compare", "<baseline.json> <run.json>...",
             "speedup vs. the baseline and the MTAML check", {jsonlRow},
             addFile, 2},
            {"diff", "<A.json> <B.json>", "regression gate: B's cycles vs. A's",
             {{"--gate", "PCT", "allowed cycle growth in percent (default 0)",
               [&](const cli::Arg &a) { gatePct = a.number(0.0); }},
              jsonlRow},
             addFile, 2, 2},
            {"campaign show", "<BENCH_campaign.json>", "manifest summary", {},
             addFile, 1, 1},
            {"campaign diff", "<golden.json> <current.json>",
             "figure-drift check (DESIGN.md §11)",
             {{"--gate", "", "exit 1 on drift",
               [&](const cli::Arg &) { gate = true; }},
              {"--tol-rel", "PCT", "relative tolerance in percent",
               [&](const cli::Arg &a) { tol.relPct = a.number(0.0); }},
              {"--tol-abs", "V", "absolute tolerance",
               [&](const cli::Arg &a) { tol.abs = a.number(0.0); }},
              {"--tol", "PATTERN=PCT",
               "per-metric relative tolerance (repeatable)",
               [&](const cli::Arg &a) {
                   auto eq = a.value.find_last_of('=');
                   if (eq == std::string::npos || eq == 0)
                       a.fail("--tol expects <pattern>=<pct>, got '" +
                              a.value + "'");
                   cli::Arg pct{a.flag, a.value.substr(eq + 1), a.status};
                   tol.rules.push_back(
                       {a.value.substr(0, eq), pct.number(0.0)});
               }}},
             addFile, 2, 2},
            {"host", "<host.jsonl>", "host-profiler report (DESIGN.md §12)",
             {jsonlRow}, addFile, 1, 1},
        },
        usageStatus);

    std::vector<Run> runs;
    if (mode == Show || mode == Compare || mode == Diff)
        for (const auto &f : files)
            runs.push_back(loadStats(f));
    int status = 0;
    switch (mode) {
      case Show:
        printBreakdown(runs);
        printScheduler(runs);
        break;
      case Compare:
        printCompare(runs[0], {runs.begin() + 1, runs.end()});
        break;
      case Diff:
        status = printDiff(runs[0], runs[1], gatePct);
        break;
      case CampaignShow:
        campaignShow(files[0]);
        break;
      case CampaignDiff:
        return campaignDiff(files[0], files[1], tol, gate);
      case Host:
        reportHost(files[0]);
        break;
    }
    if (!jsonl.empty())
        summarizeJsonl(jsonl);
    return status;
}
