/**
 * @file
 * Ablation: the throttle engine's two metrics in isolation (Sec. V-A).
 * "early only" neutralizes the merge rule by treating the merge ratio
 * as always high; "merge only" neutralizes the early-eviction rule by
 * moving its thresholds out of reach. Run on MT-HWP.
 */

#include "bench/harnesses.hh"

namespace mtp {
namespace bench {
namespace {

FigureResult
run(Runner &runner, const Options &opts)
{
    SimConfig none = baseConfig(opts);
    none.hwPref = HwPrefKind::MTHWP;
    SimConfig both = none;
    both.throttleEnable = true;
    // Early-eviction rule only: merge always reads high.
    SimConfig earlyOnly = both;
    earlyOnly.mergeHigh = -1.0;
    // Merge rule only: early rate never trips its bands.
    SimConfig mergeOnly = both;
    mergeOnly.earlyEvictLow = 1e18;
    mergeOnly.earlyEvictHigh = 1e19;
    RunMatrix m(runner, opts, Suite::memoryIntensiveNames(),
                {{"no-throt", none},
                 {"both", both},
                 {"earlyOnly", earlyOnly},
                 {"mergeOnly", mergeOnly}});

    FigureResult out;
    m.speedupTable(out, "throttle-metrics", false);
    out.notes.push_back("the early-eviction rate is the primary signal "
                        "(Sec. V-A); the merge ratio alone cannot "
                        "identify harmful prefetching, it only "
                        "confirms useful flow");
    return out;
}

} // namespace

CampaignSpec
specAblThrottleMetrics()
{
    return {"abl_throttle_metrics", "Throttle metric ablation",
            "Sec. V-A", &run};
}

} // namespace bench
} // namespace mtp
