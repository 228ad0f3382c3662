/**
 * @file
 * Figure 11: MT-SWP with adaptive prefetch throttling. Columns match
 * the figure: register prefetching, stride prefetching, MT-SWP
 * (stride+IP) and MT-SWP with the throttle engine enabled.
 */

#include "bench/harnesses.hh"

namespace mtp {
namespace bench {
namespace {

FigureResult
run(Runner &runner, const Options &opts)
{
    SimConfig cfg = baseConfig(opts);
    SimConfig thr = cfg;
    thr.throttleEnable = true;
    RunMatrix m(runner, opts, Suite::memoryIntensiveNames(),
                {{"register", cfg, SwPrefKind::Register},
                 {"stride", cfg, SwPrefKind::Stride},
                 {"mtswp", cfg, SwPrefKind::StrideIP},
                 {"mtswp+T", thr, SwPrefKind::StrideIP}});

    FigureResult out;
    m.speedupTable(out, "speedups", true);
    out.notes.push_back("paper: throttling rescues stream/cell/cfd "
                        "(late or early prefetch floods) while leaving "
                        "winners alone; MT-SWP+T is +16% over stride, "
                        "+36% over baseline");
    return out;
}

} // namespace

CampaignSpec
specFig11SwpThrottle()
{
    return {"fig11_swp_throttle", "MT-SWP with adaptive throttling",
            "Fig. 11", &run};
}

} // namespace bench
} // namespace mtp
