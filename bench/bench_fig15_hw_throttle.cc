/**
 * @file
 * Figure 15: throttled hardware prefetchers — GHB vs. feedback-driven
 * GHB+F, StridePC vs. lateness-throttled StridePC+T, and MT-HWP vs.
 * MT-HWP with the paper's adaptive throttle engine.
 */

#include "bench/harnesses.hh"

namespace mtp {
namespace bench {
namespace {

FigureResult
run(Runner &runner, const Options &opts)
{
    auto hw = [&](HwPrefKind kind) {
        SimConfig cfg = baseConfig(opts);
        cfg.hwPref = kind;
        return cfg;
    };
    SimConfig ghbF = hw(HwPrefKind::GHB);
    ghbF.ghbFeedback = true;
    SimConfig stpcT = hw(HwPrefKind::StridePC);
    stpcT.stridePcLateThrottle = true;
    SimConfig mthwpT = hw(HwPrefKind::MTHWP);
    mthwpT.throttleEnable = true;
    RunMatrix m(runner, opts, Suite::memoryIntensiveNames(),
                {{"ghb", hw(HwPrefKind::GHB)},
                 {"ghb+F", ghbF},
                 {"stpc", hw(HwPrefKind::StridePC)},
                 {"stpc+T", stpcT},
                 {"mthwp", hw(HwPrefKind::MTHWP)},
                 {"mthwp+T", mthwpT}});

    FigureResult out;
    m.speedupTable(out, "speedups", true);
    out.notes.push_back("paper: throttling rescues stream (the "
                        "late-prefetch pathology) with small losses "
                        "elsewhere; MT-HWP+T is +22%/+15% over "
                        "GHB+F/StridePC+T and +29% overall");
    return out;
}

} // namespace

CampaignSpec
specFig15HwThrottle()
{
    return {"fig15_hw_throttle", "Hardware prefetcher throttling",
            "Fig. 15", &run};
}

} // namespace bench
} // namespace mtp
