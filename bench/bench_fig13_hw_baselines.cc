/**
 * @file
 * Figure 13: previously proposed hardware prefetchers — Stride RPT,
 * StridePC, Stream and GHB — with (a) their original indexing and
 * (b) warp-id-enhanced training. The paper's conclusion: without
 * warp-id training the tables see the scrambled pattern of Fig. 5 and
 * the prefetchers are unstable.
 */

#include "bench/harnesses.hh"

namespace mtp {
namespace bench {
namespace {

FigureResult
run(Runner &runner, const Options &opts)
{
    const HwPrefKind kinds[] = {HwPrefKind::StrideRPT,
                                HwPrefKind::StridePC,
                                HwPrefKind::Stream, HwPrefKind::GHB};
    const std::string kindNames[] = {"stride", "stridePC", "stream",
                                     "ghb"};

    // Columns 0-3: original indexing; 4-7: warp-id training.
    std::vector<RunMatrix::Column> cols;
    for (bool warp_training : {false, true}) {
        for (unsigned i = 0; i < 4; ++i) {
            SimConfig cfg = baseConfig(opts);
            cfg.hwPref = kinds[i];
            cfg.hwPrefWarpTraining = warp_training;
            cols.push_back({kindNames[i], cfg, SwPrefKind::None,
                            (warp_training ? "warpid." : "orig.") +
                                kindNames[i]});
        }
    }
    RunMatrix m(runner, opts, Suite::memoryIntensiveNames(),
                std::move(cols));

    FigureResult out;
    m.speedupTable(out, "13a-original-indexing", true, 0, 4);
    m.speedupTable(out, "13b-warp-id-indexing", true, 4, 8);
    out.notes.push_back("paper: StridePC (enhanced) stands out with "
                        "wins on black / mersenne / monte / pns and a "
                        "loss on stream; GHB helps scalar and linear "
                        "but has low coverage");
    return out;
}

} // namespace

CampaignSpec
specFig13HwBaselines()
{
    return {"fig13_hw_baselines", "Baseline hardware prefetchers",
            "Fig. 13a/13b", &run};
}

} // namespace bench
} // namespace mtp
