/**
 * @file
 * Figure 17: MT-HWP's sensitivity to prefetch distance (1 to 15).
 * The paper finds distance 1 best for most benchmarks — late
 * prefetches are rare because warp switching hides latency, while
 * large distances overflow the prefetch cache — with stream the
 * exception (its prefetches are chronically late, so distance ~5
 * helps before early evictions take over).
 */

#include "bench/harnesses.hh"

namespace mtp {
namespace bench {
namespace {

FigureResult
run(Runner &runner, const Options &opts)
{
    std::vector<RunMatrix::Column> cols;
    for (unsigned d : {1, 3, 5, 7, 9, 11, 13, 15}) {
        SimConfig cfg = baseConfig(opts);
        cfg.hwPref = HwPrefKind::MTHWP;
        cfg.prefDistance = d;
        std::string name = "d";
        name += std::to_string(d);
        // The summary keeps the two ends of the sweep.
        cols.push_back({name, cfg, SwPrefKind::None,
                        d == 1 || d == 15 ? name : ""});
    }
    RunMatrix m(runner, opts, sweepSubset(), std::move(cols));

    FigureResult out;
    m.speedupTable(out, "distance-sweep", false);
    out.notes.push_back("paper shape: distance 1 best overall; stream "
                        "peaks around distance 5 then decays as "
                        "prefetches turn early (the 16 KB cache cannot "
                        "hold them)");
    return out;
}

} // namespace

CampaignSpec
specFig17Distance()
{
    return {"fig17_distance", "MT-HWP prefetch distance sensitivity",
            "Fig. 17", &run};
}

} // namespace bench
} // namespace mtp
