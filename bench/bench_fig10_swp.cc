/**
 * @file
 * Figure 10: speedup of the software prefetching schemes over the
 * baseline binary — register prefetching (Ryoo et al.), stride
 * prefetching into the prefetch cache, inter-thread prefetching (IP),
 * and their combination (static MT-SWP).
 */

#include "bench/harnesses.hh"

namespace mtp {
namespace bench {
namespace {

FigureResult
run(Runner &runner, const Options &opts)
{
    SimConfig cfg = baseConfig(opts);
    RunMatrix m(runner, opts, Suite::memoryIntensiveNames(),
                {{"register", cfg, SwPrefKind::Register},
                 {"stride", cfg, SwPrefKind::Stride},
                 {"ip", cfg, SwPrefKind::IP},
                 {"stride+ip", cfg, SwPrefKind::StrideIP}});

    FigureResult out;
    m.speedupTable(out, "speedups", true);
    out.notes.push_back("paper: stride beats register except on "
                        "stream; IP lifts mp/uncoal (backprop, bfs, "
                        "linear, sepia) but degrades ocean; static "
                        "MT-SWP = stride+IP is +12% over stride alone");
    return out;
}

} // namespace

CampaignSpec
specFig10Swp()
{
    return {"fig10_swp", "Software GPGPU prefetching speedups",
            "Fig. 10", &run};
}

} // namespace bench
} // namespace mtp
