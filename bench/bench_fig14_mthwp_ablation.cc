/**
 * @file
 * Figure 14: MT-HWP table ablation — GHB (reference), PWS only,
 * PWS+GS, PWS+IP and the full PWS+GS+IP — plus the GS table's
 * PWS-access savings the paper quotes (97% on stride-type).
 */

#include "bench/harnesses.hh"

namespace mtp {
namespace bench {
namespace {

FigureResult
run(Runner &runner, const Options &opts)
{
    auto mthwp = [&](bool pws, bool gs, bool ip) {
        SimConfig cfg = baseConfig(opts);
        cfg.hwPref = HwPrefKind::MTHWP;
        cfg.mthwpPws = pws;
        cfg.mthwpGs = gs;
        cfg.mthwpIp = ip;
        return cfg;
    };
    SimConfig ghb = baseConfig(opts);
    ghb.hwPref = HwPrefKind::GHB;
    RunMatrix m(runner, opts, Suite::memoryIntensiveNames(),
                {{"ghb", ghb},
                 {"pws", mthwp(true, false, false)},
                 {"pws+gs", mthwp(true, true, false)},
                 {"pws+ip", mthwp(true, false, true)},
                 {"pws+gs+ip", mthwp(true, true, true)}});

    FigureResult out;
    m.speedupTable(out, "ablation", true);

    // The GS table's PWS-probe savings under the full MT-HWP.
    double saved_sum = 0.0, probes_sum = 0.0;
    for (std::size_t b = 0; b < m.size(); ++b) {
        if (m.workload(b).info.type != WorkloadType::Stride)
            continue;
        const RunResult &r = m.run(b, 4);
        saved_sum += r.stats.sumMatching("core", ".hwPref.pwsAccessesSaved");
        probes_sum += r.stats.sumMatching("core", ".hwPref.pwsAccesses");
    }
    if (saved_sum + probes_sum > 0) {
        out.metric("gs.pwsSavings%",
                   100.0 * saved_sum / (saved_sum + probes_sum));
        out.metric("gs.pwsSavings%.paper", 97.0);
    }
    out.notes.push_back("paper: PWS carries the stride-type gains; IP "
                        "adds backprop/bfs/cfd/linear; GS adds little "
                        "speed but saves almost all PWS probes once "
                        "strides promote");
    return out;
}

} // namespace

CampaignSpec
specFig14MthwpAblation()
{
    return {"fig14_mthwp_ablation", "MT-HWP table ablation vs. GHB",
            "Fig. 14", &run};
}

} // namespace bench
} // namespace mtp
