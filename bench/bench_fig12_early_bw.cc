/**
 * @file
 * Figure 12: why throttling helps — (a) the ratio of early prefetches
 * (evicted before first use) and (b) DRAM bandwidth consumption
 * normalized to the no-prefetching case, for MT-SWP with and without
 * the throttle engine.
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
                {{"mtswp", cfg, SwPrefKind::StrideIP},
                 {"mtswp+T", thr, SwPrefKind::StrideIP}});

    FigureResult out;
    Table t;
    t.name = "early-and-bandwidth";
    t.columns = {"bench", "type", "early", "early+T", "bw", "bw+T"};
    for (std::size_t b = 0; b < m.size(); ++b) {
        const WorkloadInfo &info = m.workload(b).info;
        const RunResult &base = m.baseline(b);
        const RunResult &swp = m.run(b, 0);
        const RunResult &swpt = m.run(b, 1);
        // Normalized bandwidth: bytes per cycle vs. the baseline run.
        double base_bw = static_cast<double>(base.dramBytes) /
                         static_cast<double>(base.cycles);
        double bw = static_cast<double>(swp.dramBytes) /
                    static_cast<double>(swp.cycles) / base_bw;
        double bwt = static_cast<double>(swpt.dramBytes) /
                     static_cast<double>(swpt.cycles) / base_bw;
        t.addRow({Cell::str(info.name), Cell::str(toString(info.type)),
                  Cell::number(swp.earlyRatio()),
                  Cell::number(swpt.earlyRatio()), Cell::number(bw),
                  Cell::number(bwt)});
    }
    out.tables.push_back(std::move(t));
    out.notes.push_back("paper shape: throttling cuts both the early "
                        "ratio and bandwidth for stream, cell and cfd");
    return out;
}

} // namespace

CampaignSpec
specFig12EarlyBw()
{
    return {"fig12_early_bw",
            "Early prefetches and bandwidth under throttling",
            "Fig. 12a/12b", &run};
}

} // namespace bench
} // namespace mtp
