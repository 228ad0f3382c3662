/**
 * @file
 * Figure 8: average (demand) memory latency under software prefetching
 * normalized to the no-prefetching case (bars), with prefetch accuracy
 * (circles). The paper's point: latency can triple even at ~100%
 * accuracy, so accuracy alone cannot flag harmful prefetching.
 */

#include "bench/harnesses.hh"

namespace mtp {
namespace bench {
namespace {

FigureResult
run(Runner &runner, const Options &opts)
{
    RunMatrix m(runner, opts, Suite::memoryIntensiveNames(),
                {{"mtswp", baseConfig(opts), SwPrefKind::StrideIP}});

    FigureResult out;
    Table t;
    t.name = "latency";
    t.columns = {"bench",   "type",    "lat.base",
                 "lat.pref", "normLat", "accuracy%"};
    std::vector<double> norms;
    for (std::size_t b = 0; b < m.size(); ++b) {
        const WorkloadInfo &info = m.workload(b).info;
        const RunResult &base = m.baseline(b);
        const RunResult &pref = m.run(b, 0);
        double norm = base.avgDemandLatency > 0
                          ? pref.avgDemandLatency /
                                base.avgDemandLatency
                          : 0.0;
        norms.push_back(norm);
        t.addRow({Cell::str(info.name), Cell::str(toString(info.type)),
                  Cell::number(base.avgDemandLatency, 1),
                  Cell::number(pref.avgDemandLatency, 1),
                  Cell::number(norm),
                  Cell::number(100.0 * pref.accuracy(), 1)});
    }
    out.tables.push_back(std::move(t));
    out.metric("geomean.normLat", geomean(norms));
    out.notes.push_back("paper shape: normalized latency 1-3.5x; high "
                        "even when accuracy approaches 100% (e.g. "
                        "stream)");
    return out;
}

} // namespace

CampaignSpec
specFig08Latency()
{
    return {"fig08_latency",
            "Normalized memory latency and prefetch accuracy under "
            "MT-SWP",
            "Fig. 8", &run};
}

} // namespace bench
} // namespace mtp
