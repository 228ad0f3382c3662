/**
 * @file
 * Figure 16: sensitivity to prefetch cache size, 1 KB to 128 KB, for
 * MT-HWP and MT-SWP with and without throttling (geometric-mean
 * speedup over the no-prefetching baseline). Uses the cross-class
 * sweep subset by default; pass --bench to widen.
 */

#include "bench/harnesses.hh"

namespace mtp {
namespace bench {
namespace {

FigureResult
run(Runner &runner, const Options &opts)
{
    const unsigned sizesKb[] = {1, 2, 4, 8, 16, 32, 64, 128};
    // Four columns per size: MT-HWP, MT-SWP, MT-HWP+T, MT-SWP+T.
    std::vector<RunMatrix::Column> cols;
    for (unsigned kb : sizesKb) {
        for (bool throttle : {false, true}) {
            SimConfig cfg = baseConfig(opts);
            cfg.prefCacheBytes = kb * 1024;
            cfg.throttleEnable = throttle;
            SimConfig hw = cfg;
            hw.hwPref = HwPrefKind::MTHWP;
            cols.push_back({"mthwp", hw});
            cols.push_back({"mtswp", cfg, SwPrefKind::StrideIP});
        }
    }
    RunMatrix m(runner, opts, sweepSubset(), std::move(cols));

    FigureResult out;
    Table t;
    t.name = "size-sweep";
    t.columns = {"size", "mthwp", "mthwp+T", "mtswp", "mtswp+T"};
    for (std::size_t i = 0; i < std::size(sizesKb); ++i) {
        double hw = geomean(m.speedups(4 * i));
        double sw = geomean(m.speedups(4 * i + 1));
        double hwt = geomean(m.speedups(4 * i + 2));
        double swt = geomean(m.speedups(4 * i + 3));
        t.addRow({Cell::str(std::to_string(sizesKb[i]) + "K"),
                  Cell::number(hw, 3), Cell::number(hwt, 3),
                  Cell::number(sw, 3), Cell::number(swt, 3)});
        if (sizesKb[i] == 16) {
            out.metric("geomean.16K.mthwp+T", hwt);
            out.metric("geomean.16K.mtswp+T", swt);
        }
    }
    out.tables.push_back(std::move(t));
    std::string used = "benchmarks:";
    for (std::size_t b = 0; b < m.size(); ++b)
        used += " " + m.workload(b).info.name;
    out.notes.push_back(used);
    out.notes.push_back("paper shape: performance grows with cache "
                        "size; at 1KB unthrottled prefetching degrades "
                        "performance but throttling keeps it above "
                        "1.0; the throttling margin shrinks as the "
                        "cache grows");
    return out;
}

} // namespace

CampaignSpec
specFig16PcacheSize()
{
    return {"fig16_pcache_size", "Prefetch cache size sensitivity",
            "Fig. 16", &run};
}

} // namespace bench
} // namespace mtp
