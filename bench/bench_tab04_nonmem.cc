/**
 * @file
 * Table IV: the 12 non-memory-intensive benchmarks. Their CPIs barely
 * move under a hardware prefetcher or a perfect memory — the property
 * the table documents.
 */

#include "bench/harnesses.hh"

namespace mtp {
namespace bench {
namespace {

FigureResult
run(Runner &runner, const Options &opts)
{
    SimConfig pmem = baseConfig(opts);
    pmem.perfectMemory = true;
    SimConfig hwp = baseConfig(opts);
    hwp.hwPref = HwPrefKind::MTHWP;
    RunMatrix m(runner, opts, Suite::computeNames(),
                {{"pmem", pmem}, {"hwp", hwp}});

    FigureResult out;
    Table t;
    t.name = "cpi";
    t.columns = {"bench",   "baseCPI",    "paper.base", "pmemCPI",
                 "paper.pmem", "hwpCPI", "paper.hwp"};
    std::vector<double> hwpOverBase;
    for (std::size_t b = 0; b < m.size(); ++b) {
        const WorkloadInfo &info = m.workload(b).info;
        const RunResult &base = m.baseline(b);
        const RunResult &perfect = m.run(b, 0);
        const RunResult &pref = m.run(b, 1);
        hwpOverBase.push_back(base.cpi / pref.cpi);
        t.addRow({Cell::str(info.name), Cell::number(base.cpi),
                  Cell::number(info.paperBaseCpi),
                  Cell::number(perfect.cpi),
                  Cell::number(info.paperPmemCpi),
                  Cell::number(pref.cpi),
                  Cell::number(info.paperHwpCpi)});
    }
    out.tables.push_back(std::move(t));
    out.metric("geomean.hwpSpeedup", geomean(hwpOverBase));
    out.notes.push_back("non-memory-intensive kernels: prefetching "
                        "and perfect memory barely move the CPI");
    return out;
}

} // namespace

CampaignSpec
specTab04Nonmem()
{
    return {"tab04_nonmem", "Non-memory-intensive benchmark CPIs",
            "Table IV", &run};
}

} // namespace bench
} // namespace mtp
