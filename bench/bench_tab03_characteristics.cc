/**
 * @file
 * Table III: characteristics of the 14 memory-intensive benchmarks —
 * launch geometry, measured base CPI and perfect-memory CPI next to
 * the published values, and the memory-intensity criterion (base CPI
 * at least 50% above perfect-memory CPI).
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
    RunMatrix m(runner, opts, Suite::memoryIntensiveNames(),
                {{"pmem", pmem}});

    FigureResult out;
    Table t;
    t.name = "characteristics";
    t.columns = {"bench",   "suite",      "type",      "warps",
                 "blocks",  "blk/core",   "baseCPI",   "paper.base",
                 "pmemCPI", "paper.pmem", "mem-intense"};
    Table d;
    d.name = "delinquent-loads";
    d.columns = {"bench", "stride", "ip"};
    unsigned intenseCount = 0;
    for (std::size_t b = 0; b < m.size(); ++b) {
        const Workload &w = m.workload(b);
        const RunResult &base = m.baseline(b);
        const RunResult &perfect = m.run(b, 0);
        bool intense = base.cpi > 1.5 * perfect.cpi;
        intenseCount += intense;
        t.addRow({Cell::str(w.info.name), Cell::str(w.info.suite),
                  Cell::str(toString(w.info.type)),
                  Cell::number(
                      static_cast<double>(w.info.paperWarps), 0),
                  Cell::number(
                      static_cast<double>(w.info.paperBlocks), 0),
                  Cell::number(w.kernel.maxBlocksPerCore, 0),
                  Cell::number(base.cpi), Cell::number(w.info.paperBaseCpi),
                  Cell::number(perfect.cpi),
                  Cell::number(w.info.paperPmemCpi),
                  Cell::str(intense ? "yes" : "NO")});
        d.addRow({Cell::str(w.info.name),
                  Cell::number(w.info.paperDelinquentStride, 0),
                  Cell::number(w.info.paperDelinquentIp, 0)});
    }
    out.tables.push_back(std::move(t));
    out.tables.push_back(std::move(d));

    out.metric("memIntensive.count", intenseCount);
    out.metric("memIntensive.frac",
               m.size() == 0 ? 0.0
                             : static_cast<double>(intenseCount) /
                                   static_cast<double>(m.size()));
    out.notes.push_back("mem-intense: base CPI > 1.5x perfect-memory "
                        "CPI (the paper's Table III criterion)");
    return out;
}

} // namespace

CampaignSpec
specTab03Characteristics()
{
    return {"tab03_characteristics", "Benchmark characteristics",
            "Table III", &run};
}

} // namespace bench
} // namespace mtp
