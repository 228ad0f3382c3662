/**
 * @file
 * Figure 18: sensitivity to the number of cores (8 to 20, DRAM
 * bandwidth held constant) for MT-HWP and MT-SWP with and without
 * throttling; geometric-mean speedup over the same-core-count
 * no-prefetching baseline.
 */

#include "bench/harnesses.hh"

namespace mtp {
namespace bench {
namespace {

FigureResult
run(Runner &runner, const Options &opts)
{
    auto names = selectBenchmarks(opts, sweepSubset());
    const unsigned coreCounts[] = {8, 10, 12, 14, 16, 18, 20};

    // Per benchmark and core count: the baseline, then MT-SWP and
    // MT-HWP without and with throttling.
    struct Runs
    {
        std::shared_future<RunResult> base;
        std::shared_future<RunResult> sw[2], hw[2]; //!< [throttle]
    };
    std::vector<std::vector<Runs>> runs; //!< [benchmark][core count]
    for (const auto &name : names) {
        Workload w = Suite::get(name, opts.scaleDiv);
        KernelDesc swp = w.variant(SwPrefKind::StrideIP);
        runs.emplace_back();
        for (unsigned cores : coreCounts) {
            SimConfig base_cfg = baseConfig(opts);
            base_cfg.numCores = cores;
            Runs r;
            r.base = runner.submit(base_cfg, w.kernel);
            for (bool throttle : {false, true}) {
                SimConfig cfg = base_cfg;
                cfg.throttleEnable = throttle;
                r.sw[throttle] = runner.submit(cfg, swp);
                cfg.hwPref = HwPrefKind::MTHWP;
                r.hw[throttle] = runner.submit(cfg, w.kernel);
            }
            runs.back().push_back(std::move(r));
        }
    }

    FigureResult out;
    Table t;
    t.name = "core-sweep";
    t.columns = {"cores", "mthwp", "mthwp+T", "mtswp", "mtswp+T"};
    for (std::size_t i = 0; i < std::size(coreCounts); ++i) {
        std::vector<double> hw, hwt, sw, swt;
        for (const auto &bench : runs) {
            const Runs &r = bench[i];
            double base = static_cast<double>(r.base.get().cycles);
            hw.push_back(base / r.hw[0].get().cycles);
            hwt.push_back(base / r.hw[1].get().cycles);
            sw.push_back(base / r.sw[0].get().cycles);
            swt.push_back(base / r.sw[1].get().cycles);
        }
        t.addRow({Cell::number(coreCounts[i], 0),
                  Cell::number(geomean(hw), 3),
                  Cell::number(geomean(hwt), 3),
                  Cell::number(geomean(sw), 3),
                  Cell::number(geomean(swt), 3)});
        if (coreCounts[i] == 14) {
            out.metric("geomean.14.mthwp+T", geomean(hwt));
            out.metric("geomean.14.mtswp+T", geomean(swt));
        }
    }
    out.tables.push_back(std::move(t));
    std::string used = "benchmarks:";
    for (const auto &n : names)
        used += " " + n;
    out.notes.push_back(used);
    out.notes.push_back("paper shape: benefits shrink slightly as "
                        "cores grow (more contention for the fixed "
                        "57.6 GB/s) but prefetching stays profitable "
                        "through 20 cores");
    return out;
}

} // namespace

CampaignSpec
specFig18Cores()
{
    return {"fig18_cores",
            "Core-count sensitivity (fixed DRAM bandwidth)",
            "Fig. 18", &run};
}

} // namespace bench
} // namespace mtp
