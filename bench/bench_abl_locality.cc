/**
 * @file
 * Ablation: the scheduling/dispatch locality that inter-thread
 * prefetching depends on (DESIGN.md). Compares MT-HWP speedups under
 *
 *   - contiguous block dispatch + greedy warp scheduling (baseline),
 *   - round-robin block dispatch (consecutive blocks scatter across
 *     cores, so IP prefetches land in the wrong prefetch cache), and
 *   - pure round-robin warp scheduling.
 *
 * This makes the paper's own caveat measurable: an IP prefetch is
 * wasted "when the target warp's block is assigned to a different
 * core" (Sec. III-A2).
 */

#include <array>

#include "bench/harnesses.hh"

namespace mtp {
namespace bench {
namespace {

FigureResult
run(Runner &runner, const Options &opts)
{
    // IP-sensitive benchmarks: the mp/uncoal classes.
    std::vector<std::string> fallback = {"backprop", "cell", "ocean",
                                         "bfs",      "cfd",  "linear",
                                         "sepia"};
    auto names = selectBenchmarks(opts, fallback);

    // Per benchmark and mode: the mode's own baseline, then MT-HWP.
    struct Runs
    {
        std::shared_future<RunResult> base, hwp;
    };
    std::vector<std::array<Runs, 3>> runs; //!< [benchmark][mode]
    for (const auto &name : names) {
        Workload w = Suite::get(name, opts.scaleDiv);
        auto &modes = runs.emplace_back();
        for (unsigned i = 0; i < 3; ++i) {
            SimConfig base_cfg = baseConfig(opts);
            base_cfg.dispatchContiguous = i != 1;
            base_cfg.schedGreedy = i != 2;
            SimConfig cfg = base_cfg;
            cfg.hwPref = HwPrefKind::MTHWP;
            modes[i].base = runner.submit(base_cfg, w.kernel);
            modes[i].hwp = runner.submit(cfg, w.kernel);
        }
    }

    FigureResult out;
    Table t;
    t.name = "locality";
    t.columns = {"bench", "contig", "rr-blocks", "rr-warps"};
    std::vector<double> g[3];
    for (std::size_t b = 0; b < names.size(); ++b) {
        std::vector<Cell> row = {Cell::str(names[b])};
        for (unsigned i = 0; i < 3; ++i) {
            const Runs &r = runs[b][i];
            double spd = static_cast<double>(r.base.get().cycles) /
                         r.hwp.get().cycles;
            g[i].push_back(spd);
            row.push_back(Cell::number(spd));
        }
        t.addRow(std::move(row));
    }
    t.addRow({Cell::str("geomean"), Cell::number(geomean(g[0])),
              Cell::number(geomean(g[1])),
              Cell::number(geomean(g[2]))});
    out.tables.push_back(std::move(t));
    out.metric("geomean.contig", geomean(g[0]));
    out.metric("geomean.rr-blocks", geomean(g[1]));
    out.metric("geomean.rr-warps", geomean(g[2]));
    out.notes.push_back("expectation: IP's benefit shrinks under "
                        "round-robin block dispatch (the target warp's "
                        "block usually runs on another core)");
    return out;
}

} // namespace

CampaignSpec
specAblLocality()
{
    return {"abl_locality",
            "Block-dispatch / warp-scheduling locality ablation",
            "Sec. III-A2", &run};
}

} // namespace bench
} // namespace mtp
