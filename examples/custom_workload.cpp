/**
 * @file
 * Build a custom GPGPU kernel with the public API, apply the software
 * prefetching transforms to it, and run it on the simulated machine.
 *
 * The kernel models a gather-style workload:
 *
 *   __global__ void gather(...) {
 *       int tid = blockDim.x * blockIdx.x + threadIdx.x;
 *       int idx = index[tid];          // coalesced index load
 *       float v = table[idx];          // dependent, uncoalesced
 *       out[tid] = f(v);               // a little compute + store
 *   }
 */

#include <cstdio>

#include "mtprefetch/mtprefetch.hh"

int
main(int argc, char **argv)
{
    using namespace mtp;

    // ------------------------------------------------------------------
    // 1. Describe the kernel: a straight-line body per thread.
    // ------------------------------------------------------------------
    KernelDesc k;
    k.name = "gather";
    k.warpsPerBlock = 8;
    k.numBlocks = 256;
    k.maxBlocksPerCore = 2;
    k.swpOpts.ipDistanceWarps = 4; // IP: half a block of warps ahead

    Segment body;
    body.insts.push_back(StaticInst::comp(2)); // tid arithmetic

    AddressPattern index;            // index[tid]: coalesced ints
    index.base = 0x1000'0000ULL;
    index.threadStride = 4;
    body.insts.push_back(StaticInst::load(index, /*dest=*/0));

    // Three dependent hops through 48 B records (a short pointer
    // walk): per-warp MLP is 1, so the baseline is latency-bound.
    for (int hop = 1; hop <= 3; ++hop) {
        AddressPattern table;
        table.base = 0x2000'0000ULL + hop * 0x800;
        table.threadStride = 48;
        StaticInst gather = StaticInst::load(table, /*dest=*/hop);
        gather.srcSlots = {static_cast<std::int8_t>(hop - 1), -1};
        body.insts.push_back(gather);
    }

    body.insts.push_back(StaticInst::compUse(3, -1, 4));

    AddressPattern out;              // out[tid]
    out.base = 0x3000'0000ULL;
    out.threadStride = 4;
    body.insts.push_back(StaticInst::store(out, 3));

    k.segments.push_back(body);
    k.finalize();

    std::printf("kernel '%s': %llu blocks x %u warps, %llu "
                "warp-instructions per warp\n",
                k.name.c_str(),
                static_cast<unsigned long long>(k.numBlocks),
                k.warpsPerBlock,
                static_cast<unsigned long long>(k.warpInstsPerWarp()));

    // ------------------------------------------------------------------
    // 2. Run it: baseline, inter-thread SW prefetching, MT-HWP.
    // ------------------------------------------------------------------
    SimConfig cfg; // Table II machine
    for (int i = 1; i < argc; ++i)
        cfg.applyOverride(argv[i]);

    RunResult base = simulate(cfg, k);
    std::printf("\nbaseline : %8llu cycles  CPI %6.2f  mem latency "
                "%.0f\n",
                static_cast<unsigned long long>(base.cycles), base.cpi,
                base.avgDemandLatency);

    KernelDesc with_ip = applyInterThreadPrefetch(k);
    RunResult sw = simulate(cfg, with_ip);
    std::printf("SW IP    : %8llu cycles  speedup %.3f  coverage "
                "%.0f%%\n",
                static_cast<unsigned long long>(sw.cycles),
                static_cast<double>(base.cycles) / sw.cycles,
                100.0 * sw.prefCoverage());

    SimConfig hw_cfg = cfg;
    hw_cfg.hwPref = HwPrefKind::MTHWP;
    RunResult hw = simulate(hw_cfg, k);
    std::printf("MT-HWP   : %8llu cycles  speedup %.3f  coverage "
                "%.0f%%\n",
                static_cast<unsigned long long>(hw.cycles),
                static_cast<double>(base.cycles) / hw.cycles,
                100.0 * hw.prefCoverage());

    // ------------------------------------------------------------------
    // 3. Ask the analytical model what it expected (Sec. IV).
    // ------------------------------------------------------------------
    MtamlInputs in;
    in.compInsts = static_cast<double>(k.warpInstsPerWarp() -
                                       k.memInstsPerWarp());
    in.memInsts = static_cast<double>(k.memInstsPerWarp());
    in.activeWarps = base.avgActiveWarps;
    in.prefHitProb = hw.prefCoverage();
    std::printf("\nMTAML: tolerance %.0f vs latency %.0f -> %s\n",
                mtaml(in), base.avgDemandLatency,
                toString(classify(in, base.avgDemandLatency,
                                  hw.avgDemandLatency))
                    .c_str());
    return 0;
}
