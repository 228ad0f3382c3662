/**
 * @file
 * Per-layer replay timers of the benchmark. Each timer drives one layer
 * class directly — the coalescer, a DRAM channel, the prefetch cache,
 * the MT-HWP prefetcher and its LRU table — with the memory accesses
 * of the workload's own kernels, so two workloads report different
 * ns/op wherever their access patterns differ.
 */

#ifndef MTP_PERFBENCH_REPLAY_HH
#define MTP_PERFBENCH_REPLAY_HH

#include <cstddef>
#include <vector>

#include "mtprefetch/mtprefetch.hh"

namespace perfbench {

/** Host cost per operation of each replayed layer (median of reps). */
struct ReplayTimes
{
    double coalesceNs = 0.0;    //!< coalesceWarpAccess per warp access
    double txnsPerAccess = 0.0; //!< exact: transactions / warp access
    double dramTickNs = 0.0;    //!< DramChannel insert + tick per tick
    double pcacheNs = 0.0;      //!< PrefetchCache demandAccess / fill
    double observeNs = 0.0;     //!< MtHwpPrefetcher::observe per load
    double lruNs = 0.0;         //!< LruTable findOrInsert per load
};

/**
 * Replay up to @p maxAccesses warp memory accesses, shared evenly
 * across @p kernels, through every layer timer. Accesses are taken in
 * program order, one instruction at a time across the first warps of
 * the grid, as co-resident warps would issue them.
 */
ReplayTimes replayLayers(const std::vector<mtp::KernelDesc> &kernels,
                         const mtp::SimConfig &cfg,
                         std::size_t maxAccesses);

} // namespace perfbench

#endif // MTP_PERFBENCH_REPLAY_HH
