/**
 * @file
 * Software-prefetch transforms (Sec. II-C1, III-A). These are the
 * source-level schemes the paper evaluates, applied to synthetic
 * kernels as data transformations:
 *
 *  - stride prefetching: inside loops, prefetch the access `distance`
 *    iterations ahead into the prefetch cache;
 *  - inter-thread prefetching (IP): prefetch the corresponding access
 *    of the thread `32 x distance` thread ids ahead (the same-lane
 *    thread of a warp `distance` warps ahead, Fig. 4);
 *  - register prefetching (Ryoo et al.): binding loads one iteration
 *    ahead into registers, at the cost of extra instructions and
 *    register pressure (reduced thread-block occupancy);
 *  - MT-SWP: stride + IP combined.
 *
 * Each transform reads its distances from the kernel's own
 * SwPrefetchOptions (KernelDesc::swpOpts).
 */

#ifndef MTP_CORE_SW_PREFETCH_HH
#define MTP_CORE_SW_PREFETCH_HH

#include "common/config.hh"
#include "trace/kernel.hh"

namespace mtp {

/**
 * Insert stride prefetches into every loop of @p kernel (loads with a
 * non-zero iteration stride only; short straight-line kernels have no
 * insertion points, Fig. 3). @return the transformed, finalized kernel.
 */
KernelDesc applyStridePrefetch(const KernelDesc &kernel);

/**
 * Insert inter-thread prefetches for prefetchable loads.
 * @param skipStrideCovered skip loads a stride prefetch already covers
 *        (loop loads with a non-zero iteration stride) — used by the
 *        combined MT-SWP transform so each load gets one prefetch.
 * @return the transformed, finalized kernel.
 */
KernelDesc applyInterThreadPrefetch(const KernelDesc &kernel,
                                    bool skipStrideCovered = false);

/**
 * Apply register (binding) prefetching to every load inside a loop:
 * consumers use the previous iteration's value, one extra address
 * computation per load is charged, and occupancy drops by
 * `registerBlocksLost` blocks per core.
 * @return the transformed, finalized kernel.
 */
KernelDesc applyRegisterPrefetch(const KernelDesc &kernel);

/** Dispatch on @p kind (StrideIP composes stride then IP). */
KernelDesc applySwPrefetch(const KernelDesc &kernel, SwPrefKind kind);

} // namespace mtp

#endif // MTP_CORE_SW_PREFETCH_HH
