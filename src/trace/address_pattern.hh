/**
 * @file
 * Per-lane address generation for synthetic kernel memory instructions.
 *
 * An AddressPattern is a closed-form function from (global thread id,
 * loop iteration) to a byte address. The parameterization covers the
 * paper's three benchmark classes:
 *
 *  - coalesced (stride-type / mp-type): threadStride == element size, so
 *    one warp touches a few contiguous cache blocks;
 *  - uncoalesced (uncoal-type): threadStride >= one cache block, so every
 *    lane of a warp touches a distinct block;
 *  - data-dependent (bfs-like): a deterministic pseudo-random fraction of
 *    lanes scatters into a window, destroying some of the regularity.
 */

#ifndef MTP_TRACE_ADDRESS_PATTERN_HH
#define MTP_TRACE_ADDRESS_PATTERN_HH

#include <cstdint>

#include "common/types.hh"

namespace mtp {

/** Closed-form per-lane address generator. */
struct AddressPattern
{
    /** Base byte address of the accessed array. */
    Addr base = 0;
    /** Bytes between addresses of consecutive global thread ids. */
    Stride threadStride = 4;
    /** Bytes a thread's address advances per loop iteration. */
    Stride iterStride = 0;
    /** Access size per lane in bytes (<= blockBytes). */
    unsigned elemBytes = 4;
    /**
     * Fraction of (thread, iteration) pairs whose address is replaced by
     * a deterministic pseudo-random location within scatterSpan bytes of
     * base. 0 disables scattering.
     */
    double scatterFrac = 0.0;
    /** Size of the scatter window in bytes (must be > 0 if scattering). */
    Addr scatterSpan = 0;
    /** Salt mixed into the scatter hash so distinct loads decorrelate. */
    std::uint64_t scatterSalt = 0;

    /**
     * Address accessed by global thread @p tid on iteration @p iter.
     * Deterministic: same arguments always yield the same address.
     */
    Addr laneAddr(std::uint64_t tid, std::uint64_t iter) const;

    /** @return true iff laneAddr() ever leaves the affine stream. */
    bool
    scatters() const
    {
        return scatterFrac > 0.0 && scatterSpan >= blockBytes;
    }

    /**
     * The regular (non-scattered) address, i.e. the affine part. Used by
     * software-prefetch transforms, which target the regular stream.
     */
    Addr
    regularAddr(std::uint64_t tid, std::uint64_t iter) const
    {
        return base + static_cast<Addr>(static_cast<Stride>(tid) *
                                        threadStride) +
               static_cast<Addr>(static_cast<Stride>(iter) * iterStride);
    }

    /**
     * @return a copy shifted by @p warps warps in the thread dimension
     * (used by inter-thread prefetch transforms: thread tid prefetches
     * for thread tid + 32*warps).
     */
    AddressPattern shiftedByWarps(int warps) const;

    /**
     * @return a copy shifted by @p iters loop iterations (used by stride
     * software-prefetch transforms).
     */
    AddressPattern shiftedByIters(int iters) const;
};

} // namespace mtp

#endif // MTP_TRACE_ADDRESS_PATTERN_HH
