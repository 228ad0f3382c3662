/**
 * @file
 * Per-core prefetch cache (Table II: 16 KB, 8-way). Holds prefetched
 * blocks and tracks first use, which defines the two quantities the
 * throttle engine consumes (Sec. V-A):
 *
 *  - useful prefetches: prefetched blocks hit by a demand access before
 *    eviction;
 *  - early evictions: prefetched blocks evicted before their first use.
 */

#ifndef MTP_MEM_PREFETCH_CACHE_HH
#define MTP_MEM_PREFETCH_CACHE_HH

#include <cstdint>
#include <string>

#include "common/stats.hh"
#include "mem/cache.hh"

namespace mtp {

/** Prefetch cache with usefulness/early-eviction accounting. */
class PrefetchCache
{
  public:
    /** Cumulative counters; the throttle engine differences snapshots. */
    struct Counters
    {
        std::uint64_t fills = 0;        //!< prefetched blocks inserted
        std::uint64_t demandHits = 0;   //!< demand lookups that hit
        std::uint64_t demandMisses = 0; //!< demand lookups that missed
        std::uint64_t useful = 0;       //!< first-use hits on pref. blocks
        std::uint64_t earlyEvictions = 0; //!< evicted before first use
        std::uint64_t redundantFills = 0; //!< fill of already-present block
    };

    PrefetchCache(unsigned capacityBytes, unsigned assoc);

    /**
     * Demand access lookup. On a hit the block is touched (MRU) and, if
     * this is the block's first use, it is counted useful.
     * @param firstUse set to true when the hit is the block's first use
     *        (for lifecycle tracing); untouched on a miss
     * @return true on hit.
     */
    bool demandAccess(Addr addr, bool *firstUse = nullptr);

    /** @return true iff the block is resident (no state change). */
    bool contains(Addr addr) const { return cache_.contains(addr); }

    /**
     * Count @p n demand lookups that miss, without making them: a miss
     * changes nothing else, so a parked LSU retry's repeated lookups
     * are booked in bulk (Core::accountSkip()).
     */
    void noteDemandMisses(std::uint64_t n) { counters_.demandMisses += n; }

    /**
     * Fill a returning prefetched block. An evicted not-yet-used
     * prefetched block counts as an early eviction.
     * @param earlyEvicted set to the evicted unused block's address, or
     *        invalidAddr when nothing was evicted early (for tracing)
     */
    void fill(Addr addr, Addr *earlyEvicted = nullptr);

    /** Drop all contents (kernel boundary). */
    void reset();

    const Counters &counters() const { return counters_; }

    /** Export all counters under "<prefix>." into @p set. */
    void exportStats(StatSet &set, const std::string &prefix) const;

  private:
    /** Line flag: block has satisfied at least one demand access. */
    static constexpr std::uint8_t flagUsed = 0x1;

    SetAssocCache cache_;
    Counters counters_;
};

} // namespace mtp

#endif // MTP_MEM_PREFETCH_CACHE_HH
