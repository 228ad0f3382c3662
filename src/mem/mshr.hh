/**
 * @file
 * Per-core Miss Status Holding Registers. Every block transaction a
 * core sends to memory is tracked here for its whole flight; later
 * same-block transactions from the same core merge into the entry
 * instead of duplicating the fetch. This is the intra-core merging of
 * Fig. 2a carried end-to-end: a demand joining an in-flight prefetch
 * is precisely the paper's "late prefetch" (merged, partially hiding
 * latency), and a prefetch to an in-flight block is a redundant
 * prefetch that costs nothing further.
 */

#ifndef MTP_MEM_MSHR_HH
#define MTP_MEM_MSHR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace mtp {

/** MSHR file of one core. */
class Mshr
{
  public:
    /** A warp register waiting on the block. */
    struct Waiter
    {
        std::uint32_t warpIdx;
        std::int8_t slot;
        Cycle issued; //!< for per-demand latency accounting
    };

    /** One in-flight block. */
    struct Entry
    {
        std::vector<Waiter> waiters;
        bool prefetch = false;     //!< allocated by a prefetch
        bool demandJoined = false; //!< a demand merged in (late pref.)
        Cycle created = 0;
    };

    /** Cumulative counters (throttle engine differences snapshots). */
    struct Counters
    {
        std::uint64_t totalRequests = 0; //!< demand + prefetch lookups
        std::uint64_t merges = 0;        //!< same-block joins
        std::uint64_t demandIntoPref = 0; //!< late prefetches
        std::uint64_t prefDroppedInflight = 0; //!< redundant prefetches
        std::uint64_t fullStalls = 0;
    };

    /**
     * @param demandCapacity demand-allocated entry limit
     * @param prefetchCapacity prefetch-allocated entry limit (the
     *        prefetch engine's own tracker pool)
     */
    Mshr(unsigned demandCapacity, unsigned prefetchCapacity)
        : demandCapacity_(demandCapacity),
          prefetchCapacity_(prefetchCapacity)
    {
    }

    /** @return true iff no new demand entry can be allocated. */
    bool full() const { return demandEntries_ >= demandCapacity_; }

    /** @return true iff no new prefetch entry can be allocated. */
    bool prefetchFull() const
    {
        return prefetchEntries_ >= prefetchCapacity_;
    }

    std::size_t size() const { return demandEntries_ + prefetchEntries_; }

    /** @return the entry tracking @p addr, or nullptr. */
    Entry *find(Addr addr);

    /** @return true iff @p addr is in flight (no state change). */
    bool contains(Addr addr) const { return index_[findCell(addr)].slot >= 0; }

    /**
     * Demand-load lookup/merge. If the block is in flight, the waiter
     * joins it; otherwise an entry is allocated (caller must then send
     * the request, having checked full() first).
     * @return true if merged into an existing entry.
     */
    bool demandAccess(Addr addr, const Waiter &waiter, Cycle now);

    /**
     * Prefetch lookup. If the block is in flight the prefetch is
     * redundant; otherwise an entry is allocated (caller sends the
     * request, having checked full() first).
     * @return true if redundant (caller drops the prefetch).
     */
    bool prefetchAccess(Addr addr, Cycle now);

    /**
     * Retire the entry for a returned block.
     * @return its contents, valid until the next demandAccess() or
     *         prefetchAccess(); panics if absent (every tracked
     *         response must have an entry).
     */
    const Entry &retire(Addr addr);

    /** Record @p n stalls caused by MSHR exhaustion. */
    void noteFullStall(std::uint64_t n = 1) { counters_.fullStalls += n; }

    const Counters &counters() const { return counters_; }

    /** Export counters under "<prefix>." into @p set. */
    void exportStats(StatSet &set, const std::string &prefix) const;

  private:
    /** One index cell: an in-flight block and its entry's slot. */
    struct Cell
    {
        Addr addr = 0;
        int slot = -1; //!< -1: empty cell
    };

    /** Probe start of @p addr in the index. */
    std::size_t
    homeCell(Addr addr) const
    {
        // Fibonacci hashing of the block index: the top bits of the
        // product pick one of the power-of-two cells.
        return (blockIndex(addr) * 0x9e3779b97f4a7c15ULL) >> indexShift_;
    }
    /** Cell holding @p addr, or the empty cell where it would go. */
    std::size_t findCell(Addr addr) const;
    /** A fresh entry for @p addr, created at @p now. */
    Entry &allocate(Addr addr, Cycle now);

    unsigned demandCapacity_;
    unsigned prefetchCapacity_;
    unsigned demandEntries_ = 0;
    unsigned prefetchEntries_ = 0;
    /**
     * Entries live in a pool of slots that grows to the most blocks
     * ever in flight at once; a retired slot keeps its waiter list's
     * storage for the next entry, so a steady state allocates nothing.
     * A flat open-addressed index (linear probing with backward-shift
     * deletion, at most half full) maps each in-flight block to its
     * slot.
     */
    std::vector<Entry> slots_;
    std::vector<int> freeSlots_;
    std::vector<Cell> index_ = std::vector<Cell>(16);
    unsigned indexShift_ = 64 - 4; //!< 64 - log2(index_.size())
    Counters counters_;
};

} // namespace mtp

#endif // MTP_MEM_MSHR_HH
