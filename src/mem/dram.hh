/**
 * @file
 * DRAM channel model (Table II): a memory-request buffer with inter-core
 * merging (Fig. 2b), FR-FCFS bank scheduling with demand-over-prefetch
 * priority, per-bank row buffers (2 KB pages), and a shared data bus
 * whose occupancy enforces the 57.6 GB/s aggregate bandwidth.
 *
 * All timing is kept in core cycles; the DRAM-clock parameters (tCL,
 * tRCD, tRP at 1.2 GHz) are converted with the configured memory/core
 * clock ratio at construction.
 */

#ifndef MTP_MEM_DRAM_HH
#define MTP_MEM_DRAM_HH

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/log.hh" // MTP_SLOW_CHECKS
#include "common/stats.hh"
#include "mem/mem_request.hh"
#include "obs/trace.hh"

namespace mtp {

/** Physical location of a block within a channel. */
struct DramCoord
{
    unsigned bank;
    std::uint64_t row;
};

/**
 * One DRAM channel: request buffer + banks + data bus.
 *
 * The request buffer is a fixed pool of memBufEntries slots. Each
 * buffered request carries its bank, row, priority class and an
 * insertion sequence number, so buffer order is sequence order and
 * nothing is erased from the middle of a container. Per bank and per
 * priority class the slots sit on an oldest-first list that also
 * caches its oldest entry on the bank's open row, so an FR-FCFS pick
 * reads at most two entries per class per ready bank: O(banks), not
 * O(buffer). Under MTP_SLOW_CHECKS every pick is cross-checked against
 * pickRequestScan(), the oldest-first walk of the whole buffer.
 */
class DramChannel
{
  public:
    /** Cumulative counters. */
    struct Counters
    {
        std::uint64_t reads = 0;
        std::uint64_t writes = 0;
        std::uint64_t rowHits = 0;      //!< open-row accesses
        std::uint64_t rowEmpty = 0;     //!< accesses to a closed bank
        std::uint64_t rowConflicts = 0; //!< row-buffer conflicts
        std::uint64_t interCoreMerges = 0;
        std::uint64_t bytesTransferred = 0;
        std::uint64_t demandServiced = 0;
        std::uint64_t prefetchServiced = 0;
    };

    DramChannel(const SimConfig &cfg, unsigned channelId);

    /** @return true iff the request buffer has no free entry. */
    bool bufferFull() const { return freeSlots_.empty(); }

    std::size_t bufferOccupancy() const
    {
        return slots_.size() - freeSlots_.size();
    }

    /**
     * Insert a request, attempting an inter-core merge with a buffered
     * request to the same block first. Caller must have checked
     * bufferFull() (merging is allowed even when full).
     * @return true if the request merged.
     */
    bool insert(MemRequest &&req);

    /**
     * Advance one core cycle: retire in-service requests whose data
     * transfer finished (appended to @p completed) and schedule at most
     * one buffered request onto a ready bank (FR-FCFS, demand first).
     */
    void tick(Cycle now, std::vector<MemRequest> &completed);

    /** @return true iff no request is buffered or in service. */
    bool drained() const
    {
        return bufferOccupancy() == 0 && inService_.empty();
    }

    /**
     * Promote a buffered prefetch of @p addr to demand priority (a
     * demand merged with it upstream; Fig. 2b inter-core merging does
     * the same for demands arriving from other cores).
     * @return true if a request was upgraded.
     */
    bool upgradeToDemand(Addr addr);

    /** Map a block address to its bank and row within this channel. */
    DramCoord mapAddr(Addr addr) const;

    /** Banks with an in-progress access at @p now (bank-level par.). */
    unsigned busyBanks(Cycle now) const;

    /** Attach a lifecycle trace recorder (borrowed; may be null). */
    void setTracer(obs::TraceRecorder *tracer) { tracer_ = tracer; }

    /**
     * Earliest cycle >= @p now at which this channel could act: retire
     * an in-service transfer (its doneAt) or schedule a buffered
     * request (its bank's busyUntil). A lower bound on the true next
     * state change — never later (the event-horizon contract). Visits
     * only the banks with buffered requests.
     */
    Cycle nextEventAt(Cycle now) const;

    /**
     * Monotonic counter bumped whenever timing-relevant channel state
     * changes: a request entering the buffer, a request scheduled onto
     * a bank, or a transfer retired. While it is unchanged, a cached
     * nextEventAt() bound that still lies in the future remains valid;
     * MemSystem's slow check of its per-channel horizon cache holds
     * every channel it did not mark stale to an unchanged version.
     * upgradeToDemand() deliberately does not bump it: promotion
     * changes which request is picked, never when the channel next
     * acts (the bound is type-independent).
     */
    std::uint64_t stateVersion() const { return stateVersion_; }

    const Counters &counters() const { return counters_; }

    /** Export counters under "<prefix>." into @p set. */
    void exportStats(StatSet &set, const std::string &prefix) const;

    /** tRCD converted to core cycles (exposed for tests). */
    Cycle tRcd() const { return tRcd_; }
    Cycle tCl() const { return tCl_; }
    Cycle tRp() const { return tRp_; }
    Cycle burstCycles() const { return burst_; }

  private:
    static constexpr std::uint64_t noRow = ~0ULL;
    /** Null slot index and list link. */
    static constexpr int noSlot = -1;
    /** Priority classes; every request is demandCls without priority. */
    static constexpr unsigned demandCls = 0;
    static constexpr unsigned prefetchCls = 1;

    /** Per-bank row-buffer state. */
    struct Bank
    {
        std::uint64_t openRow = noRow;
        Cycle busyUntil = 0;
    };

    /** A scheduled request waiting for its data transfer to finish. */
    struct InService
    {
        MemRequest req;
        Cycle doneAt;
    };

    /**
     * The precomputed scheduling keys of one request-buffer entry; the
     * request itself sits at the same index of reqs_, so list walks
     * touch only these compact records.
     */
    struct Slot
    {
        std::uint64_t seq = 0; //!< insertion order = buffer order
        std::uint64_t row = 0;
        unsigned bank = 0;
        unsigned cls = demandCls;
        int prev = noSlot; //!< neighbours on the (bank, cls) list
        int next = noSlot;
    };

    /** Oldest-first slot list of one (bank, priority class). */
    struct ClassList
    {
        int head = noSlot;
        int tail = noSlot;
        int hit = noSlot; //!< oldest entry on the bank's open row
    };

    /**
     * Buffered slots of one block. Mergeable requests always merge, so
     * a block has at most one read-class (load or prefetch) slot and
     * one store slot; a cell with neither is empty.
     */
    struct AddrCell
    {
        Addr addr = 0;
        int read = noSlot;
        int store = noSlot;

        bool empty() const { return read == noSlot && store == noSlot; }
    };

    /** Slot of the best schedulable request, or noSlot. */
    int pickRequest(Cycle now) const;
#if MTP_SLOW_CHECKS
    /** pickRequest() by an oldest-first walk of the whole buffer. */
    int pickRequestScan(Cycle now) const;
#endif

    ClassList &classList(const Slot &s) { return lists_[s.bank * 2 + s.cls]; }
    /** Link slot @p s into its (bank, cls) list at its sequence position. */
    void link(int s);
    /** Unlink slot @p s from its (bank, cls) list. */
    void unlink(int s);
    /** Re-find both classes' open-row entries of @p bank. */
    void refreshHits(unsigned bank);
    /** Move read slot @p s, now holding a demand, to the demand list. */
    void promote(int s);

    /** Probe start of @p addr in the index. */
    std::size_t homeCell(Addr addr) const;
    /** Cell holding @p addr, or the empty cell where it would go. */
    std::size_t findCell(Addr addr) const;
    /** Drop @p addr's read or store reference; free the cell if empty. */
    void unindex(Addr addr, bool store);

    unsigned channelId_;
    unsigned channels_;
    unsigned numBanks_;
    unsigned blocksPerRow_;
    bool demandPriority_;
    Cycle tCl_;
    Cycle tRcd_;
    Cycle tRp_;
    Cycle burst_;
    Cycle extraLatency_;

    /** The request buffer: memBufEntries slots, unused ones listed free. */
    std::vector<Slot> slots_;
    std::vector<MemRequest> reqs_; //!< the request of each slot
    std::vector<int> freeSlots_;
    std::uint64_t nextSeq_ = 0;
    /** Per-(bank, class) candidate lists, at bank * 2 + cls. */
    std::vector<ClassList> lists_;
    /**
     * Flat open-addressed block → slot index (linear probing with
     * backward-shift deletion), sized to a power of two at least twice
     * the pool, so insert() merges and upgradeToDemand() are O(1).
     */
    std::vector<AddrCell> index_;
    unsigned indexShift_ = 0;
    std::vector<Bank> banks_;
    /** Buffered requests per bank, for the O(banks) pick and bound. */
    std::vector<unsigned> bankPending_;
    /** Banks with a buffered request (bit b; at most 64 banks). */
    std::uint64_t pendingBanks_ = 0;
    /**
     * Scheduled requests, oldest first. The shared data bus serializes
     * transfers, so completion times are strictly increasing in
     * schedule order: the front finishes first, and retirement pops a
     * prefix.
     */
    std::deque<InService> inService_;
    Cycle busFreeAt_ = 0;
    std::uint64_t stateVersion_ = 0;
    obs::TraceRecorder *tracer_ = nullptr;
    Counters counters_;
};

} // namespace mtp

#endif // MTP_MEM_DRAM_HH
