/**
 * @file
 * Per-core Memory Request Queue (Fig. 1). Same-block deduplication is
 * handled upstream by the core's MSHR file, so the MRQ is a bounded
 * FIFO. Demand-over-prefetch priority (Table II) applies at the DRAM
 * controller, not here, so a queued prefetch delays later demands
 * (Sec. IV-B).
 */

#ifndef MTP_MEM_MRQ_HH
#define MTP_MEM_MRQ_HH

#include <cstdint>
#include <deque>
#include <string>

#include "common/stats.hh"
#include "mem/mem_request.hh"

namespace mtp {

/** Bounded FIFO memory request queue. */
class Mrq
{
  public:
    /** Cumulative counters. */
    struct Counters
    {
        std::uint64_t pushes = 0;     //!< requests enqueued
        std::uint64_t fullStalls = 0; //!< rejected pushes
        std::uint64_t gatedStalls = 0; //!< upstream cycles held on full
    };

    explicit Mrq(unsigned capacity) : capacity_(capacity) {}

    std::size_t size() const { return queue_.size(); }
    bool empty() const { return queue_.empty(); }
    bool full() const { return queue_.size() >= capacity_; }

    /**
     * Enqueue @p req. @return false (and count a stall) if full.
     */
    bool push(MemRequest &&req);

    /** Next request to inject: the oldest. Queue must not be empty. */
    const MemRequest &head() const;

    /** Remove and return head(). */
    MemRequest pop();

    /**
     * Promote a queued prefetch of @p addr to demand priority (a demand
     * just merged with it in the MSHR). No-op if not queued.
     * @return true if a request was upgraded.
     */
    bool upgradeToDemand(Addr addr);

    /**
     * Count @p n cycles in which an upstream unit (the LSU) held a
     * request back because the queue was full — the gated counterpart
     * of a rejected push, and the per-cycle injection-backpressure
     * signal cycle accounting attributes to StallIcnt.
     */
    void noteGatedStall(std::uint64_t n = 1) { counters_.gatedStalls += n; }

    /**
     * Count @p n pushes rejected on a full queue without making them:
     * the retries of a store the core left parked (Core::accountSkip()).
     */
    void noteFullStalls(std::uint64_t n) { counters_.fullStalls += n; }

    const Counters &counters() const { return counters_; }

    /** Export counters under "<prefix>." into @p set. */
    void exportStats(StatSet &set, const std::string &prefix) const;

  private:
    unsigned capacity_;
    std::deque<MemRequest> queue_;
    Counters counters_;
};

} // namespace mtp

#endif // MTP_MEM_MRQ_HH
