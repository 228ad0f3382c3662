/**
 * @file
 * Top-level memory system (Fig. 1): per-core MRQs drain through the
 * interconnect into per-channel DRAM controllers; responses return
 * through the interconnect to the requesting core(s). Implements the
 * injection limit (one request from every two cores per cycle) and the
 * inter-core merge level of Fig. 2b. Intra-core merging and waiter
 * bookkeeping live in the cores' MSHR files.
 */

#ifndef MTP_MEM_MEM_SYSTEM_HH
#define MTP_MEM_MEM_SYSTEM_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "mem/dram.hh"
#include "mem/icnt.hh"
#include "mem/mrq.hh"
#include "obs/trace.hh"

namespace mtp {

/** Cores' gateway to the interconnect and DRAM. */
class MemSystem
{
  public:
    explicit MemSystem(const SimConfig &cfg);

    /**
     * Enqueue one block transaction from @p core.
     * @return false if the core's MRQ is full (caller retries).
     */
    bool issue(CoreId core, Addr blockAddr, ReqType type, Cycle now,
               std::uint16_t bytes = blockBytes);

    /**
     * Promote a queued prefetch of @p addr from @p core to demand
     * priority (a demand merged with it in the core's MSHR).
     */
    void upgradeToDemand(CoreId core, Addr addr);

    /** Advance the interconnect and all DRAM channels by one cycle. */
    void tick(Cycle now);

    /**
     * Event-queue variant of tick(): identical observable behaviour,
     * but each phase runs only when it can act — network deliveries
     * are gated on the cached earliest-arrival bounds, DRAM channels
     * on their cached per-channel horizons (invalidated by
     * DramChannel::stateVersion()), and injection on MRQ occupancy. A
     * skipped phase is provably a no-op (it would neither move a
     * request nor touch a counter), so results stay bit-identical with
     * tick(); the naive loop keeps calling tick() as the oracle.
     */
    void tickQueued(Cycle now);

    /**
     * Cores whose completion list went non-empty during the last
     * tick()/tickQueued(). The event-queue loop arms exactly these
     * cores for the next cycle (a delivered response must be drained
     * one cycle after delivery, as in the naive loop).
     */
    const std::vector<CoreId> &deliveredCores() const
    {
        return deliveredTo_;
    }

    /**
     * Cores whose full MRQ popped during the last tick()/tickQueued().
     * A core whose LSU is blocked on its full MRQ sleeps until this
     * pop; the event-queue loop arms these cores for the next cycle.
     */
    const std::vector<CoreId> &mrqFreedCores() const { return mrqFreedTo_; }

    /** Requests currently waiting in core MRQs. */
    std::uint64_t mrqOccupancy() const { return mrqOccupancy_; }

    /**
     * Responses delivered to @p core and not yet consumed. The core
     * drains this list every cycle and then calls clearCompletions();
     * routing consumption through that call keeps the pending-response
     * counter behind drained() in sync.
     */
    const std::vector<MemRequest> &completions(CoreId core) const;

    /** Discard @p core's (fully drained) completion list. */
    void clearCompletions(CoreId core);

    Mrq &mrq(CoreId core) { return *mrqs_[core]; }
    const Mrq &mrq(CoreId core) const { return *mrqs_[core]; }

    DramChannel &channel(unsigned ch) { return *channels_[ch]; }
    unsigned numChannels() const
    {
        return static_cast<unsigned>(channels_.size());
    }

    /** Which channel services @p addr (block interleaving). */
    unsigned channelOf(Addr addr) const;

    /**
     * @return true iff no request is anywhere in the memory system.
     * O(1): maintained counters; cross-checked against drainedScan()
     * in slow-check builds.
     */
    bool drained() const;

    /** Exhaustive recomputation of drained() (oracle for the counters). */
    bool drainedScan() const;

    /**
     * Self-scheduling bound for the event-queue loop: the earliest
     * cycle >= @p now at which the memory system might deliver a
     * network packet or schedule or retire a DRAM request — never later
     * than the true next state change (the event-horizon contract);
     * invalidCycle when nothing is in flight. Non-empty MRQs pin the
     * bound to @p now (they arbitrate for injection every cycle).
     * Pending completions do not: delivered completions wake their
     * core directly (deliveredCores()), so they are the core's
     * obligation, not the memory system's. Uses the per-channel
     * horizon cache.
     */
    Cycle nextSelfEventAt(Cycle now) const;

    /** Horizon-cache hits (per-channel bound served from cache). */
    std::uint64_t horizonHits() const;

    /** Horizon-cache misses (per-channel bound recomputed). */
    std::uint64_t horizonMisses() const;

    /** Total bytes moved over all DRAM data buses. */
    std::uint64_t dramBytes() const;

    /**
     * Injection attempts skipped by credit gating: cycles in which a
     * port inspected a non-empty MRQ whose head could not inject
     * because its target channel had no credits. Skip-safe: a non-empty
     * MRQ already pins nextSelfEventAt() to the current cycle, so
     * skipped cycles never hide an attempt.
     */
    std::uint64_t injCreditStalls() const { return injCreditStalls_; }

    /**
     * Attach a lifecycle trace recorder (borrowed; may be null). Also
     * forwarded to every DRAM channel.
     */
    void setTracer(obs::TraceRecorder *tracer);

    /** Export the whole memory hierarchy's stats under @p prefix. */
    void exportStats(StatSet &set, const std::string &prefix) const;

  private:
    /** Try to inject one request from one of a port's cores. */
    void injectFromPort(unsigned port, Cycle now);

    // tick() phases, shared verbatim by the gated tickQueued().
    void deliverRequests(Cycle now);
    void tickChannel(unsigned ch, Cycle now);
    void deliverResponses(Cycle now);

    /**
     * Cached nextEventAt() of channel @p ch, recomputed only when the
     * channel's state version moved. A cached future bound proves the
     * channel need not tick now; a cached due bound is still exact
     * because every action on the channel bumps the version (see the
     * exactness argument at the cache-hit test).
     */
    Cycle channelHorizonAt(unsigned ch, Cycle now) const;

    SimConfig cfg_;
    unsigned numCores_;
    std::vector<std::unique_ptr<Mrq>> mrqs_;
    std::vector<std::unique_ptr<DramChannel>> channels_;
    Icnt reqNet_;  //!< cores -> channels
    Icnt respNet_; //!< channels -> cores
    std::vector<std::size_t> inFlightToChannel_; //!< gating counters
    std::vector<unsigned> portRR_; //!< per-port round-robin pointer
    std::vector<std::vector<MemRequest>> completions_;
    std::vector<MemRequest> completedScratch_;
    std::vector<CoreId> deliveredTo_; //!< cores woken by the last tick
    std::vector<CoreId> mrqFreedTo_;  //!< cores whose full MRQ popped

    /** Per-channel horizon cache entry (see channelHorizonAt()). */
    struct ChanHorizon
    {
        std::uint64_t version = ~0ULL;
        Cycle horizon = 0;
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
    };
    mutable std::vector<ChanHorizon> chanHorizons_;

    /**
     * Requests currently in an MRQ, a network, or a channel (buffered,
     * in service, or as undelivered responses). Inter-core merges and
     * per-sharer response fan-out adjust the count so that drained()
     * is a counter comparison instead of a full scan.
     */
    std::uint64_t inTransit_ = 0;
    std::uint64_t mrqOccupancy_ = 0;       //!< still in an MRQ
    std::uint64_t completionsPending_ = 0; //!< await drain
    std::uint64_t injCreditStalls_ = 0;    //!< credit-gated inject skips

    obs::TraceRecorder *tracer_ = nullptr;
};

} // namespace mtp

#endif // MTP_MEM_MEM_SYSTEM_HH
