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

#include "common/bitutils.hh"
#include "common/config.hh"
#include "common/log.hh" // MTP_SLOW_CHECKS
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
     * but each phase does only the work that can act. Network
     * deliveries are gated on the earliest-arrival bounds; DRAM
     * channels on their cached horizons, recomputed only for channels
     * that acted since; injection on MRQ occupancy, and within it a
     * port's pass on whether it can differ from the last one (a pass
     * that injected nothing books the same credit stalls until a
     * channel frees a credit or one of the port's MRQs gains a head).
     * Skipped work is provably a no-op beyond the stalls booked in its
     * place, so results stay bit-identical with tick(); the naive loop
     * keeps calling tick() as the oracle. A MemSystem is driven by one
     * of the two for its whole run.
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
     * bound to @p now: each cycle books their heads' credit stalls, or
     * injects one. Pending completions do not: delivered completions
     * wake their core directly (deliveredCores()), so they are the
     * core's obligation, not the memory system's. Uses the per-channel
     * horizon cache.
     */
    Cycle nextSelfEventAt(Cycle now) const;

    /** Horizon-cache hits (per-channel bound served from cache). */
    std::uint64_t horizonHits() const { return horizonHits_; }

    /** Horizon-cache misses (per-channel bound recomputed). */
    std::uint64_t horizonMisses() const { return horizonMisses_; }

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

    /**
     * injectFromPort() of @p port run without side effects, for a pass
     * that would inject nothing: the number of credit stalls it would
     * book, with the channels of the gated heads in @p channels
     * (bit ch); -1 if some head could inject.
     */
    int gatedHeads(unsigned port, std::uint64_t &channels) const;

    // tick() phases; the gated tickQueued() runs the same steps.
    void deliverRequests(Cycle now);
    void tickChannel(unsigned ch, Cycle now);
    void deliverResponses(Cycle now);

    /** Move the arrived front request of channel @p ch's pipe into
     *  the channel's buffer. */
    void deliverRequest(unsigned ch, Cycle now);
    /** Move the arrived front response of @p core's pipe to the core. */
    void deliverResponse(CoreId core, Cycle now);

    /**
     * The earliest cached channel horizon, after recomputing the
     * nextEventAt() of every channel that acted since its bound was
     * cached (the stale set). A DRAM channel's bound is exact and
     * moves only when the channel acts — a request inserted or a tick
     * that retires or schedules — and a due channel always acts when
     * ticked, so a cached bound holds until its channel turns stale.
     */
    Cycle channelsDueAt(Cycle now) const;

    /** A port's cached injection pass no longer holds: run it again. */
    void dropPortPass(unsigned port);

    /** Channel @p ch freed a credit: void the passes it gated. */
    void creditFreed(unsigned ch);

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

    // Queued-loop state, kept by tickQueued() and nextSelfEventAt()
    // (issue() also voids held passes); tick() never reads it.

    /** Per-channel horizon cache (see channelsDueAt()). */
    mutable std::vector<Cycle> chanHorizon_;
    mutable Cycle chanMin_ = 0;
    /** Channels whose cached horizon is stale (bit ch; at most 64). */
    mutable std::uint64_t chanStale_;
    mutable std::uint64_t horizonHits_ = 0;
    mutable std::uint64_t horizonMisses_ = 0;
#if MTP_SLOW_CHECKS
    /** stateVersion() of each channel when its horizon was cached. */
    mutable std::vector<std::uint64_t> chanVersion_;
#endif

    /**
     * One port's last injection pass, kept while it holds: it injected
     * nothing, so every occupied MRQ head of the port was credit-gated.
     * It holds until a channel it was gated on frees a credit, or an
     * MRQ of the port gains a head; until then each cycle's pass would
     * book the same stalls and inject nothing.
     */
    struct PortPass
    {
        std::uint32_t stalls = 0;   //!< credit stalls the pass books
        std::uint64_t channels = 0; //!< channels it is gated on (bit ch)
    };
    std::vector<PortPass> portPass_;
    DynBitset stalePorts_;               //!< ports whose pass must run
    std::uint64_t cachedPassStalls_ = 0; //!< stalls of all held passes

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
