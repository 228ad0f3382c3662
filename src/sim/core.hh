/**
 * @file
 * One SIMT core (streaming multiprocessor) of the baseline GPGPU
 * (Fig. 1, Table II): in-order warp scheduler issuing one warp
 * instruction per cycle onto 8-wide SIMD units (4-cycle occupancy per
 * 32-thread warp; IMUL 16, FDIV 32), a 5-cycle stall-on-branch front
 * end, an LSU that coalesces warp accesses and pushes one transaction
 * per cycle into the MRQ, plus the prefetch machinery this paper adds:
 * a prefetch cache, a hardware prefetcher and the throttle engine.
 */

#ifndef MTP_SIM_CORE_HH
#define MTP_SIM_CORE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/bitutils.hh"
#include "common/config.hh"
#include "common/stats.hh"
#include "core/prefetcher.hh"
#include "core/throttle.hh"
#include "mem/mem_system.hh"
#include "mem/mshr.hh"
#include "mem/prefetch_cache.hh"
#include "obs/trace.hh"
#include "sim/cycle_accounting.hh"
#include "sim/warp.hh"

namespace mtp {

/** One GPGPU core. */
class Core
{
  public:
    /** Per-core statistics. */
    struct Counters
    {
        std::uint64_t warpInstsIssued = 0;
        std::uint64_t compInsts = 0;
        std::uint64_t memInsts = 0;   //!< demand loads + stores
        std::uint64_t prefInsts = 0;  //!< software prefetch instructions
        std::uint64_t branchInsts = 0;
        std::uint64_t demandTxns = 0; //!< demand transactions attempted
        std::uint64_t prefCacheHitTxns = 0; //!< demand txns served by PC
        std::uint64_t swPrefTxnsIssued = 0;
        std::uint64_t swPrefDroppedThrottle = 0;
        std::uint64_t swPrefDroppedResident = 0;
        std::uint64_t hwPrefIssued = 0;
        std::uint64_t hwPrefDroppedThrottle = 0;
        std::uint64_t hwPrefDroppedResident = 0;
        std::uint64_t hwPrefDroppedMrqFull = 0;
        std::uint64_t issueCycles = 0; //!< cycles that issued an inst
        std::uint64_t blocksCompleted = 0;
        std::uint64_t warpsCompleted = 0;
        std::uint64_t demandCount = 0;      //!< demand completions
        std::uint64_t demandLatencySum = 0; //!< cycles, per waiter
        std::uint64_t prefCount = 0;        //!< prefetch completions
        std::uint64_t prefLatencySum = 0;   //!< cycles, per fill
    };

    /**
     * @param cfg simulator configuration
     * @param id this core's index
     * @param kernel the (transformed) kernel being executed
     * @param mem shared memory system
     */
    Core(const SimConfig &cfg, CoreId id, const KernelDesc *kernel,
         MemSystem *mem);

    /** Advance one cycle. */
    void tick(Cycle now);

    /** @return free thread-block slots (occupancy limit). */
    bool hasBlockCapacity() const { return activeBlocks_ < maxBlocks_; }

    /** Install the warps of grid block @p block into free warp slots. */
    void dispatchBlock(BlockId block);

    /** @return true iff no live warp or pending LSU work remains. */
    bool idle() const;

    /** Number of live warps. O(1): a maintained counter. */
    unsigned activeWarps() const;

    /**
     * Earliest cycle >= @p now at which this core might change state on
     * its own: issue an instruction (execution unit free and an
     * issuable warp ready), or run an observable periodic update. An
     * LSU operation that moved (or has not yet tried) in the last tick
     * pins the bound to @p now. A blocked one does not: its retry fails
     * the same way every cycle until a completion
     * (MemSystem::deliveredCores()) or a pop of its full MRQ
     * (MemSystem::mrqFreedCores()) wakes the core, and meanwhile only
     * warps whose next instruction bypasses the LSU can issue. Never
     * later than the true next state change (the event-horizon
     * contract).
     */
    Cycle nextEventAt(Cycle now) const;

    /**
     * @return true unless the LSU is blocked and its head retry, run
     * now without side effects, would no longer fail the way the last
     * tick recorded: the head transaction is still in neither the
     * prefetch cache nor the MSHR, and the same structure is still
     * full. The slow check on parked cores.
     */
    bool lsuBlockHolds() const;

    /** Peak concurrently-resident warps seen so far. */
    unsigned maxActiveWarps() const { return maxActiveWarps_; }

    /**
     * Bulk-attribute the skipped window [@p from, @p to) to cycle
     * categories. Valid only for a window the event horizon skipped:
     * the core state is frozen and nextEventAt(from) >= @p to. With a
     * blocked LSU every cycle of the window repeats the last tick's
     * failed retry: one StallMshrFull or StallIcnt cycle each, plus
     * the counters that retry bumps (the MSHR's fullStalls, or the
     * MRQ's gatedStalls for a load and fullStalls for a store, and a
     * prefetch-cache demand miss for a load). Otherwise the LSU is
     * idle and the window splits into an exec-busy span followed by an
     * operand/branch wait on the earliest-ready issuable warp (or is
     * wholly idle / memory-stalled). Under MTP_SLOW_CHECKS the
     * categories and the retry counters are cross-checked against the
     * naive per-cycle classifier and retry.
     */
    void accountSkip(Cycle from, Cycle to);

    /** Cycles attributed to @p cat so far. */
    std::uint64_t
    cycleCount(CycleCat cat) const
    {
        return cycleCat_[static_cast<unsigned>(cat)];
    }

    /** The full per-category tally. */
    const CycleBreakdown &cycleBreakdown() const { return cycleCat_; }

    /**
     * Enforce the accounting invariants after @p elapsed simulated
     * cycles: categories sum exactly to @p elapsed, and the Issued
     * count equals Counters::issueCycles.
     */
    void verifyCycleAccounting(Cycle elapsed) const;

    const Counters &counters() const { return counters_; }
    const Mshr &mshr() const { return mshr_; }
    const PrefetchCache &prefCache() const { return prefCache_; }
    const ThrottleEngine *throttle() const { return throttle_.get(); }
    const HwPrefetcher *prefetcher() const { return prefetcher_.get(); }

    /** Export core + prefetch machinery stats under "<prefix>.". */
    void exportStats(StatSet &set, const std::string &prefix) const;

    /**
     * Attach a lifecycle trace recorder (borrowed; may be null). Also
     * forwarded to the throttle engine for its period-update stream.
     */
    void setTracer(obs::TraceRecorder *tracer);

  private:
    /** Occupancy in cycles of one warp instruction. */
    Cycle occupancy(const StaticInst &inst) const;

    /** Deliver returned memory responses to scoreboards/prefetch cache. */
    void drainCompletions(Cycle now);

    /** Push pending LSU transactions into the MRQ (1/cycle). */
    void processLsu(Cycle now);

    /** Pick and issue one ready warp instruction. */
    void issue(Cycle now);

    /** Begin LSU processing of a just-issued memory instruction. */
    void startMemInst(const StaticInst &inst, std::uint32_t warpIdx,
                      Cycle now);

    /** Run the hardware prefetcher on a completed demand observation. */
    void runHwPrefetcher(Cycle now);

    /** Issue one prefetch block address (throttles + dedup + MRQ). */
    void issuePrefetch(Addr blockAddr, ReqType type, Cycle now,
                       std::uint16_t bytes = blockBytes);

    /** Retire finished warps, free block slots. */
    void retireWarps();

    /**
     * Recompute warp @p idx's cached issuable/retirable bits. Must be
     * called wherever the warp's scoreboard or cursor changes: block
     * dispatch, instruction issue, completion drain, prefetch-cache
     * hits, and retirement.
     */
    void refreshWarp(std::uint32_t idx);

    /** Periodic throttle / feedback updates. */
    void periodUpdate(Cycle now);

    /** Why the LSU made no progress in the last tick (reset every
     *  tick, so it holds across a parked window). */
    enum class LsuBlock : std::uint8_t
    {
        None,     //!< not blocked (or no pending op)
        MshrFull, //!< demand retry against a full MSHR
        MrqFull,  //!< demand retry against a full MRQ (icnt pressure)
    };

    /** A classified non-issue cycle: category + blamed warp slot. */
    struct StallClass
    {
        CycleCat cat;
        std::uint32_t blame; //!< warp slot, or noBlame
    };
    static constexpr std::uint32_t noBlame = UINT32_MAX;

    /**
     * Classify a cycle that issued nothing, from end-of-tick state.
     * Also the naive per-cycle oracle for accountSkip(): during a
     * skipped window lsuBlock_ keeps the last tick's value (a parked
     * blocked LSU fails the same way each cycle; an idle one leaves
     * it None), so the same decision tree applies with only the
     * time-dependent terms (execBusyUntil_, readyAt) varying across
     * the window.
     */
    StallClass classifyStall(Cycle now) const;

    /**
     * The block reason processLsu() would record for the head
     * transaction if it retried now, evaluated without side effects
     * (None if it would move). @p mrqFull is the MRQ's fullness as the
     * core phase of the cycle in question saw it.
     */
    LsuBlock retryBlock(bool mrqFull) const;

    /** @return true iff @p inst goes through the LSU when issued. */
    bool usesLsu(const StaticInst &inst) const
    {
        return isMemOp(inst.op) && !cfg_.perfectMemory;
    }

    /**
     * The warps issue() may pick from: a busy LSU refuses every memory
     * instruction (the structural hazard), so then only the warps that
     * bypass it.
     */
    const DynBitset &issueCandidates() const
    {
        return lsu_.valid ? aluIssuable_ : issuable_;
    }

    /** Attribute the cycle just simulated to exactly one category. */
    void accountCycle(Cycle now, bool issued);

    const SimConfig &cfg_;
    CoreId id_;
    const KernelDesc *kernel_;
    MemSystem *mem_;

    unsigned maxBlocks_;
    unsigned activeBlocks_ = 0;
    unsigned maxActiveWarps_ = 0;
    std::vector<Warp> warps_;
    std::vector<std::uint32_t> blockRemaining_; //!< per warp-slot group
    std::vector<BlockId> blockIds_;             //!< block per block slot
    std::uint32_t lastIssued_ = 0; //!< round-robin pointer

    /**
     * Incremental scheduler state. The bitsets cache per-warp
     * predicates that depend only on warp-local state (scoreboard +
     * cursor), so issue() and retireWarps() visit only plausible
     * candidates and idle()/activeWarps() are O(1). The LSU
     * structural hazard picks the bitset (issueCandidates()); the time
     * (readyAt) hazard is cheap and stays checked at visit.
     */
    unsigned activeWarpCount_ = 0;
    DynBitset issuable_;  //!< active, not done, scoreboard permits issue
    DynBitset aluIssuable_; //!< issuable, next inst bypasses the LSU
    DynBitset retirable_; //!< finished program and drained
    DynBitset freeBlockSlots_; //!< block slots with no resident warps
    bool periodObservable_ = false; //!< periodUpdate() mutates state

    Cycle execBusyUntil_ = 0;

    /** In-progress warp memory instruction at the LSU. */
    struct LsuOp
    {
        std::vector<MemTxn> txns;
        std::size_t next = 0;
        ReqType type = ReqType::DemandLoad;
        std::uint32_t warpIdx = 0;
        std::int8_t slot = -1;
        Pc pc = 0;
        Addr leadAddr = 0;
        bool valid = false;
    };
    LsuOp lsu_;

    Mshr mshr_;
    PrefetchCache prefCache_;
    std::unique_ptr<HwPrefetcher> prefetcher_;
    std::unique_ptr<ThrottleEngine> throttle_;
    std::unique_ptr<LatenessThrottle> lateThrottle_;
    std::vector<Addr> prefScratch_;

    Cycle nextPeriodAt_;
    PrefetchCache::Counters lastFeedbackPc_{};
    Mshr::Counters lastFeedbackMshr_{};

    /** Demand-load round-trip distribution (64 buckets to 4K cycles). */
    Histogram demandLatencyHist_{0.0, 4096.0, 64};

    obs::TraceRecorder *tracer_ = nullptr;
    Counters counters_;

    /** Exclusive per-category cycle tally (DESIGN.md §9). */
    CycleBreakdown cycleCat_{};
    LsuBlock lsuBlock_ = LsuBlock::None;

    /** Per warp slot: cycles that issued from this slot. */
    std::vector<std::uint64_t> warpIssueCycles_;
    /** Per warp slot: operand/branch stall cycles blamed on it. */
    std::vector<std::uint64_t> warpStallCycles_;
};

} // namespace mtp

#endif // MTP_SIM_CORE_HH
