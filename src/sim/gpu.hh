/**
 * @file
 * Top-level GPU: the block dispatcher, the cycle loop and the run
 * summary every bench/example consumes.
 */

#ifndef MTP_SIM_GPU_HH
#define MTP_SIM_GPU_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "mem/mem_system.hh"
#include "obs/flight_recorder.hh"
#include "obs/observer.hh"
#include "sim/core.hh"
#include "sim/event_queue.hh"
#include "trace/kernel.hh"

namespace mtp {

/** Summary of one kernel simulation. */
struct RunResult
{
    Cycle cycles = 0;               //!< total execution cycles
    std::uint64_t warpInsts = 0;    //!< warp instructions issued (all cores)
    double cpi = 0.0;               //!< per-core cycles per warp instruction
    double avgDemandLatency = 0.0;  //!< mean demand round trip (cycles)
    double avgPrefetchLatency = 0.0; //!< mean prefetch round trip (cycles)
    std::uint64_t dramBytes = 0;    //!< DRAM data-bus traffic
    std::uint64_t prefFills = 0;    //!< prefetched blocks filled
    std::uint64_t prefUseful = 0;   //!< prefetched blocks used
    std::uint64_t prefEarlyEvicted = 0; //!< evicted before first use
    std::uint64_t prefLate = 0;     //!< demands merged into prefetches
    std::uint64_t prefCacheHits = 0; //!< demand txns served by pref. cache
    std::uint64_t demandTxns = 0;   //!< demand transactions to memory
    double avgActiveWarps = 0.0;    //!< mean resident warps per busy core
    StatSet stats;                  //!< full hierarchical statistics

    /**
     * Scheduler introspection ("sim.sched.*": queue pushes/pops, skip
     * attempts vs. successes, cycles skipped, horizon-cache hit rate).
     * Kept out of `stats` on purpose: these counters describe how the
     * host simulated the run, differ across scheduler modes and build
     * types by design, and must not participate in the bit-identity
     * comparisons that cover `stats`.
     */
    StatSet sched;

    /** Prefetch accuracy: useful / fills (1 when no prefetching). */
    double
    accuracy() const
    {
        return prefFills ? static_cast<double>(prefUseful) / prefFills
                         : 1.0;
    }

    /** Ratio of early prefetches: early evictions / fills (0 when no
     *  prefetching — a run without fills evicted nothing early). */
    double
    earlyRatio() const
    {
        return prefFills
                   ? static_cast<double>(prefEarlyEvicted) / prefFills
                   : 0.0;
    }

    /** Fraction of prefetches that were late: merged demand / fills
     *  (0 when no prefetching — nothing issued, nothing late). */
    double
    lateRatio() const
    {
        return prefFills ? static_cast<double>(prefLate) / prefFills : 0.0;
    }

    /** Fraction of demand transactions hitting the prefetch cache. */
    double
    prefCoverage() const
    {
        std::uint64_t total = prefCacheHits + demandTxns;
        return total ? static_cast<double>(prefCacheHits) / total : 0.0;
    }
};

/** The simulated GPU. */
class Gpu
{
  public:
    /**
     * @param cfg simulator configuration (copied)
     * @param kernel finalized kernel to execute (copied)
     * @param obs optional observer (borrowed; must outlive the Gpu).
     *        Observation is read-only: results are bit-identical with
     *        or without it, so ObsConfig never enters SimConfig or the
     *        run-cache fingerprint.
     */
    Gpu(const SimConfig &cfg, const KernelDesc &kernel,
        obs::Observer *obs = nullptr);

    // Cores hold references into this object; it must stay put.
    Gpu(const Gpu &) = delete;
    Gpu &operator=(const Gpu &) = delete;

    /**
     * Run the kernel to completion and return the summary. With
     * cfg.fastForward (the default) the event-queue schedule runs:
     * components self-arm their next tick, only due components tick
     * each stepped cycle, and the clock jumps straight over stretches
     * in which no component can act. With fastForward = false the
     * naive cycle-by-cycle loop runs instead; it is the oracle, and
     * results are bit-identical between the two (DESIGN.md §7).
     */
    RunResult run();

    /** Advance one cycle (exposed for fine-grained tests). */
    void step();

    /**
     * @return true when all blocks completed and memory drained.
     * O(1): pending-block / busy-core counters plus the memory
     * system's in-transit counters.
     */
    bool done() const;

    /** Exhaustive recomputation of done() (oracle for the counters). */
    bool doneScan() const;

    Cycle now() const { return now_; }
    Core &core(CoreId id) { return *cores_[id]; }
    MemSystem &mem() { return *mem_; }
    const SimConfig &config() const { return cfg_; }

  private:
    /** Naive oracle loop: step every cycle (fastForward = false). */
    void runNaive();

    /**
     * Event-queue schedule (DESIGN.md §7): each component self-arms
     * its next tick in queue_; every stepped cycle ticks only the due
     * components (in the naive loop's phase order, for bit-identity)
     * and then jumps straight to the earliest armed cycle. Parked
     * cores' cycles are bulk-attributed via Core::accountSkip() when
     * they next tick (coreSettledTo_ cursors).
     */
    void runQueued();

    /** Hand out grid blocks to cores with free occupancy slots. */
    void dispatchBlocks();

    /** @return true iff some core could accept a pending block now. */
    bool dispatchPossible() const;

    /** @return true iff undispatched blocks exist for core @p c. */
    bool blocksPendingFor(CoreId c) const;

    /**
     * Account the (cycle & 127) == 0 active-warp samples of the fully
     * skipped window [@p from, @p to): no component acts inside it, so
     * every sample sees the current state.
     */
    void bulkWarpSamples(Cycle from, Cycle to);

    /** Register probes/tracks and wire the tracer into components. */
    void attachObserver(obs::Observer *obs);

    /** Assemble the RunResult after the loop finishes. */
    RunResult summarize() const;

    SimConfig cfg_;
    KernelDesc kernel_;
    std::unique_ptr<MemSystem> mem_;
    std::vector<std::unique_ptr<Core>> cores_;
    std::vector<BlockId> nextBlockOfCore_; //!< per-core block cursor
    std::vector<BlockId> endBlockOfCore_;  //!< per-core range end
    unsigned rrStartCore_ = 0; //!< rotating scan origin (rr dispatch)
    Cycle now_ = 0;
    std::uint64_t pendingBlocks_ = 0; //!< grid blocks not yet dispatched
    unsigned busyCores_ = 0;          //!< cores with !idle()
    std::uint64_t activeWarpSamples_ = 0;
    std::uint64_t activeWarpSum_ = 0;

    // Event-queue scheduler state (runQueued()).
    EventQueue queue_;
    /**
     * Per core: the first cycle not yet attributed to cycle-accounting
     * categories. A parked core's window [coreSettledTo_[c], t) is
     * bulk-attributed when it next ticks at t.
     */
    std::vector<Cycle> coreSettledTo_;
    /** Cycle rrStartCore_ is synchronized to (rr dispatch rotates
     *  once per cycle even while the dispatcher is parked). */
    Cycle rrSyncedAt_ = 0;
    /** Cores handed a block by the last dispatchBlocks() call. */
    std::vector<CoreId> dispatchedScratch_;

    /** Scheduler introspection counters (RunResult::sched). */
    struct SchedCounters
    {
        std::uint64_t cyclesStepped = 0;
        std::uint64_t cyclesSkipped = 0;
        std::uint64_t skipSuccesses = 0;
        std::uint64_t coreTicks = 0;
    };
    SchedCounters sched_;

    obs::Observer *obs_ = nullptr;

    /**
     * Flight-recorder gauge of the cycle the run reached
     * ("run<seq>.cycle", DESIGN.md §12), named from a global sequence
     * so concurrent runs never collide. run() holds it for either
     * loop; both set it where they beat. Diagnostic only — never read
     * by the simulation.
     */
    obs::FlightRecorder::Gauge cycleGauge_;
};

/** Convenience: construct, run, summarize. */
RunResult simulate(const SimConfig &cfg, const KernelDesc &kernel);

/**
 * Construct, observe, run, summarize. Identical results to the 2-arg
 * overload (observation is read-only); @p ocfg only adds outputs.
 */
RunResult simulate(const SimConfig &cfg, const KernelDesc &kernel,
                   const obs::ObsConfig &ocfg);

} // namespace mtp

#endif // MTP_SIM_GPU_HH
