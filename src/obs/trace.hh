/**
 * @file
 * Request/prefetch lifecycle tracing. Simulation components call the
 * recorder at each lifecycle transition; the recorder emits one trace
 * event per transition to the attached sinks, tracks each in-flight
 * request's stage timestamps, and folds the stage-to-stage deltas into
 * latency-breakdown Histograms (MRQ wait, interconnect, DRAM queueing,
 * DRAM service, response network, total round trip).
 *
 * Near-zero cost when disabled: hot paths hold a TraceRecorder pointer
 * that stays null unless an event stream is configured, and every call
 * site goes through MTP_OBS_HOOK, a single predicted null check.
 *
 * The recorder is an observer only: it never feeds values back into
 * the simulation, so enabling it cannot change simulated results.
 */

#ifndef MTP_OBS_TRACE_HH
#define MTP_OBS_TRACE_HH

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "obs/sink.hh"

/** Invoke @p call on tracer pointer @p ptr when tracing is attached. */
#define MTP_OBS_HOOK(ptr, call) \
    do { \
        if (ptr) \
            (ptr)->call; \
    } while (0)

namespace mtp {
namespace obs {

/**
 * Memory-request lifecycle stages, in pipeline order. Type codes in
 * the stage API follow mtp::ReqType's enumerator order (0 = demand
 * load, 1 = demand store, 2 = software prefetch, 3 = hardware
 * prefetch); obs deliberately doesn't include mem headers.
 */
enum class Stage : std::uint8_t
{
    Coalesce,     //!< warp access coalesced into transactions (core)
    MrqEnqueue,   //!< accepted into the core's MRQ
    IcntInject,   //!< won injection into the request network
    DramEnqueue,  //!< arrived in the channel's request buffer
    DramSchedule, //!< picked by the FR-FCFS scheduler
    DramDone,     //!< data transfer + pipeline latency finished
    Return,       //!< response delivered to a core
};

/** Prefetch-block lifecycle events. */
enum class PrefEvent : std::uint8_t
{
    Issued,          //!< sent to the memory system
    DroppedThrottle, //!< dropped by a throttle engine
    DroppedResident, //!< dropped: already resident or in flight
    DroppedFull,     //!< dropped: MSHR or MRQ full
    LateMerge,       //!< a demand merged into the in-flight prefetch
    Fill,            //!< returned data filled the prefetch cache
    Useful,          //!< first demand hit on a prefetched block
    EarlyEvict,      //!< evicted before any use
};

const char *toString(Stage s);
const char *toString(PrefEvent ev);
const char *reqTypeName(std::uint8_t type);

/** Collects lifecycle events; fan-out to sinks + latency histograms. */
class TraceRecorder
{
  public:
    /**
     * @param lifecycle emit request/prefetch lifecycle streams
     * @param throttle emit throttle period-update events
     */
    TraceRecorder(bool lifecycle, bool throttle);

    /** Attach a sink (borrowed; must outlive the recorder). */
    void addSink(EventSink *sink);

    bool lifecycleEnabled() const { return lifecycle_; }
    bool throttleEnabled() const { return throttle_; }

    /** A warp access was coalesced into @p txns transactions. */
    void coalesce(CoreId core, Addr leadAddr, std::uint8_t type,
                  std::size_t txns, Cycle now);

    /**
     * A request of @p core for block @p addr reached lifecycle stage
     * @p s. The DRAM stages name the core of the request the channel
     * serves, which a merged request of another core has joined.
     */
    void stage(Stage s, Addr addr, std::uint8_t type, CoreId core,
               unsigned channel, Cycle now);

    /**
     * @p core's request for @p addr reached the controller and merged
     * into a queued request for the block (no event): its trip there
     * ends, a load closes at its own Return and a store here.
     */
    void merged(Addr addr, std::uint8_t type, CoreId core,
                unsigned channel, Cycle now);

    /** Prefetch lifecycle event for block @p addr on @p core. */
    void pref(PrefEvent ev, Addr addr, CoreId core, Cycle now);

    /** One throttle-engine period update on @p core. */
    void throttleUpdate(CoreId core, Cycle now, std::uint64_t update,
                        std::uint64_t dFills, std::uint64_t dEarly,
                        std::uint64_t dUseful, double mergeRatio,
                        unsigned degree);

    /** Latency breakdown histograms (cycles). */
    const Histogram &histMrqWait() const { return histMrq_; }
    const Histogram &histIcntReq() const { return histIcntReq_; }
    const Histogram &histDramQueue() const { return histDramQueue_; }
    const Histogram &histDramService() const { return histDramSvc_; }
    const Histogram &histIcntResp() const { return histIcntResp_; }
    const Histogram &histTotal() const { return histTotal_; }

    /** Requests whose full round trip was observed. */
    std::uint64_t completedRequests() const { return completed_; }

    /** Emit histogram summaries to the sinks; idempotent. */
    void finish();

  private:
    static constexpr std::size_t numStages = 7;

    /** One in-flight request's stage timestamps. */
    struct Lifecycle
    {
        CoreId core = 0;
        bool store = false;
        std::array<Cycle, numStages> at; //!< invalidCycle: not reached
    };

    void emit(const TraceEvent &ev);

    /**
     * The oldest in-flight request of @p core's class (store or read)
     * for @p addr that has not reached @p s, or nullptr. Requests of
     * one class and core move through each stage in issue order.
     */
    Lifecycle *pending(Addr addr, CoreId core, bool store, Stage s);

    /** Drop @p closing from @p addr's list, fold its stage deltas
     *  into the histograms and emit its spans. */
    void close(Addr addr, const Lifecycle *closing, std::uint8_t type,
               unsigned channel, Stage lastStage, Cycle now);

    bool lifecycle_;
    bool throttle_;
    bool finished_ = false;
    std::vector<EventSink *> sinks_;

    /** In-flight requests per block, every core's, oldest first. */
    std::unordered_map<Addr, std::vector<Lifecycle>> inflight_;

    std::uint64_t completed_ = 0;
    Histogram histMrq_{0.0, 1024.0, 64};
    Histogram histIcntReq_{0.0, 256.0, 32};
    Histogram histDramQueue_{0.0, 2048.0, 64};
    Histogram histDramSvc_{0.0, 1024.0, 64};
    Histogram histIcntResp_{0.0, 256.0, 32};
    Histogram histTotal_{0.0, 4096.0, 64};
};

} // namespace obs
} // namespace mtp

#endif // MTP_OBS_TRACE_HH
