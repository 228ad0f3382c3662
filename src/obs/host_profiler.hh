/**
 * @file
 * Host-side wall-clock profiler for the simulation *engine* itself
 * (DESIGN.md §12). The PR-3 observability stack answers "what is the
 * simulated GPU doing"; this layer answers "where does the simulator's
 * own wall-clock go" — per executor worker, per engine phase
 * (dispatch, core tick, memory tick, horizon skip, executor wait,
 * cache lookup, summarize, ...).
 *
 * Design constraints, in order:
 *
 *  1. Observer-only. Nothing here feeds back into simulation state;
 *     enabling the profiler cannot perturb simulated results, and its
 *     configuration never enters the RunCache fingerprint.
 *  2. Near-zero cost when disabled. A HostScope on the disabled path
 *     is one relaxed atomic load and a branch — no clock read, no TLS
 *     write. Engine hot loops additionally hoist the enabled check
 *     into a local bool once per run (the `HostScope(phase, on)`
 *     overload), making the disabled cost a predicted branch.
 *  3. Thread-safe and TSan-clean when enabled. Each thread owns its
 *     accumulators and ring buffer; cross-thread readers (snapshot,
 *     the watchdog) touch only atomics. Ring-buffer slots are plain
 *     relaxed atomic words, so a reader racing the owner can observe
 *     a torn *event* (start from one event, duration from another) —
 *     tolerated, the ring is diagnostic — but never a data race.
 *  4. Async-signal-safe dumping. dumpLastEvents() walks a fixed slot
 *     table and writes with write(2) and hand-rolled formatting, so
 *     the flight recorder can call it from a SIGSEGV handler.
 *
 * Wall-clock accounting contract (what `mtp-report host` sums):
 * per thread, every *outermost* scope span accrues to `activeNs`, and
 * every wait-class span (ExecWait) accrues to `waitNs`
 * regardless of nesting depth. Therefore per thread over a profiling
 * window of W ns:
 *
 *     busy = activeNs - waitNs,  wait = waitNs,  idle = W - activeNs
 *
 * partition W exactly (up to scopes still open at snapshot time).
 * Per-phase tables use *self* time — a scope's span minus its nested
 * children — so phase rows also sum to activeNs exactly.
 */

#ifndef MTP_OBS_HOST_PROFILER_HH
#define MTP_OBS_HOST_PROFILER_HH

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace mtp {
namespace obs {

/** Engine phases the host profiler attributes wall-clock to. */
enum class HostPhase : std::uint8_t
{
    KernelBuild,  //!< workload/kernel construction before simulation
    CacheLookup,  //!< RunCache fingerprint hash + map probe
    CacheInsert,  //!< RunCache miss path: entry insert + task submit
    RunTask,      //!< one whole executor task (usually one simulate())
    Dispatch,     //!< block-dispatcher phase of the cycle loop
    CoreTick,     //!< core tick phase
    MemTick,      //!< memory-system tick phase
    HorizonSkip,  //!< event-horizon lookup + fast-forward
    ExecWait,     //!< executor worker idle, parked on the task condvar
    Sample,       //!< observability sampling / warp-sample bookkeeping
    Summarize,    //!< end-of-run stat summarize
};

constexpr int kNumHostPhases = static_cast<int>(HostPhase::Summarize) + 1;

/** Stable lower-case name ("core_tick") used in JSONL and traces. */
const char *toString(HostPhase p);

/** Phases that represent waiting rather than doing work. */
constexpr bool
isWaitPhase(HostPhase p)
{
    return p == HostPhase::ExecWait;
}

/**
 * Process-wide host profiler. All state is static: the engine has
 * exactly one wall-clock, and instrumentation sites (executor loops)
 * outlive any single run.
 */
class HostProfiler
{
  public:
    static constexpr std::uint32_t kDefaultRingCapacity = 4096;
    static constexpr int kMaxThreads = 256;

    /** One completed scope, read back from a thread's ring buffer. */
    struct Event
    {
        HostPhase phase;
        std::uint64_t startNs; //!< monotonic clock, see nowNs()
        std::uint64_t durNs;
    };

    /** Copied accumulators + ring tail for one registered thread. */
    struct ThreadSnapshot
    {
        std::string name;
        std::uint64_t activeNs = 0; //!< sum of outermost scope spans
        std::uint64_t waitNs = 0;   //!< sum of wait-class scope spans
        std::uint64_t phaseNs[kNumHostPhases] = {};    //!< self time
        std::uint64_t phaseCount[kNumHostPhases] = {};
        std::vector<Event> events; //!< oldest-first ring tail
    };

    struct Snapshot
    {
        std::uint64_t enabledAtNs = 0; //!< when enable() was called
        std::uint64_t takenAtNs = 0;   //!< when snapshot() was called
        std::vector<ThreadSnapshot> threads;
    };

    /** Cheap global check — this is the disabled-path cost. */
    static bool
    enabled()
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /**
     * Start a profiling session. Threads register lazily on their
     * first scope after this call; re-enabling starts a fresh
     * generation (prior per-thread state is retired, not freed, so
     * scopes racing the transition stay safe). Idempotent while
     * already enabled.
     */
    static void enable(std::uint32_t ringCapacity = kDefaultRingCapacity);

    /** Stop accruing. Accumulated state stays readable. */
    static void disable();

    /**
     * Name the calling thread in reports ("exec0", "main"). First
     * call wins; later calls on a named thread are ignored (the name
     * is published once so readers never race a rewrite).
     */
    static void nameThread(const char *name);

    /** Monotonic wall-clock in ns (CLOCK_MONOTONIC). */
    static std::uint64_t nowNs();

    /** nowNs() recorded by the most recent enable() (0 if never). */
    static std::uint64_t enabledAtNs();

    /** Copy out every current-generation thread's accumulators. */
    static Snapshot snapshot(bool includeEvents = false);

    /**
     * Async-signal-safe: write the last @p perThread ring events of
     * every registered thread to @p fd using only write(2).
     */
    static void dumpLastEvents(int fd, int perThread);

    /** Opaque per-thread state; defined in the .cc only. */
    struct ThreadState;

  private:
    friend class HostScope;

    /** Register-or-fetch the calling thread's state (null if the
     *  slot table is full — scopes then no-op). */
    static ThreadState *threadState();

    static std::atomic<bool> enabled_;
};

/**
 * RAII scoped timer. Construct at a phase boundary; destruction
 * records the span into the calling thread's accumulators and ring.
 */
class HostScope
{
  public:
    explicit HostScope(HostPhase p) : on_(HostProfiler::enabled())
    {
        if (on_)
            begin(p);
    }

    /**
     * Hot-loop variant: @p on is typically
     * `HostProfiler::enabled()` hoisted into a local once per run, so
     * the per-iteration disabled cost is a predicted branch with no
     * atomic load.
     */
    HostScope(HostPhase p, bool on) : on_(on)
    {
        if (on_)
            begin(p);
    }

    ~HostScope()
    {
        if (on_)
            end();
    }

    HostScope(const HostScope &) = delete;
    HostScope &operator=(const HostScope &) = delete;

  private:
    void begin(HostPhase p); //!< may clear on_ (slot table full)
    void end();

    bool on_;
};

/**
 * Serialize a snapshot (plus caller-supplied scalar counters such as
 * cache hit rates and runs/sec) as `host.*` JSONL records — the
 * artifact `mtp-report host` consumes. Layout:
 *
 *   {"type":"host.meta","enabledNs":...,"wallNs":...,"threads":N}
 *   {"type":"host.thread","name":...,"activeNs":...,"waitNs":...,
 *    "phases":{"core_tick":{"ns":...,"count":...},...}}   (per thread)
 *   {"type":"host.counter","name":...,"value":...}        (per counter)
 */
void writeHostProfileJsonl(
    std::FILE *f, const HostProfiler::Snapshot &snap,
    const std::vector<std::pair<std::string, double>> &counters);

namespace detail {

/** write(2) a NUL-terminated string; async-signal-safe. */
void writeFd(int fd, const char *s);

/** write(2) @p v in decimal; async-signal-safe. */
void writeFdU64(int fd, std::uint64_t v);

} // namespace detail

} // namespace obs
} // namespace mtp

#endif // MTP_OBS_HOST_PROFILER_HH
