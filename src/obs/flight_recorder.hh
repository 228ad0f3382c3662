/**
 * @file
 * Flight recorder + hung-run watchdog (DESIGN.md §12). The host
 * profiler answers "where did the time go" after a run finishes; the
 * flight recorder answers "what was the engine doing *right now*"
 * when a run crashes or stops making progress:
 *
 *  - Gauges: a fixed pool of named atomic cells that long-lived
 *    engine loops keep current (per-run simulated cycle, executor
 *    queue depth). Updating a held gauge is one relaxed store.
 *  - Progress beats: a global counter bumped at coarse liveness
 *    points (stepped cycles at multiples of 128, every completed
 *    executor task, every campaign progress sample). A healthy engine
 *    beats continuously; a deadlocked or livelocked one stops.
 *  - Watchdog: a deadline thread that fires once when the beat
 *    counter stays frozen for a full deadline window, dumping gauges,
 *    beats, and the profiler's last ring events to stderr and
 *    (optionally) a JSONL artifact — turning a hung campaign into a
 *    diagnosable artifact instead of a killed job.
 *  - Crash handler: on SIGSEGV/SIGBUS/SIGABRT, the same dump via
 *    async-signal-safe write(2) before re-raising.
 *
 * Everything here is observer-only: gauges and beats are sampled by
 * the dump paths, never read back by the simulation, so arming the
 * recorder cannot perturb simulated results.
 */

#ifndef MTP_OBS_FLIGHT_RECORDER_HH
#define MTP_OBS_FLIGHT_RECORDER_HH

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <string>

namespace mtp {
namespace obs {

class FlightRecorder
{
  public:
    static constexpr int kGaugeSlots = 256;

    /**
     * Handle to a pooled gauge cell. Default-constructed (or
     * pool-exhausted) handles are inert: set() is a branch and
     * nothing else. Copyable; the pool slot is freed explicitly via
     * releaseGauge(), not by destruction, because engine loops hand
     * copies around.
     */
    class Gauge
    {
      public:
        Gauge() = default;

        bool valid() const { return idx_ >= 0; }

        void set(std::uint64_t v) const;
        void add(std::uint64_t delta) const;

      private:
        friend class FlightRecorder;
        explicit Gauge(int idx) : idx_(idx) {}
        int idx_ = -1;
    };

    /**
     * Claim a pool slot under @p name. Returns an inert handle when
     * the pool is exhausted — callers never need to check.
     */
    static Gauge acquireGauge(const std::string &name);

    /** Free @p g's slot for reuse and make the handle inert. */
    static void releaseGauge(Gauge &g);

    /** Liveness beat — relaxed increment, call at coarse points. */
    static void
    beat()
    {
        beats_.fetch_add(1, std::memory_order_relaxed);
    }

    static std::uint64_t
    beats()
    {
        return beats_.load(std::memory_order_relaxed);
    }

    /**
     * Async-signal-safe plain-text dump of beats + live gauges to
     * @p fd (does not include profiler events; crash/watchdog paths
     * chain HostProfiler::dumpLastEvents themselves).
     */
    static void dump(int fd);

    /** JSONL dump of beats + live gauges (not signal-safe). */
    static void dumpJsonl(std::FILE *f, const char *reason);

    /**
     * Install SIGSEGV/SIGBUS/SIGABRT handlers that dump(2) and the
     * profiler's last events to stderr, then re-raise with default
     * disposition. Idempotent.
     */
    static void installCrashHandler();

  private:
    static std::atomic<std::uint64_t> beats_;
};

/**
 * Deadline thread: fires once if FlightRecorder::beats() stays
 * unchanged for @p deadlineSec. The dump goes to stderr; when
 * @p jsonlPath is non-empty, a structured copy (flight.* records plus
 * host.thread ring events) is appended there too.
 */
class Watchdog
{
  public:
    explicit Watchdog(double deadlineSec, std::string jsonlPath = "");
    ~Watchdog();

    Watchdog(const Watchdog &) = delete;
    Watchdog &operator=(const Watchdog &) = delete;

    bool
    fired() const
    {
        return fired_.load(std::memory_order_acquire);
    }

  private:
    struct Impl;
    Impl *impl_;
    std::atomic<bool> fired_{false};
};

} // namespace obs
} // namespace mtp

#endif // MTP_OBS_FLIGHT_RECORDER_HH
