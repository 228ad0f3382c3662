/**
 * @file
 * Work-stealing thread pool for run-level parallelism.
 *
 * The simulator is strictly single-threaded *within* one run (a `Gpu`
 * is non-copyable and owns all of its state), but independent
 * `(SimConfig, KernelDesc)` runs share nothing — the cheapest large
 * win for a trace-driven simulator is therefore to execute whole runs
 * concurrently ("Parallelizing a modern GPU simulator", Huerta et al.).
 *
 * ParallelExecutor implements a work-stealing shape tuned for flat
 * fan-out: every worker owns a deque, runs it FIFO from the front
 * (harnesses consume results in submission order, so oldest-first
 * minimizes result() blocking — and a 1-worker pool degenerates to
 * exactly the sequential submission order), and when empty steals
 * from the *back* of a victim's deque to keep owner/thief contention
 * on opposite ends. External submissions are dealt round-robin across
 * the worker deques so a cold pool starts balanced.
 *
 * Futures returned by submit() are ordinary std::futures: block on
 * them in whatever order you want to consume results. Blocking on a
 * future from *inside* a worker task is not supported (a single-thread
 * pool would deadlock); the driver's RunCache never does.
 */

#ifndef MTP_DRIVER_PARALLEL_EXECUTOR_HH
#define MTP_DRIVER_PARALLEL_EXECUTOR_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "obs/flight_recorder.hh"

namespace mtp {
namespace driver {

class ParallelExecutor
{
  public:
    /**
     * @param threads worker count; 0 picks defaultThreads().
     */
    explicit ParallelExecutor(unsigned threads = 0);

    /** Drains every queued task, then joins the workers. */
    ~ParallelExecutor();

    ParallelExecutor(const ParallelExecutor &) = delete;
    ParallelExecutor &operator=(const ParallelExecutor &) = delete;

    /** Number of worker threads. */
    unsigned threads() const { return static_cast<unsigned>(queues_.size()); }

    /** std::thread::hardware_concurrency with a floor of 1. */
    static unsigned defaultThreads();

    /**
     * Tasks executed so far (for tests / reporting). A task is counted
     * before its future becomes ready, so a caller that has seen every
     * result sees every task counted.
     */
    std::uint64_t executed() const { return executed_.load(); }

    /** Tasks stolen from another worker's deque (for tests). */
    std::uint64_t steals() const { return steals_.load(); }

    /**
     * Enqueue @p fn and return a future for its result. Safe to call
     * from any thread, including worker threads (a worker pushes onto
     * its own deque, avoiding cross-thread round-robin traffic).
     */
    template <typename F>
    auto
    submit(F &&fn) -> std::future<std::invoke_result_t<F>>
    {
        using R = std::invoke_result_t<F>;
        // packaged_task is move-only; std::function needs copyable.
        // The count runs inside the task, ahead of the future's value.
        auto task = std::make_shared<std::packaged_task<R()>>(
            [this, fn = std::forward<F>(fn)]() mutable -> R {
                CountOnExit counted{executed_};
                return fn();
            });
        std::future<R> fut = task->get_future();
        enqueue([task]() { (*task)(); });
        return fut;
    }

  private:
    /** Counts a task when its body returns or throws. */
    struct CountOnExit
    {
        std::atomic<std::uint64_t> &executed;
        ~CountOnExit() { executed.fetch_add(1); }
    };

    /** One worker's deque; owner pops the front, thieves the back. */
    struct Queue
    {
        std::mutex mutex;
        std::deque<std::function<void()>> tasks;
    };

    void enqueue(std::function<void()> fn);
    void workerLoop(unsigned self);
    bool popOwn(unsigned self, std::function<void()> &out);
    bool steal(unsigned self, std::function<void()> &out);

    std::vector<std::unique_ptr<Queue>> queues_;
    std::vector<std::thread> workers_;

    // Sleep/wake machinery: pending_ counts queued-but-unstarted tasks;
    // workers sleep on cv_ when every deque is empty.
    std::mutex sleepMutex_;
    std::condition_variable cv_;
    std::size_t pending_ = 0;
    bool shutdown_ = false;

    std::atomic<std::uint64_t> nextQueue_{0}; //!< external round-robin
    std::atomic<std::uint64_t> executed_{0};
    std::atomic<std::uint64_t> steals_{0};

    /** Flight-recorder liveness gauge mirroring pending_. */
    obs::FlightRecorder::Gauge pendingGauge_;

    // Worker threads look their own index up here.
    static thread_local int workerIndex_;
};

} // namespace driver
} // namespace mtp

#endif // MTP_DRIVER_PARALLEL_EXECUTOR_HH
