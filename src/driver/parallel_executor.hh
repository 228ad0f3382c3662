/**
 * @file
 * Thread pool for run-level parallelism.
 *
 * The simulator is strictly single-threaded *within* one run (a `Gpu`
 * is non-copyable and owns all of its state), but independent
 * `(SimConfig, KernelDesc)` runs share nothing — the cheapest large
 * win for a trace-driven simulator is therefore to execute whole runs
 * concurrently ("Parallelizing a modern GPU simulator", Huerta et al.).
 *
 * ParallelExecutor is one FIFO queue of tasks that every worker takes
 * from under one mutex. The traffic it serves is one submitting thread
 * and tasks of tens of milliseconds (one simulation each), so the lock
 * is never the bottleneck. Harnesses consume results in submission
 * order, so running oldest-first minimizes how long the next result
 * blocks, and a 1-worker pool runs tasks in exactly the sequential
 * submission order.
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
#include <cstdint>
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
    unsigned threads() const { return static_cast<unsigned>(workers_.size()); }

    /** std::thread::hardware_concurrency with a floor of 1. */
    static unsigned defaultThreads();

    /**
     * Tasks executed so far (for tests / reporting). A task is counted
     * before its future becomes ready, so a caller that has seen every
     * result sees every task counted.
     */
    std::uint64_t executed() const { return executed_.load(); }

    /**
     * Enqueue @p fn at the back of the queue and return a future for
     * its result. Safe to call from any thread, including worker
     * threads.
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

    void enqueue(std::function<void()> fn);
    void workerLoop(unsigned self);

    // Queued-but-unstarted tasks; workers sleep on cv_ while it is
    // empty and the pool is not shutting down.
    std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<std::function<void()>> tasks_;
    bool shutdown_ = false;

    std::atomic<std::uint64_t> executed_{0};

    /** Flight-recorder liveness gauge mirroring tasks_.size(). */
    obs::FlightRecorder::Gauge pendingGauge_;

    std::vector<std::thread> workers_;
};

} // namespace driver
} // namespace mtp

#endif // MTP_DRIVER_PARALLEL_EXECUTOR_HH
