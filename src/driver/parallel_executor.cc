#include "driver/parallel_executor.hh"

#include <algorithm>
#include <string>

#include "obs/flight_recorder.hh"
#include "obs/host_profiler.hh"

namespace mtp {
namespace driver {

unsigned
ParallelExecutor::defaultThreads()
{
    unsigned hw = std::thread::hardware_concurrency();
    return std::max(1u, hw);
}

ParallelExecutor::ParallelExecutor(unsigned threads)
{
    unsigned n = threads ? threads : defaultThreads();
    // Flight-recorder liveness gauge: queued-but-unstarted tasks.
    // Distinguish executors (tests build several) by a global seq.
    static std::atomic<std::uint64_t> execSeq{0};
    pendingGauge_ = obs::FlightRecorder::acquireGauge(
        "exec" + std::to_string(execSeq.fetch_add(1)) + ".pending");
    workers_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

ParallelExecutor::~ParallelExecutor()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        shutdown_ = true;
    }
    cv_.notify_all();
    for (auto &w : workers_)
        w.join();
    obs::FlightRecorder::releaseGauge(pendingGauge_);
}

void
ParallelExecutor::enqueue(std::function<void()> fn)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        tasks_.push_back(std::move(fn));
        pendingGauge_.set(tasks_.size());
    }
    cv_.notify_one();
}

void
ParallelExecutor::workerLoop(unsigned self)
{
    // Lazy naming: the profiler is usually enabled after the pool
    // spins up, so (re)try until a profiling session exists.
    bool named = false;
    for (;;) {
        if (!named && obs::HostProfiler::enabled()) {
            obs::HostProfiler::nameThread(
                ("exec" + std::to_string(self)).c_str());
            named = true;
        }
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            if (tasks_.empty() && !shutdown_) {
                // Sleep time is wait-class for the host profiler:
                // worker utilization is (active - wait) / wall.
                obs::HostScope hostWait(obs::HostPhase::ExecWait);
                cv_.wait(lock,
                         [this] { return !tasks_.empty() || shutdown_; });
            }
            // The destructor drains: exit only once nothing is queued.
            if (tasks_.empty())
                return;
            task = std::move(tasks_.front());
            tasks_.pop_front();
            pendingGauge_.set(tasks_.size());
        }
        {
            obs::HostScope hostTask(obs::HostPhase::RunTask);
            task();
        }
        // One beat per finished task: the watchdog treats a draining
        // executor as live.
        obs::FlightRecorder::beat();
    }
}

} // namespace driver
} // namespace mtp
