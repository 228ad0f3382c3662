#include "driver/parallel_executor.hh"

#include <algorithm>
#include <string>

#include "obs/flight_recorder.hh"
#include "obs/host_profiler.hh"

namespace mtp {
namespace driver {

thread_local int ParallelExecutor::workerIndex_ = -1;

unsigned
ParallelExecutor::defaultThreads()
{
    unsigned hw = std::thread::hardware_concurrency();
    return std::max(1u, hw);
}

ParallelExecutor::ParallelExecutor(unsigned threads)
{
    unsigned n = threads ? threads : defaultThreads();
    queues_.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        queues_.push_back(std::make_unique<Queue>());
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
        std::lock_guard<std::mutex> lock(sleepMutex_);
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
    // A worker pushes onto its own back; external threads deal
    // round-robin so a burst of submissions lands spread out.
    unsigned target =
        workerIndex_ >= 0
            ? static_cast<unsigned>(workerIndex_)
            : static_cast<unsigned>(nextQueue_.fetch_add(1) %
                                    queues_.size());
    {
        std::lock_guard<std::mutex> lock(queues_[target]->mutex);
        queues_[target]->tasks.push_back(std::move(fn));
    }
    {
        std::lock_guard<std::mutex> lock(sleepMutex_);
        ++pending_;
        pendingGauge_.set(pending_);
    }
    cv_.notify_one();
}

bool
ParallelExecutor::popOwn(unsigned self, std::function<void()> &out)
{
    // Owner runs its deque FIFO: harnesses consume results in
    // submission order, so executing oldest-first minimizes how long
    // the next result() blocks (and makes a 1-worker pool exactly the
    // sequential order --jobs 1 promises).
    std::lock_guard<std::mutex> lock(queues_[self]->mutex);
    if (queues_[self]->tasks.empty())
        return false;
    out = std::move(queues_[self]->tasks.front());
    queues_[self]->tasks.pop_front();
    return true;
}

bool
ParallelExecutor::steal(unsigned self, std::function<void()> &out)
{
    unsigned n = static_cast<unsigned>(queues_.size());
    // Scan victims starting just past ourselves so thieves spread out.
    for (unsigned k = 1; k < n; ++k) {
        unsigned victim = (self + k) % n;
        std::lock_guard<std::mutex> lock(queues_[victim]->mutex);
        if (queues_[victim]->tasks.empty())
            continue;
        // Thieves take from the opposite end (the newest task) so
        // they contend with the owner as little as possible.
        out = std::move(queues_[victim]->tasks.back());
        queues_[victim]->tasks.pop_back();
        steals_.fetch_add(1);
        return true;
    }
    return false;
}

void
ParallelExecutor::workerLoop(unsigned self)
{
    workerIndex_ = static_cast<int>(self);
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
        if (popOwn(self, task) || steal(self, task)) {
            {
                std::lock_guard<std::mutex> lock(sleepMutex_);
                --pending_;
                pendingGauge_.set(pending_);
            }
            {
                obs::HostScope hostTask(obs::HostPhase::RunTask);
                task();
            }
            // One beat per finished task: the watchdog treats a
            // draining executor as live.
            obs::FlightRecorder::beat();
            continue;
        }
        // Park time is wait-class for the host profiler: worker
        // utilization is (active - wait) / wall.
        obs::HostScope hostWait(obs::HostPhase::ExecWait);
        std::unique_lock<std::mutex> lock(sleepMutex_);
        // The destructor drains: exit only once nothing is pending.
        if (shutdown_ && pending_ == 0)
            return;
        if (pending_ == 0)
            cv_.wait(lock,
                     [this] { return pending_ > 0 || shutdown_; });
        // pending_ > 0: loop around and race for the task.
    }
}

} // namespace driver
} // namespace mtp
