#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "driver/parallel_executor.hh"

namespace mtp {
namespace driver {
namespace {

TEST(ParallelExecutor, DefaultThreadsIsAtLeastOne)
{
    EXPECT_GE(ParallelExecutor::defaultThreads(), 1u);
    ParallelExecutor exec;
    EXPECT_GE(exec.threads(), 1u);
}

TEST(ParallelExecutor, RunsEveryTaskExactlyOnce)
{
    ParallelExecutor exec(4);
    std::atomic<int> counter{0};
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 100; ++i)
        futures.push_back(exec.submit([i, &counter] {
            counter.fetch_add(1);
            return i * i;
        }));
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
    EXPECT_EQ(counter.load(), 100);
    EXPECT_EQ(exec.executed(), 100u);
}

TEST(ParallelExecutor, SingleWorkerPreservesSubmissionOrder)
{
    // One worker takes the single FIFO queue in order: exactly the
    // sequential order --jobs 1 promises.
    ParallelExecutor exec(1);
    std::vector<int> order;
    std::mutex m;
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 32; ++i)
        futures.push_back(exec.submit([i, &order, &m] {
            std::lock_guard<std::mutex> lock(m);
            order.push_back(i);
        }));
    for (auto &f : futures)
        f.get();
    std::vector<int> expected(32);
    std::iota(expected.begin(), expected.end(), 0);
    EXPECT_EQ(order, expected);
}

TEST(ParallelExecutor, PropagatesExceptionsThroughFutures)
{
    ParallelExecutor exec(2);
    auto fut = exec.submit(
        []() -> int { throw std::runtime_error("boom"); });
    EXPECT_THROW(fut.get(), std::runtime_error);
    // The pool survives a throwing task.
    EXPECT_EQ(exec.submit([] { return 7; }).get(), 7);
}

TEST(ParallelExecutor, WorkerSubmissionsComplete)
{
    // Recursive fan-out: tasks submitted from worker threads join the
    // same queue and still complete.
    ParallelExecutor exec(4);
    std::atomic<int> done{0};
    std::vector<std::future<std::future<void>>> outer;
    for (int i = 0; i < 16; ++i)
        outer.push_back(exec.submit([&exec, &done] {
            return exec.submit([&done] { done.fetch_add(1); });
        }));
    for (auto &f : outer)
        f.get().get();
    EXPECT_EQ(done.load(), 16);
}

TEST(ParallelExecutor, DestructorDrainsQueuedTasks)
{
    std::atomic<int> ran{0};
    {
        ParallelExecutor exec(2);
        for (int i = 0; i < 50; ++i)
            exec.submit([&ran] { ran.fetch_add(1); });
        // Destructor joins only after every queued task executed.
    }
    EXPECT_EQ(ran.load(), 50);
}

} // namespace
} // namespace driver
} // namespace mtp
