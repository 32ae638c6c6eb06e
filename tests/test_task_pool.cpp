// TaskPool: fixed worker count, futures carry results and exceptions,
// shutdown drains the queue, and concurrent submitters stay race-free
// (this binary is part of the TSan CI job).
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "exec/task_pool.hpp"

namespace fmeter::exec {
namespace {

TEST(TaskPool, SubmitReturnsResultsThroughFutures) {
  TaskPool pool(2);
  EXPECT_EQ(pool.size(), 2u);
  auto doubled = pool.submit([] { return 21 * 2; });
  auto text = pool.submit([] { return std::string("done"); });
  EXPECT_EQ(doubled.get(), 42);
  EXPECT_EQ(text.get(), "done");
  EXPECT_EQ(pool.tasks_executed(), 2u);
}

TEST(TaskPool, ZeroRequestedThreadsClampsToOne) {
  TaskPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(TaskPool, ExceptionsLandInTheFutureNotThePool) {
  TaskPool pool(1);
  auto failing = pool.submit(
      []() -> int { throw std::runtime_error("task failed"); });
  EXPECT_THROW(failing.get(), std::runtime_error);
  // The worker survives a throwing task and keeps serving.
  EXPECT_EQ(pool.submit([] { return 1; }).get(), 1);
  EXPECT_EQ(pool.tasks_executed(), 2u);
}

TEST(TaskPool, ManyTasksAllExecuteExactlyOnce) {
  constexpr int kTasks = 500;
  std::atomic<int> counter{0};
  TaskPool pool(4);
  std::vector<std::future<void>> pending;
  pending.reserve(kTasks);
  for (int i = 0; i < kTasks; ++i) {
    pending.push_back(pool.submit(
        [&counter] { counter.fetch_add(1, std::memory_order_relaxed); }));
  }
  for (auto& future : pending) future.get();
  EXPECT_EQ(counter.load(), kTasks);
  EXPECT_EQ(pool.tasks_executed(), static_cast<std::size_t>(kTasks));
}

TEST(TaskPool, ConcurrentSubmittersAreSafe) {
  constexpr int kSubmitters = 4;
  constexpr int kTasksEach = 100;
  std::atomic<int> counter{0};
  TaskPool pool(3);
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&pool, &counter] {
      std::vector<std::future<int>> pending;
      pending.reserve(kTasksEach);
      for (int i = 0; i < kTasksEach; ++i) {
        pending.push_back(pool.submit([&counter] {
          return counter.fetch_add(1, std::memory_order_relaxed);
        }));
      }
      for (auto& future : pending) (void)future.get();
    });
  }
  for (auto& submitter : submitters) submitter.join();
  EXPECT_EQ(counter.load(), kSubmitters * kTasksEach);
}

TEST(TaskPool, DestructionDrainsAlreadySubmittedTasks) {
  constexpr int kTasks = 64;
  std::atomic<int> counter{0};
  std::vector<std::future<void>> pending;
  {
    TaskPool pool(2);
    pending.reserve(kTasks);
    for (int i = 0; i < kTasks; ++i) {
      pending.push_back(pool.submit(
          [&counter] { counter.fetch_add(1, std::memory_order_relaxed); }));
    }
  }  // join: every submitted future must resolve before the pool dies
  for (auto& future : pending) future.get();
  EXPECT_EQ(counter.load(), kTasks);
}

TEST(TaskPool, WorkerThreadsKnowTheirOwningPool) {
  TaskPool pool(2);
  TaskPool other(1);
  EXPECT_FALSE(pool.current_thread_is_worker());  // test thread is no worker
  EXPECT_TRUE(pool.submit([&pool] { return pool.current_thread_is_worker(); })
                  .get());
  // A worker of one pool is not a worker of another.
  EXPECT_FALSE(
      pool.submit([&other] { return other.current_thread_is_worker(); }).get());
}

TEST(TaskPool, SharedPoolIsAProcessWideSingleton) {
  TaskPool& first = TaskPool::shared();
  TaskPool& second = TaskPool::shared();
  EXPECT_EQ(&first, &second);
  EXPECT_GE(first.size(), 1u);
  EXPECT_EQ(first.submit([] { return 3; }).get(), 3);
}

}  // namespace
}  // namespace fmeter::exec
