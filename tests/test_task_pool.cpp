// TaskPool: fixed worker count, futures carry results and exceptions,
// shutdown drains the queue, and concurrent submitters stay race-free
// (this binary is part of the TSan CI job).
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <latch>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

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

#if defined(__linux__)
/// The CPUs in the calling thread's affinity mask, ascending.
std::vector<int> thread_cpus() {
  cpu_set_t cpus;
  CPU_ZERO(&cpus);
  std::vector<int> out;
  if (pthread_getaffinity_np(pthread_self(), sizeof(cpus), &cpus) != 0) {
    return out;
  }
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &cpus)) out.push_back(cpu);
  }
  return out;
}

TEST(TaskPool, PinnedWorkersSpreadOverTheCreatorsAffinityMask) {
  // The creator's mask leaves out the lowest CPU, so "worker i -> CPU i"
  // would target CPUs outside it.
  const std::vector<int> all = thread_cpus();
  if (all.size() < 3) GTEST_SKIP() << "needs at least 3 CPUs in the mask";
  const std::vector<int> subset = {all[1], all[2]};

  std::vector<std::vector<int>> pinned;
  std::thread creator([&subset, &pinned] {
    cpu_set_t cpus;
    CPU_ZERO(&cpus);
    for (const int cpu : subset) CPU_SET(cpu, &cpus);
    ASSERT_EQ(pthread_setaffinity_np(pthread_self(), sizeof(cpus), &cpus), 0);
    TaskPool pool(TaskPool::Options{2 * subset.size(), true});
    // Each task holds its worker until every worker holds one, so the
    // tasks land on distinct workers and together see all of them.
    std::latch all_in(static_cast<std::ptrdiff_t>(pool.size()));
    std::vector<std::future<std::vector<int>>> masks;
    for (std::size_t w = 0; w < pool.size(); ++w) {
      masks.push_back(pool.submit([&all_in] {
        all_in.arrive_and_wait();
        return thread_cpus();
      }));
    }
    for (auto& mask : masks) pinned.push_back(mask.get());
  });
  creator.join();

  ASSERT_EQ(pinned.size(), 2 * subset.size());
  std::set<int> used;
  for (const auto& mask : pinned) {
    ASSERT_EQ(mask.size(), 1u) << "a worker runs unpinned";
    EXPECT_TRUE(mask[0] == subset[0] || mask[0] == subset[1]) << mask[0];
    used.insert(mask[0]);
  }
  EXPECT_EQ(used, std::set<int>(subset.begin(), subset.end()));
}
#endif

TEST(TaskPool, SharedPoolIsAProcessWideSingleton) {
  TaskPool& first = TaskPool::shared();
  TaskPool& second = TaskPool::shared();
  EXPECT_EQ(&first, &second);
  EXPECT_GE(first.size(), 1u);
  EXPECT_EQ(first.submit([] { return 3; }).get(), 3);
}

}  // namespace
}  // namespace fmeter::exec
