#include "trace/fmeter_tracer.hpp"

#include <gtest/gtest.h>

#include <map>
#include <thread>
#include <vector>

#include "simkern/kernel.hpp"

namespace fmeter::trace {
namespace {

simkern::KernelConfig small_config(std::uint32_t cpus = 4) {
  simkern::KernelConfig config;
  config.symbols.total_functions = 900;
  config.num_cpus = cpus;
  return config;
}

class FmeterTracerTest : public ::testing::Test {
 protected:
  FmeterTracerTest()
      : kernel_(small_config()),
        tracer_(kernel_.symbols(), kernel_.num_cpus()) {
    kernel_.install_tracer(&tracer_);
  }

  simkern::Kernel kernel_;
  FmeterTracer tracer_;
};

TEST_F(FmeterTracerTest, CountsExactlyOnePerInvocation) {
  auto& cpu = kernel_.cpu(0);
  const simkern::FunctionId fn = kernel_.id_of("vfs_read");
  for (int i = 0; i < 137; ++i) kernel_.invoke(cpu, fn);
  EXPECT_EQ(tracer_.count(fn), 137u);
}

TEST_F(FmeterTracerTest, CountingExactnessOverRandomMix) {
  // Counting exactness invariant: for any sequence, per-function counts
  // equal the number of dispatches.
  auto& cpu = kernel_.cpu(0);
  util::Rng rng(9);
  std::map<simkern::FunctionId, std::uint64_t> expected;
  for (int i = 0; i < 20000; ++i) {
    const auto fn = static_cast<simkern::FunctionId>(
        rng.below(kernel_.symbols().size()));
    kernel_.invoke(cpu, fn);
    ++expected[fn];
  }
  for (const auto& [fn, count] : expected) {
    EXPECT_EQ(tracer_.count(fn), count) << "fn " << fn;
  }
}

TEST_F(FmeterTracerTest, PerCpuSlotsIsolated) {
  const simkern::FunctionId fn = kernel_.id_of("schedule");
  kernel_.invoke(kernel_.cpu(0), fn);
  kernel_.invoke(kernel_.cpu(0), fn);
  kernel_.invoke(kernel_.cpu(2), fn);
  EXPECT_EQ(tracer_.count_on_cpu(0, fn), 2u);
  EXPECT_EQ(tracer_.count_on_cpu(1, fn), 0u);
  EXPECT_EQ(tracer_.count_on_cpu(2, fn), 1u);
  EXPECT_EQ(tracer_.count(fn), 3u);
}

TEST_F(FmeterTracerTest, SnapshotSumsAllCpus) {
  const simkern::FunctionId fn = kernel_.id_of("kmalloc");
  for (simkern::CpuId c = 0; c < kernel_.num_cpus(); ++c) {
    kernel_.invoke(kernel_.cpu(c), fn);
  }
  const CounterSnapshot snap = tracer_.snapshot();
  ASSERT_EQ(snap.counts.size(), kernel_.symbols().size());
  EXPECT_EQ(snap.counts[fn], kernel_.num_cpus());
}

TEST(FmeterTracer, SnapshotWalkingThePagesEqualsEveryFunctionsCount) {
  // snapshot() sums each CPU's pages in order; count() looks every
  // function's (page, slot) up. With hot functions redirected and a page
  // size that leaves the last page part-full, both must agree everywhere.
  simkern::Kernel kernel(small_config());
  FmeterTracerConfig config;
  config.slots_per_page = 7;
  config.hot_functions = {3, 10, 3, 899};
  FmeterTracer tracer(kernel.symbols(), kernel.num_cpus(), config);
  kernel.install_tracer(&tracer);
  util::Rng rng(0x5a9);
  for (int i = 0; i < 20000; ++i) {
    const auto cpu = static_cast<simkern::CpuId>(rng.below(kernel.num_cpus()));
    const auto fn = static_cast<simkern::FunctionId>(
        rng.bernoulli(0.3) ? config.hot_functions[rng.below(4)]
                           : rng.below(kernel.symbols().size()));
    kernel.invoke(kernel.cpu(cpu), fn);
  }
  const CounterSnapshot snap = tracer.snapshot();
  ASSERT_EQ(snap.counts.size(), kernel.symbols().size());
  for (simkern::FunctionId fn = 0; fn < snap.counts.size(); ++fn) {
    EXPECT_EQ(snap.counts[fn], tracer.count(fn)) << "function " << fn;
  }
  EXPECT_GT(snap.counts[899], 0u);
}

TEST_F(FmeterTracerTest, SlotMappingCoversAllFunctionsUniquely) {
  std::map<std::pair<std::uint32_t, std::uint32_t>, int> seen;
  for (std::size_t fn = 0; fn < tracer_.num_functions(); ++fn) {
    const auto where = tracer_.slot_of(static_cast<simkern::FunctionId>(fn));
    EXPECT_LT(where.page, tracer_.pages_per_cpu());
    EXPECT_LT(where.slot, 512u);
    ++seen[{where.page, where.slot}];
  }
  for (const auto& [slot, count] : seen) EXPECT_EQ(count, 1);
  EXPECT_EQ(seen.size(), tracer_.num_functions());
}

TEST_F(FmeterTracerTest, PagesSizedLikeThePrototype) {
  // 900 functions at 512 slots/page -> 2 pages per CPU.
  EXPECT_EQ(tracer_.pages_per_cpu(), 2u);
}

TEST_F(FmeterTracerTest, ResetZeroesEverything) {
  kernel_.invoke(kernel_.cpu(0), 5);
  tracer_.reset();
  EXPECT_EQ(tracer_.snapshot().total(), 0u);
}

TEST_F(FmeterTracerTest, PreemptionDisabledDuringIncrementBalances) {
  auto& cpu = kernel_.cpu(0);
  kernel_.invoke(cpu, 1);
  EXPECT_EQ(cpu.preempt_count(), 0u);
}

TEST_F(FmeterTracerTest, DebugfsExportRoundTrip) {
  DebugFs fs;
  tracer_.register_debugfs(fs);
  kernel_.invoke(kernel_.cpu(0), 7);
  kernel_.invoke(kernel_.cpu(1), 7);
  kernel_.invoke(kernel_.cpu(1), 9);
  const auto snap = CounterSnapshot::deserialize(fs.read("fmeter/counters"));
  EXPECT_EQ(snap.counts[7], 2u);
  EXPECT_EQ(snap.counts[9], 1u);
}

TEST_F(FmeterTracerTest, DebugfsResetControl) {
  DebugFs fs;
  tracer_.register_debugfs(fs);
  kernel_.invoke(kernel_.cpu(0), 3);
  fs.write("fmeter/reset", "1");
  EXPECT_EQ(tracer_.snapshot().total(), 0u);
}

TEST_F(FmeterTracerTest, NameIsFmeter) { EXPECT_STREQ(tracer_.name(), "fmeter"); }

TEST(FmeterTracerConfig, InvalidConfigsThrow) {
  simkern::Kernel kernel(small_config());
  EXPECT_THROW(FmeterTracer(kernel.symbols(), 0), std::invalid_argument);
  FmeterTracerConfig config;
  config.slots_per_page = 0;
  EXPECT_THROW(FmeterTracer(kernel.symbols(), 1, config), std::invalid_argument);
}

TEST(FmeterTracerConfig, OddSlotSizesStillBijective) {
  simkern::Kernel kernel(small_config());
  FmeterTracerConfig config;
  config.slots_per_page = 7;  // deliberately not a power of two
  FmeterTracer tracer(kernel.symbols(), 2, config);
  kernel.install_tracer(&tracer);
  kernel.invoke(kernel.cpu(0), 899);
  EXPECT_EQ(tracer.count(899), 1u);
}

// SMP exactness: one thread per CPU hammering overlapping function sets; the
// per-CPU single-writer discipline must keep totals exact without locks.
TEST(FmeterTracerSmp, ConcurrentCountingIsExact) {
  simkern::Kernel kernel(small_config(8));
  FmeterTracer tracer(kernel.symbols(), kernel.num_cpus());
  kernel.install_tracer(&tracer);

  constexpr std::uint64_t kPerCpu = 50000;
  std::vector<std::thread> threads;
  for (simkern::CpuId c = 0; c < kernel.num_cpus(); ++c) {
    threads.emplace_back([&kernel, c] {
      auto& cpu = kernel.cpu(c);
      for (std::uint64_t i = 0; i < kPerCpu; ++i) {
        // All CPUs hit the same hot set — worst case for false sharing.
        kernel.invoke(cpu, static_cast<simkern::FunctionId>(i % 13));
      }
    });
  }
  for (auto& thread : threads) thread.join();

  const CounterSnapshot snap = tracer.snapshot();
  EXPECT_EQ(snap.total(), kPerCpu * kernel.num_cpus());
  for (simkern::FunctionId fn = 0; fn < 13; ++fn) {
    std::uint64_t expected_per_cpu = kPerCpu / 13 + (fn < kPerCpu % 13 ? 1 : 0);
    EXPECT_EQ(snap.counts[fn], expected_per_cpu * kernel.num_cpus());
  }
}

}  // namespace
}  // namespace fmeter::trace
