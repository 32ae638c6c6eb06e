#include "trace/fmeter_tracer.hpp"

#include <algorithm>
#include <stdexcept>

namespace fmeter::trace {

FmeterTracer::FmeterTracer(const simkern::SymbolTable& symbols,
                           std::uint32_t num_cpus,
                           const FmeterTracerConfig& config)
    : config_(config) {
  if (num_cpus == 0) throw std::invalid_argument("FmeterTracer: no CPUs");
  if (config.slots_per_page == 0) {
    throw std::invalid_argument("FmeterTracer: slots_per_page must be >= 1");
  }

  // Boot-time step: walk the recorded mcount sites (here: the symbol table)
  // and hand out (page, slot) pairs in discovery order.
  const std::size_t n = symbols.size();
  slot_index_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    slot_index_.push_back(SlotIndex{
        static_cast<std::uint32_t>(i / config.slots_per_page),
        static_cast<std::uint32_t>(i % config.slots_per_page),
    });
  }

  // Hot-function cache (§6 optimization): re-point the stubs of designated
  // hot functions at the compact per-CPU hot array.
  for (const simkern::FunctionId fn : config.hot_functions) {
    if (fn >= n) throw std::invalid_argument("FmeterTracer: hot fn out of range");
    if (slot_index_[fn].page == kHotPage) continue;  // deduplicate
    slot_index_[fn] = SlotIndex{kHotPage,
                                static_cast<std::uint32_t>(hot_functions_.size())};
    hot_functions_.push_back(fn);
  }

  const std::size_t pages =
      (n + config.slots_per_page - 1) / config.slots_per_page;
  per_cpu_.resize(num_cpus);
  for (auto& cpu : per_cpu_) {
    cpu.pages.reserve(pages);
    for (std::size_t p = 0; p < pages; ++p) {
      cpu.pages.push_back(std::make_unique<Page>(config.slots_per_page));
    }
    cpu.hot = std::vector<std::atomic<std::uint64_t>>(hot_functions_.size());
  }
}

void FmeterTracer::on_function_entry(simkern::CpuContext& cpu,
                                     simkern::FunctionId fn,
                                     simkern::FunctionId /*parent*/) noexcept {
  // The custom stub: disable preemption so the task cannot migrate between
  // reading the per-CPU base and the increment, follow the two embedded
  // indices, bump the slot, re-enable preemption.
  cpu.preempt_disable();
  const SlotIndex where = slot_index_[fn];
  PerCpu& local = per_cpu_[cpu.id()];
  // Single writer per slot: relaxed load+store pairs are exact and compile
  // to plain (unlocked) instructions, unlike fetch_add's lock xadd.
  if (where.page == kHotPage) {
    // Hot path: the whole hot array spans a handful of cache lines.
    auto& slot = local.hot[where.slot];
    slot.store(slot.load(std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
  } else {
    auto& slot = local.pages[where.page]->counters[where.slot];
    slot.store(slot.load(std::memory_order_relaxed) + 1,
               std::memory_order_relaxed);
  }
  cpu.preempt_enable();
}

std::size_t FmeterTracer::pages_per_cpu() const noexcept {
  return per_cpu_.empty() ? 0 : per_cpu_.front().pages.size();
}

std::uint64_t FmeterTracer::count_on_cpu(simkern::CpuId cpu,
                                         simkern::FunctionId fn) const {
  const SlotIndex where = slot_index_.at(fn);
  const PerCpu& local = per_cpu_.at(cpu);
  if (where.page == kHotPage) {
    return local.hot[where.slot].load(std::memory_order_relaxed);
  }
  return local.pages[where.page]->counters[where.slot].load(
      std::memory_order_relaxed);
}

std::uint64_t FmeterTracer::count(simkern::FunctionId fn) const {
  std::uint64_t total = 0;
  for (simkern::CpuId cpu = 0; cpu < per_cpu_.size(); ++cpu) {
    total += count_on_cpu(cpu, fn);
  }
  return total;
}

CounterSnapshot FmeterTracer::snapshot() const {
  // Function fn's boot-time slot is slot fn % slots_per_page of page
  // fn / slots_per_page, so each CPU's pages are summed front to back as
  // they lie. A hot function's page slot stays 0 (its stub counts in the
  // hot array instead), so its total is the hot counters alone.
  CounterSnapshot snap;
  snap.counts.assign(slot_index_.size(), 0);
  std::uint64_t* total = snap.counts.data();
  const std::size_t functions = slot_index_.size();
  for (const auto& cpu : per_cpu_) {
    std::size_t fn = 0;
    for (const auto& page : cpu.pages) {
      const std::size_t slots =
          std::min<std::size_t>(page->counters.size(), functions - fn);
      for (std::size_t slot = 0; slot < slots; ++slot, ++fn) {
        total[fn] += page->counters[slot].load(std::memory_order_relaxed);
      }
    }
    for (std::size_t h = 0; h < hot_functions_.size(); ++h) {
      total[hot_functions_[h]] += cpu.hot[h].load(std::memory_order_relaxed);
    }
  }
  return snap;
}

void FmeterTracer::reset() noexcept {
  for (auto& cpu : per_cpu_) {
    for (auto& page : cpu.pages) {
      for (auto& counter : page->counters) {
        counter.store(0, std::memory_order_relaxed);
      }
    }
    for (auto& counter : cpu.hot) counter.store(0, std::memory_order_relaxed);
  }
}

void FmeterTracer::register_debugfs(DebugFs& fs, const std::string& prefix) {
  fs.register_file(prefix + "/counters",
                   [this] { return snapshot().serialize(); });
  fs.register_file(
      prefix + "/reset", [] { return std::string("write 1 to reset\n"); },
      [this](std::string_view data) {
        if (!data.empty() && data.front() == '1') reset();
      });
}

}  // namespace fmeter::trace
