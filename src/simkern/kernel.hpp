// The simulated monolithic kernel.
//
// Owns the symbol table, the per-CPU contexts, the loaded modules, and the
// single trace seam every core-kernel function dispatch flows through. The
// workload drivers never touch counters or tracers directly: they issue
// logical operations whose path models call Kernel::invoke() per function,
// exactly as compiled-in mcount call sites would fire on the real system.
#pragma once

#include <memory>
#include <string_view>
#include <vector>

#include "simkern/cpu.hpp"
#include "simkern/module.hpp"
#include "simkern/symbol_table.hpp"
#include "simkern/trace_hook.hpp"
#include "simkern/types.hpp"

namespace fmeter::simkern {

struct KernelConfig {
  SymbolTableConfig symbols;
  /// The paper's testbed exposes 16 logical CPUs (2 sockets x 4 cores x HT).
  std::uint32_t num_cpus = 16;
  /// Base seed; each CPU derives an independent stream.
  std::uint64_t seed = 0xfee7e12ULL;
  /// Global multiplier applied to per-function body costs. Larger values make
  /// the un-instrumented kernel relatively more expensive and thus shrink
  /// tracer overhead ratios; 3 lands the ratios near the paper's.
  std::uint32_t body_work_scale = 3;
  /// Serial work units charged per call when ANY tracer is armed, modeling
  /// the armed mcount call site itself: the call into the trampoline and its
  /// register save/restore happen before the traced function's body can
  /// retire, regardless of which tracer is attached. A nopped-out site
  /// (vanilla) pays nothing.
  std::uint32_t mcount_dispatch_units = 3;
};

class Kernel {
 public:
  explicit Kernel(const KernelConfig& config = {});

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  const KernelConfig& config() const noexcept { return config_; }
  const SymbolTable& symbols() const noexcept { return symbols_; }

  std::uint32_t num_cpus() const noexcept {
    return static_cast<std::uint32_t>(cpus_.size());
  }
  CpuContext& cpu(CpuId id) { return *cpus_.at(id); }

  /// Installs (or with nullptr removes) the tracer, arming it first
  /// (TraceHook::on_arm). Not thread-safe with respect to concurrent
  /// invoke(); callers switch tracers only while the simulated machine is
  /// quiescent, as the real system does.
  void install_tracer(TraceHook* hook) {
    if (hook != nullptr) hook->on_arm();
    tracer_ = hook;
  }
  TraceHook* tracer() const noexcept { return tracer_; }

  /// The mcount seam: dispatches the trace hook (if armed), then burns the
  /// function's simulated body cost. Hot path — kept header-inline.
  void invoke(CpuContext& cpu, FunctionId fn,
              FunctionId parent = kNoFunction) noexcept {
    if (tracer_ != nullptr) {
      cpu.consume_work(config_.mcount_dispatch_units);
      tracer_->on_function_entry(cpu, fn, parent);
    }
    cpu.count_dispatch();
    cpu.consume_work(symbols_.functions()[fn].body_cost * config_.body_work_scale);
  }

  /// Resolves a core-kernel symbol name to its id (throws for unknown names).
  FunctionId id_of(std::string_view name) const {
    return symbols_.by_name(name).id;
  }

  // --- Modules -------------------------------------------------------------

  /// Loads a module: resolves its relocations against the symbol table, lays
  /// its functions out at version-dependent offsets, and picks a randomized
  /// load address in the module area. Returns the loaded instance.
  Module& load_module(const ModuleBlueprint& blueprint);

  /// Unloads by name; no-op if absent.
  void unload_module(std::string_view name);

  /// Finds a loaded module; nullptr if absent.
  Module* find_module(std::string_view name) noexcept;

  std::size_t module_count() const noexcept { return modules_.size(); }

  /// Runs one module-local function: burns its body cost WITHOUT touching the
  /// trace hook (module text carries no mcount sites in Fmeter's build), then
  /// issues its core-kernel calls through the normal traced path.
  void invoke_module_function(CpuContext& cpu, const Module& module,
                              std::size_t fn_index) noexcept;

 private:
  KernelConfig config_;
  SymbolTable symbols_;
  std::vector<std::unique_ptr<CpuContext>> cpus_;
  std::vector<std::unique_ptr<Module>> modules_;
  TraceHook* tracer_ = nullptr;
  util::Rng module_rng_;
};

}  // namespace fmeter::simkern
