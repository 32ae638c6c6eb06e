// The simulated kernel's symbol table.
//
// Mirrors the traced function space of the paper's testbed: ~3815 core-kernel
// functions of Linux 2.6.28 on x86-64. A curated set of real hot-path symbols
// (the ones the syscall/softirq path models call by name) is augmented with
// procedurally generated helper symbols per subsystem until the configured
// population is reached, so the space has realistic size and structure.
//
// Functions are identified by start address (paper §3: names are ambiguous
// because of duplicate statics; core-kernel symbols load at stable addresses
// across reboots). The dense FunctionId doubles as the tf-idf term id.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "simkern/types.hpp"

namespace fmeter::simkern {

/// One core-kernel function.
struct KernelFunction {
  FunctionId id = 0;
  Address address = 0;
  std::string name;
  Subsystem subsystem = Subsystem::kCore;
  /// Simulated body cost in abstract work units (see Kernel::invoke);
  /// hot leaf helpers are cheap, top-level paths slightly dearer.
  std::uint32_t body_cost = 1;
};

/// Configuration for symbol table generation.
struct SymbolTableConfig {
  /// Total number of core-kernel functions (paper: 3815).
  std::size_t total_functions = 3815;
  /// Seed for the procedural symbol generator.
  std::uint64_t seed = 0x2628ULL;
};

/// Immutable after construction; lookups are O(1) (id) or hash-based.
class SymbolTable {
 public:
  explicit SymbolTable(const SymbolTableConfig& config = {});

  std::size_t size() const noexcept { return functions_.size(); }
  std::span<const KernelFunction> functions() const noexcept { return functions_; }

  const KernelFunction& by_id(FunctionId id) const { return functions_.at(id); }

  /// Resolves a symbol name to its function; throws std::out_of_range for
  /// unknown names (symbol resolution errors are programming errors in the
  /// path models, not runtime conditions).
  const KernelFunction& by_name(std::string_view name) const;

  /// True if the curated vocabulary contains the name.
  bool contains(std::string_view name) const noexcept;

  /// All function ids belonging to one subsystem.
  std::vector<FunctionId> subsystem_members(Subsystem subsystem) const;

 private:
  void add_function(std::string name, Subsystem subsystem, std::uint32_t body_cost);

  std::vector<KernelFunction> functions_;
  std::unordered_map<std::string, FunctionId> by_name_;
};

}  // namespace fmeter::simkern
