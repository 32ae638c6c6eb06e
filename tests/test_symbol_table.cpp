#include "simkern/symbol_table.hpp"

#include <gtest/gtest.h>

#include <set>

namespace fmeter::simkern {
namespace {

TEST(SymbolTable, DefaultPopulationMatchesPaper) {
  const SymbolTable table;
  EXPECT_EQ(table.size(), 3815u);  // Figure 1: 3815 traced functions
}

TEST(SymbolTable, CustomPopulation) {
  SymbolTableConfig config;
  config.total_functions = 1200;
  const SymbolTable table(config);
  EXPECT_EQ(table.size(), 1200u);
}

TEST(SymbolTable, TooSmallForCuratedSetThrows) {
  SymbolTableConfig config;
  config.total_functions = 10;
  EXPECT_THROW(SymbolTable{config}, std::invalid_argument);
}

TEST(SymbolTable, ZeroFunctionsThrows) {
  SymbolTableConfig config;
  config.total_functions = 0;
  EXPECT_THROW(SymbolTable{config}, std::invalid_argument);
}

TEST(SymbolTable, IdsAreDense) {
  const SymbolTable table;
  for (std::size_t i = 0; i < table.size(); ++i) {
    EXPECT_EQ(table.by_id(static_cast<FunctionId>(i)).id, i);
  }
}

TEST(SymbolTable, NamesUnique) {
  const SymbolTable table;
  std::set<std::string> names;
  for (const auto& fn : table.functions()) names.insert(fn.name);
  EXPECT_EQ(names.size(), table.size());
}

TEST(SymbolTable, AddressesUniqueAndIncreasing) {
  const SymbolTable table;
  Address previous = 0;
  for (const auto& fn : table.functions()) {
    EXPECT_GT(fn.address, previous);
    previous = fn.address;
  }
  EXPECT_GE(table.functions().front().address, kKernelTextBase);
}

TEST(SymbolTable, CuratedHotPathSymbolsPresent) {
  const SymbolTable table;
  for (const char* name :
       {"schedule", "vfs_read", "tcp_v4_rcv", "do_fork", "kmalloc",
        "ext3_get_block", "submit_bio", "netif_receive_skb", "do_page_fault",
        "lro_receive_skb", "sys_select", "journal_commit_transaction"}) {
    EXPECT_TRUE(table.contains(name)) << name;
  }
}

TEST(SymbolTable, ByNameResolvesAndThrows) {
  const SymbolTable table;
  EXPECT_EQ(table.by_name("schedule").name, "schedule");
  EXPECT_THROW(table.by_name("definitely_not_a_kernel_function"),
               std::out_of_range);
}

TEST(SymbolTable, DeterministicAcrossConstructions) {
  const SymbolTable a;
  const SymbolTable b;
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.by_id(static_cast<FunctionId>(i)).name,
              b.by_id(static_cast<FunctionId>(i)).name);
    EXPECT_EQ(a.by_id(static_cast<FunctionId>(i)).address,
              b.by_id(static_cast<FunctionId>(i)).address);
  }
}

TEST(SymbolTable, DifferentSeedsChangeGeneratedTail) {
  SymbolTableConfig config_a;
  SymbolTableConfig config_b;
  config_b.seed = config_a.seed + 1;
  const SymbolTable a(config_a);
  const SymbolTable b(config_b);
  std::size_t differing = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    differing += a.by_id(static_cast<FunctionId>(i)).name !=
                 b.by_id(static_cast<FunctionId>(i)).name;
  }
  EXPECT_GT(differing, 0u);
}

TEST(SymbolTable, EverySubsystemPopulated) {
  const SymbolTable table;
  for (std::size_t s = 0; s < kNumSubsystems; ++s) {
    const auto members = table.subsystem_members(static_cast<Subsystem>(s));
    EXPECT_GT(members.size(), 10u) << subsystem_name(static_cast<Subsystem>(s));
  }
}

TEST(SymbolTable, SubsystemMembersConsistent) {
  const SymbolTable table;
  const auto members = table.subsystem_members(Subsystem::kVfs);
  for (const auto id : members) {
    EXPECT_EQ(table.by_id(id).subsystem, Subsystem::kVfs);
  }
}

TEST(SymbolTable, BodyCostsPositive) {
  const SymbolTable table;
  for (const auto& fn : table.functions()) EXPECT_GE(fn.body_cost, 1u);
}

TEST(SubsystemName, AllNamed) {
  for (std::size_t s = 0; s < kNumSubsystems; ++s) {
    EXPECT_STRNE(subsystem_name(static_cast<Subsystem>(s)), "unknown");
  }
}

}  // namespace
}  // namespace fmeter::simkern
