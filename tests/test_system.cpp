#include "fmeter/system.hpp"

#include <gtest/gtest.h>

namespace fmeter::core {
namespace {

SystemConfig small_system(TracerKind tracer = TracerKind::kFmeter) {
  SystemConfig config;
  config.kernel.symbols.total_functions = 900;
  config.kernel.num_cpus = 2;
  config.tracer = tracer;
  return config;
}

TEST(MonitoredSystem, BootsWithRequestedTracer) {
  MonitoredSystem vanilla(small_system(TracerKind::kVanilla));
  EXPECT_EQ(vanilla.active_tracer(), TracerKind::kVanilla);
  EXPECT_EQ(vanilla.kernel().tracer(), nullptr);

  MonitoredSystem fmeter(small_system(TracerKind::kFmeter));
  EXPECT_EQ(fmeter.kernel().tracer(), &fmeter.fmeter());

  MonitoredSystem ftrace(small_system(TracerKind::kFtrace));
  EXPECT_EQ(ftrace.kernel().tracer(), &ftrace.ftrace());
}

TEST(MonitoredSystem, TracerSwitchRoutesEvents) {
  MonitoredSystem system(small_system(TracerKind::kVanilla));
  auto& kernel = system.kernel();
  auto& cpu = kernel.cpu(0);

  kernel.invoke(cpu, 1);
  EXPECT_EQ(system.fmeter().snapshot().total(), 0u);

  system.select_tracer(TracerKind::kFmeter);
  kernel.invoke(cpu, 1);
  EXPECT_EQ(system.fmeter().snapshot().total(), 1u);
  EXPECT_EQ(system.ftrace().entries_written(), 0u);

  system.select_tracer(TracerKind::kFtrace);
  kernel.invoke(cpu, 1);
  EXPECT_EQ(system.ftrace().entries_written(), 1u);
  EXPECT_EQ(system.fmeter().snapshot().total(), 1u);  // unchanged
}

// Ftrace's rings cost nothing until ftrace is armed: a system that only
// ever runs Fmeter holds none, and the first switch to ftrace allocates
// exactly one ring per CPU, kept (with its events) across later switches.
TEST(MonitoredSystem, FtraceRingsAllocatedOnFirstArm) {
  MonitoredSystem system(small_system(TracerKind::kFmeter));
  EXPECT_EQ(system.ftrace().ring_bytes(), 0u);
  system.select_tracer(TracerKind::kVanilla);
  EXPECT_EQ(system.ftrace().ring_bytes(), 0u);

  system.select_tracer(TracerKind::kFtrace);
  const trace::FtraceTracerConfig defaults;
  const std::size_t armed = system.kernel().num_cpus() *
                            defaults.buffer_events_per_cpu *
                            sizeof(trace::TraceEvent);
  EXPECT_EQ(system.ftrace().ring_bytes(), armed);
  for (std::uint32_t c = 0; c < system.kernel().num_cpus(); ++c) {
    EXPECT_EQ(system.ftrace().buffer(c).capacity(),
              defaults.buffer_events_per_cpu);
  }

  system.kernel().invoke(system.kernel().cpu(0), 1);
  system.select_tracer(TracerKind::kFmeter);
  system.select_tracer(TracerKind::kFtrace);
  EXPECT_EQ(system.ftrace().ring_bytes(), armed);
  EXPECT_EQ(system.ftrace().buffer(0).size(), 1u);

  MonitoredSystem booted(small_system(TracerKind::kFtrace));
  EXPECT_EQ(booted.ftrace().ring_bytes(), armed);
}

TEST(MonitoredSystem, DebugfsFilesRegistered) {
  MonitoredSystem system(small_system());
  EXPECT_TRUE(system.debugfs().exists("fmeter/counters"));
  EXPECT_TRUE(system.debugfs().exists("fmeter/reset"));
  EXPECT_TRUE(system.debugfs().exists("tracing/trace_pipe"));
  EXPECT_TRUE(system.debugfs().exists("tracing/buffer_stats"));
}

TEST(MonitoredSystem, TracerKindNames) {
  EXPECT_STREQ(tracer_kind_name(TracerKind::kVanilla), "vanilla");
  EXPECT_STREQ(tracer_kind_name(TracerKind::kFtrace), "ftrace");
  EXPECT_STREQ(tracer_kind_name(TracerKind::kFmeter), "fmeter");
}

}  // namespace
}  // namespace fmeter::core
