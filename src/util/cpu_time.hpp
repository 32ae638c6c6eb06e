// The one per-process CPU-time clock, shared by the hardened
// tracer-overhead tests (via tests/cpu_time.hpp) and the benches (via
// bench_common.hpp's time_op_cpu_us). Cost-*ratio* assertions measured on
// a wall clock flake whenever another process steals the core
// mid-measurement (parallel ctest, CI noise); CPU time measures the work
// itself. Consolidated here so the two copies that used to live in tests/
// and bench/ cannot drift apart again.
//
// Properties the unit test pins down: monotonic (never decreases within a
// process) and per-process (a sleeping process accrues almost none of it).
// CLOCK_PROCESS_CPUTIME_ID sums across *all threads* of the process, so it
// is only a meaningful per-op cost for single-threaded operations —
// thread-parallel benches keep wall clock, which is what they claim.
#pragma once

#include <ctime>

namespace fmeter::util {

/// Per-process CPU seconds (nanosecond-resolution POSIX clock; finer than
/// std::clock()'s CLOCKS_PER_SEC tick and immune to its ~72-minute wrap).
inline double cpu_seconds() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Same clock in microseconds (the benches' reporting unit).
inline double cpu_micros() noexcept { return cpu_seconds() * 1e6; }

/// CPU seconds of the calling thread alone (CLOCK_THREAD_CPUTIME_ID): the
/// cost of a single-threaded phase, whatever other threads of the process
/// do meanwhile.
inline double thread_cpu_seconds() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace fmeter::util
