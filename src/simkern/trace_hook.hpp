// The mcount seam between the simulated kernel and the tracers.
//
// In the real system every core-kernel function compiled with -pg begins with
// a call to mcount; Ftrace rewrites those call sites at boot into nops and can
// re-arm any of them to dispatch into a tracer. Our simulator funnels every
// core-kernel function invocation through Kernel::invoke(), which forwards to
// the installed TraceHook — a faithful stand-in for an armed mcount site.
// A null hook corresponds to the vanilla kernel (call sites nopped out).
#pragma once

#include "simkern/types.hpp"

namespace fmeter::simkern {

class CpuContext;

/// Receiver of function-entry events. Implementations must be safe to call
/// concurrently from distinct CPU contexts (one thread per simulated CPU);
/// the kernel never invokes the hook twice concurrently for the *same* CPU.
class TraceHook {
 public:
  virtual ~TraceHook() = default;

  /// Called on entry to a core-kernel function, before its body runs.
  /// `parent` is the caller's function id or kNoFunction for entry points.
  virtual void on_function_entry(CpuContext& cpu, FunctionId fn,
                                 FunctionId parent) noexcept = 0;

  /// Called at install time, before the first event — a tracer's init on
  /// a write to current_tracer. A tracer allocates what recording needs
  /// here rather than at construction, as Linux keeps Ftrace's ring
  /// buffers minimal until a tracer is first set. May throw (allocation);
  /// the kernel then keeps its previous hook.
  virtual void on_arm() {}

  /// Identifies the tracer in logs and bench output ("vanilla" is spelled by
  /// the absence of a hook, so implementations return "fmeter", "ftrace", ...).
  virtual const char* name() const noexcept = 0;
};

}  // namespace fmeter::simkern
