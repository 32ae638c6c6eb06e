// Stage-span tracer: stamps the query path (dispatch decision → per-shard
// probe → candidate rescore → cross-shard merge) plus ingest and snapshot
// save/load with wall-clock spans that land in the metrics registry as
// per-stage latency histograms and invocation counters.
//
// This is deliberately *not* a distributed tracer — no span IDs, no
// propagation, no export of individual spans. An always-on Fmeter needs the
// per-stage latency *distribution* (where did the microseconds go?), and a
// histogram record costs two relaxed fetch_adds, so every span can stay on
// in production. Span cost = two steady_clock reads + one record.
//
// Usage:
//   { obs::StageSpan span(obs::Stage::kShardProbe); probe(); }
// or explicit values (when a duration was measured anyway):
//   obs::StageTracer::global().record(obs::Stage::kMerge, elapsed_ns);
#pragma once

#include <cstdint>

#include "obs/metrics.hpp"

namespace fmeter::obs {

/// Instrumented pipeline stages. Order is stable — it indexes the tracer's
/// histogram table and names below.
enum class Stage : int {
  kDispatch = 0,      ///< inline-vs-pool decision + span reservation
  kShardProbe,        ///< one shard's top-k probe (per query, per shard)
  kRescore,           ///< candidate rescore pass after pruned probe
  kMerge,             ///< cross-shard result merge
  kIngest,            ///< index build (add_batch or a lazy catch-up)
  kSnapshotSave,      ///< snapshot write + finish
  kSnapshotLoad,      ///< snapshot read (file I/O included) + validate
  kRefreeze,          ///< live-archive background tail fold + epoch swap
  kStageCount_,       ///< sentinel — not a stage
};

inline constexpr int kStageCount = static_cast<int>(Stage::kStageCount_);

/// Stable lowercase identifier used in metric names
/// (fmeter_stage_<name>_ns / fmeter_stage_<name>_spans_total).
const char* stage_name(Stage stage) noexcept;

/// Registry-backed per-stage histograms + counters. Handles are resolved
/// once at construction; record() is lock-free.
class StageTracer {
 public:
  explicit StageTracer(MetricsRegistry& registry = MetricsRegistry::global());

  /// The tracer over MetricsRegistry::global(). Leaked like the registry.
  static StageTracer& global();

  /// Records one completed span of `stage` lasting `ns` nanoseconds.
  void record(Stage stage, std::uint64_t ns) noexcept {
    const int i = static_cast<int>(stage);
    stages_[i].latency_ns->record(ns);
    stages_[i].spans->inc();
  }

  /// Current nesting depth of StageSpan objects on this thread (0 outside
  /// any span). For tests: spans from pool workers must nest and unwind.
  static int thread_depth() noexcept;

  StageTracer(const StageTracer&) = delete;
  StageTracer& operator=(const StageTracer&) = delete;

 private:
  friend class StageSpan;

  struct Handles {
    Histogram* latency_ns = nullptr;
    Counter* spans = nullptr;
  };
  Handles stages_[kStageCount];
};

/// RAII span: stamps `stage` with the wall time between construction and
/// destruction. Re-entrant — spans nest freely across stages and threads.
class StageSpan {
 public:
  explicit StageSpan(Stage stage,
                     StageTracer& tracer = StageTracer::global()) noexcept
      : tracer_(tracer), stage_(stage) {
    ++depth_ref();
  }

  ~StageSpan() {
    tracer_.record(stage_, watch_.elapsed_ns());
    --depth_ref();
  }

  StageSpan(const StageSpan&) = delete;
  StageSpan& operator=(const StageSpan&) = delete;

 private:
  friend class StageTracer;
  static int& depth_ref() noexcept;

  StageTracer& tracer_;
  Stage stage_;
  Stopwatch watch_;
};

}  // namespace fmeter::obs
