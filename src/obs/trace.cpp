#include "obs/trace.hpp"

#include <string>

namespace fmeter::obs {

const char* stage_name(Stage stage) noexcept {
  switch (stage) {
    case Stage::kDispatch:
      return "dispatch";
    case Stage::kShardProbe:
      return "shard_probe";
    case Stage::kRescore:
      return "rescore";
    case Stage::kMerge:
      return "merge";
    case Stage::kIngest:
      return "ingest";
    case Stage::kSnapshotSave:
      return "snapshot_save";
    case Stage::kSnapshotLoad:
      return "snapshot_load";
    case Stage::kRefreeze:
      return "refreeze";
    case Stage::kStageCount_:
      break;
  }
  return "unknown";
}

namespace {

const char* stage_help(Stage stage) noexcept {
  switch (stage) {
    case Stage::kDispatch:
      return "Time deciding inline-vs-pool execution and reserving spans";
    case Stage::kShardProbe:
      return "Time probing one shard's postings for one query";
    case Stage::kRescore:
      return "Time rescoring pruned candidates against the forward index";
    case Stage::kMerge:
      return "Time merging per-shard hit lists into the final top-k";
    case Stage::kIngest:
      return "Time of one index build (add_batch or a lazy catch-up)";
    case Stage::kSnapshotSave:
      return "Time writing and finishing one snapshot";
    case Stage::kSnapshotLoad:
      return "Time reading and validating one snapshot, file I/O included";
    case Stage::kRefreeze:
      return "Time of one live-archive fold of the tail into a new base";
    case Stage::kStageCount_:
      break;
  }
  return "";
}

}  // namespace

StageTracer::StageTracer(MetricsRegistry& registry) {
  for (int i = 0; i < kStageCount; ++i) {
    const Stage stage = static_cast<Stage>(i);
    const std::string base =
        std::string("fmeter_stage_") + stage_name(stage);
    stages_[i].latency_ns =
        &registry.histogram(base + "_ns", stage_help(stage));
    stages_[i].spans =
        &registry.counter(base + "_spans_total",
                          std::string("Completed spans of stage ") +
                              stage_name(stage));
  }
}

StageTracer& StageTracer::global() {
  // Leaked for the same reason as MetricsRegistry::global().
  static StageTracer* const tracer = new StageTracer(MetricsRegistry::global());
  return *tracer;
}

int& StageSpan::depth_ref() noexcept {
  thread_local int depth = 0;
  return depth;
}

int StageTracer::thread_depth() noexcept { return StageSpan::depth_ref(); }

}  // namespace fmeter::obs
