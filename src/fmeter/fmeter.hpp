// Umbrella header: the Fmeter public API.
//
// Pulls in everything a downstream user needs:
//   * core::MonitoredSystem     — a simulated machine with switchable tracers
//   * core::SignatureCollector  — the interval-diffing logging daemon
//   * core::collect_signatures  — labeled corpus generation from workloads
//   * core::SignatureDatabase   — similarity search, syndromes, meta-clustering
//   * index::InvertedIndex      — the IR-style single-shard index
//   * exec::ShardedIndex / exec::QueryEngine — shard-parallel, batched search
//   * vsm::TfIdfModel           — count documents -> indexable signatures
//   * ml::KMeans / agglomerate / train_svm / cross_validate_svm
//
// See examples/quickstart.cpp for the canonical five-minute tour.
#pragma once

#include "exec/query_engine.hpp"   // IWYU pragma: export
#include "exec/sharded_index.hpp"  // IWYU pragma: export
#include "exec/task_pool.hpp"      // IWYU pragma: export
#include "fmeter/anomaly.hpp"      // IWYU pragma: export
#include "fmeter/archive_format.hpp"  // IWYU pragma: export
#include "fmeter/collector.hpp"    // IWYU pragma: export
#include "fmeter/database.hpp"     // IWYU pragma: export
#include "fmeter/live_database.hpp"  // IWYU pragma: export
#include "fmeter/pipeline.hpp"     // IWYU pragma: export
#include "fmeter/retrieval.hpp"    // IWYU pragma: export
#include "fmeter/signature_gen.hpp"  // IWYU pragma: export
#include "fmeter/system.hpp"       // IWYU pragma: export
#include "index/inverted_index.hpp"  // IWYU pragma: export
#include "ml/cross_validation.hpp"  // IWYU pragma: export
#include "ml/hierarchical.hpp"     // IWYU pragma: export
#include "ml/kmeans.hpp"           // IWYU pragma: export
#include "ml/metrics.hpp"          // IWYU pragma: export
#include "ml/svm.hpp"              // IWYU pragma: export
#include "vsm/tfidf.hpp"           // IWYU pragma: export
#include "workloads/workload.hpp"  // IWYU pragma: export
