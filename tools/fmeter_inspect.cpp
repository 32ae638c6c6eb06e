// fmeter-inspect: command-line utility for working with signature corpora.
//
//   fmeter_inspect collect <out.fmc> <workload> [workload...]
//       Boots a simulated system, runs the named workloads under the Fmeter
//       tracer (120 signatures each) and saves the labeled corpus.
//       Workloads: scp kcompile dbench apachebench netperf151 netperf143
//                  netperf151nolro bootup
//
//   fmeter_inspect stats <corpus.fmc|snapshot.fms>
//       Prints per-label document counts, corpus vocabulary statistics,
//       per-shard inverted-index statistics (docs, terms, postings, and
//       the memory footprint split into postings / offsets /
//       block-metadata / forward-store bytes) and the cosine-similarity
//       matrix between per-label tf-idf centroids. The index is bulk-loaded
//       (parallel per-shard builds).
//
//   fmeter_inspect topterms <corpus.fmc> <label> [n]
//       Prints the n (default 15) highest-weighted kernel functions of the
//       label's centroid signature — "what does this behavior do in the
//       kernel?".
//
//   fmeter_inspect search <corpus.fmc|snapshot.fms> <doc-index> [k]
//                         [--policy P]
//       Uses document <doc-index> as a query against an archive of all the
//       other documents and prints the top-k hits (the paper's operator
//       workflow: "which past incidents looked like this?"), plus the
//       index's per-shard statistics and the query's execution counters
//       (documents scored, documents pruned, posting entries visited,
//       blocks skipped, forward-store gathers).
//       P selects the execution path: "auto" (the default — picks exact
//       or pruned per shard from the measured size crossover), "scan"
//       (brute-force linear scan), "indexed" (exact inverted-index pass)
//       or "pruned" (max-score pruning — same hits, scores within 1e-9).
//
//   fmeter_inspect snapshot <corpus.fmc> <out.fms>
//       Builds the signature database from the corpus once (tf-idf +
//       parallel bulk index build) and saves it as a versioned, checksummed
//       binary snapshot. `stats` and `search` accept a snapshot wherever
//       they accept a corpus (sniffed by magic), restoring the database
//       without re-tokenizing or re-indexing — the archive workflow the
//       paper's operator runs day to day. When searching a snapshot the
//       query document stays in the archive (expect it at rank 1).
//
//   fmeter_inspect metrics <corpus.fmc|snapshot.fms> [queries]
//       Loads the archive, drives a representative workload through it
//       (bulk ingest, a batch of sample queries, classification, a
//       snapshot save/load round-trip) and dumps everything the metrics
//       registry observed — query/stage latency histograms with p50/p99,
//       ingest and snapshot timings, task-pool utilization — in Prometheus
//       text exposition format (default) or JSON (--json).
//
//   fmeter_inspect verify <snapshot.fms>
//       Deep-checksums an archive without loading it into RAM: streams
//       every section through its checksum in bounded memory and reports
//       the per-section verdicts — the integrity check an operator runs
//       against a cold archive before trusting it.
//
//   fmeter_inspect recover <dir>
//       Opens a durable archive directory (MANIFEST + snapshot + journal)
//       as a LiveDatabase, performing the same recovery the archive does
//       at startup: loads the manifest's snapshot, replays the journal —
//       truncating a torn tail — into tail segments and sweeps
//       unreferenced files. Prints what was found and done: epoch, files,
//       records replayed vs bytes dropped, leftovers removed, and the
//       recovered archive's shape.
//
//   `stats`, `search`, `metrics`, `verify` and `recover` accept --json for
//   machine-readable output.
//
//   `search` accepts --deadline-ms <n>: a cooperative per-query budget.
//   An over-budget query stops mid-shard and reports its outcome
//   (deadline_exceeded) plus whatever partial hits completed shards
//   produced, instead of running to completion.
//
//   Exit codes: 0 success, 1 runtime failure (missing/corrupt/out-of-range
//   input), 2 usage error (bad flags or arguments). Under --json, errors
//   are emitted as a structured object on stdout —
//   {"error": {"class": ..., "message": ..., "exit_code": ...}} — never as
//   bare stderr text, so scripted callers parse one format for both
//   success and failure.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>

#include "fmeter/fmeter.hpp"
#include "index/snapshot.hpp"
#include "io/env.hpp"
#include "io/journal.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "vsm/corpus_io.hpp"

using namespace fmeter;

namespace {

// Exit-code contract (also documented in the file header): every path out
// of the tool returns one of these three, and --json callers additionally
// get a structured error object on stdout instead of free-form stderr.
constexpr int kExitOk = 0;
constexpr int kExitRuntime = 1;  ///< valid invocation, failing input/IO
constexpr int kExitUsage = 2;    ///< malformed flags or arguments

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

/// The one funnel for failures: structured JSON object on stdout when the
/// caller asked for --json, classic stderr line otherwise. `error_class`
/// is a stable machine-matchable tag ("usage", "io", "corrupt", ...).
int fail(bool json, int exit_code, const char* error_class,
         const std::string& message) {
  if (json) {
    std::printf(
        "{\"error\": {\"class\": \"%s\", \"message\": \"%s\", "
        "\"exit_code\": %d}}\n",
        error_class, json_escape(message).c_str(), exit_code);
  } else {
    std::fprintf(stderr, "fmeter_inspect: %s\n", message.c_str());
  }
  return exit_code;
}

int usage(bool json = false) {
  if (json) {
    return fail(json, kExitUsage, "usage",
                "invalid arguments; run fmeter_inspect without arguments "
                "for the command list");
  }
  std::fprintf(
      stderr,
      "usage:\n"
      "  fmeter_inspect collect <out.fmc> <workload> [workload...]\n"
      "  fmeter_inspect stats <corpus.fmc|snapshot.fms> [--json]\n"
      "  fmeter_inspect topterms <corpus.fmc> <label> [n]\n"
      "  fmeter_inspect search <corpus.fmc|snapshot.fms> <doc-index> [k] "
      "[--policy auto|scan|indexed|pruned] [--deadline-ms n] [--json]\n"
      "  fmeter_inspect snapshot <corpus.fmc> <out.fms>\n"
      "  fmeter_inspect metrics <corpus.fmc|snapshot.fms> [queries] "
      "[--json]\n"
      "  fmeter_inspect verify <snapshot.fms> [--json]\n"
      "  fmeter_inspect recover <dir> [--json]\n"
      "exit codes: 0 ok, 1 runtime failure, 2 usage error\n");
  return kExitUsage;
}

/// Strips a `--json` flag out of argv (anywhere after the subcommand) and
/// reports whether it was present — every subcommand that supports JSON
/// output shares this.
bool take_json_flag(int& argc, char** argv) {
  bool json = false;
  int out = 0;
  for (int arg = 0; arg < argc; ++arg) {
    if (std::strcmp(argv[arg], "--json") == 0) {
      json = true;
      continue;
    }
    argv[out++] = argv[arg];
  }
  argc = out;
  return json;
}

/// Human-readable byte count: "512 B", "37.2 KiB", "4.6 MiB", "1.2 GiB".
std::string format_bytes(std::size_t bytes) {
  char buf[32];
  const double b = static_cast<double>(bytes);
  if (bytes < 1024) {
    std::snprintf(buf, sizeof(buf), "%zu B", bytes);
  } else if (b < 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.1f KiB", b / 1024.0);
  } else if (b < 1024.0 * 1024.0 * 1024.0) {
    std::snprintf(buf, sizeof(buf), "%.1f MiB", b / (1024.0 * 1024.0));
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f GiB", b / (1024.0 * 1024.0 * 1024.0));
  }
  return buf;
}

/// True when `path` starts with the snapshot magic (vs. the text corpus
/// format); lets stats/search take either file kind.
bool is_snapshot_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  char magic[sizeof(index::snapshot::kMagic)];
  return in.read(magic, sizeof(magic)) &&
         std::memcmp(magic, index::snapshot::kMagic, sizeof(magic)) == 0;
}

std::map<std::string, workloads::WorkloadKind> workload_names() {
  return {
      {"scp", workloads::WorkloadKind::kScp},
      {"kcompile", workloads::WorkloadKind::kKcompile},
      {"dbench", workloads::WorkloadKind::kDbench},
      {"apachebench", workloads::WorkloadKind::kApachebench},
      {"netperf151", workloads::WorkloadKind::kNetperf151},
      {"netperf143", workloads::WorkloadKind::kNetperf143},
      {"netperf151nolro", workloads::WorkloadKind::kNetperf151NoLro},
      {"bootup", workloads::WorkloadKind::kBootup},
  };
}


/// Per-shard statistics, memory split by component (see
/// index::MemoryBreakdown): postings = arena streams,
/// offsets = per-term tables + bounds + id maps, blocks = block-max
/// metadata, forward = forward store + norms.
void print_shard_table(const exec::ShardedIndex& index) {
  std::printf("%6s %8s %8s %10s | %9s %9s %9s %9s KiB\n", "shard", "docs",
              "terms", "postings", "post", "offs", "blocks", "fwd");
  const auto shard_stats = index.shard_stats();
  for (std::size_t s = 0; s < shard_stats.size(); ++s) {
    const auto& mem = shard_stats[s].memory;
    std::printf("%6zu %8zu %8zu %10zu | %9.1f %9.1f %9.1f %9.1f\n", s,
                shard_stats[s].docs, shard_stats[s].terms,
                shard_stats[s].postings,
                static_cast<double>(mem.postings) / 1024.0,
                static_cast<double>(mem.offsets) / 1024.0,
                static_cast<double>(mem.blocks) / 1024.0,
                static_cast<double>(mem.forward) / 1024.0);
  }
}

/// One coherent, registry-backed observability table: every counter and
/// gauge the process accumulated (query dispatch, pruning, task pool,
/// ingest) plus per-histogram latency quantiles. The QueryStats /
/// shard-stats structs remain available as per-call views; this is the
/// cumulative, process-wide truth they all feed.
void print_registry_table() {
  // Make sure the shared pool's collector is registered before scraping —
  // the indexed paths above will have materialized it anyway.
  exec::TaskPool::shared();
  const auto snap = obs::MetricsRegistry::global().scrape();
  std::printf("%-44s %14s\n", "counter", "value");
  for (const auto& sample : snap.counters) {
    std::printf("%-44s %14llu\n", sample.name.c_str(),
                static_cast<unsigned long long>(sample.value));
  }
  std::printf("%-44s %14s\n", "gauge", "value");
  for (const auto& sample : snap.gauges) {
    std::printf("%-44s %14.2f\n", sample.name.c_str(), sample.value);
  }
  std::printf("%-38s %10s %10s %10s %10s\n", "histogram (us)", "count",
              "mean", "p50", "p99");
  for (const auto& sample : snap.histograms) {
    const auto& hist = sample.snapshot;
    // Same rename as the exporters: recorded in ns, reported in us.
    std::string name = sample.name;
    if (name.size() > 3 && name.compare(name.size() - 3, 3, "_ns") == 0) {
      name = name.substr(0, name.size() - 3) + "_us";
    }
    std::printf("%-38s %10llu %10.2f %10.2f %10.2f\n", name.c_str(),
                static_cast<unsigned long long>(hist.count),
                hist.mean() / 1000.0, hist.quantile(0.50) / 1000.0,
                hist.quantile(0.99) / 1000.0);
  }
  const auto per_worker = exec::TaskPool::shared().worker_span_counts();
  std::printf("worker spans:");
  for (const auto spans : per_worker) {
    std::printf(" %llu", static_cast<unsigned long long>(spans));
  }
  std::printf("\n");
}

int cmd_collect(int argc, char** argv) {
  if (argc < 4) return usage();
  const std::string out_path = argv[2];
  const auto names = workload_names();

  core::MonitoredSystem system;
  core::SignatureGenConfig gen;
  gen.signatures_per_workload = 120;
  gen.units_per_interval = 8;
  gen.interval_jitter = 0.4;

  vsm::Corpus corpus;
  for (int arg = 3; arg < argc; ++arg) {
    const auto it = names.find(argv[arg]);
    if (it == names.end()) {
      return fail(false, kExitUsage, "usage",
                  std::string("unknown workload: ") + argv[arg]);
    }
    std::printf("collecting %zu signatures of %s...\n",
                gen.signatures_per_workload, argv[arg]);
    corpus.append(core::collect_signatures(system, it->second, gen));
  }
  vsm::save_corpus(out_path, corpus);
  std::printf("wrote %zu signatures to %s\n", corpus.size(), out_path.c_str());
  return 0;
}

/// Shared tail of `stats`: index shape, shard table, per-label support and
/// the centroid similarity matrix — everything derivable from the database
/// alone, so it works for corpus-built and snapshot-loaded archives alike.
void print_database_stats(const core::SignatureDatabase& db) {
  const auto syndromes = db.syndromes();

  const auto index = db.index();
  std::printf("index: %zu shards, %zu distinct terms, %zu postings, %s\n",
              index->num_shards(), index->num_terms(), index->num_postings(),
              format_bytes(index->memory_bytes()).c_str());
  print_shard_table(*index);
  db.publish_gauges();
  print_registry_table();
  std::printf("\n");

  std::printf("%-28s %8s\n", "label", "docs");
  for (const auto& syndrome : syndromes) {
    std::printf("%-28s %8zu\n", syndrome.label.c_str(), syndrome.support);
  }

  std::printf("\ncentroid cosine similarity matrix:\n%-28s", "");
  for (std::size_t j = 0; j < syndromes.size(); ++j) {
    std::printf(" %7zu", j);
  }
  std::printf("\n");
  for (std::size_t i = 0; i < syndromes.size(); ++i) {
    std::printf("%2zu %-25s", i, syndromes[i].label.c_str());
    for (std::size_t j = 0; j < syndromes.size(); ++j) {
      std::printf(" %7.4f", vsm::cosine_similarity(syndromes[i].centroid,
                                                   syndromes[j].centroid));
    }
    std::printf("\n");
  }
}

/// Machine-readable `stats`: index shape, per-shard table, per-label
/// support, and the full registry dump nested under "metrics".
void print_stats_json(const core::SignatureDatabase& db, const char* source) {
  const auto index = db.index();
  std::printf("{\n  \"source\": \"%s\",\n  \"documents\": %zu,\n", source,
              db.size());
  std::printf(
      "  \"index\": {\"shards\": %zu, \"terms\": %zu, \"postings\": %zu, "
      "\"memory_bytes\": %zu},\n",
      index->num_shards(), index->num_terms(), index->num_postings(),
      index->memory_bytes());
  std::printf("  \"shards\": [");
  const auto shard_stats = index->shard_stats();
  for (std::size_t s = 0; s < shard_stats.size(); ++s) {
    std::printf(
        "%s\n    {\"docs\": %zu, \"terms\": %zu, "
        "\"postings\": %zu, \"memory_bytes\": %zu}",
        s == 0 ? "" : ",", shard_stats[s].docs, shard_stats[s].terms, shard_stats[s].postings,
        shard_stats[s].memory_bytes);
  }
  std::printf("\n  ],\n  \"labels\": [");
  const auto syndromes = db.syndromes();
  for (std::size_t i = 0; i < syndromes.size(); ++i) {
    std::printf("%s\n    {\"label\": \"%s\", \"docs\": %zu}",
                i == 0 ? "" : ",", json_escape(syndromes[i].label).c_str(),
                syndromes[i].support);
  }
  db.publish_gauges();
  const std::string metrics =
      obs::to_json(obs::MetricsRegistry::global().scrape());
  std::printf("\n  ],\n  \"metrics\": %s}\n", metrics.c_str());
}

int cmd_stats(int argc, char** argv) {
  const bool json = take_json_flag(argc, argv);
  if (argc != 3) return usage(json);
  if (is_snapshot_file(argv[2])) {
    core::SignatureDatabase db;
    db.load(argv[2]);
    if (json) {
      print_stats_json(db, "snapshot");
      return 0;
    }
    std::printf("snapshot: %zu signatures restored from %s "
                "(no re-indexing)\n\n",
                db.size(), argv[2]);
    print_database_stats(db);
    return 0;
  }
  const vsm::Corpus corpus = vsm::load_corpus(argv[2]);

  vsm::TfIdfModel model;
  auto signatures = core::signatures_from(corpus, {}, &model);
  if (!json) {
    std::printf(
        "documents: %zu   vocabulary: %zu terms   dimension bound: %zu\n\n",
        corpus.size(), model.vocabulary_size(), corpus.dimension_bound());
  }

  core::SignatureDatabase db;
  {
    std::vector<std::string> labels;
    labels.reserve(corpus.size());
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      labels.push_back(corpus[i].label);
    }
    // Parallel build; signatures are not needed afterwards, so
    // hand the whole corpus over instead of deep-copying it.
    db.add_batch(std::move(signatures), std::move(labels));
  }
  if (json) {
    print_stats_json(db, "corpus");
    return 0;
  }

  // Raw-count detail only the corpus knows (a snapshot stores tf-idf
  // signatures, not interval call counts).
  std::printf("%-28s %14s\n", "label", "mean calls/doc");
  for (const auto& label : corpus.labels()) {
    std::uint64_t calls = 0;
    std::size_t docs = 0;
    for (const auto& doc : corpus.documents()) {
      if (doc.label == label) {
        calls += doc.total();
        ++docs;
      }
    }
    std::printf("%-28s %14.0f\n", label.c_str(),
                docs ? static_cast<double>(calls) / static_cast<double>(docs)
                     : 0.0);
  }
  std::printf("\n");

  print_database_stats(db);
  return 0;
}

int cmd_snapshot(int argc, char** argv) {
  if (argc != 4) return usage();
  const vsm::Corpus corpus = vsm::load_corpus(argv[2]);
  auto signatures = core::signatures_from(corpus);

  core::SignatureDatabase db;
  {
    std::vector<std::string> labels;
    labels.reserve(corpus.size());
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      labels.push_back(corpus[i].label);
    }
    db.add_batch(std::move(signatures), std::move(labels));
  }
  db.save(argv[3]);
  std::printf("wrote snapshot of %zu signatures (%zu shards, %zu terms) "
              "to %s\n",
              db.size(), db.num_shards(), db.index()->num_terms(), argv[3]);
  return 0;
}

int cmd_topterms(int argc, char** argv) {
  if (argc != 4 && argc != 5) return usage();
  const vsm::Corpus corpus = vsm::load_corpus(argv[2]);
  const std::string label = argv[3];
  const std::size_t n = argc == 5 ? std::strtoul(argv[4], nullptr, 10) : 15;

  const auto signatures = core::signatures_from(corpus);
  core::SignatureDatabase db;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    db.add(signatures[i], corpus[i].label);
  }
  for (const auto& syndrome : db.syndromes()) {
    if (syndrome.label != label) continue;
    // Resolve term ids back to kernel symbols through a fresh symbol table
    // (deterministic construction: ids match the collecting system's).
    const simkern::SymbolTable symbols;
    std::vector<std::pair<double, std::uint32_t>> weighted;
    const auto indices = syndrome.centroid.indices();
    const auto values = syndrome.centroid.values();
    for (std::size_t i = 0; i < indices.size(); ++i) {
      weighted.emplace_back(values[i], indices[i]);
    }
    std::sort(weighted.rbegin(), weighted.rend());
    std::printf("top %zu tf-idf terms of '%s' (%zu member signatures):\n", n,
                label.c_str(), syndrome.support);
    for (std::size_t i = 0; i < std::min(n, weighted.size()); ++i) {
      const auto& fn = symbols.by_id(weighted[i].second);
      std::printf("  %8.5f  %-40s [%s]\n", weighted[i].first, fn.name.c_str(),
                  simkern::subsystem_name(fn.subsystem));
    }
    return 0;
  }
  return fail(false, kExitRuntime, "not-found",
              "label '" + label + "' not present in corpus");
}

int cmd_search(int argc, char** argv) {
  const bool json = take_json_flag(argc, argv);
  // Positional arguments first (corpus, doc-index, optional k), then the
  // optional --policy / --deadline-ms flags anywhere after them.
  core::ScanPolicy policy = core::ScanPolicy::kIndexed;
  core::PruningMode mode = core::PruningMode::kAuto;
  const char* policy_name = "auto";
  long long deadline_ms = -1;  // < 0: no deadline
  std::vector<const char*> positional;
  for (int arg = 2; arg < argc; ++arg) {
    if (std::strcmp(argv[arg], "--policy") == 0) {
      if (arg + 1 >= argc) return usage(json);
      policy_name = argv[++arg];
      if (std::strcmp(policy_name, "scan") == 0) {
        policy = core::ScanPolicy::kBruteForce;
        mode = core::PruningMode::kExact;
      } else if (std::strcmp(policy_name, "indexed") == 0) {
        policy = core::ScanPolicy::kIndexed;
        mode = core::PruningMode::kExact;
      } else if (std::strcmp(policy_name, "pruned") == 0) {
        policy = core::ScanPolicy::kIndexed;
        mode = core::PruningMode::kMaxScore;
      } else if (std::strcmp(policy_name, "auto") == 0) {
        policy = core::ScanPolicy::kIndexed;
        mode = core::PruningMode::kAuto;
      } else {
        return fail(json, kExitUsage, "usage",
                    std::string("unknown --policy '") + policy_name +
                        "' (auto|scan|indexed|pruned)");
      }
    } else if (std::strcmp(argv[arg], "--deadline-ms") == 0) {
      if (arg + 1 >= argc) return usage(json);
      char* dend = nullptr;
      deadline_ms = std::strtoll(argv[++arg], &dend, 10);
      if (dend == argv[arg] || *dend != '\0' || deadline_ms < 0) {
        return fail(json, kExitUsage, "usage",
                    std::string("--deadline-ms must be a non-negative "
                                "number, got '") +
                        argv[arg] + "'");
      }
    } else {
      positional.push_back(argv[arg]);
    }
  }
  if (positional.size() != 2 && positional.size() != 3) return usage(json);
  // The doc index selects which incident gets analyzed — reject non-numeric
  // input rather than silently querying doc 0.
  char* end = nullptr;
  const std::size_t query_doc = std::strtoul(positional[1], &end, 10);
  if (end == positional[1] || *end != '\0') {
    return fail(json, kExitUsage, "usage",
                std::string("doc-index must be a number, got '") +
                    positional[1] + "'");
  }
  std::size_t k = 10;
  if (positional.size() == 3) {
    k = std::strtoul(positional[2], &end, 10);
    if (end == positional[2] || *end != '\0' || k == 0) {
      return fail(json, kExitUsage, "usage",
                  std::string("k must be a positive number, got '") +
                      positional[2] + "'");
    }
  }

  core::SignatureDatabase db;
  vsm::SparseVector query;
  std::string query_label;
  std::vector<std::size_t> archive_doc;  // db id -> source doc index
  if (is_snapshot_file(positional[0])) {
    // Snapshot path: the archive is restored as-is (no re-indexing), so
    // the query document stays in it — expect a self-hit at rank 1.
    db.load(positional[0]);
    if (query_doc >= db.size()) {
      return fail(json, kExitRuntime, "out-of-range",
                  "doc-index " + std::to_string(query_doc) +
                      " out of range (snapshot has " +
                      std::to_string(db.size()) + " docs)");
    }
    query = db.signature(query_doc);
    query_label = db.label(query_doc);
    archive_doc.resize(db.size());
    for (std::size_t i = 0; i < db.size(); ++i) archive_doc[i] = i;
  } else {
    const vsm::Corpus corpus = vsm::load_corpus(positional[0]);
    if (query_doc >= corpus.size()) {
      return fail(json, kExitRuntime, "out-of-range",
                  "doc-index " + std::to_string(query_doc) +
                      " out of range (corpus has " +
                      std::to_string(corpus.size()) + " docs)");
    }
    const auto signatures = core::signatures_from(corpus);
    std::vector<vsm::SparseVector> batch;
    std::vector<std::string> labels;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      if (i == query_doc) continue;  // leave the query out of the archive
      batch.push_back(signatures[i]);
      labels.push_back(corpus[i].label);
      archive_doc.push_back(i);
    }
    query = signatures[query_doc];
    query_label = corpus[query_doc].label;
    db.add_batch(std::move(batch), std::move(labels));  // parallel build
  }

  core::QueryStats stats;
  core::SearchOptions options;
  std::vector<core::QueryOutcome> outcomes;
  options.outcomes = &outcomes;
  if (deadline_ms >= 0) {
    options.deadline =
        core::Deadline::after(std::chrono::milliseconds(deadline_ms));
  }
  const auto hits = db.search(query, k, core::SimilarityMetric::kCosine,
                              policy, mode, &stats, options);
  const char* outcome = core::outcome_name(
      outcomes.empty() ? core::QueryOutcome::kOk : outcomes.front());
  if (json) {
    std::printf(
        "{\n  \"query_doc\": %zu,\n  \"label\": \"%s\",\n"
        "  \"policy\": \"%s\",\n  \"outcome\": \"%s\",\n"
        "  \"archive_documents\": %zu,\n"
        "  \"hits\": [",
        query_doc, json_escape(query_label).c_str(), policy_name, outcome,
        db.size());
    for (std::size_t rank = 0; rank < hits.size(); ++rank) {
      std::printf(
          "%s\n    {\"rank\": %zu, \"doc\": %zu, \"label\": \"%s\", "
          "\"score\": %.17g}",
          rank == 0 ? "" : ",", rank + 1, archive_doc[hits[rank].id],
          json_escape(hits[rank].label).c_str(), hits[rank].score);
    }
    std::printf(
        "\n  ],\n  \"counters\": {\"docs_scored\": %zu, \"docs_pruned\": "
        "%zu, \"postings_visited\": %zu, \"blocks_skipped\": %zu, "
        "\"forward_gathers\": %zu, \"dispatch_inline\": %llu, "
        "\"dispatch_pooled\": %llu, \"spans_reserved\": %llu, "
        "\"tasks_executed\": %llu, \"checkpoint_polls\": %zu, "
        "\"deadline_exceeded\": %llu, \"cancelled\": %llu, "
        "\"rejected\": %llu, \"partial_results\": %llu}\n}\n",
        stats.docs_scored, stats.docs_pruned, stats.postings_visited,
        stats.blocks_skipped, stats.forward_gathers,
        static_cast<unsigned long long>(stats.dispatch_inline),
        static_cast<unsigned long long>(stats.dispatch_pooled),
        static_cast<unsigned long long>(stats.spans_reserved),
        static_cast<unsigned long long>(stats.tasks_executed),
        stats.checkpoint_polls,
        static_cast<unsigned long long>(stats.deadline_exceeded),
        static_cast<unsigned long long>(stats.cancelled),
        static_cast<unsigned long long>(stats.rejected),
        static_cast<unsigned long long>(stats.partial_results));
    return kExitOk;
  }
  std::printf(
      "query: doc %zu ('%s')   archive: %zu signatures   policy: %s   "
      "outcome: %s\n",
      query_doc, query_label.c_str(), db.size(), policy_name, outcome);
  const auto index = db.index();
  std::printf("index: %zu shards, %zu terms, %zu postings, %s\n\n",
              index->num_shards(), index->num_terms(), index->num_postings(),
              format_bytes(index->memory_bytes()).c_str());
  print_shard_table(*index);
  std::printf("\n%5s %6s %-28s %10s\n", "rank", "doc", "label", "cosine");
  for (std::size_t rank = 0; rank < hits.size(); ++rank) {
    std::printf("%5zu %6zu %-28s %10.4f\n", rank + 1,
                archive_doc[hits[rank].id], hits[rank].label.c_str(),
                hits[rank].score);
  }
  if (policy == core::ScanPolicy::kIndexed) {
    const std::size_t considered = stats.docs_scored + stats.docs_pruned;
    std::printf(
        "\nquery counters: %zu docs scored, %zu docs pruned (%.1f%%), "
        "%zu postings visited, %zu blocks skipped, %zu forward gathers\n",
        stats.docs_scored, stats.docs_pruned,
        considered > 0
            ? 100.0 * static_cast<double>(stats.docs_pruned) /
                  static_cast<double>(considered)
            : 0.0,
        stats.postings_visited, stats.blocks_skipped, stats.forward_gathers);
    std::printf(
        "dispatch: %llu inline / %llu pooled queries, %llu grid spans "
        "reserved, %llu workers joined\n",
        static_cast<unsigned long long>(stats.dispatch_inline),
        static_cast<unsigned long long>(stats.dispatch_pooled),
        static_cast<unsigned long long>(stats.spans_reserved),
        static_cast<unsigned long long>(stats.tasks_executed));
    std::printf(
        "robustness: %zu checkpoint polls, %llu deadline-exceeded, "
        "%llu cancelled, %llu rejected, %llu partial results\n",
        stats.checkpoint_polls,
        static_cast<unsigned long long>(stats.deadline_exceeded),
        static_cast<unsigned long long>(stats.cancelled),
        static_cast<unsigned long long>(stats.rejected),
        static_cast<unsigned long long>(stats.partial_results));
    db.publish_gauges();
    print_registry_table();
  }
  return 0;
}

/// `metrics`: drive a representative workload through the archive so every
/// instrumented stage fires at least once, then dump the registry.
int cmd_metrics(int argc, char** argv) {
  const bool json = take_json_flag(argc, argv);
  if (argc != 3 && argc != 4) return usage(json);
  std::size_t n_queries = 64;
  if (argc == 4) {
    char* end = nullptr;
    n_queries = std::strtoul(argv[3], &end, 10);
    if (end == argv[3] || *end != '\0' || n_queries == 0) {
      return fail(json, kExitUsage, "usage",
                  std::string("queries must be a positive number, got '") +
                      argv[3] + "'");
    }
  }

  core::SignatureDatabase db;
  if (is_snapshot_file(argv[2])) {
    db.load(argv[2]);  // stamps kSnapshotLoad + kIngest
  } else {
    const vsm::Corpus corpus = vsm::load_corpus(argv[2]);
    auto signatures = core::signatures_from(corpus);
    std::vector<std::string> labels;
    labels.reserve(corpus.size());
    for (std::size_t i = 0; i < corpus.size(); ++i) {
      labels.push_back(corpus[i].label);
    }
    db.add_batch(std::move(signatures), std::move(labels));  // kIngest
  }
  if (db.empty()) {
    return fail(json, kExitRuntime, "empty-archive",
                std::string("archive ") + argv[2] + " holds no documents");
  }

  // Sample queries: stored signatures round-robin, one batch (exercises
  // dispatch/probe/rescore/merge and the batch histograms) plus scalar
  // lookups and a classification (the operator's day-to-day calls).
  std::vector<vsm::SparseVector> queries;
  queries.reserve(n_queries);
  for (std::size_t i = 0; i < n_queries; ++i) {
    queries.push_back(db.signature(i % db.size()));
  }
  (void)db.search_batch(queries, 10, core::SimilarityMetric::kCosine,
                        core::ScanPolicy::kIndexed, core::PruningMode::kAuto);
  for (std::size_t i = 0; i < std::min<std::size_t>(8, n_queries); ++i) {
    (void)db.search(queries[i], 10, core::SimilarityMetric::kCosine,
                    core::ScanPolicy::kIndexed, core::PruningMode::kAuto);
  }
  (void)db.classify_by_syndrome(queries.front());

  // In-memory snapshot round-trip: stamps kSnapshotSave and kSnapshotLoad
  // even when the input was a plain corpus.
  io::InMemoryEnv memory;
  memory.create_dir("m");
  db.save(memory, "m/snapshot.fms");
  core::SignatureDatabase reloaded;
  reloaded.load(memory, "m/snapshot.fms");

  db.publish_gauges();
  exec::TaskPool::shared();  // ensure the pool's gauges are registered
  const auto snap = obs::MetricsRegistry::global().scrape();
  const std::string out = json ? obs::to_json(snap) : obs::to_prometheus(snap);
  std::fputs(out.c_str(), stdout);
  return 0;
}

using index::snapshot::section_kind_name;

/// `verify`: stream the archive through its checksums in bounded memory —
/// never materializes a section, so it works on archives larger than RAM.
int cmd_verify(int argc, char** argv) {
  const bool json = take_json_flag(argc, argv);
  if (argc != 3) return usage(json);
  io::Env& env = io::Env::posix();
  if (!env.file_exists(argv[2])) {
    return fail(json, kExitRuntime, "io",
                std::string("cannot open ") + argv[2]);
  }
  const index::snapshot::VerifyResult result =
      index::snapshot::verify(env, argv[2]);
  if (json) {
    std::printf(
        "{\n  \"file\": \"%s\",\n  \"ok\": %s,\n  \"error\": \"%s\",\n"
        "  \"version\": %u,\n  \"shards\": %u,\n  \"documents\": %llu,\n  \"terms\": %llu,\n"
        "  \"bytes\": %llu,\n  \"sections\": [",
        json_escape(argv[2]).c_str(), result.ok ? "true" : "false",
        json_escape(result.error).c_str(), result.version, result.shard_count,
        static_cast<unsigned long long>(result.doc_count),
        static_cast<unsigned long long>(result.term_count),
        static_cast<unsigned long long>(result.total_bytes));
    for (std::size_t i = 0; i < result.sections.size(); ++i) {
      const auto& section = result.sections[i];
      std::printf(
          "%s\n    {\"kind\": \"%s\", \"shard\": %u, \"bytes\": %llu, "
          "\"checksum_ok\": %s}",
          i == 0 ? "" : ",", section_kind_name(section.kind), section.shard,
          static_cast<unsigned long long>(section.bytes),
          section.checksum_ok ? "true" : "false");
    }
    std::printf("\n  ]\n}\n");
    return result.ok ? 0 : 1;
  }
  std::printf("%s: format v%u, %u shards, %llu documents, %llu terms, %s\n",
              argv[2], result.version, result.shard_count,
              static_cast<unsigned long long>(result.doc_count),
              static_cast<unsigned long long>(result.term_count),
              format_bytes(result.total_bytes).c_str());
  std::printf("%-18s %6s %12s  %s\n", "section", "shard", "bytes", "checksum");
  for (const auto& section : result.sections) {
    std::printf("%-18s %6u %12llu  %s\n", section_kind_name(section.kind),
                section.shard, static_cast<unsigned long long>(section.bytes),
                section.checksum_ok ? "ok" : "MISMATCH");
  }
  if (result.ok) {
    std::printf("verify: OK\n");
    return 0;
  }
  std::printf("verify: FAILED — %s\n", result.error.c_str());
  return 1;
}

/// `recover`: run startup recovery against a durable directory and report
/// what it found — manifest state, journal replay/truncation, sweep.
int cmd_recover(int argc, char** argv) {
  const bool json = take_json_flag(argc, argv);
  if (argc != 3) return usage(json);
  const std::string dir = argv[2];
  io::Env& env = io::Env::posix();
  if (!env.file_exists(core::manifest_path(dir))) {
    return fail(json, kExitRuntime, "not-found",
                dir + " has no MANIFEST — not a durable archive");
  }
  const core::Manifest manifest = core::read_manifest(env, dir);
  core::LiveOptions options;
  options.background_refreeze = false;  // report recovery, never fold
  core::LiveDatabase db(env, dir, options);
  const core::RecoveryInfo& info = db.recovery();
  if (json) {
    std::printf(
        "{\n  \"dir\": \"%s\",\n  \"epoch\": %llu,\n"
        "  \"snapshot\": \"%s\",\n  \"journal\": \"%s\",\n"
        "  \"snapshot_loaded\": %s,\n  \"documents\": %zu,\n"
        "  \"journal_records_replayed\": %llu,\n"
        "  \"journal_truncated\": %s,\n"
        "  \"journal_bytes_dropped\": %llu,\n"
        "  \"truncate_reason\": \"%s\",\n  \"removed_files\": [",
        json_escape(dir).c_str(),
        static_cast<unsigned long long>(manifest.epoch),
        json_escape(manifest.snapshot).c_str(),
        json_escape(manifest.journal).c_str(),
        info.snapshot_loaded ? "true" : "false", db.size(),
        static_cast<unsigned long long>(info.journal_records_replayed),
        info.journal_truncated ? "true" : "false",
        static_cast<unsigned long long>(info.journal_bytes_dropped),
        json_escape(info.truncate_reason).c_str());
    for (std::size_t i = 0; i < info.removed_files.size(); ++i) {
      std::printf("%s\"%s\"", i == 0 ? "" : ", ",
                  json_escape(info.removed_files[i]).c_str());
    }
    std::printf("]\n}\n");
    return 0;
  }
  std::printf("%s: epoch %llu\n", dir.c_str(),
              static_cast<unsigned long long>(manifest.epoch));
  std::printf("  snapshot: %s%s\n",
              manifest.snapshot.empty() ? "(none)" : manifest.snapshot.c_str(),
              info.snapshot_loaded ? " (loaded)" : "");
  std::printf("  journal:  %s — %llu records replayed\n",
              manifest.journal.c_str(),
              static_cast<unsigned long long>(info.journal_records_replayed));
  if (info.journal_truncated) {
    std::printf("  torn tail truncated: %llu bytes dropped (%s)\n",
                static_cast<unsigned long long>(info.journal_bytes_dropped),
                info.truncate_reason.c_str());
  }
  for (const auto& name : info.removed_files) {
    std::printf("  swept unreferenced file: %s\n", name.c_str());
  }
  const core::LiveStats stats = db.stats();
  std::printf(
      "recovered archive: %zu signatures, %zu base shards, %zu tail "
      "segments\n",
      stats.total_docs, stats.base_shards.size(), stats.segments);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Detect --json up front so even exception paths and the usage screen can
  // honor the machine-readable contract. take_json_flag still strips it per
  // command; this scan only chooses the error format.
  bool json = false;
  for (int arg = 1; arg < argc; ++arg) {
    if (std::strcmp(argv[arg], "--json") == 0) json = true;
  }
  if (argc < 2) return usage(json);
  // Corrupt snapshots and malformed corpora surface as exceptions with a
  // diagnostic message; an operator tool should print that, not terminate.
  try {
    if (std::strcmp(argv[1], "collect") == 0) return cmd_collect(argc, argv);
    if (std::strcmp(argv[1], "stats") == 0) return cmd_stats(argc, argv);
    if (std::strcmp(argv[1], "topterms") == 0) return cmd_topterms(argc, argv);
    if (std::strcmp(argv[1], "search") == 0) return cmd_search(argc, argv);
    if (std::strcmp(argv[1], "snapshot") == 0) return cmd_snapshot(argc, argv);
    if (std::strcmp(argv[1], "metrics") == 0) return cmd_metrics(argc, argv);
    if (std::strcmp(argv[1], "verify") == 0) return cmd_verify(argc, argv);
    if (std::strcmp(argv[1], "recover") == 0) return cmd_recover(argc, argv);
  } catch (const std::exception& error) {
    return fail(json, kExitRuntime, "exception", error.what());
  }
  return usage(json);
}
