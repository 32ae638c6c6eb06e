// Snapshot restore vs. corpus re-index as the archive grows.
//
// The persistence claim (ROADMAP / PR 5): a rebuilt server must not
// re-index the archive from the corpus file. This bench builds a synthetic
// count corpus in the paper's archive shape, then measures the two ways a
// fresh process can obtain a queryable SignatureDatabase:
//
//   reindex — load the text corpus, fit tf-idf, bulk-build + freeze the
//             sharded index (the pre-snapshot cold-start path);
//   load    — restore the binary snapshot in two phases on the pool: map
//             the file and checksum every section over the mapping (one
//             participant per section), then decode the labels and
//             restore every shard from its sections (ShardedIndex::load:
//             a v3 file's arena is adopted where the mapping holds it and
//             validated, not built): tokenize/tf-idf/text parsing gone.
//             The two phases are read back from the registry's stage
//             histograms (fmeter_stage_snapshot_load_ns for the mapping
//             and checksums, fmeter_stage_ingest_ns for the shard
//             restores) as `read_s` and `build_s`.
//
// The restore is measured where a restarted daemon pays it: the bench
// re-executes itself to load the snapshot in a fresh process, which times
// the load and reports its peak RSS (`load_peak_rss_mb`) next to the
// loaded index's memory_bytes() (`index_mb`). Timed in the process that
// just built and re-indexed the corpus, the same load swung 0.15–0.70 s at
// 100k with that corpus and database still resident. The bench also
// restores in process, to verify the restored database answers
// bit-identically to the fresh build in every mode. It records save/load
// throughput and the snapshot's bytes per document, in the version-3
// file it writes (`bytes_per_doc`) and in the version-1 file of the same
// documents (`v1_bytes_per_doc`: the same file without its arena
// sections), and emits BENCH_snapshot.json. Every row carries the host's
// hardware thread count (`cores`) and the exact path's scoring kernel
// (`simd`). Shape gates at the 100k-doc rung: load ≥ 3× faster than
// re-index, and the restore's peak RSS ≤ 1.3× the index it restores (a
// restore that holds the file's sections twice reads ~1.55×).
//
// Usage: bench_snapshot_scaling [max_corpus]   (e.g. 10000 as a CI smoke)
//        bench_snapshot_scaling --load-child <snapshot>   (internal: the
//        fresh-process restore; prints "<peak RSS kB> <index bytes>
//        <load s> <read s> <build s>")
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "bench_common.hpp"
#include "fmeter/database.hpp"
#include "fmeter/pipeline.hpp"
#include "index/inverted_index.hpp"
#include "index/snapshot.hpp"
#include "io/env.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/zipf.hpp"
#include "vsm/corpus_io.hpp"
#include "vsm/document.hpp"

namespace {

constexpr std::uint32_t kDimension = 3800;
constexpr std::size_t kNnzDraws = 200;
constexpr std::size_t kClasses = 11;
constexpr std::size_t kShards = 4;

double seconds_since(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Synthetic count corpus in the archive shape of the other scaling
/// benches: per-class Zipf permutations over the function space, power-law
/// per-function call counts (Figure 1 tails).
fmeter::vsm::Corpus synthetic_count_corpus(std::size_t docs) {
  fmeter::util::Rng rng(0x54a9);
  const fmeter::util::ZipfDistribution zipf(kDimension, 1.1);
  const auto perms =
      fmeter::bench::class_permutations(rng, kClasses, kDimension);
  fmeter::vsm::Corpus corpus;
  for (std::size_t d = 0; d < docs; ++d) {
    const auto& perm = perms[d % kClasses];
    std::vector<std::pair<fmeter::vsm::CountDocument::TermId,
                          fmeter::vsm::CountDocument::Count>> counts;
    counts.reserve(kNnzDraws);
    for (std::size_t i = 0; i < kNnzDraws; ++i) {
      counts.emplace_back(
          perm[zipf.sample(rng)],
          1 + static_cast<fmeter::vsm::CountDocument::Count>(
                  std::exp(rng.normal(2.0, 1.5))));
    }
    corpus.add(fmeter::vsm::CountDocument::from_counts(
        std::move(counts), "class-" + std::to_string(d % kClasses), 1.0));
  }
  return corpus;
}

fmeter::core::SignatureDatabase build_database(
    const fmeter::vsm::Corpus& corpus) {
  auto signatures = fmeter::core::signatures_from(corpus);
  std::vector<std::string> labels;
  labels.reserve(corpus.size());
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    labels.push_back(corpus[i].label);
  }
  fmeter::core::SignatureDatabase db(kShards);
  db.add_batch(std::move(signatures), std::move(labels));
  return db;
}

bool searches_bit_identical(const fmeter::core::SignatureDatabase& a,
                            const fmeter::core::SignatureDatabase& b) {
  if (a.size() != b.size()) return false;
  fmeter::util::Rng rng(0xc4ec);
  for (int q = 0; q < 5; ++q) {
    const auto& query = a.signature(rng.below(a.size()));
    for (const auto mode :
         {fmeter::core::PruningMode::kExact,
          fmeter::core::PruningMode::kMaxScore,
          fmeter::core::PruningMode::kAuto}) {
      const auto want = a.search(query, 10, fmeter::core::SimilarityMetric::kCosine,
                                 fmeter::core::ScanPolicy::kIndexed, mode);
      const auto got = b.search(query, 10, fmeter::core::SimilarityMetric::kCosine,
                                fmeter::core::ScanPolicy::kIndexed, mode);
      if (got.size() != want.size()) return false;
      for (std::size_t r = 0; r < want.size(); ++r) {
        if (got[r].id != want[r].id || got[r].score != want[r].score ||
            got[r].label != want[r].label) {
          return false;
        }
      }
    }
  }
  return true;
}

/// Seconds recorded so far under the global registry's histogram `name`.
double stage_seconds(const char* name) {
  const auto scraped = fmeter::obs::MetricsRegistry::global().scrape();
  const auto* histogram = scraped.histogram(name);
  return histogram == nullptr
             ? 0.0
             : static_cast<double>(histogram->snapshot.sum) * 1e-9;
}

/// Peak resident set of this process so far, in kB.
long peak_rss_kb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;  // kilobytes on Linux
}

/// The --load-child side: restore `snapshot` and report this process's
/// peak RSS, the restored index's footprint and the restore's wall time
/// with its read and shard-restore phases.
int load_child(const char* snapshot) {
  fmeter::core::SignatureDatabase db;
  const double read_before = stage_seconds("fmeter_stage_snapshot_load_ns");
  const double build_before = stage_seconds("fmeter_stage_ingest_ns");
  const auto start = std::chrono::steady_clock::now();
  db.load(snapshot);
  const double load_s = seconds_since(start);
  std::printf("%ld %zu %.9f %.9f %.9f\n", peak_rss_kb(),
              db.index()->memory_bytes(), load_s,
              stage_seconds("fmeter_stage_snapshot_load_ns") - read_before,
              stage_seconds("fmeter_stage_ingest_ns") - build_before);
  return 0;
}

struct FreshLoad {
  double peak_rss_mb = 0.0;
  double index_mb = 0.0;
  double load_s = 0.0;
  double read_s = 0.0;
  double build_s = 0.0;
};

/// Bytes of the version-1 file holding the same documents as the snapshot
/// at `path`: its header with only the forward-store and labels entries in
/// the directory, and those sections' payloads (snapshot.hpp's layout).
std::uint64_t v1_file_bytes(const std::string& path) {
  const auto report =
      fmeter::index::snapshot::verify(fmeter::io::Env::posix(), path);
  constexpr std::uint64_t kPrefix = 40;
  constexpr std::uint64_t kEntry = 24;
  std::uint64_t bytes = kPrefix + sizeof(std::uint64_t);
  for (const auto& section : report.sections) {
    if (section.kind <= fmeter::index::snapshot::SectionKind::kLabels) {
      bytes += kEntry + section.bytes;
    }
  }
  return bytes;
}

/// Restores `snapshot` in a new process running this binary (exec'd, not
/// forked, so none of this process's heap or threads is inherited).
FreshLoad load_in_fresh_process(const std::string& snapshot) {
  const std::string self = std::filesystem::read_symlink("/proc/self/exe");
  const std::string command =
      "'" + self + "' --load-child '" + snapshot + "'";
  FreshLoad out;
  std::FILE* child = popen(command.c_str(), "r");
  if (child == nullptr) return out;
  long rss_kb = 0;
  std::size_t index_bytes = 0;
  double load_s = 0.0;
  double read_s = 0.0;
  double build_s = 0.0;
  const bool parsed = std::fscanf(child, "%ld %zu %lf %lf %lf", &rss_kb,
                                  &index_bytes, &load_s, &read_s,
                                  &build_s) == 5;
  if (pclose(child) != 0 || !parsed) return out;
  out.peak_rss_mb = static_cast<double>(rss_kb) / 1024.0;
  out.index_mb = static_cast<double>(index_bytes) / (1024.0 * 1024.0);
  out.load_s = load_s;
  out.read_s = read_s;
  out.build_s = build_s;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 3 && std::string(argv[1]) == "--load-child") {
    return load_child(argv[2]);
  }
  const std::size_t parsed = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 0;
  const std::size_t max_corpus = parsed > 0 ? parsed : 100000;

  fmeter::bench::print_banner(
      "snapshot_scaling: binary snapshot restore vs. corpus re-index",
      "indexable signatures imply a durable archive: restart must not "
      "re-tokenize");

  const auto tmp = std::filesystem::temp_directory_path();
  const std::string corpus_path = (tmp / "fmeter_snapshot_bench.fmc").string();
  const std::string snapshot_path = (tmp / "fmeter_snapshot_bench.fms").string();

  std::printf("hardware threads: %u, scoring kernel: %s\n\n",
              fmeter::bench::host_cores(),
              fmeter::index::InvertedIndex::scoring_kernel());
  std::printf("%8s %10s %10s %10s %8s %8s %10s %8s %8s %10s %8s %10s %10s\n",
              "docs", "reindex_s", "save_s", "load_s", "read_s", "build_s",
              "file_MB", "B/doc", "v1_B/doc", "load_MB/s", "ratio",
              "load_rss", "index_MB");

  std::vector<fmeter::bench::ShapeCheck> checks;
  std::vector<fmeter::bench::JsonRow> json_rows;

  for (const std::size_t docs : {std::size_t{10000}, std::size_t{100000}}) {
    if (docs > max_corpus) break;
    fmeter::vsm::save_corpus(corpus_path, synthetic_count_corpus(docs));

    // Cold-start path A: text corpus -> tf-idf -> parallel bulk index.
    const auto t_reindex = std::chrono::steady_clock::now();
    auto db = build_database(fmeter::vsm::load_corpus(corpus_path));
    const double reindex_s = seconds_since(t_reindex);

    const auto t_save = std::chrono::steady_clock::now();
    db.save(snapshot_path);
    const double save_s = seconds_since(t_save);
    const auto file_bytes = std::filesystem::file_size(snapshot_path);
    const double file_mb = static_cast<double>(file_bytes) / (1024.0 * 1024.0);
    const double bytes_per_doc =
        static_cast<double>(file_bytes) / static_cast<double>(docs);
    const double v1_bytes_per_doc =
        static_cast<double>(v1_file_bytes(snapshot_path)) /
        static_cast<double>(docs);

    // Cold-start path B: binary snapshot -> parallel per-shard restore,
    // timed in a fresh process; the in-process restore is only checked.
    const FreshLoad fresh = load_in_fresh_process(snapshot_path);
    const double load_s = fresh.load_s;
    fmeter::core::SignatureDatabase loaded;
    loaded.load(snapshot_path);
    const bool identical = searches_bit_identical(db, loaded);
    checks.push_back({"restored archive bit-identical to fresh build at " +
                          std::to_string(docs),
                      identical});

    const double ratio = load_s > 0.0 ? reindex_s / load_s : 0.0;
    std::printf(
        "%8zu %10.2f %10.2f %10.3f %8.3f %8.3f %10.1f %8.0f %8.0f %10.1f "
        "%7.2fx %10.1f %10.1f\n",
        docs, reindex_s, save_s, load_s, fresh.read_s, fresh.build_s, file_mb,
        bytes_per_doc, v1_bytes_per_doc, load_s > 0.0 ? file_mb / load_s : 0.0,
        ratio, fresh.peak_rss_mb, fresh.index_mb);

    for (const auto& [phase, secs] :
         {std::pair<const char*, double>{"reindex", reindex_s},
          {"save", save_s},
          {"load", load_s}}) {
      json_rows.push_back(
          {fmeter::bench::jnum("docs", static_cast<double>(docs)),
           fmeter::bench::jnum("shards", kShards),
           fmeter::bench::jstr("phase", phase),
           fmeter::bench::jnum("seconds", secs),
           fmeter::bench::jnum("file_mb", file_mb),
           fmeter::bench::jnum("mb_per_sec", secs > 0.0 ? file_mb / secs : 0.0),
           fmeter::bench::jnum("speedup",
                               std::string(phase) == "load" ? ratio : 0.0),
           fmeter::bench::jnum("read_s",
                               std::string(phase) == "load" ? fresh.read_s
                                                            : 0.0),
           fmeter::bench::jnum("build_s",
                               std::string(phase) == "load" ? fresh.build_s
                                                            : 0.0),
           fmeter::bench::jnum("bytes_per_doc", bytes_per_doc),
           fmeter::bench::jnum("v1_bytes_per_doc", v1_bytes_per_doc),
           fmeter::bench::jnum("load_peak_rss_mb", fresh.peak_rss_mb),
           fmeter::bench::jnum("index_mb", fresh.index_mb)});
    }
    // The persistence payoff must be structural, not marginal: restoring
    // skips text parsing and tf-idf entirely, so anything under 3x means
    // the loader is doing work it should not.
    if (docs >= 100000) {
      checks.push_back({"snapshot load >= 3x faster than corpus re-index at " +
                            std::to_string(docs) + " docs",
                        ratio >= 3.0});
      // Restore must not hold the file's bytes beside the index it
      // restores: the sections become the index's arrays, so the peak is
      // the index plus the restore's per-shard temporaries.
      checks.push_back({"fresh-process load peak RSS <= 1.3x the loaded "
                        "index's memory_bytes at " +
                            std::to_string(docs) + " docs",
                        fresh.index_mb > 0.0 &&
                            fresh.peak_rss_mb <= 1.3 * fresh.index_mb});
    }
  }

  std::error_code ignored;
  std::filesystem::remove(corpus_path, ignored);
  std::filesystem::remove(snapshot_path, ignored);

  fmeter::bench::emit_json("BENCH_snapshot.json", "snapshot_scaling",
                           json_rows);
  std::printf("\nwrote BENCH_snapshot.json (%zu rows)\n", json_rows.size());
  return fmeter::bench::print_shape_checks(checks);
}
