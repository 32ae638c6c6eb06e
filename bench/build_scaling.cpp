// Inline vs. parallel bulk ingest (ShardedIndex::appended) as the archive
// grows.
//
// An operator's archive is rebuilt whenever a corpus is (re)loaded from
// disk, and appended() fans the per-shard arena builds out as tasks on the
// exec::TaskPool. This bench measures the same bulk build of a 4-shard
// ShardedIndex at 10k/100k docs twice: on a one-worker pool (the inline,
// sequential build) and on a pool with one worker per hardware thread,
// verifies the parallel build is document-for-document identical to the
// sequential one, and emits BENCH_build.json. The >=2x speedup check only arms on >=4
// hardware threads and the full 100k corpus (a single-core CI box runs the
// same code inline, where there is nothing to win).
//
// A third row measures the live archive's fold: ShardedIndex::appended of
// the last 10% of the corpus onto a base holding the first 90%, on the
// one-worker pool (a background fold runs alone on one pool worker). It
// must equal the sequential bulk build shard for shard (operator==), and
// at 100k it must take at most 0.6x the bulk build's time: the merge
// extends each posting list instead of re-scattering every posting.
//
// Usage: bench_build_scaling [max_corpus]   (e.g. 5000 as a CI smoke)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "exec/sharded_index.hpp"
#include "exec/task_pool.hpp"
#include "util/rng.hpp"
#include "util/zipf.hpp"
#include "vsm/sparse_vector.hpp"

namespace {

constexpr std::uint32_t kDimension = 3800;
constexpr std::size_t kNnz = 200;
constexpr std::size_t kClasses = 11;
constexpr std::size_t kShards = 4;

double seconds_since(
    const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t parsed =
      argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 0;
  const std::size_t max_corpus = parsed > 0 ? parsed : 100000;

  fmeter::bench::print_banner(
      "build_scaling: inline vs. parallel bulk ingest (appended)",
      "archive (re)builds must not serialize on one core");

  const std::size_t cores = fmeter::bench::host_cores();
  std::printf("hardware threads: %zu, shards: %zu\n\n", cores, kShards);
  std::printf("%8s %12s %10s %12s %8s\n", "corpus", "mode", "seconds",
              "docs/sec", "ratio");

  std::vector<fmeter::bench::ShapeCheck> checks;
  std::vector<fmeter::bench::JsonRow> json_rows;

  for (const std::size_t corpus : {std::size_t{10000}, std::size_t{100000}}) {
    if (corpus > max_corpus) break;
    // One corpus, shared by both builds, so the comparison is exact.
    fmeter::util::Rng rng(0xb111d);
    const fmeter::util::ZipfDistribution zipf(kDimension, 1.1);
    const auto perms =
        fmeter::bench::class_permutations(rng, kClasses, kDimension);
    std::vector<fmeter::vsm::SparseVector> docs;
    docs.reserve(corpus);
    for (std::size_t d = 0; d < corpus; ++d) {
      docs.push_back(fmeter::bench::synthetic_class_signature(
          rng, zipf, perms[d % kClasses], kNnz));
    }

    fmeter::exec::TaskPool one_worker(1);
    const auto t_seq = std::chrono::steady_clock::now();
    const auto sequential = fmeter::exec::ShardedIndex(kShards).appended(
        std::span<const fmeter::vsm::SparseVector>(docs), &one_worker);
    const double seq_s = seconds_since(t_seq);

    fmeter::exec::TaskPool pool(cores);
    const auto t_par = std::chrono::steady_clock::now();
    const auto parallel = fmeter::exec::ShardedIndex(kShards).appended(
        std::span<const fmeter::vsm::SparseVector>(docs), &pool);
    const double par_s = seconds_since(t_par);

    // The parallel build must be byte-for-byte the sequential one.
    bool identical = parallel.size() == sequential.size() &&
                     parallel.num_terms() == sequential.num_terms() &&
                     parallel.num_postings() == sequential.num_postings();
    const auto seq_stats = sequential.shard_stats();
    const auto par_stats = parallel.shard_stats();
    for (std::size_t s = 0; identical && s < seq_stats.size(); ++s) {
      identical = par_stats[s].docs == seq_stats[s].docs &&
                  par_stats[s].postings == seq_stats[s].postings &&
                  par_stats[s].terms == seq_stats[s].terms;
    }
    checks.push_back({"parallel build identical to sequential at " +
                          std::to_string(corpus),
                      identical});

    // The fold: a 90% base, untimed, extended by the last 10%.
    const std::span<const fmeter::vsm::SparseVector> all(docs);
    const std::size_t base_docs = corpus - corpus / 10;
    const std::vector<fmeter::vsm::SparseView> tail(all.begin() + base_docs,
                                                    all.end());
    const auto base = fmeter::exec::ShardedIndex(kShards).appended(
        all.first(base_docs), &one_worker);
    const auto t_fold = std::chrono::steady_clock::now();
    const fmeter::exec::ShardedIndex folded =
        base.appended(tail, &one_worker);
    const double fold_s = seconds_since(t_fold);
    bool fold_identical = folded.size() == sequential.size();
    for (std::size_t s = 0; fold_identical && s < kShards; ++s) {
      fold_identical = folded.shard(s) == sequential.shard(s);
    }
    checks.push_back({"fold identical to the bulk build at " +
                          std::to_string(corpus),
                      fold_identical});
    const double fold_ratio = seq_s > 0.0 ? fold_s / seq_s : 0.0;
    if (corpus >= 100000) {
      checks.push_back({"fold (10% onto 90%) <= 0.6x the bulk build at " +
                            std::to_string(corpus) + " docs",
                        fold_ratio <= 0.6});
    }

    const double ratio = par_s > 0.0 ? seq_s / par_s : 0.0;
    std::printf("%8zu %12s %10.2f %12.0f %8s\n", corpus, "sequential", seq_s,
                static_cast<double>(corpus) / seq_s, "");
    std::printf("%8zu %12s %10.2f %12.0f %7.2fx\n", corpus, "parallel", par_s,
                static_cast<double>(corpus) / par_s, ratio);
    std::printf("%8zu %12s %10.2f %12.0f %7.2fx of sequential\n", corpus,
                "fold", fold_s, static_cast<double>(corpus) / fold_s,
                fold_ratio);
    for (const auto& [mode, secs] :
         {std::pair<const char*, double>{"sequential", seq_s},
          {"parallel", par_s}}) {
      json_rows.push_back(
          {fmeter::bench::jnum("docs", static_cast<double>(corpus)),
           fmeter::bench::jnum("shards", kShards),
           fmeter::bench::jstr("mode", mode),
           fmeter::bench::jnum("seconds", secs),
           fmeter::bench::jnum("docs_per_sec",
                               static_cast<double>(corpus) / secs)});
    }
    json_rows.push_back(
        {fmeter::bench::jnum("docs", static_cast<double>(corpus)),
         fmeter::bench::jnum("shards", kShards),
         fmeter::bench::jstr("mode", "fold"),
         fmeter::bench::jnum("seconds", fold_s),
         fmeter::bench::jnum("docs_per_sec",
                             static_cast<double>(corpus) / fold_s),
         fmeter::bench::jnum("speedup", fold_s > 0.0 ? seq_s / fold_s : 0.0)});
    // The parallelism gate arms only where parallelism exists to measure.
    if (cores >= 4 && corpus >= 100000) {
      checks.push_back({"parallel bulk ingest >= 2x sequential at " +
                            std::to_string(corpus) + " docs, " +
                            std::to_string(kShards) + " shards",
                        ratio >= 2.0});
    }
  }

  fmeter::bench::emit_json("BENCH_build.json", "build_scaling", json_rows);
  std::printf("\nwrote BENCH_build.json (%zu rows)\n", json_rows.size());
  return fmeter::bench::print_shape_checks(checks);
}
