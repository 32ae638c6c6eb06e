// What durable ingest costs, and what recovery buys back.
//
// The write-ahead journal turns LiveDatabase::add_batch into validate →
// seal → journal → publish, so every batch is one sequential append (plus
// an fsync under kEachBatch). This bench ingests the same synthetic
// signature stream into a LiveDatabase under the three LiveOptions::
// durability modes —
//
//   off   — Durability::kRefreezeOnly: RAM only, durability solely from
//           re-freezes; the no-journal baseline the overhead gate
//           compares against;
//   async — Durability::kAsync: append without fsync, one sync() at the
//           end (group-commit shape: a crash loses only the un-synced
//           tail);
//   fsync — Durability::kEachBatch (the default): fsync per batch, the
//           commit-on-return contract the crash-matrix test enforces
//
// — with background re-freezes off, so the timed ingest is seal + journal
// + publish only (folds are bench_live_ingest_scaling's subject). One
// pass at 100k takes about a second, too short for a single sample to be
// stable, so each mode runs 5 times, interleaved (off, async, fsync, off,
// ...) so drift hits every mode alike, and each row reports the median.
// Then it measures both recovery paths a restarted server takes:
// replaying the full journal into tail segments, and — after
// refreeze_now(), the archive's checkpoint — loading the snapshot. Each
// ingest row carries `overhead_vs_off` (median vs the off median of the
// same run, so it transfers across machines the way absolute seconds do
// not) for bench_check.py's --overhead-ceiling gate: journaling must stay
// a tax on ingest, not a rewrite of its cost.
//
// Usage: bench_durability_scaling [max_docs]   (e.g. 10000 as a CI smoke)
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "fmeter/live_database.hpp"
#include "io/env.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/zipf.hpp"

namespace {

constexpr std::uint32_t kDimension = 3800;
constexpr std::size_t kNnz = 120;
constexpr std::size_t kClasses = 11;
constexpr std::size_t kShards = 4;
constexpr std::size_t kBatchDocs = 100;
constexpr std::size_t kRepetitions = 5;

double seconds_since(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct Batch {
  std::vector<fmeter::vsm::SparseVector> signatures;
  std::vector<std::string> labels;
};

std::vector<Batch> synthetic_batches(std::size_t docs) {
  fmeter::util::Rng rng(0xd0cb);
  const fmeter::util::ZipfDistribution zipf(kDimension, 1.1);
  const auto perms =
      fmeter::bench::class_permutations(rng, kClasses, kDimension);
  std::vector<Batch> batches((docs + kBatchDocs - 1) / kBatchDocs);
  std::size_t doc = 0;
  for (Batch& batch : batches) {
    const std::size_t take = std::min(kBatchDocs, docs - doc);
    for (std::size_t i = 0; i < take; ++i, ++doc) {
      batch.signatures.push_back(fmeter::bench::synthetic_class_signature(
          rng, zipf, perms[doc % kClasses], kNnz));
      batch.labels.push_back("class-" + std::to_string(doc % kClasses));
    }
  }
  return batches;
}

bool same_archive(const fmeter::core::LiveDatabase::Snapshot& a,
                  const fmeter::core::LiveDatabase::Snapshot& b) {
  if (a.size() != b.size()) return false;
  fmeter::util::Rng rng(0x5eaf);
  for (int q = 0; q < 5; ++q) {
    const auto& query = a.signature(rng.below(a.size()));
    const auto want = a.search(query, 10);
    const auto got = b.search(query, 10);
    if (got.size() != want.size()) return false;
    for (std::size_t r = 0; r < want.size(); ++r) {
      if (got[r].id != want[r].id || got[r].score != want[r].score) {
        return false;
      }
    }
  }
  return true;
}

void remove_tree(const std::string& dir) {
  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t parsed = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 0;
  const std::size_t max_docs = parsed > 0 ? parsed : 100000;

  fmeter::bench::print_banner(
      "durability_scaling: journaled ingest cost and recovery time",
      "a live archive must survive crashes without re-tracing workloads: "
      "journal on the write path, snapshot + replay on restart");

  const auto tmp = std::filesystem::temp_directory_path();
  fmeter::io::Env& env = fmeter::io::Env::posix();

  std::printf("%8s %-8s %10s %12s %12s\n", "docs", "mode", "seconds",
              "docs_per_s", "vs_off");

  std::vector<fmeter::bench::ShapeCheck> checks;
  std::vector<fmeter::bench::JsonRow> json_rows;

  for (const std::size_t docs : {std::size_t{10000}, std::size_t{100000}}) {
    if (docs > max_docs) break;
    const auto batches = synthetic_batches(docs);

    using fmeter::core::Durability;
    struct Mode {
      const char* name;
      fmeter::core::LiveOptions options;
    };
    const std::vector<Mode> modes = {
        {"off",
         {.num_shards = kShards,
          .durability = Durability::kRefreezeOnly,
          .background_refreeze = false}},
        {"async",
         {.num_shards = kShards,
          .durability = Durability::kAsync,
          .background_refreeze = false}},
        {"fsync",
         {.num_shards = kShards,
          .durability = Durability::kEachBatch,
          .background_refreeze = false}},
    };
    const auto mode_dir = [&tmp](const Mode& mode) {
      return (tmp / ("fmeter_durability_bench_" + std::string(mode.name)))
          .string();
    };

    std::vector<std::vector<double>> samples(modes.size());
    for (std::size_t rep = 0; rep < kRepetitions; ++rep) {
      for (std::size_t m = 0; m < modes.size(); ++m) {
        const Mode& mode = modes[m];
        remove_tree(mode_dir(mode));
        fmeter::core::LiveDatabase db(env, mode_dir(mode), mode.options);
        const auto t_start = std::chrono::steady_clock::now();
        for (const Batch& batch : batches) {
          db.add_batch(batch.signatures, batch.labels);
        }
        if (mode.options.durability == Durability::kAsync) {
          db.sync();  // group commit: the async mode's single commit point
        }
        samples[m].push_back(seconds_since(t_start));
      }
    }

    const double off_seconds = fmeter::util::percentile(samples.front(), 50.0);
    for (std::size_t m = 0; m < modes.size(); ++m) {
      const double seconds = fmeter::util::percentile(samples[m], 50.0);
      const double overhead = seconds / off_seconds - 1.0;
      std::printf("%8zu %-8s %10.2f %12.0f %11.1f%%\n", docs, modes[m].name,
                  seconds, static_cast<double>(docs) / seconds,
                  100.0 * overhead);
      json_rows.push_back(
          {fmeter::bench::jnum("docs", static_cast<double>(docs)),
           fmeter::bench::jnum("shards", kShards),
           fmeter::bench::jstr("phase", "ingest"),
           fmeter::bench::jstr("mode", modes[m].name),
           fmeter::bench::jnum("seconds", seconds),
           fmeter::bench::jnum("docs_per_sec",
                               static_cast<double>(docs) / seconds),
           fmeter::bench::jnum("overhead_vs_off", overhead)});
    }

    // Recovery path A: restart replays the whole journal of the last
    // fsync pass (no re-freeze ever ran — the worst case the manifest
    // allows).
    const fmeter::core::LiveOptions reopen = {.num_shards = kShards,
                                              .background_refreeze = false};
    const std::string fsync_dir = mode_dir(modes.back());
    const auto t_journal = std::chrono::steady_clock::now();
    fmeter::core::LiveDatabase replayed(env, fsync_dir, reopen);
    const double journal_s = seconds_since(t_journal);
    checks.push_back(
        {"journal replay recovered " + std::to_string(docs) + " docs",
         replayed.size() == docs &&
             replayed.recovery().journal_records_replayed == batches.size()});

    // Recovery path B: restart after a checkpoint loads the snapshot and
    // replays an empty journal.
    replayed.refreeze_now();
    const auto t_snapshot = std::chrono::steady_clock::now();
    fmeter::core::LiveDatabase loaded(env, fsync_dir, reopen);
    const double snapshot_s = seconds_since(t_snapshot);
    checks.push_back({"snapshot recovery is bit-identical to ingest at " +
                          std::to_string(docs),
                      loaded.recovery().snapshot_loaded &&
                          same_archive(loaded.snapshot(),
                                       replayed.snapshot())});
    if (docs >= 100000) {
      checks.push_back({"journal replay within 2x of snapshot load at " +
                            std::to_string(docs),
                        journal_s <= 2.0 * snapshot_s});
    }

    std::printf("%8zu %-8s %10.2f %12.0f %12s\n", docs, "replay", journal_s,
                static_cast<double>(docs) / journal_s, "-");
    std::printf("%8zu %-8s %10.2f %12.0f %12s\n", docs, "load", snapshot_s,
                static_cast<double>(docs) / snapshot_s, "-");
    for (const auto& [phase, secs] :
         {std::pair<const char*, double>{"recover_journal", journal_s},
          {"recover_snapshot", snapshot_s}}) {
      json_rows.push_back(
          {fmeter::bench::jnum("docs", static_cast<double>(docs)),
           fmeter::bench::jnum("shards", kShards),
           fmeter::bench::jstr("phase", phase),
           fmeter::bench::jstr("mode", "fsync"),
           fmeter::bench::jnum("seconds", secs),
           fmeter::bench::jnum("docs_per_sec",
                               static_cast<double>(docs) / secs)});
    }

    for (const Mode& mode : modes) remove_tree(mode_dir(mode));
  }

  fmeter::bench::emit_json("BENCH_durability.json", "durability_scaling",
                           json_rows);
  std::printf("\nwrote BENCH_durability.json (%zu rows)\n", json_rows.size());
  return fmeter::bench::print_shape_checks(checks);
}
