#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <numeric>
#include <stdexcept>

namespace fmbench {

namespace fs = std::filesystem;

// ---------------------------------------------------------------- clocks

namespace {

double clock_s(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::uint64_t directory_bytes(const std::string& dir) {
  std::uint64_t bytes = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

void remove_tree(const std::string& dir) {
  std::error_code ignored;
  fs::remove_all(dir, ignored);
}

double percentile(std::vector<double> values, double pct) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = pct / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

// ---------------------------------------------------------------- inputs

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t x = seed ^ (stream * 0xd1b54a32d192ed03ULL);
  for (auto& word : s_) word = splitmix64(x);
}

std::uint64_t Rng::next() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::normal() {
  const double u1 = 1.0 - uniform();  // (0, 1]
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

SyntheticArchive::SyntheticArchive(std::uint64_t seed) : seed_(seed) {
  cdf_.resize(kDimension);
  double total = 0.0;
  for (std::uint32_t r = 0; r < kDimension; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), 1.1);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;

  Rng rng(seed, 0);
  perm_.assign(kClasses, std::vector<std::uint32_t>(kDimension));
  for (std::size_t c = 0; c < kClasses; ++c) {
    std::iota(perm_[c].begin(), perm_[c].end(), 0u);
    if (c == 0) continue;
    for (std::uint32_t i = kDimension; i > 1; --i) {
      std::swap(perm_[c][i - 1], perm_[c][rng.below(i)]);
    }
  }
}

fmeter::vsm::SparseVector SyntheticArchive::sample(Rng& rng,
                                                   std::size_t cls) const {
  std::vector<fmeter::vsm::SparseVector::Entry> entries;
  entries.reserve(kNnz);
  for (std::size_t i = 0; i < kNnz; ++i) {
    const auto rank = static_cast<std::size_t>(
        std::upper_bound(cdf_.begin(), cdf_.end() - 1, rng.uniform()) -
        cdf_.begin());
    entries.emplace_back(perm_[cls][rank], std::exp(rng.normal() * 2.0));
  }
  return fmeter::vsm::SparseVector::from_entries(std::move(entries))
      .l2_normalized();
}

std::string SyntheticArchive::label(std::size_t cls) {
  return "c" + std::to_string(cls);
}

void SyntheticArchive::batch(std::size_t b,
                             std::vector<fmeter::vsm::SparseVector>& docs,
                             std::vector<std::string>& labels) const {
  Rng rng(seed_, 1000 + b);
  for (std::size_t i = 0; i < kBatch; ++i) {
    const std::size_t cls = (b * kBatch + i) % kClasses;
    docs.push_back(sample(rng, cls));
    labels.push_back(label(cls));
  }
}

fmeter::vsm::SparseVector SyntheticArchive::query(std::size_t i) const {
  Rng rng(seed_ ^ 0x9e11e5ULL, i);
  return sample(rng, query_class(i));
}

void load_folded(fmeter::core::LiveDatabase& archive,
                 const std::vector<fmeter::vsm::SparseVector>& docs,
                 const std::vector<std::string>& labels) {
  constexpr std::size_t kChunk = 10000;
  for (std::size_t c = 0; c < docs.size(); c += kChunk) {
    const std::size_t end = std::min(c + kChunk, docs.size());
    archive.add_batch({docs.begin() + c, docs.begin() + end},
                      {labels.begin() + c, labels.begin() + end});
  }
  archive.wait_for_refreeze();
  while (archive.snapshot().num_segments() > 0) archive.refreeze_now();
}

// -------------------------------------------------------- registry deltas

void RegistryDelta::reset() {
  before_ = fmeter::obs::MetricsRegistry::global().scrape();
}

double RegistryDelta::counter(const std::string& name) const {
  const auto now = fmeter::obs::MetricsRegistry::global().scrape();
  const auto* after = now.counter(name);
  const auto* before = before_.counter(name);
  if (after == nullptr) return 0.0;
  return static_cast<double>(after->value - (before ? before->value : 0));
}

fmeter::obs::HistogramSnapshot RegistryDelta::histogram(
    const std::string& name) const {
  const auto now = fmeter::obs::MetricsRegistry::global().scrape();
  const auto* after = now.histogram(name);
  if (after == nullptr) return {};
  fmeter::obs::HistogramSnapshot delta = after->snapshot;
  const auto* before = before_.histogram(name);
  if (before == nullptr) return delta;
  delta.count -= before->snapshot.count;
  delta.sum -= before->snapshot.sum;
  for (std::size_t i = 0; i < delta.buckets.size() &&
                          i < before->snapshot.buckets.size();
       ++i) {
    delta.buckets[i] -= before->snapshot.buckets[i];
  }
  return delta;
}

double quantile_us(const fmeter::obs::HistogramSnapshot& h, double q) {
  return h.empty() ? 0.0 : h.quantile(q) / 1000.0;
}

// --------------------------------------------------------------- checking

bool same_hits(const std::vector<fmeter::core::SearchHit>& got,
               const std::vector<fmeter::core::SearchHit>& want,
               double tolerance, std::string* why) {
  const auto fail = [&](const std::string& text) {
    if (why != nullptr) *why = text;
    return false;
  };
  if (got.size() != want.size()) {
    return fail("got " + std::to_string(got.size()) + " hits, want " +
                std::to_string(want.size()));
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    const bool score_ok = tolerance == 0.0
                              ? got[i].score == want[i].score
                              : std::abs(got[i].score - want[i].score) <= tolerance;
    if (got[i].id != want[i].id || got[i].label != want[i].label || !score_ok) {
      char text[160];
      std::snprintf(text, sizeof(text),
                    "rank %zu: got id %zu (%s, %.17g), want id %zu (%s, %.17g)",
                    i, got[i].id, got[i].label.c_str(), got[i].score,
                    want[i].id, want[i].label.c_str(), want[i].score);
      return fail(text);
    }
  }
  return true;
}

std::vector<fmeter::core::SearchHit> brute_force(
    const fmeter::core::SignatureDatabase& db,
    const fmeter::vsm::SparseVector& query, std::size_t k) {
  return db.search(query, k, fmeter::core::SimilarityMetric::kCosine,
                   fmeter::core::ScanPolicy::kBruteForce);
}

std::size_t hits_with_label(const std::vector<fmeter::core::SearchHit>& hits,
                            const std::string& label) {
  return static_cast<std::size_t>(std::count_if(
      hits.begin(), hits.end(),
      [&](const fmeter::core::SearchHit& hit) { return hit.label == label; }));
}

// ----------------------------------------------------------------- result

void Result::end_to_end(std::string name, double value, std::string unit) {
  end_to_end_.push_back({std::move(name), value, std::move(unit)});
}

void Result::per_layer(std::string name, double value, std::string unit) {
  per_layer_.push_back({std::move(name), value, std::move(unit)});
}

void Result::check(std::string name, bool ok, std::string detail) {
  if (!ok) {
    std::fprintf(stderr, "CHECK FAILED %s: %s\n", name.c_str(), detail.c_str());
    ++failed_;
  }
  checks_.push_back({std::move(name), ok, std::move(detail)});
}

void Result::search_counters(const SearchCounters& c) {
  const auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double searches = static_cast<double>(c.searches);
  const double engine_batches =
      static_cast<double>(c.stats.dispatch_inline + c.stats.dispatch_pooled);
  per_layer("live.segments_per_search",
            per(static_cast<double>(c.segments_probed), searches), "count");
  per_layer("exec.engine_batches_per_search", per(engine_batches, searches),
            "count");
  per_layer("exec.pooled_dispatch_share",
            per(static_cast<double>(c.stats.dispatch_pooled), engine_batches),
            "ratio");
  per_layer("exec.tasks_per_batch",
            per(static_cast<double>(c.stats.tasks_executed), engine_batches),
            "count");
  per_layer("index.docs_scored_per_search",
            per(static_cast<double>(c.stats.docs_scored), searches), "count");
  per_layer("index.docs_pruned_per_search",
            per(static_cast<double>(c.stats.docs_pruned), searches), "count");
  per_layer("index.postings_visited_per_search",
            per(static_cast<double>(c.stats.postings_visited), searches),
            "count");
  per_layer("index.blocks_skipped_per_search",
            per(static_cast<double>(c.stats.blocks_skipped), searches), "count");
}

void Result::registry_series(const RegistryDelta& delta, std::uint64_t docs) {
  per_layer("exec.shard_probe_us_p50",
            quantile_us(delta.histogram("fmeter_stage_shard_probe_ns"), 0.5),
            "us");
  per_layer("exec.merge_us_p50",
            quantile_us(delta.histogram("fmeter_stage_merge_ns"), 0.5), "us");
  per_layer("live.publish_us_p99",
            quantile_us(delta.histogram("fmeter_live_publish_ns"), 0.99), "us");
  per_layer("io.journal_sync_us_p50",
            quantile_us(delta.histogram("fmeter_journal_sync_ns"), 0.5), "us");
  per_layer("io.journal_bytes_per_doc",
            docs > 0 ? delta.counter("fmeter_journal_bytes_total") /
                           static_cast<double>(docs)
                     : 0.0,
            "B");
  per_layer("index.snapshot_save_s_total",
            static_cast<double>(
                delta.histogram("fmeter_stage_snapshot_save_ns").sum) * 1e-9,
            "s");
  const auto refreeze = delta.histogram("fmeter_live_refreeze_ns");
  per_layer("live.refreezes", static_cast<double>(refreeze.count), "count");
  per_layer("live.refreeze_s_total", static_cast<double>(refreeze.sum) * 1e-9,
            "s");
}

bool Result::correct() const {
  return std::all_of(checks_.begin(), checks_.end(),
                     [](const Check& c) { return c.ok; });
}

namespace {

std::string escape(const std::string& raw) {
  std::string out;
  for (const char c : raw) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

void write_metrics(std::FILE* file, const char* key,
                   const std::vector<Metric>& metrics) {
  std::fprintf(file, "  \"%s\": {", key);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::fprintf(file, "%s\n    \"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                 i == 0 ? "" : ",", escape(metrics[i].name).c_str(), value,
                 escape(metrics[i].unit).c_str());
  }
  std::fprintf(file, "\n  }");
}

}  // namespace

void Result::write(const std::string& path, const Options& options,
                   const std::vector<LayerTime>& layers) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(file,
               "{\n  \"workload\": \"%s\",\n  \"seed\": %llu,\n  \"traced\": "
               "%s,\n  \"correct\": %s,\n  \"attempted\": %llu,\n  "
               "\"failed\": %llu,\n",
               escape(options.workload).c_str(),
               static_cast<unsigned long long>(options.seed),
               options.trace ? "true" : "false", correct() ? "true" : "false",
               static_cast<unsigned long long>(attempted_),
               static_cast<unsigned long long>(failed_));
  std::fprintf(file, "  \"checks\": [");
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    std::fprintf(file, "%s\n    {\"name\": \"%s\", \"ok\": %s, \"detail\": \"%s\"}",
                 i == 0 ? "" : ",", escape(checks_[i].name).c_str(),
                 checks_[i].ok ? "true" : "false",
                 escape(checks_[i].detail).c_str());
  }
  std::fprintf(file, "\n  ],\n");
  write_metrics(file, "end_to_end", end_to_end_);
  std::fprintf(file, ",\n");
  write_metrics(file, "per_layer", per_layer_);
  std::fprintf(file, ",\n  \"layers\": [");
  for (std::size_t i = 0; i < layers.size(); ++i) {
    std::fprintf(file,
                 "%s\n    {\"name\": \"%s\", \"count\": %llu, \"total_ms\": "
                 "%.6g, \"self_ms\": %.6g, \"self_us_p50\": %.6g}",
                 i == 0 ? "" : ",", escape(layers[i].name).c_str(),
                 static_cast<unsigned long long>(layers[i].count),
                 layers[i].total_ms, layers[i].self_ms, layers[i].self_us_p50);
  }
  std::fprintf(file, "\n  ]\n}\n");
  if (std::fclose(file) != 0) throw std::runtime_error("cannot write " + path);
}

}  // namespace fmbench
