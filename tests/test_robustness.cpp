// Robustness and failure-injection tests: malformed wire data, degenerate
// ML inputs, and tracer misuse must fail loudly (exceptions) — never crash
// or silently corrupt.
#include <gtest/gtest.h>

#include <sstream>

#include "fmeter/fmeter.hpp"
#include "util/rng.hpp"
#include "vsm/corpus_io.hpp"

namespace fmeter {
namespace {

// --- wire format fuzzing -------------------------------------------------------

std::string random_bytes(util::Rng& rng, std::size_t length) {
  std::string out;
  out.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    out.push_back(static_cast<char>(rng.below(256)));
  }
  return out;
}

TEST(Robustness, SnapshotParserSurvivesRandomBytes) {
  util::Rng rng(1);
  for (int trial = 0; trial < 200; ++trial) {
    const std::string junk = random_bytes(rng, rng.below(200));
    try {
      const auto snap = trace::CounterSnapshot::deserialize(junk);
      // Accidentally-valid input must still be internally consistent.
      EXPECT_LE(snap.nonzero(), snap.size());
    } catch (const std::invalid_argument&) {
      // expected for almost all inputs
    }
  }
}

TEST(Robustness, CorpusParserSurvivesRandomBytes) {
  util::Rng rng(2);
  for (int trial = 0; trial < 200; ++trial) {
    std::string junk = random_bytes(rng, rng.below(300));
    if (rng.bernoulli(0.3)) junk = "fmeter-corpus v1\n" + junk;  // valid magic
    std::istringstream in(junk);
    try {
      const auto corpus = vsm::read_corpus(in);
      for (const auto& doc : corpus.documents()) {
        EXPECT_GE(doc.total(), doc.distinct_terms());
      }
    } catch (const std::invalid_argument&) {
      // expected
    }
  }
}

TEST(Robustness, CorpusParserSurvivesTruncationAtEveryPoint) {
  vsm::Corpus corpus;
  corpus.add(vsm::CountDocument::from_counts({{1, 5}, {9, 2}}, "x", 1.0));
  corpus.add(vsm::CountDocument::from_counts({{3, 7}}, "y", 2.0));
  std::ostringstream out;
  vsm::write_corpus(out, corpus);
  const std::string full = out.str();
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    std::istringstream in(full.substr(0, cut));
    try {
      vsm::read_corpus(in);
    } catch (const std::invalid_argument&) {
      // fine — must throw, not crash or hang
    }
  }
}

// --- degenerate ML inputs ------------------------------------------------------

TEST(Robustness, SvmWithContradictoryPointsTerminates) {
  // Identical coordinates, opposite labels: not separable at any C.
  ml::Dataset data;
  for (int i = 0; i < 10; ++i) {
    data.push_back({vsm::SparseVector::from_entries({{0, 1.0}}), +1});
    data.push_back({vsm::SparseVector::from_entries({{0, 1.0}}), -1});
  }
  ml::SvmConfig config;
  config.c = 100.0;
  const auto model = ml::train_svm(data, config);  // must converge/terminate
  // Either answer is defensible; prediction must at least be stable.
  const int first = model.predict(data[0].x);
  EXPECT_EQ(model.predict(data[1].x), first);
}

TEST(Robustness, KMeansWithIdenticalPoints) {
  std::vector<vsm::SparseVector> points(
      6, vsm::SparseVector::from_entries({{0, 1.0}}));
  ml::KMeansConfig config;
  config.k = 3;
  const auto result = ml::KMeans(config).fit(points);
  EXPECT_EQ(result.assignments.size(), 6u);
  EXPECT_NEAR(result.inertia, 0.0, 1e-12);
}

TEST(Robustness, HierarchicalWithDuplicatePoints) {
  std::vector<vsm::SparseVector> points(
      5, vsm::SparseVector::from_entries({{2, 3.0}}));
  const auto tree = ml::agglomerate(points);
  EXPECT_EQ(tree.merges.size(), 4u);
  for (const auto& merge : tree.merges) EXPECT_EQ(merge.height, 0.0);
}

TEST(Robustness, TfIdfSingleDocumentCorpus) {
  vsm::Corpus corpus;
  corpus.add(vsm::CountDocument::from_counts({{0, 3}, {1, 1}}, "solo"));
  vsm::TfIdfModel model;
  const auto vectors = model.fit_transform(corpus);
  // Every term is in |D| = 1 of 1 documents: idf = 0, vector collapses.
  EXPECT_TRUE(vectors[0].empty());
  // The smoothed variant keeps the signal alive.
  vsm::TfIdfOptions smooth;
  smooth.smooth_idf = true;
  vsm::TfIdfModel smooth_model(smooth);
  EXPECT_FALSE(smooth_model.fit_transform(corpus)[0].empty());
}

// --- tracer misuse -------------------------------------------------------------

TEST(Robustness, CollectorSurvivesTracerReset) {
  core::SystemConfig config;
  config.kernel.symbols.total_functions = 900;
  config.kernel.num_cpus = 1;
  core::MonitoredSystem system(config);
  core::SignatureCollector collector(system.debugfs());
  auto& kernel = system.kernel();

  collector.begin_interval();
  for (int i = 0; i < 100; ++i) kernel.invoke(kernel.cpu(0), 1);
  system.fmeter().reset();  // operator zeroes counters mid-interval
  for (int i = 0; i < 5; ++i) kernel.invoke(kernel.cpu(0), 2);
  const auto doc = collector.end_interval("reset", 1.0);
  // Saturating diff: no underflow wrap, partial post-reset counts survive.
  EXPECT_EQ(doc.count_of(1), 0u);
  EXPECT_EQ(doc.count_of(2), 5u);
}

TEST(Robustness, DebugfsHandlerThrowPropagates) {
  trace::DebugFs fs;
  fs.register_file("broken", []() -> std::string {
    throw std::runtime_error("backend gone");
  });
  EXPECT_THROW(fs.read("broken"), std::runtime_error);
}

}  // namespace
}  // namespace fmeter
