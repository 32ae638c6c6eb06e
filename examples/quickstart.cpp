// Quickstart: the five-minute tour of the Fmeter API.
//
// 1. Boot a simulated machine with the Fmeter tracer armed.
// 2. Run two workloads, collecting a signature every monitoring interval.
// 3. Turn raw counts into tf-idf signatures.
// 4. Compare signatures with cosine similarity — same-workload signatures are
//    near-identical, cross-workload ones clearly apart.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "fmeter/fmeter.hpp"

int main() {
  using namespace fmeter;

  // A machine like the paper's testbed: ~3815 traced kernel functions.
  core::MonitoredSystem system;
  std::printf("booted: %zu core-kernel functions traced, %u cpus\n",
              system.kernel().symbols().size(), system.kernel().num_cpus());

  // Collect 40 signatures each for two workloads (paper: 250 per workload,
  // one every 10 seconds; trimmed here so the quickstart runs in seconds).
  core::SignatureGenConfig gen;
  gen.signatures_per_workload = 40;
  const workloads::WorkloadKind kinds[] = {
      workloads::WorkloadKind::kScp,
      workloads::WorkloadKind::kKcompile,
  };
  const vsm::Corpus corpus = core::collect_signatures(system, kinds, gen);
  std::printf("collected %zu signatures (%zu scp + %zu kcompile)\n",
              corpus.size(), corpus.indices_with_label("scp").size(),
              corpus.indices_with_label("kcompile").size());

  // Embed into the vector space model (tf-idf, unit L2 ball).
  vsm::TfIdfModel model;
  const auto signatures = core::signatures_from(corpus, {}, &model);
  std::printf("tf-idf vocabulary: %zu distinct kernel functions\n",
              model.vocabulary_size());

  // Same-class vs cross-class similarity.
  const auto scp = corpus.indices_with_label("scp");
  const auto kcompile = corpus.indices_with_label("kcompile");
  const double same = vsm::cosine_similarity(signatures[scp[0]],
                                             signatures[scp[1]]);
  const double cross = vsm::cosine_similarity(signatures[scp[0]],
                                              signatures[kcompile[0]]);
  std::printf("cos(scp, scp)      = %.4f\n", same);
  std::printf("cos(scp, kcompile) = %.4f\n", cross);

  // Store everything in a database — each add also feeds the inverted index
  // that serves similarity queries — and classify a fresh signature.
  core::SignatureDatabase db;
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    db.add(signatures[i], corpus[i].label);
  }
  std::printf("indexed: %zu signatures, %zu terms, %zu postings\n",
              db.index()->size(), db.index()->num_terms(),
              db.index()->num_postings());
  core::SignatureGenConfig probe = gen;
  probe.signatures_per_workload = 1;
  probe.seed = 0xdeadbeef;
  const vsm::Corpus unknown =
      core::collect_signatures(system, workloads::WorkloadKind::kScp, probe);
  const auto probe_signature = model.transform(unknown[0]);
  const auto verdict = db.classify_by_syndrome(probe_signature);
  std::printf("unknown signature classified as: %s\n", verdict.c_str());

  // Similarity search: which archived signatures look most like the probe?
  const auto hits = db.search(probe_signature, 3);
  for (std::size_t rank = 0; rank < hits.size(); ++rank) {
    std::printf("  hit %zu: id=%zu label=%s cos=%.4f\n", rank + 1,
                hits[rank].id, hits[rank].label.c_str(), hits[rank].score);
  }

  return verdict == "scp" && same > cross && !hits.empty() &&
                 hits.front().label == "scp"
             ? 0
             : 1;
}
