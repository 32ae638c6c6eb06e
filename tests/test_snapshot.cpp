#include "trace/snapshot.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace fmeter::trace {
namespace {

CounterSnapshot snap(std::vector<std::uint64_t> counts) {
  CounterSnapshot s;
  s.counts = std::move(counts);
  return s;
}

TEST(CounterSnapshot, TotalAndNonzero) {
  const auto s = snap({0, 5, 0, 7});
  EXPECT_EQ(s.total(), 12u);
  EXPECT_EQ(s.nonzero(), 2u);
  EXPECT_EQ(s.size(), 4u);
}

TEST(CounterSnapshot, DiffComputesInterval) {
  const auto before = snap({1, 10, 3});
  const auto after = snap({4, 10, 9});
  const auto delta = after.diff(before);
  EXPECT_EQ(delta.counts, (std::vector<std::uint64_t>{3, 0, 6}));
}

TEST(CounterSnapshot, DiffSaturatesOnCounterReset) {
  const auto before = snap({5});
  const auto after = snap({2});  // tracer was reset mid-interval
  EXPECT_EQ(after.diff(before).counts[0], 0u);
}

TEST(CounterSnapshot, DiffSizeMismatchThrows) {
  EXPECT_THROW(snap({1}).diff(snap({1, 2})), std::invalid_argument);
}

TEST(CounterSnapshot, ToDocumentSkipsZeros) {
  const auto doc = snap({0, 3, 0, 4}).to_document("label", 10.0);
  ASSERT_EQ(doc.counts.size(), 2u);
  EXPECT_EQ(doc.counts[0], (std::pair<std::uint32_t, std::uint64_t>{1, 3}));
  EXPECT_EQ(doc.counts[1], (std::pair<std::uint32_t, std::uint64_t>{3, 4}));
  EXPECT_EQ(doc.label, "label");
  EXPECT_DOUBLE_EQ(doc.duration_s, 10.0);
}

TEST(CounterSnapshot, SerializeDeserializeRoundTrip) {
  const auto original = snap({0, 42, 0, 0, 7, 199});
  const auto parsed = CounterSnapshot::deserialize(original.serialize());
  EXPECT_EQ(parsed.counts, original.counts);
}

TEST(CounterSnapshot, SerializeIsSparse) {
  const auto s = snap({0, 0, 0, 5});
  const std::string text = s.serialize();
  // Header + a single "3 5" line.
  EXPECT_EQ(text, "4\n3 5\n");
}

TEST(CounterSnapshot, DeserializeEmptySnapshot) {
  const auto parsed = CounterSnapshot::deserialize("3\n");
  EXPECT_EQ(parsed.counts, (std::vector<std::uint64_t>{0, 0, 0}));
}

TEST(CounterSnapshot, DeserializeMalformedThrows) {
  EXPECT_THROW(CounterSnapshot::deserialize("abc"), std::invalid_argument);
  EXPECT_THROW(CounterSnapshot::deserialize("2\n5 1\n"), std::invalid_argument);
  EXPECT_THROW(CounterSnapshot::deserialize("2\n0 x\n"), std::invalid_argument);
}

TEST(CounterSnapshot, RoundTripLargeValues) {
  const auto original = snap({0, 0xffffffffffffffffULL});
  const auto parsed = CounterSnapshot::deserialize(original.serialize());
  EXPECT_EQ(parsed.counts[1], 0xffffffffffffffffULL);
}

/// The wire format as it was first written: two std::to_string
/// temporaries per line.
std::string serialize_with_to_string(const CounterSnapshot& snapshot) {
  std::string out = std::to_string(snapshot.counts.size()) + '\n';
  for (std::size_t i = 0; i < snapshot.counts.size(); ++i) {
    if (snapshot.counts[i] == 0) continue;
    out += std::to_string(i) + ' ' + std::to_string(snapshot.counts[i]) + '\n';
  }
  return out;
}

TEST(CounterSnapshot, WireTextAndDocumentMatchTheirDefinitionsOnRandom) {
  // serialize() formats into one buffer, to_document() fills in id order
  // without a sort; the text must stay byte-identical to the to_string
  // formatter's, the document equal to from_counts', and the text must
  // parse back to the counts.
  util::Rng rng(0x5e71);
  for (int round = 0; round < 200; ++round) {
    CounterSnapshot original;
    original.counts.resize(rng.below(5000));
    for (auto& count : original.counts) {
      const double draw = rng.uniform(0.0, 1.0);
      count = draw < 0.5   ? 0
              : draw < 0.9 ? rng.below(100000)
              : draw < 0.99
                  ? rng()
                  : std::numeric_limits<std::uint64_t>::max();
    }
    const std::string text = original.serialize();
    ASSERT_EQ(text, serialize_with_to_string(original)) << "round " << round;
    EXPECT_EQ(CounterSnapshot::deserialize(text).counts, original.counts)
        << "round " << round;

    std::vector<std::pair<vsm::CountDocument::TermId,
                          vsm::CountDocument::Count>>
        raw;
    for (std::size_t i = 0; i < original.counts.size(); ++i) {
      raw.emplace_back(static_cast<vsm::CountDocument::TermId>(i),
                       original.counts[i]);
    }
    EXPECT_EQ(original.to_document("l", 1.5),
              vsm::CountDocument::from_counts(std::move(raw), "l", 1.5))
        << "round " << round;
  }
}

}  // namespace
}  // namespace fmeter::trace
