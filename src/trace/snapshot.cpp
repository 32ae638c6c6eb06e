#include "trace/snapshot.hpp"

#include <charconv>
#include <iterator>
#include <limits>
#include <stdexcept>

namespace fmeter::trace {

std::uint64_t CounterSnapshot::total() const noexcept {
  std::uint64_t sum = 0;
  for (const auto c : counts) sum += c;
  return sum;
}

std::size_t CounterSnapshot::nonzero() const noexcept {
  std::size_t n = 0;
  for (const auto c : counts) n += (c != 0);
  return n;
}

CounterSnapshot CounterSnapshot::diff(const CounterSnapshot& before) const {
  if (before.counts.size() != counts.size()) {
    throw std::invalid_argument("CounterSnapshot::diff: size mismatch");
  }
  CounterSnapshot out;
  out.counts.resize(counts.size());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    out.counts[i] = counts[i] >= before.counts[i] ? counts[i] - before.counts[i] : 0;
  }
  return out;
}

vsm::CountDocument CounterSnapshot::to_document(std::string label,
                                                double duration_s) const {
  // The function ids ascend already, so the document is filled in order
  // with no sort (what CountDocument::from_counts would do to them).
  vsm::CountDocument doc;
  doc.label = std::move(label);
  doc.duration_s = duration_s;
  doc.counts.reserve(nonzero());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] != 0) {
      doc.counts.emplace_back(static_cast<vsm::CountDocument::TermId>(i),
                              counts[i]);
    }
  }
  return doc;
}

std::string CounterSnapshot::serialize() const {
  // Each line is formatted into one stack buffer and appended whole: no
  // temporary string per number.
  std::string out;
  out.reserve(counts.size() * 8);
  // Two 20-digit numbers, the space between them and the newline.
  char line[2 * (std::numeric_limits<std::uint64_t>::digits10 + 1) + 2];
  char* const digits_end = std::end(line) - 1;  // the newline's byte stays
  const auto put = [&out, &line](char* at) {
    *at++ = '\n';
    out.append(line, static_cast<std::size_t>(at - line));
  };
  put(std::to_chars(line, digits_end, counts.size()).ptr);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;  // sparse wire format
    char* at = std::to_chars(line, digits_end, i).ptr;
    *at++ = ' ';
    put(std::to_chars(at, digits_end, counts[i]).ptr);
  }
  return out;
}

CounterSnapshot CounterSnapshot::deserialize(const std::string& text) {
  CounterSnapshot snap;
  const char* p = text.data();
  const char* end = p + text.size();

  auto parse_u64 = [&](std::uint64_t& value) {
    const auto [next, ec] = std::from_chars(p, end, value);
    if (ec != std::errc{}) {
      throw std::invalid_argument("CounterSnapshot::deserialize: bad integer");
    }
    p = next;
  };
  auto skip_ws = [&] {
    while (p < end && (*p == ' ' || *p == '\n')) ++p;
  };

  std::uint64_t size = 0;
  parse_u64(size);
  snap.counts.assign(size, 0);
  skip_ws();
  while (p < end) {
    std::uint64_t index = 0;
    std::uint64_t count = 0;
    parse_u64(index);
    skip_ws();
    parse_u64(count);
    skip_ws();
    if (index >= size) {
      throw std::invalid_argument("CounterSnapshot::deserialize: index range");
    }
    snap.counts[index] = count;
  }
  return snap;
}

}  // namespace fmeter::trace
