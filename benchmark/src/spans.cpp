#include "spans.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <stdexcept>

namespace fmbench {

Lane::Lane(bool enabled, std::size_t capacity)
    : enabled_(enabled), capacity_(capacity) {
  if (enabled_) spans_.reserve(capacity_);
}

std::uint32_t Lane::begin(const char* name, std::uint64_t request) {
  if (!enabled_) return kNone;
  return begin_at(name, request, Clock::now());
}

std::uint32_t Lane::begin_at(const char* name, std::uint64_t request,
                             Clock::time_point start) {
  if (!enabled_) return kNone;
  if (spans_.size() == capacity_) {
    ++dropped_;
    return kNone;
  }
  Span span;
  span.name = name;
  span.parent = open_;
  span.request = request;
  span.start = start;
  spans_.push_back(span);
  open_ = static_cast<std::uint32_t>(spans_.size() - 1);
  return open_;
}

void Lane::end(std::uint32_t slot) {
  if (slot == kNone) return;
  spans_[slot].end = Clock::now();
  open_ = spans_[slot].parent;
}

Spans::Spans(bool enabled, std::size_t lanes, std::size_t capacity)
    : enabled_(enabled) {
  lanes_.reserve(lanes);
  for (std::size_t i = 0; i < lanes; ++i) lanes_.emplace_back(enabled, capacity);
}

std::vector<double> Spans::durations_us(const std::string& name) const {
  std::vector<double> out;
  for (const Lane& lane : lanes_) {
    for (const Span& span : lane.spans()) {
      if (name == span.name) out.push_back(micros_between(span.start, span.end));
    }
  }
  return out;
}

std::vector<LayerTime> Spans::layer_times() const {
  std::map<std::string, std::vector<double>> self;
  std::map<std::string, double> total;
  for (const Lane& lane : lanes_) {
    const auto& spans = lane.spans();
    std::vector<double> children(spans.size(), 0.0);
    for (const Span& span : spans) {
      if (span.parent != Lane::kNone) {
        children[span.parent] += micros_between(span.start, span.end);
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const double duration = micros_between(spans[i].start, spans[i].end);
      self[spans[i].name].push_back(duration - children[i]);
      total[spans[i].name] += duration;
    }
  }
  std::vector<LayerTime> out;
  for (auto& [name, samples] : self) {
    LayerTime row;
    row.name = name;
    row.count = samples.size();
    row.total_ms = total[name] / 1000.0;
    for (const double s : samples) row.self_ms += s / 1000.0;
    row.self_us_p50 = median(std::move(samples));
    out.push_back(std::move(row));
  }
  std::sort(out.begin(), out.end(), [](const LayerTime& a, const LayerTime& b) {
    return a.self_ms > b.self_ms;
  });
  return out;
}

std::uint64_t Spans::dropped() const {
  std::uint64_t n = 0;
  for (const Lane& lane : lanes_) n += lane.dropped();
  return n;
}

void Spans::write_chrome_trace(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) throw std::runtime_error("cannot write " + path);
  Clock::time_point origin = Clock::time_point::max();
  for (const Lane& lane : lanes_) {
    for (const Span& span : lane.spans()) origin = std::min(origin, span.start);
  }
  std::fprintf(file, "{\"traceEvents\": [\n");
  bool first = true;
  for (std::size_t l = 0; l < lanes_.size(); ++l) {
    const auto& spans = lanes_[l].spans();
    for (const Span& span : spans) {
      std::fprintf(file,
                   "%s{\"name\": \"%s\", \"cat\": \"fmeter_bench\", \"ph\": "
                   "\"X\", \"pid\": 1, \"tid\": %zu, \"ts\": %.3f, \"dur\": "
                   "%.3f, \"args\": {\"request\": %llu, \"parent\": \"%s\"}}",
                   first ? "" : ",\n", span.name, l,
                   micros_between(origin, span.start),
                   micros_between(span.start, span.end),
                   static_cast<unsigned long long>(span.request),
                   span.parent == Lane::kNone ? "" : spans[span.parent].name);
      first = false;
    }
  }
  std::fprintf(file, "\n]}\n");
  if (std::fclose(file) != 0) throw std::runtime_error("cannot write " + path);
}

}  // namespace fmbench
