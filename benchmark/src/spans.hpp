// Span recording for the traced run: one span per call into a layer, made
// from the benchmark's own code around public API calls (the program
// carries no span IDs of its own).
//
// Each load-generating thread owns one Lane, a buffer preallocated before
// the measured phase, so recording never allocates or locks. A span keeps
// its name, start, end, parent (the span open on the same lane when it
// began) and the request it serves (interval, batch or query number).
// When tracing is off a Lane records nothing and reads no clock, so the
// untraced run carries no tracing cost.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace fmbench {

struct Span {
  const char* name = nullptr;  ///< string literal: stable for the process
  std::uint32_t parent = 0;
  std::uint64_t request = 0;
  Clock::time_point start{};
  Clock::time_point end{};
};

class Lane {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  Lane(bool enabled, std::size_t capacity);

  /// Opens a span starting at `start` (now when omitted); returns its slot
  /// or kNone when disabled or full.
  std::uint32_t begin(const char* name, std::uint64_t request);
  std::uint32_t begin_at(const char* name, std::uint64_t request,
                         Clock::time_point start);
  void end(std::uint32_t slot);

  const std::vector<Span>& spans() const noexcept { return spans_; }
  std::uint64_t dropped() const noexcept { return dropped_; }

 private:
  bool enabled_;
  std::size_t capacity_;
  std::vector<Span> spans_;
  std::uint32_t open_ = kNone;
  std::uint64_t dropped_ = 0;
};

/// RAII span on a lane.
class Scoped {
 public:
  Scoped(Lane& lane, const char* name, std::uint64_t request)
      : lane_(lane), slot_(lane.begin(name, request)) {}
  Scoped(Lane& lane, const char* name, std::uint64_t request,
         Clock::time_point start)
      : lane_(lane), slot_(lane.begin_at(name, request, start)) {}
  ~Scoped() { lane_.end(slot_); }

  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Lane& lane_;
  std::uint32_t slot_;
};

class Spans {
 public:
  /// `lanes` lanes of `capacity` spans each, allocated up front.
  Spans(bool enabled, std::size_t lanes, std::size_t capacity);

  bool enabled() const noexcept { return enabled_; }
  Lane& lane(std::size_t i) { return lanes_.at(i); }

  /// Durations of every span called `name`, in microseconds.
  std::vector<double> durations_us(const std::string& name) const;
  /// Per-name totals over every lane. Self time is a span's duration minus
  /// the time its direct children cover (children run on the parent's
  /// lane, one after another, so their durations add up without overlap).
  std::vector<LayerTime> layer_times() const;
  std::uint64_t dropped() const;

  /// Writes every span as a Chrome-trace ("X" complete events) JSON file.
  void write_chrome_trace(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Lane> lanes_;
};

}  // namespace fmbench
