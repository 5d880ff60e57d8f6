// Deterministic sim-clock tracing.
//
// A Tracer hangs off each os::Kernel (like faults::Injector) and records
// RAII Spans — name, category, sim-clock start/end, parent id, string
// key/value attrs — into a per-kernel buffer. Because every kernel (and
// therefore every tracer) is driven by exactly one thread, the buffer needs
// no locking; parallel scenario runners give each shard's testbed its own
// track id and merge the per-track buffers afterwards, sorted by
// (start, track, seq). Both the track layout and the per-track sequence
// numbers are pure functions of the scenario config, never of thread
// scheduling, so the merged trace is bit-identical at any thread count.
//
// Determinism contract:
//   - span ids are (track << 32) | seq with seq assigned in program order
//     on the owning kernel's single thread;
//   - timestamps come from the sim clock only (never wall clock), and
//     recording a span never advances simulated time or touches the RNG, so
//     enabling tracing cannot change any simulated result;
//   - the disabled path is the default and costs one branch: span() returns
//     an inert handle, no allocation, no buffer growth — existing benches
//     stay byte-identical (asserted by the TraceNull tests).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/registry.hpp"
#include "sim/simulation.hpp"
#include "sim/time.hpp"

namespace prebake::obs {

// Span ids are globally unique across a merged multi-track trace:
// high 32 bits = track, low 32 bits = 1-based sequence within the track.
using SpanId = std::uint64_t;

constexpr SpanId make_span_id(std::uint32_t track, std::uint32_t seq) {
  return (static_cast<SpanId>(track) << 32) | seq;
}
constexpr std::uint32_t span_track(SpanId id) {
  return static_cast<std::uint32_t>(id >> 32);
}
constexpr std::uint32_t span_seq(SpanId id) {
  return static_cast<std::uint32_t>(id & 0xffffffffu);
}

struct SpanRecord {
  SpanId id = 0;
  SpanId parent = 0;  // 0 = top-level
  std::uint32_t track = 0;
  std::uint32_t seq = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;  // -1 while the span is still open
  std::string name;
  std::string category;
  std::vector<std::pair<std::string, std::string>> attrs;

  sim::Duration duration() const {
    return sim::Duration::nanos((end_ns < 0 ? start_ns : end_ns) - start_ns);
  }
};

// Canonical merged order: (start, track, seq). Stable across thread counts
// because all three keys are sim-deterministic.
void sort_spans(std::vector<SpanRecord>& spans);

class Tracer;

// Move-only RAII handle over one recorded span. A default-constructed (or
// disabled-tracer) Span is inert: attr()/end() are no-ops and nothing was
// allocated to create it.
class Span {
 public:
  Span() = default;
  Span(Span&& other) noexcept
      : tracer_{other.tracer_}, index_{other.index_}, epoch_{other.epoch_} {
    other.tracer_ = nullptr;
  }
  Span& operator=(Span&& other) noexcept {
    if (this != &other) {
      end();
      tracer_ = other.tracer_;
      index_ = other.index_;
      epoch_ = other.epoch_;
      other.tracer_ = nullptr;
    }
    return *this;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { end(); }

  bool active() const { return tracer_ != nullptr; }
  // 0 for an inert span — callers can store the id unconditionally.
  SpanId id() const;

  void attr(std::string_view key, std::string_view value);
  void attr(std::string_view key, const char* value) {
    attr(key, std::string_view{value});
  }
  void attr(std::string_view key, std::int64_t value);
  void attr(std::string_view key, std::uint64_t value);
  void attr(std::string_view key, int value) {
    attr(key, static_cast<std::int64_t>(value));
  }
  void attr(std::string_view key, double value);

  // Close the span at sim-now (idempotent; also run by the destructor).
  void end();
  // Close at an explicit sim time (for spans measured inline and rewound).
  void end_at(sim::TimePoint when);

 private:
  friend class Tracer;
  Span(Tracer* tracer, std::uint32_t index, std::uint32_t epoch)
      : tracer_{tracer}, index_{index}, epoch_{epoch} {}
  // The record buffer this handle indexes into; a take_records() call bumps
  // the tracer's epoch, turning any handle from before the drain inert.
  bool live() const;
  Tracer* tracer_ = nullptr;
  std::uint32_t index_ = 0;
  std::uint32_t epoch_ = 0;
};

class Tracer {
 public:
  explicit Tracer(sim::Simulation& sim) : sim_{&sim} {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  // Start recording on `track`; top-level spans parent to `root_parent`
  // (an id from another track, e.g. the scenario root) or 0.
  void enable(std::uint32_t track = 0, SpanId root_parent = 0);

  // Open a span starting now. Inert handle when disabled.
  Span span(std::string_view name, std::string_view category);
  // Open a span with an explicit (possibly retroactive) start time, e.g. a
  // queue-wait measured when the request is finally served.
  Span span_at(std::string_view name, std::string_view category,
               sim::TimePoint start);
  // Zero-duration marker (quarantine enter/lift, cache hit/miss...). The
  // returned handle is already closed; use it to attach attrs.
  Span instant(std::string_view name, std::string_view category);

  // Innermost open span id (root_parent when none). What a new span or
  // instant would parent to.
  SpanId current() const;

  std::uint32_t track() const { return track_; }
  // Number of span records allocated so far (0 while disabled — the
  // TraceNull tests assert this never moves on the disabled path).
  std::uint64_t total_spans() const { return next_seq_ - 1; }

  const std::vector<SpanRecord>& records() const { return records_; }
  // Drain the buffer (closing any still-open spans at sim-now) so shard
  // runners can harvest per-testbed traces before the testbed dies. Any Span
  // handle still alive afterwards becomes inert: its end()/attr() no-op.
  std::vector<SpanRecord> take_records();

  // Named counters/histograms recorded alongside the spans. count() and
  // measure() are gated on enabled() like span(); metrics() itself is
  // always live for snapshots.
  void count(std::string_view name, std::uint64_t delta = 1) {
    if (enabled_) metrics_.add(name, delta);
  }
  void measure(std::string_view name, double value) {
    if (enabled_) metrics_.record(name, value);
  }
  Registry& metrics() { return metrics_; }
  const Registry& metrics() const { return metrics_; }

 private:
  friend class Span;
  std::int64_t now_ns() const { return sim_->now().nanos_since_origin(); }
  Span open_span(std::string_view name, std::string_view category,
                 std::int64_t start_ns, bool push_open);
  void end_span(std::uint32_t index, std::int64_t end_ns);

  sim::Simulation* sim_;
  bool enabled_ = false;
  std::uint32_t track_ = 0;
  std::uint32_t next_seq_ = 1;
  SpanId root_parent_ = 0;
  std::vector<SpanRecord> records_;
  std::vector<std::uint32_t> open_;  // stack of indices into records_
  std::uint32_t epoch_ = 0;          // bumped by take_records()
  Registry metrics_;
};

}  // namespace prebake::obs
