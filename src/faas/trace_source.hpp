// Pull-based streaming trace sources and the one open-loop replay driver
// (DESIGN.md §6h).
//
// A TraceSource yields events one at a time in non-decreasing time order;
// the replay keeps exactly one un-fired arrival scheduled, so engine memory
// stays O(active replicas + functions) regardless of trace length — the
// 10^7-request workloads of the policy study never materialize. Every
// open-loop workload in the repository (Poisson, diurnal, Zipf fleet, CSV)
// replays through replay_trace_stream; drain() materializes a source for
// the CSV writer.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "faas/metrics.hpp"
#include "faas/platform.hpp"
#include "faas/trace.hpp"
#include "sim/rng.hpp"

namespace prebake::faas {

// A stream of trace events in non-decreasing `at` order. next() returns
// nullopt once the stream is exhausted (and keeps returning it).
class TraceSource {
 public:
  virtual ~TraceSource() = default;
  virtual std::optional<TraceEvent> next() = 0;
};

// Adapter over a materialized trace (parsed CSV, hand-built fixtures).
class VectorTraceSource final : public TraceSource {
 public:
  explicit VectorTraceSource(std::vector<TraceEvent> events)
      : events_(std::move(events)) {}
  std::optional<TraceEvent> next() override {
    if (idx_ >= events_.size()) return std::nullopt;
    return events_[idx_++];
  }

 private:
  std::vector<TraceEvent> events_;
  std::size_t idx_ = 0;
};

// Drain a source into the materialized trace it streams.
std::vector<TraceEvent> drain(TraceSource& source);

// Homogeneous Poisson arrivals at `rate_hz` over `duration`, drawn from
// `rng` (one exponential gap per arrival, plus one past the window).
class PoissonTraceSource final : public TraceSource {
 public:
  PoissonTraceSource(std::string function, double rate_hz,
                     sim::Duration duration, sim::Rng rng);
  std::optional<TraceEvent> next() override;

 private:
  std::string function_;
  double rate_hz_;
  sim::Duration duration_;
  sim::Duration at_;
  sim::Rng rng_;
  bool done_ = false;
};

// Diurnal (sinusoidal-rate) arrivals via Lewis-Shedler thinning; the rate
// swings between base_rate_hz and peak_rate_hz with the given period,
// trough at t=0.
class DiurnalTraceSource final : public TraceSource {
 public:
  DiurnalTraceSource(std::string function, double base_rate_hz,
                     double peak_rate_hz, sim::Duration period,
                     sim::Duration duration, std::uint64_t seed);
  std::optional<TraceEvent> next() override;

 private:
  std::string function_;
  double base_rate_hz_;
  double peak_rate_hz_;
  sim::Duration period_;
  sim::Duration duration_;
  sim::Duration at_;
  sim::Rng rng_;
  bool done_ = false;
};

// Zipf(s) sampler over ranks [0, n): P(i) proportional to 1/(i+1)^s.
// s = 0 degrades to uniform. Sampling is one uniform draw plus a binary
// search over the precomputed CDF — deterministic for a fixed Rng stream.
class ZipfSampler {
 public:
  ZipfSampler(std::uint32_t n, double s);
  std::uint32_t sample(sim::Rng& rng) const;
  // P(rank); exposed for analytics (expected per-function rates).
  double probability(std::uint32_t rank) const;
  std::uint32_t size() const { return static_cast<std::uint32_t>(cdf_.size()); }

 private:
  std::vector<double> cdf_;  // inclusive prefix sums, back() == 1.0
};

// Multiplexed fleet workload: aggregate arrivals (Poisson, optionally
// diurnal-thinned) assigned to one of `functions` names by Zipf(s)
// popularity rank. Function names are "<prefix><rank>"; rank 0 is hottest.
struct ZipfTraceConfig {
  std::uint32_t functions = 100;
  double zipf_s = 1.0;
  double rate_hz = 100.0;  // aggregate arrival rate (diurnal base when peak set)
  // Stop conditions: events after `duration` or beyond `max_events` are not
  // produced. max_events = 0 means duration-bounded only.
  sim::Duration duration = sim::Duration::seconds(60);
  std::uint64_t max_events = 0;
  // peak_rate_hz > rate_hz enables a diurnal swing between the two with
  // `period`; 0 keeps the rate flat.
  double peak_rate_hz = 0.0;
  sim::Duration period = sim::Duration::seconds(3600);
  std::string name_prefix = "fn-";
  std::uint64_t seed = 1;
};

class ZipfTraceSource final : public TraceSource {
 public:
  explicit ZipfTraceSource(ZipfTraceConfig config);
  std::optional<TraceEvent> next() override;

  // All names the stream can emit, indexed by Zipf rank (hot first).
  const std::vector<std::string>& function_names() const { return names_; }
  const ZipfSampler& sampler() const { return sampler_; }

 private:
  ZipfTraceConfig config_;
  ZipfSampler sampler_;
  std::vector<std::string> names_;
  sim::Duration at_;
  std::uint64_t emitted_ = 0;
  sim::Rng rng_;
  bool done_ = false;
};

// --- streaming replay ------------------------------------------------------

// How long the replay keeps stepping after its last arrival while requests
// are still unanswered. Extreme fault plans (a node-crash rate high enough
// that every batch of restarts takes its node down again) can livelock the
// crash/recover/restart cycle; the horizon turns that into measurable
// request loss instead of a run that never ends.
inline constexpr sim::Duration kReplayGrace = sim::Duration::seconds(600);

struct StreamReplayResult {
  std::uint64_t events = 0;        // arrivals issued to the platform
  std::uint64_t responses_ok = 0;
  // Queue-rejected (503 "no capacity") — never reached a replica. Arrivals
  // in neither count went unanswered within kReplayGrace: they are lost.
  std::uint64_t responses_rejected = 0;
  // Served OK but the cold start behind them fell back to the Vanilla path
  // (failed restore / quarantine). Disjoint axis from rejections.
  std::uint64_t responses_fallback = 0;
  sim::Duration makespan;
  // One small record per function (O(functions)). The served requests
  // themselves are recorded once, by the platform: Platform::request_log(),
  // or request_aggregate() under PlatformConfig::aggregate_request_log.
  std::map<std::string, FunctionAggregate> per_function;
  // Engine/platform occupancy peaks, sampled every 1,024 executed events
  // and once at the end — the memory-bound witnesses (pending events and
  // replicas must track the active set, not the trace length).
  std::size_t peak_pending_events = 0;
  std::size_t peak_replicas = 0;
};

// Drive a trace through the platform: one arrival is scheduled ahead at any
// time, each firing schedules its successor. Runs the simulation until
// every issued request is answered, or until kReplayGrace past the last
// arrival. A function must be deployed by the time its first arrival fires;
// otherwise std::out_of_range leaves this call from the simulation step
// that fired the arrival.
StreamReplayResult replay_trace_stream(Platform& platform, TraceSource& source);

}  // namespace prebake::faas
