// Workload traces: a minimal CSV format and synthetic generators. Lets
// experiments run against recorded or generated invocation timelines
// (Azure-functions-style arrival logs) instead of fixed loops; replay a
// trace with faas::replay_trace_stream (faas/trace_source.hpp) over a
// VectorTraceSource.
//
// CSV format, one event per line, '#' comments allowed:
//   <offset_ms>,<function_name>
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace prebake::faas {

struct TraceEvent {
  sim::Duration at;  // offset from replay start
  std::string function;
  bool operator==(const TraceEvent&) const = default;
};

// Parse/format the CSV trace format. parse throws std::invalid_argument on
// malformed lines (with the line number in the message).
std::vector<TraceEvent> parse_trace_csv(const std::string& text);
std::string format_trace_csv(std::span<const TraceEvent> events);

// Homogeneous Poisson arrivals at `rate_hz` over `duration`.
std::vector<TraceEvent> generate_poisson_trace(const std::string& function,
                                               double rate_hz,
                                               sim::Duration duration,
                                               std::uint64_t seed);

// Diurnal (sinusoidal-rate) arrivals via thinning: the rate swings between
// `base_rate_hz` and `peak_rate_hz` with the given period. Produces the
// bursty day/night pattern under which idle-timeout reclaim causes repeated
// cold starts at every ramp-up.
std::vector<TraceEvent> generate_diurnal_trace(const std::string& function,
                                               double base_rate_hz,
                                               double peak_rate_hz,
                                               sim::Duration period,
                                               sim::Duration duration,
                                               std::uint64_t seed);

}  // namespace prebake::faas
