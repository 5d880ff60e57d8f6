// Workload traces: a minimal CSV format. Lets experiments run against
// recorded or generated invocation timelines (Azure-functions-style arrival
// logs) instead of fixed loops; generate one by draining a trace source and
// replay it with faas::replay_trace_stream over a VectorTraceSource (both
// in faas/trace_source.hpp).
//
// CSV format, one event per line, '#' comments allowed:
//   <offset_ms>,<function_name>
#pragma once

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

}  // namespace prebake::faas
