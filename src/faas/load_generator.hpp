// Load generator matching the paper's methodology (Section 4.1): start the
// function replica, hold the first request until the replica becomes ready,
// then send requests sequentially at a constant rate. Open-loop traffic
// replays through faas::replay_trace_stream (faas/trace_source.hpp).
#pragma once

#include <string>
#include <vector>

#include "faas/platform.hpp"

namespace prebake::faas {

struct LoadGenConfig {
  std::string function;
  int requests = 200;
  // Gap between a response and the next request (sequential closed loop).
  sim::Duration think_time = sim::Duration::millis(5);
};

struct LoadGenResult {
  std::vector<RequestMetrics> metrics;
  std::vector<funcs::Response> responses;
  sim::Duration makespan;
};

// Drives the platform inside its simulation until all requests complete.
LoadGenResult run_load(Platform& platform, const LoadGenConfig& config);

}  // namespace prebake::faas
