// Bounded request-metrics aggregation for heavy-traffic runs.
//
// The platform's full request log grows one RequestMetrics per invocation —
// millions of invocations OOM-grow the vector. When
// PlatformConfig::aggregate_request_log is set the platform records each
// request into this fixed-size structure instead: counters plus log-spaced
// latency histograms that answer percentile queries with bounded error
// (~5.9% per bucket step at 40 buckets/decade).
//
// The histogram implementation lives in obs::LogHistogram so the metrics
// registry and this aggregate share one bucketing; the alias keeps the
// original faas spelling working.
#pragma once

#include <cstdint>

#include "obs/histogram.hpp"

namespace prebake::faas {

using LatencyHistogram = obs::LogHistogram;

// Aggregated view of the request stream, one instance per platform. Holds
// everything the full log is queried for in benches (counts, cold-start
// share, latency percentiles) at O(1) memory.
struct RequestAggregate {
  std::uint64_t cold_starts = 0;
  LatencyHistogram total_ms;         // one sample per recorded request
  LatencyHistogram cold_startup_ms;  // startup of cold-start requests only
};

// Per-function slice of the request stream: two counters, no histograms —
// 2000 deployed functions cost 2000 of these, where per-function histograms
// would cost ~50 KiB each. The streaming replay keeps one per function
// (O(functions), not O(requests)).
struct FunctionAggregate {
  std::uint64_t requests = 0;     // answered requests (ok or rejected)
  std::uint64_t cold_starts = 0;  // among the served ones
};

}  // namespace prebake::faas
