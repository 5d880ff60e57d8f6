// Production-scale trace scenario (DESIGN.md §6h): a synthetic fleet of
// thousands of deployed functions under a streaming Zipf workload, driven
// through the cluster Platform on one simulation. Sustains 10^6-10^7
// requests in bounded memory (the platform aggregates; nothing grows with
// the trace) and parameterizes the keep-alive policy study:
//
//   kPrebaked  — snapshot restore on every cold start, short idle reclaim
//   kKeepAlive — Vanilla starts, fixed long keep-alive (the 10-minute
//                idle timeout public platforms use; Wang et al.)
//   kWarmPool  — Vanilla starts, short reclaim, but a min-idle pool of one
//                replica per function (Lin & Glikson)
//   kCowClone  — prebaked + content-addressed page store: cold starts
//                COW-clone the node's frozen template (DESIGN.md §6f)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/report.hpp"
#include "rt/function_spec.hpp"
#include "sim/time.hpp"

namespace prebake::exp {

enum class KeepAlivePolicy { kPrebaked, kKeepAlive, kWarmPool, kCowClone };
const char* keep_alive_policy_name(KeepAlivePolicy policy);

struct ScaleScenarioConfig {
  // Fleet shape: functions named "fn-<rank>", rank 0 hottest.
  std::uint32_t functions = 200;
  // Arrival budget: the stream stops after this many arrivals.
  std::uint64_t requests = 100'000;
  double rate_hz = 50.0;  // aggregate arrival rate across the fleet
  double zipf_s = 1.0;    // popularity skew
  // peak_rate_hz > rate_hz adds a diurnal swing with `period`.
  double peak_rate_hz = 0.0;
  sim::Duration period = sim::Duration::seconds(3600);

  // Idle replicas are reclaimed after 600 s under kKeepAlive and after 60 s
  // under every other policy.
  KeepAlivePolicy policy = KeepAlivePolicy::kPrebaked;

  // Each node has 64 GiB of memory.
  std::uint32_t nodes = 8;
  std::uint32_t cpus_per_node = 0;  // 0 = uncapped node CPU timelines

  std::uint64_t seed = 42;
  // Has no effect: the scenario is one simulation, deterministic at any
  // thread count; sweeps parallelize across cells, not within one. Kept
  // because perfbench's self-test sets it.
  int threads = 0;
};

struct ScaleFunctionReport {
  std::string function;
  std::uint64_t requests = 0;
  std::uint64_t cold_starts = 0;
};

struct ScaleScenarioResult {
  std::uint64_t requests = 0;  // arrivals issued
  std::uint64_t responses_ok = 0;
  std::uint64_t rejected = 0;         // queue-rejected (503)
  std::uint64_t fallback_served = 0;  // served via Vanilla fallback
  std::uint64_t cold_starts = 0;
  std::uint64_t replicas_started = 0;
  std::uint64_t replicas_reclaimed = 0;
  double cold_start_rate = 0.0;  // cold_starts / responses_ok

  double total_p50_ms = 0.0;
  double total_p99_ms = 0.0;
  double total_p999_ms = 0.0;
  double cold_startup_p50_ms = 0.0;
  double cold_startup_p99_ms = 0.0;

  // Integral of placed replica memory over the run (provider cost axis).
  double mem_byte_seconds = 0.0;
  double makespan_s = 0.0;

  // Memory-bound witnesses: engine pending events and resident replicas
  // must track the active set (replicas + warm pools + in-flight timers),
  // never the trace length.
  std::size_t peak_pending_events = 0;
  std::size_t peak_replicas = 0;

  std::uint32_t functions_deployed = 0;
  std::uint32_t functions_invoked = 0;
  std::vector<ScaleFunctionReport> hottest;  // top 10 by request count
};

// The per-rank member of the synthetic fleet: a lean noop-handler service
// (small class set, millisecond warm path) so host time goes to the
// platform machinery under test, not to handler work.
rt::FunctionSpec scale_function_spec(std::uint32_t rank,
                                     const std::string& name_prefix = "fn-");

// `trace`: see run_startup_scenario (exp/scenario.hpp).
ScaleScenarioResult run_scale_scenario(const ScaleScenarioConfig& config,
                                       obs::TraceReport* trace = nullptr);

}  // namespace prebake::exp
