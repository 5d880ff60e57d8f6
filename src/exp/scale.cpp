#include "exp/scale.hpp"

#include <algorithm>
#include <stdexcept>

#include "exp/calibration.hpp"
#include "faas/platform.hpp"
#include "faas/trace_source.hpp"
#include "os/kernel.hpp"
#include "rt/classfile.hpp"

namespace prebake::exp {

const char* keep_alive_policy_name(KeepAlivePolicy policy) {
  switch (policy) {
    case KeepAlivePolicy::kPrebaked: return "prebaked";
    case KeepAlivePolicy::kKeepAlive: return "keepalive";
    case KeepAlivePolicy::kWarmPool: return "warmpool";
    case KeepAlivePolicy::kCowClone: return "cowclone";
  }
  throw std::invalid_argument{"keep_alive_policy_name: bad policy"};
}

rt::FunctionSpec scale_function_spec(std::uint32_t rank,
                                     const std::string& name_prefix) {
  rt::FunctionSpec s;
  s.name = name_prefix + std::to_string(rank);
  s.handler_id = "noop";
  // One shared framework class set across the fleet (identical content =
  // maximal page sharing for the dedup/COW policies, exactly the
  // common-runtime situation those policies exploit) plus a tiny per-rank
  // request path.
  s.init_classes = rt::synth_class_set("scalefw", 24, 160'000, 0x51u);
  s.request_classes = rt::synth_class_set("scale.req", 8, 40'000, 0x52u);
  s.appinit_compute = sim::Duration::millis_f(2.0);
  s.post_restore_residual = sim::Duration::millis_f(5.0);
  s.warm_service_median = sim::Duration::millis(1);
  s.service_sigma = 0.05;
  s.memory_seed = 0x5CA1E000u + rank;  // distinct heap contents per rank
  return s;
}

ScaleScenarioResult run_scale_scenario(const ScaleScenarioConfig& config,
                                       obs::TraceReport* trace) {
  if (config.functions == 0)
    throw std::invalid_argument{"run_scale_scenario: need functions >= 1"};
  if (config.requests == 0)
    throw std::invalid_argument{"run_scale_scenario: need requests >= 1"};

  sim::Simulation sim;
  os::Kernel kernel{sim, testbed_costs()};
  obs::Tracer& tr = kernel.trace();
  if (trace != nullptr) tr.enable();
  obs::Span root = tr.span("scenario", "exp");
  root.attr("kind", "scale");
  root.attr("policy", keep_alive_policy_name(config.policy));
  root.attr("functions", static_cast<std::uint64_t>(config.functions));
  root.attr("requests", config.requests);

  const bool prebaked = config.policy == KeepAlivePolicy::kPrebaked ||
                        config.policy == KeepAlivePolicy::kCowClone;
  faas::PlatformConfig cfg;
  cfg.idle_timeout = config.policy == KeepAlivePolicy::kKeepAlive
                         ? sim::Duration::seconds(600)
                         : sim::Duration::seconds(60);
  cfg.page_store = config.policy == KeepAlivePolicy::kCowClone;
  cfg.aggregate_request_log = true;
  faas::Platform platform{kernel, testbed_runtime(), cfg, config.seed};
  for (std::uint32_t i = 0; i < config.nodes; ++i) {
    std::string name = "w";
    name += std::to_string(i + 1);
    platform.resources().add_node(std::move(name), 64ull << 30,
                                  config.cpus_per_node);
  }

  faas::ZipfTraceConfig workload;
  workload.functions = config.functions;
  workload.zipf_s = config.zipf_s;
  workload.rate_hz = config.rate_hz;
  workload.peak_rate_hz = config.peak_rate_hz;
  workload.period = config.period;
  workload.max_events = config.requests;
  // Arrival-budgeted, not horizon-budgeted: leave the clock horizon open
  // (2^33 s ~ 272 years; the widest representable Duration in seconds).
  workload.duration = sim::Duration::seconds(std::int64_t{1} << 33);
  workload.seed = sim::splitmix64(config.seed, 0x5CA1E);
  faas::ZipfTraceSource source{workload};

  const faas::StartMode mode =
      prebaked ? faas::StartMode::kPrebaked : faas::StartMode::kVanilla;
  for (std::uint32_t rank = 0; rank < config.functions; ++rank)
    platform.deploy(scale_function_spec(rank), mode,
                    core::SnapshotPolicy::warmup(1));
  if (config.policy == KeepAlivePolicy::kWarmPool)
    for (const std::string& name : source.function_names())
      platform.set_min_idle(name, 1);

  const faas::StreamReplayResult rep =
      faas::replay_trace_stream(platform, source);

  ScaleScenarioResult out;
  const faas::PlatformStats& stats = platform.stats();
  out.requests = rep.events;
  out.responses_ok = rep.responses_ok;
  out.rejected = rep.responses_rejected;
  out.fallback_served = rep.responses_fallback;
  out.cold_starts = stats.cold_starts;
  out.replicas_started = stats.replicas_started;
  out.replicas_reclaimed = stats.replicas_reclaimed;
  out.cold_start_rate =
      rep.responses_ok == 0
          ? 0.0
          : static_cast<double>(out.cold_starts) /
                static_cast<double>(rep.responses_ok);

  const faas::RequestAggregate& agg = platform.request_aggregate();
  out.total_p50_ms = agg.total_ms.percentile(0.50);
  out.total_p99_ms = agg.total_ms.percentile(0.99);
  out.total_p999_ms = agg.total_ms.percentile(0.999);
  out.cold_startup_p50_ms = agg.cold_startup_ms.percentile(0.50);
  out.cold_startup_p99_ms = agg.cold_startup_ms.percentile(0.99);

  out.mem_byte_seconds = platform.fleet_mem_byte_seconds();
  out.makespan_s = rep.makespan.to_seconds();
  out.peak_pending_events = rep.peak_pending_events;
  out.peak_replicas = rep.peak_replicas;
  out.functions_deployed = config.functions;
  out.functions_invoked = static_cast<std::uint32_t>(rep.per_function.size());

  std::vector<ScaleFunctionReport> ranked;
  ranked.reserve(rep.per_function.size());
  for (const auto& [name, fa] : rep.per_function)
    ranked.push_back(ScaleFunctionReport{name, fa.requests, fa.cold_starts});
  std::sort(ranked.begin(), ranked.end(),
            [](const ScaleFunctionReport& a, const ScaleFunctionReport& b) {
              if (a.requests != b.requests) return a.requests > b.requests;
              return a.function < b.function;
            });
  if (ranked.size() > 10) ranked.resize(10);
  out.hottest = std::move(ranked);

  root.end();
  if (trace != nullptr) {
    trace->absorb(tr);
    trace->finalize();
  }
  return out;
}

}  // namespace prebake::exp
