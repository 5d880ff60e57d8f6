#include "exp/cluster.hpp"

#include <algorithm>

#include "exp/calibration.hpp"
#include "faas/trace_source.hpp"

namespace prebake::exp {

namespace {
constexpr std::uint64_t kNodeMemBytes = 8ull << 30;
}  // namespace

void detail::finish_window(sim::Simulation& sim, sim::TimePoint end,
                           sim::Duration settle) {
  while (sim.now() < end && sim.step()) {
  }
  if (settle <= sim::Duration{}) return;
  const sim::TimePoint until = sim.now() + settle;
  while (sim.now() < until && sim.step()) {
  }
}

ClusterScenarioResult run_cluster_scenario(const ClusterScenarioConfig& config,
                                           obs::TraceReport* trace) {
  sim::Simulation sim;
  os::Kernel kernel{sim, testbed_costs()};
  obs::Tracer& tr = kernel.trace();
  if (trace != nullptr) tr.enable();
  // Everything — deploys, restores, serving — nests under one root span.
  obs::Span root = tr.span("scenario", "exp");
  root.attr("kind", "cluster");
  root.attr("nodes", static_cast<std::uint64_t>(config.nodes));
  root.attr("policy", faas::placement_policy_name(config.policy));

  faas::PlatformConfig cfg;
  cfg.idle_timeout = config.idle_timeout;
  cfg.remote_registry = config.remote_registry;
  cfg.page_store = config.page_store;
  cfg.node_page_store_bytes = config.node_page_store_bytes;
  cfg.aggregate_request_log = true;
  cfg.restore_max_attempts = config.restore_max_attempts;
  cfg.quarantine_threshold = config.quarantine_threshold;
  cfg.node_recovery_delay = config.node_recovery_delay;
  faas::Platform platform{kernel, testbed_runtime(), cfg, config.seed};
  platform.resources().set_policy(config.policy);
  for (std::uint32_t i = 0; i < config.nodes; ++i) {
    std::string name = "w";
    name += std::to_string(i + 1);
    platform.resources().add_node(std::move(name), kNodeMemBytes,
                                  config.cpus_per_node);
  }

  const rt::FunctionSpec specs[] = {noop_spec(), markdown_spec(),
                                    image_resizer_spec()};
  for (const rt::FunctionSpec& spec : specs)
    platform.deploy(spec, config.mode, core::SnapshotPolicy::warmup(1));

  // Arm the injector only after the deploy-time bakes: the chaos under
  // study is the restore/serving path, not the verified build step.
  kernel.faults().configure(config.faults);

  // An independent Poisson stream per function, merged by arrival time. The
  // stable sort puts the lower function index first on a tie.
  std::vector<faas::TraceEvent> arrivals;
  const sim::Rng rng{config.seed};
  for (std::size_t f = 0; f < std::size(specs); ++f) {
    faas::PoissonTraceSource stream{specs[f].name, config.rate_hz,
                                    config.duration, rng.child(f + 1)};
    for (faas::TraceEvent& e : faas::drain(stream))
      arrivals.push_back(std::move(e));
  }
  std::stable_sort(arrivals.begin(), arrivals.end(),
                   [](const faas::TraceEvent& a, const faas::TraceEvent& b) {
                     return a.at < b.at;
                   });
  faas::VectorTraceSource source{std::move(arrivals)};
  const sim::TimePoint start = sim.now();
  const faas::StreamReplayResult rep =
      faas::replay_trace_stream(platform, source);
  detail::finish_window(sim, start + config.duration,
                        config.node_recovery_delay);

  ClusterScenarioResult out;
  out.requests = rep.events;
  out.responses_ok = rep.responses_ok;
  out.answered = rep.responses_ok + rep.responses_rejected;
  out.stats = platform.stats();
  out.availability = out.requests == 0
                         ? 1.0
                         : static_cast<double>(out.responses_ok) /
                               static_cast<double>(out.requests);
  out.fallback_rate =
      out.stats.replicas_started == 0
          ? 0.0
          : static_cast<double>(out.stats.restore_fallbacks) /
                static_cast<double>(out.stats.replicas_started);

  const faas::RequestAggregate& agg = platform.request_aggregate();
  out.total_p50_ms = agg.total_ms.percentile(0.50);
  out.total_p95_ms = agg.total_ms.percentile(0.95);
  out.total_p99_ms = agg.total_ms.percentile(0.99);
  out.cold_startup_p50_ms = agg.cold_startup_ms.percentile(0.50);
  out.cold_startup_p95_ms = agg.cold_startup_ms.percentile(0.95);

  for (const faas::WorkerNode& n : platform.resources().nodes()) {
    const faas::NodeStats& ns = n.stats();
    out.nodes.push_back({.id = n.id(),
                         .name = n.name(),
                         .state = faas::node_state_name(n.state()),
                         .replicas = n.replicas(),
                         .mem_used = n.mem_used(),
                         .mem_capacity = n.mem_capacity(),
                         .stats = ns,
                         .store_pages = n.store().stored_pages(),
                         .store_evicted_pages = n.store().stats().evicted_pages,
                         .store_templates = n.store().template_count()});
    out.snapshot_hits += ns.snapshot_hits;
    out.snapshot_misses += ns.snapshot_misses;
    out.remote_bytes_fetched += ns.remote_bytes_fetched;
    out.store_hit_pages += ns.store_hit_pages;
    out.store_delta_bytes += ns.store_delta_bytes;
    out.template_clones += ns.template_clones;
  }

  const faults::Injector& inj = kernel.faults();
  out.faults_injected = inj.total_fired();
  for (std::size_t s = 0; s < faults::kFaultSiteCount; ++s) {
    const auto site = static_cast<faults::FaultSite>(s);
    out.fired_by_site.emplace_back(faults::fault_site_name(site),
                                   inj.fired(site));
  }
  out.fault_trace = inj.trace();
  for (const auto& [fn, health] : platform.snapshot_health())
    out.snapshot_health.push_back({fn, health.consecutive_failures,
                                   health.quarantined, health.rebakes});

  root.attr("faults_injected", out.faults_injected);
  root.end();
  if (trace != nullptr) {
    trace->absorb(tr);
    trace->finalize();
  }
  return out;
}

}  // namespace prebake::exp
