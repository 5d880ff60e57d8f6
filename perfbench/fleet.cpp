#include <algorithm>
#include <functional>
#include <optional>

#include "bench.hpp"
#include "exp/calibration.hpp"
#include "exp/scale.hpp"
#include "faas/trace_source.hpp"

namespace perfbench {

namespace {

faas::PlatformConfig platform_config(const FleetConfig& config) {
  faas::PlatformConfig cfg;
  cfg.idle_timeout = sim::Duration::seconds(60);
  cfg.page_store = config.page_store;
  cfg.aggregate_request_log = true;
  return cfg;
}

// The arrival stream exp::run_scale_scenario derives from the same seed.
faas::ZipfTraceConfig trace_config(const FleetConfig& config) {
  faas::ZipfTraceConfig workload;
  workload.functions = config.functions;
  workload.zipf_s = kFleetZipfS;
  workload.rate_hz = kFleetRateHz;
  workload.max_events = config.requests;
  workload.duration = sim::Duration::seconds(std::int64_t{1} << 33);
  workload.seed = sim::splitmix64(config.seed, 0x5CA1E);
  return workload;
}

}  // namespace

FleetBed::FleetBed(const FleetConfig& config)
    : kernel{sim, exp::testbed_costs()},
      platform{kernel, exp::testbed_runtime(), platform_config(config),
               config.seed} {
  for (std::uint32_t i = 0; i < kFleetNodes; ++i)
    platform.resources().add_node("w" + std::to_string(i + 1), 64ull << 30, 0);
}

Counts fleet_counts(FleetBed& bed) {
  const faas::PlatformStats& stats = bed.platform.stats();
  Counts c;
  c.replicas_started = stats.replicas_started;
  c.replicas_reclaimed = stats.replicas_reclaimed;
  for (const faas::WorkerNode& node : bed.platform.resources().nodes()) {
    c.template_clones += node.store().stats().template_clones;
    c.templates_materialized += node.store().stats().templates_materialized;
  }
  return c;
}

namespace {

std::uint8_t moved(std::uint64_t after, std::uint64_t before) {
  return static_cast<std::uint8_t>(
      std::min<std::uint64_t>(after - before, 255));
}

Delta minus(const Counts& a, const Counts& b) {
  return {moved(a.replicas_started, b.replicas_started),
          moved(a.replicas_reclaimed, b.replicas_reclaimed),
          moved(a.template_clones, b.template_clones),
          moved(a.templates_materialized, b.templates_materialized)};
}

}  // namespace

std::unique_ptr<FleetBed> deploy_fleet(const FleetConfig& config,
                                       Recorder& rec, HostClock& clock) {
  auto bed = std::make_unique<FleetBed>(config);
  for (std::uint32_t rank = 0; rank < config.functions; ++rank) {
    const std::int32_t span = rec.begin(Kind::kDeploy);
    bed->platform.deploy(exp::scale_function_spec(rank),
                         faas::StartMode::kPrebaked,
                         core::SnapshotPolicy::warmup(1));
    rec.end(span);
    clock.tick(rank + 1);
  }
  return bed;
}

FleetReplay replay_fleet(FleetBed& bed, const FleetConfig& config,
                         Recorder& rec, Samples& samples, HostClock& clock) {
  faas::ZipfTraceSource source{trace_config(config)};
  faas::Platform& platform = bed.platform;
  sim::Simulation& sim = bed.sim;
  const sim::TimePoint start = sim.now();

  // Every fleet function runs the noop handler on the same request; its
  // reference response comes from the handler itself, outside the platform.
  const funcs::Request request = funcs::sample_request("noop");
  const std::string reference = funcs::NoopHandler{}.handle(request).body;

  FleetReplay out;
  samples.reserve(config.requests);
  std::vector<std::uint8_t> seen(config.requests + 1, 0);
  bool exhausted = false;

  auto on_response = [&](std::uint32_t id, const funcs::Response& res,
                         const faas::RequestMetrics& m) {
    rec.tag_request(id);
    if (seen[id]++ != 0) {
      ++out.duplicates;
      return;
    }
    ++out.answered;
    if (!res.ok()) {
      ++out.rejected;
      return;
    }
    if (res.body != reference) ++out.mismatched;
    samples.total_ns.push_back(m.total.nanos_count());
    samples.queue_ns.push_back(m.queue_wait.nanos_count());
    samples.service_ns.push_back(m.service.nanos_count());
    if (m.cold_start) {
      ++out.cold_starts;
      samples.startup_ns.push_back(m.startup.nanos_count());
    }
  };

  // One arrival is scheduled ahead at any time; each firing schedules its
  // successor before invoking, so the engine never holds the whole trace.
  std::function<void(const faas::TraceEvent&)> fire;
  auto schedule_next = [&] {
    if (std::optional<faas::TraceEvent> next = source.next())
      sim.schedule_at(start + next->at,
                      [&fire, ev = std::move(*next)] { fire(ev); });
    else
      exhausted = true;
  };
  fire = [&](const faas::TraceEvent& e) {
    schedule_next();
    const auto id = static_cast<std::uint32_t>(++out.issued);
    const Counts before = rec.enabled() ? fleet_counts(bed) : Counts{};
    const std::int32_t span = rec.begin(Kind::kInvoke, id);
    platform.invoke(e.function, request,
                    [&on_response, id](const funcs::Response& res,
                                       const faas::RequestMetrics& m) {
                      on_response(id, res, m);
                    });
    rec.end(span, rec.enabled() ? minus(fleet_counts(bed), before) : Delta{});
  };
  schedule_next();

  while (!exhausted || out.answered < out.issued) {
    const Counts before = rec.enabled() ? fleet_counts(bed) : Counts{};
    const std::int32_t span = rec.begin(Kind::kStep);
    const bool ran = sim.step();
    rec.end(span, rec.enabled() ? minus(fleet_counts(bed), before) : Delta{});
    if (!ran) break;
    clock.tick(out.answered);
    ++out.steps;
    out.peak_pending_events =
        std::max(out.peak_pending_events, sim.pending_events());
    out.peak_replicas =
        std::max(out.peak_replicas, platform.total_replica_count());
  }
  fire = nullptr;
  return out;
}

}  // namespace perfbench
