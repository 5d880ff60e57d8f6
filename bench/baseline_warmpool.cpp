// Baseline comparison — warm pools vs prebaking.
//
// The paper's Section 1/6 frames the trade-off: "by maintaining an idle pool
// of function instances, the platform addresses surges with no performance
// penalty ... [but] this strategy increases the platform's operational cost"
// (Lin & Glikson [14]). This bench implements that baseline and puts it
// against prebaking under identical bursty Poisson traffic, reporting both
// user-visible latency AND the provider-side idle-memory bill.
//
// Policies:
//   on-demand/vanilla   — scale from zero with fork-exec starts
//   on-demand/prebaked  — scale from zero with snapshot restores (the paper)
//   warm-pool-4/vanilla — keep >= 4 idle replicas alive at all times [14]
#include <cstdio>

#include "exp/calibration.hpp"
#include "exp/report.hpp"
#include "faas/platform.hpp"
#include "faas/trace_source.hpp"
#include "stats/descriptive.hpp"

using namespace prebake;

namespace {

struct PolicyResult {
  std::string name;
  faas::StreamReplayResult load;
  std::uint64_t cold_starts = 0;
  // Integral of fleet memory over the traffic window (the provider's cost
  // of keeping replicas alive), in byte-seconds.
  double mem_byte_seconds = 0.0;
};

PolicyResult run_policy(const std::string& name, faas::StartMode mode,
                        std::uint32_t min_idle) {
  sim::Simulation sim;
  os::Kernel kernel{sim, exp::testbed_costs()};
  faas::PlatformConfig cfg;
  cfg.idle_timeout = sim::Duration::seconds(30);  // aggressive reclaim
  faas::Platform platform{kernel, exp::testbed_runtime(), cfg, 4242};
  platform.resources().add_node("node-1", 16ull << 30);

  platform.deploy(exp::markdown_spec(), mode, core::SnapshotPolicy::warmup(1));
  if (min_idle > 0) platform.set_min_idle("markdown-render", min_idle);

  // Bursty traffic: open-loop Poisson arrivals with a modest mean rate but
  // long inter-burst gaps (rate 2 Hz over 5 min with 30 s idle-timeout means
  // the pool drains between bursts unless pinned).
  const sim::Duration window = sim::Duration::seconds(300);
  faas::PoissonTraceSource arrivals{"markdown-render", 2.0, window,
                                    sim::Rng{99}};
  const sim::TimePoint start = sim.now();
  const double mem_at_start = platform.fleet_mem_byte_seconds();

  PolicyResult result;
  result.name = name;
  faas::StreamReplayOptions options;
  options.keep_request_metrics = true;
  result.load = faas::replay_trace_stream(platform, arrivals, options);
  sim.run_until(start + window);
  result.mem_byte_seconds = platform.fleet_mem_byte_seconds() - mem_at_start;
  result.cold_starts = platform.stats().cold_starts;
  return result;
}

}  // namespace

int main() {
  std::printf("== Baseline: warm pool [14] vs prebaking, identical Poisson "
              "traffic ==\n\n");

  const PolicyResult results[] = {
      run_policy("on-demand/vanilla", faas::StartMode::kVanilla, 0),
      run_policy("on-demand/prebaked", faas::StartMode::kPrebaked, 0),
      run_policy("warm-pool-4/vanilla", faas::StartMode::kVanilla, 4),
  };

  exp::TextTable table{{"Policy", "Requests", "Cold starts", "p50", "p95",
                        "p99", "Idle+busy memory (GiB*s)"}};
  for (const PolicyResult& r : results) {
    std::vector<double> totals;
    for (const auto& m : r.load.metrics) totals.push_back(m.total.to_millis());
    char mem[32];
    std::snprintf(mem, sizeof mem, "%.1f",
                  r.mem_byte_seconds / (1024.0 * 1024.0 * 1024.0));
    table.add_row({r.name, std::to_string(r.load.responses_ok),
                   std::to_string(r.cold_starts),
                   exp::fmt_ms(stats::percentile(totals, 0.50)),
                   exp::fmt_ms(stats::percentile(totals, 0.95)),
                   exp::fmt_ms(stats::percentile(totals, 0.99)), mem});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Shape: the warm pool buys low latency with always-on memory (the\n"
      "provider's cost, uncharged to users); prebaking gets most of that\n"
      "latency win while letting replicas scale to zero — the paper's core\n"
      "economic argument for snapshot-based starts.\n");
  return 0;
}
