// Trace-driven comparison: generate a diurnal invocation trace, persist it
// as CSV, re-parse it, and replay the identical timeline against a Vanilla
// and a prebaked deployment.
//
//   build/examples/trace_replay [trace.csv]
//
// The diurnal pattern is where idle-timeout reclaim hurts: the replica pool
// drains in every trough and every ramp-up pays a train of cold starts.
#include <cstdio>
#include <fstream>

#include "exp/calibration.hpp"
#include "faas/trace.hpp"
#include "faas/trace_source.hpp"
#include "stats/descriptive.hpp"

using namespace prebake;

namespace {

struct RunResult {
  faas::StreamReplayResult replay;
  std::uint64_t cold_starts = 0;
};

RunResult run(const std::vector<faas::TraceEvent>& events,
              faas::StartMode mode) {
  sim::Simulation sim;
  os::Kernel kernel{sim, exp::testbed_costs()};
  faas::PlatformConfig cfg;
  cfg.idle_timeout = sim::Duration::seconds(45);
  faas::Platform platform{kernel, exp::testbed_runtime(), cfg, 1001};
  platform.resources().add_node("node-1", 16ull << 30);
  platform.deploy(exp::markdown_spec(), mode, core::SnapshotPolicy::warmup(1));

  faas::VectorTraceSource source{events};
  faas::StreamReplayOptions options;
  options.keep_request_metrics = true;
  RunResult out;
  out.replay = faas::replay_trace_stream(platform, source, options);
  out.cold_starts = platform.stats().cold_starts;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::printf("== diurnal trace replay: Vanilla vs PB-Warmup ==\n\n");

  // 10-minute trace, 2-minute "day": 0.2 Hz troughs, 12 Hz peaks.
  const auto generated = faas::generate_diurnal_trace(
      "markdown-render", 0.2, 12.0, sim::Duration::seconds(120),
      sim::Duration::seconds(600), 777);

  // Persist + re-parse: the CSV file is the exchange format.
  const char* path = argc > 1 ? argv[1] : "diurnal.csv";
  {
    std::ofstream file{path};
    file << faas::format_trace_csv(generated);
  }
  std::string text;
  {
    std::ifstream file{path};
    text.assign(std::istreambuf_iterator<char>{file}, {});
  }
  const auto events = faas::parse_trace_csv(text);
  std::printf("trace: %zu invocations over %.0f s (written to %s)\n\n",
              events.size(), events.back().at.to_seconds(), path);

  const RunResult vanilla = run(events, faas::StartMode::kVanilla);
  const RunResult prebaked = run(events, faas::StartMode::kPrebaked);

  auto report = [](const char* label, const RunResult& r) {
    std::vector<double> totals;
    for (const auto& m : r.replay.metrics) totals.push_back(m.total.to_millis());
    std::printf("%-12s ok=%llu cold=%llu  p50=%6.2f  p95=%6.2f  p99=%7.2f  "
                "max=%7.2f ms\n",
                label,
                static_cast<unsigned long long>(r.replay.responses_ok),
                static_cast<unsigned long long>(r.cold_starts),
                stats::percentile(totals, 0.50), stats::percentile(totals, 0.95),
                stats::percentile(totals, 0.99), stats::max(totals));
  };
  report("vanilla", vanilla);
  report("prebaked", prebaked);

  std::vector<double> v, p;
  for (const auto& m : vanilla.replay.metrics)
    if (m.cold_start) v.push_back(m.total.to_millis());
  for (const auto& m : prebaked.replay.metrics)
    if (m.cold_start) p.push_back(m.total.to_millis());
  if (!v.empty() && !p.empty())
    std::printf("\ncold-start latency medians: vanilla %.1f ms vs prebaked "
                "%.1f ms (-%.0f%%)\n",
                stats::median(v), stats::median(p),
                (1.0 - stats::median(p) / stats::median(v)) * 100.0);
  return 0;
}
