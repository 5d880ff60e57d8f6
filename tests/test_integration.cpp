// End-to-end integration: every layer at once — containerized platform,
// mixed deployment modes, workflow composition, trace-driven load,
// idle reclaim — with conservation invariants checked afterwards.
#include <gtest/gtest.h>

#include <algorithm>

#include "exp/calibration.hpp"
#include "faas/trace.hpp"
#include "faas/trace_source.hpp"
#include "faas/workflow.hpp"
#include "stats/descriptive.hpp"

namespace prebake {
namespace {

TEST(Integration, DayInTheLife) {
  sim::Simulation sim;
  os::Kernel kernel{sim, exp::testbed_costs()};
  faas::PlatformConfig cfg;
  cfg.idle_timeout = sim::Duration::seconds(60);
  cfg.containerized = true;
  faas::Platform platform{kernel, exp::testbed_runtime(), cfg, 2026};
  platform.resources().add_node("node-1", 16ull << 30);
  platform.resources().add_node("node-2", 16ull << 30);

  // Mixed fleet: vanilla markdown, prebaked resizer, prebaked noop with a
  // warm-pool floor.
  platform.deploy(exp::markdown_spec(), faas::StartMode::kVanilla);
  platform.deploy(exp::image_resizer_spec(), faas::StartMode::kPrebaked,
                  core::SnapshotPolicy::warmup(1));
  platform.deploy(exp::noop_spec(), faas::StartMode::kPrebaked,
                  core::SnapshotPolicy::no_warmup());
  platform.set_min_idle("noop", 1);

  // A multi-function trace: two bursts separated by a reclaim-length gap.
  std::vector<faas::TraceEvent> events;
  faas::PoissonTraceSource trace_md{"markdown-render", 4.0,
                                    sim::Duration::seconds(30), sim::Rng{1}};
  faas::PoissonTraceSource trace_noop{"noop", 8.0, sim::Duration::seconds(30),
                                      sim::Rng{2}};
  faas::PoissonTraceSource trace_rz{"image-resizer", 0.5,
                                    sim::Duration::seconds(30), sim::Rng{3}};
  for (faas::TraceSource* t : {&trace_md, &trace_noop, &trace_rz})
    for (faas::TraceEvent& e : faas::drain(*t)) events.push_back(std::move(e));
  // Second burst after the idle timeout has drained the pools.
  const std::size_t first_burst = events.size();
  for (std::size_t i = 0; i < first_burst; ++i) {
    faas::TraceEvent e = events[i];
    e.at += sim::Duration::seconds(120);
    events.push_back(std::move(e));
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const auto& a, const auto& b) { return a.at < b.at; });

  faas::VectorTraceSource source{events};
  const faas::StreamReplayResult result =
      faas::replay_trace_stream(platform, source);

  // Every request answered successfully.
  EXPECT_EQ(result.responses_ok, events.size());
  EXPECT_EQ(result.responses_rejected, 0u);

  // The noop pool floor absorbed its first burst warm; the other functions
  // cold-started at least twice (once per burst).
  const auto& stats = platform.stats();
  EXPECT_GE(stats.cold_starts, 4u);
  EXPECT_EQ(stats.oom_kills, 0u);
  EXPECT_EQ(stats.restore_fallbacks, 0u);

  // Containers exist for every live replica, one each.
  std::uint32_t replicas = 0;
  for (const auto* fn : {"markdown-render", "image-resizer", "noop"})
    replicas += platform.replica_count(fn);
  EXPECT_EQ(platform.containers().count(), replicas);

  // Drain all pending events (idle reclaim): everything but the pinned noop
  // pool is released, and resource accounting returns to just that floor.
  sim.run();
  EXPECT_EQ(platform.replica_count("markdown-render"), 0u);
  EXPECT_EQ(platform.replica_count("image-resizer"), 0u);
  EXPECT_EQ(platform.replica_count("noop"), 1u);  // min-idle floor
  EXPECT_EQ(platform.containers().count(), 1u);
  EXPECT_GT(platform.resources().total_mem_used(), 0u);

  // Latency sanity: prebaked resizer cold starts stayed well under its
  // vanilla start-up (~310 ms + container provisioning).
  std::vector<double> resizer_cold;
  for (const auto& m : platform.request_log())
    if (m.function == "image-resizer" && m.cold_start)
      resizer_cold.push_back(m.startup.to_millis());
  ASSERT_FALSE(resizer_cold.empty());
  EXPECT_LT(stats::median(resizer_cold), 150.0);
}

TEST(Integration, WorkflowOverContainerizedPrebakedFleet) {
  sim::Simulation sim;
  os::Kernel kernel{sim, exp::testbed_costs()};
  faas::PlatformConfig cfg;
  cfg.containerized = true;
  faas::Platform platform{kernel, exp::testbed_runtime(), cfg, 7};
  platform.resources().add_node("n", 16ull << 30);
  platform.deploy(exp::markdown_spec(), faas::StartMode::kPrebaked,
                  core::SnapshotPolicy::warmup(1));
  platform.deploy(exp::noop_spec(), faas::StartMode::kPrebaked,
                  core::SnapshotPolicy::warmup(1));

  faas::WorkflowEngine engine{platform};
  engine.register_workflow({"render-ack", {"markdown-render", "noop"}});

  funcs::Response final_res;
  faas::WorkflowMetrics metrics;
  bool done = false;
  engine.run("render-ack", funcs::sample_request("markdown"),
             [&](const funcs::Response& res, const faas::WorkflowMetrics& m) {
               final_res = res;
               metrics = m;
               done = true;
             });
  while (!done && sim.step()) {
  }
  ASSERT_TRUE(done);
  EXPECT_TRUE(final_res.ok());
  EXPECT_EQ(metrics.cold_starts, 2u);
  EXPECT_EQ(platform.containers().count(), 2u);
  // Both stages' replicas were restored from privileged containers.
  EXPECT_EQ(platform.stats().restore_fallbacks, 0u);
}

}  // namespace
}  // namespace prebake
