// Production-scale scenario runner (DESIGN.md §6h): determinism across
// thread counts, the memory-bound guarantee (engine footprint tracks the
// active set, not the trace length), and the policy knobs.
#include <gtest/gtest.h>

#include "exp/scale.hpp"

using namespace prebake;

namespace {

exp::ScaleScenarioConfig small_config() {
  exp::ScaleScenarioConfig cfg;
  cfg.functions = 50;
  cfg.requests = 10'000;
  cfg.rate_hz = 20.0;
  cfg.zipf_s = 1.0;
  cfg.nodes = 4;
  cfg.seed = 17;
  return cfg;
}

bool same_result(const exp::ScaleScenarioResult& a,
                 const exp::ScaleScenarioResult& b) {
  return a.requests == b.requests && a.responses_ok == b.responses_ok &&
         a.rejected == b.rejected && a.cold_starts == b.cold_starts &&
         a.replicas_started == b.replicas_started &&
         a.total_p50_ms == b.total_p50_ms && a.total_p99_ms == b.total_p99_ms &&
         a.total_p999_ms == b.total_p999_ms &&
         a.mem_byte_seconds == b.mem_byte_seconds &&
         a.makespan_s == b.makespan_s &&
         a.peak_pending_events == b.peak_pending_events &&
         a.peak_replicas == b.peak_replicas;
}

}  // namespace

TEST(ScaleScenario, AnswersEveryRequest) {
  const exp::ScaleScenarioResult r = exp::run_scale_scenario(small_config());
  EXPECT_EQ(r.requests, 10'000u);
  EXPECT_EQ(r.responses_ok + r.rejected, r.requests);
  EXPECT_GT(r.cold_starts, 0u);
  EXPECT_GT(r.mem_byte_seconds, 0.0);
  EXPECT_EQ(r.functions_deployed, 50u);
  EXPECT_GT(r.functions_invoked, 40u);  // Zipf tail still gets sampled
  ASSERT_EQ(r.hottest.size(), 10u);
  EXPECT_EQ(r.hottest.front().function, "fn-0");
  EXPECT_GE(r.hottest.front().requests, r.hottest.back().requests);
}

TEST(ScaleScenario, DeterministicAcrossRuns) {
  const exp::ScaleScenarioResult a = exp::run_scale_scenario(small_config());
  const exp::ScaleScenarioResult b = exp::run_scale_scenario(small_config());
  EXPECT_TRUE(same_result(a, b));
}

TEST(ScaleScenario, ThreadCountDoesNotChangeResults) {
  // The scenario is one simulation; its threads field must be inert on the
  // numbers.
  exp::ScaleScenarioConfig cfg = small_config();
  cfg.threads = 1;
  const exp::ScaleScenarioResult one = exp::run_scale_scenario(cfg);
  cfg.threads = 4;
  const exp::ScaleScenarioResult four = exp::run_scale_scenario(cfg);
  EXPECT_TRUE(same_result(one, four));
}

TEST(ScaleScenario, MemoryFootprintTracksActiveSetNotTraceLength) {
  // Quadruple the trace; the engine's peak pending events and replica
  // count must stay in the same band — the witnesses that nothing
  // accumulates per-request. (The platform aggregates, so there is no
  // request log; the replay's per-function map is bounded by the fleet.)
  exp::ScaleScenarioConfig short_cfg = small_config();
  exp::ScaleScenarioConfig long_cfg = small_config();
  long_cfg.requests = 40'000;

  const exp::ScaleScenarioResult s = exp::run_scale_scenario(short_cfg);
  const exp::ScaleScenarioResult l = exp::run_scale_scenario(long_cfg);
  EXPECT_EQ(l.responses_ok + l.rejected, 40'000u);
  // O(active replicas + functions) with a generous constant; a per-request
  // leak would put these at O(10^4).
  EXPECT_LE(l.peak_pending_events, 64 * (l.peak_replicas + long_cfg.functions));
  EXPECT_LE(l.peak_pending_events, 4 * s.peak_pending_events + 1024);
  EXPECT_LE(l.peak_replicas, 2u * long_cfg.functions);
}

TEST(ScaleScenario, PolicyKnobsShapeTheRun) {
  exp::ScaleScenarioConfig cfg = small_config();

  cfg.policy = exp::KeepAlivePolicy::kPrebaked;
  const exp::ScaleScenarioResult pre = exp::run_scale_scenario(cfg);
  cfg.policy = exp::KeepAlivePolicy::kKeepAlive;
  const exp::ScaleScenarioResult keep = exp::run_scale_scenario(cfg);
  cfg.policy = exp::KeepAlivePolicy::kWarmPool;
  const exp::ScaleScenarioResult pool = exp::run_scale_scenario(cfg);

  // Long keep-alive and the warm pool trade memory for cold starts.
  EXPECT_LT(keep.cold_start_rate, pre.cold_start_rate);
  EXPECT_LE(pool.cold_start_rate, keep.cold_start_rate);
  EXPECT_GT(keep.mem_byte_seconds, pre.mem_byte_seconds);
  // Prebaked cold starts restore; Vanilla cold starts boot the runtime.
  EXPECT_LT(pre.cold_startup_p50_ms, keep.cold_startup_p50_ms);
}

TEST(ScaleScenario, ValidatesConfig) {
  exp::ScaleScenarioConfig cfg = small_config();
  cfg.functions = 0;
  EXPECT_THROW(exp::run_scale_scenario(cfg), std::invalid_argument);
  cfg = small_config();
  cfg.requests = 0;
  EXPECT_THROW(exp::run_scale_scenario(cfg), std::invalid_argument);
}

TEST(ScaleScenario, PolicyNames) {
  EXPECT_STREQ(exp::keep_alive_policy_name(exp::KeepAlivePolicy::kPrebaked),
               "prebaked");
  EXPECT_STREQ(exp::keep_alive_policy_name(exp::KeepAlivePolicy::kKeepAlive),
               "keepalive");
  EXPECT_STREQ(exp::keep_alive_policy_name(exp::KeepAlivePolicy::kWarmPool),
               "warmpool");
  EXPECT_STREQ(exp::keep_alive_policy_name(exp::KeepAlivePolicy::kCowClone),
               "cowclone");
}

TEST(ScaleScenario, TraceCaptureDoesNotPerturbResults) {
  const exp::ScaleScenarioResult bare = exp::run_scale_scenario(small_config());
  obs::TraceReport trace;
  const exp::ScaleScenarioResult traced =
      exp::run_scale_scenario(small_config(), &trace);
  EXPECT_TRUE(same_result(bare, traced));
  EXPECT_FALSE(trace.spans.empty());
}
