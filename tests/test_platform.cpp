#include "faas/platform.hpp"

#include <gtest/gtest.h>

#include "exp/calibration.hpp"
#include "faas/trace_source.hpp"

namespace prebake::faas {
namespace {

constexpr std::uint64_t GiB = 1024ull * 1024 * 1024;

class PlatformTest : public ::testing::Test {
 protected:
  PlatformTest()
      : kernel_{sim_, exp::testbed_costs()},
        platform_{kernel_, exp::testbed_runtime(), PlatformConfig{}, 99} {
    platform_.resources().add_node("node-1", 8 * GiB);
  }

  funcs::Response invoke_sync(const std::string& fn) {
    funcs::Response out;
    bool done = false;
    platform_.invoke(fn, funcs::sample_request("noop"),
                     [&](const funcs::Response& res, const RequestMetrics&) {
                       out = res;
                       done = true;
                     });
    // Service completion is delivered as an event; pump until it lands.
    while (!done && kernel_.sim().step()) {
    }
    EXPECT_TRUE(done);
    return out;
  }

  sim::Simulation sim_;
  os::Kernel kernel_;
  Platform platform_;
};

TEST_F(PlatformTest, DeployVanillaAndInvoke) {
  platform_.deploy(exp::noop_spec(), StartMode::kVanilla);
  EXPECT_TRUE(platform_.registry().has("noop"));
  const funcs::Response res = invoke_sync("noop");
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(platform_.stats().invocations, 1u);
  EXPECT_EQ(platform_.stats().cold_starts, 1u);
}

TEST_F(PlatformTest, DeployPrebakedBakesSnapshot) {
  platform_.deploy(exp::noop_spec(), StartMode::kPrebaked,
                   core::SnapshotPolicy::warmup(1));
  EXPECT_TRUE(platform_.snapshots().has("noop", core::SnapshotPolicy::warmup(1)));
}

TEST_F(PlatformTest, UnknownFunctionThrows) {
  EXPECT_THROW(platform_.invoke("nope", funcs::Request{}, [](auto&&...) {}),
               std::out_of_range);
}

TEST_F(PlatformTest, SecondInvocationIsWarm) {
  platform_.deploy(exp::noop_spec(), StartMode::kVanilla);
  invoke_sync("noop");
  invoke_sync("noop");
  EXPECT_EQ(platform_.stats().invocations, 2u);
  EXPECT_EQ(platform_.stats().cold_starts, 1u);
  ASSERT_EQ(platform_.request_log().size(), 2u);
  EXPECT_TRUE(platform_.request_log()[0].cold_start);
  EXPECT_FALSE(platform_.request_log()[1].cold_start);
  EXPECT_LT(platform_.request_log()[1].total.to_millis(),
            platform_.request_log()[0].total.to_millis());
}

TEST_F(PlatformTest, PrebakedColdStartFasterThanVanilla) {
  platform_.deploy(exp::noop_spec(), StartMode::kVanilla);
  rt::FunctionSpec prebaked_spec = exp::noop_spec();
  prebaked_spec.name = "noop-prebaked";
  platform_.deploy(prebaked_spec, StartMode::kPrebaked,
                   core::SnapshotPolicy::warmup(1));

  invoke_sync("noop");
  invoke_sync("noop-prebaked");
  const auto& log = platform_.request_log();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_GT(log[0].startup.to_millis(), log[1].startup.to_millis() * 1.4);
}

TEST_F(PlatformTest, ScaleUpCreatesIdleReplicas) {
  platform_.deploy(exp::noop_spec(), StartMode::kVanilla);
  platform_.scale_up("noop", 3);
  EXPECT_EQ(platform_.replica_count("noop"), 3u);
  // Start-up runs on the node's timeline; pump the simulation to realize it.
  kernel_.sim().run_until(kernel_.sim().now() + sim::Duration::seconds(2));
  EXPECT_EQ(platform_.idle_replica_count("noop"), 3u);
  // A pre-warmed invocation is not a cold start.
  invoke_sync("noop");
  EXPECT_EQ(platform_.stats().cold_starts, 0u);
}

TEST_F(PlatformTest, OneRequestPerReplicaScalesOut) {
  // Two interleaved requests in one event turn need two replicas.
  platform_.deploy(exp::noop_spec(), StartMode::kVanilla);
  platform_.scale_up("noop", 1);
  kernel_.sim().run_until(kernel_.sim().now() + sim::Duration::seconds(2));
  int responses = 0;
  kernel_.sim().schedule_in(sim::Duration::millis(1), [&] {
    platform_.invoke("noop", funcs::Request{},
                     [&](const funcs::Response&, const RequestMetrics&) {
                       ++responses;
                     });
  });
  kernel_.sim().schedule_in(sim::Duration::millis(1), [&] {
    platform_.invoke("noop", funcs::Request{},
                     [&](const funcs::Response&, const RequestMetrics&) {
                       ++responses;
                     });
  });
  while (responses < 2 && kernel_.sim().step()) {
  }
  EXPECT_EQ(responses, 2);
  // The second request arrived while the first replica was busy serving, so
  // the platform scaled out to a second replica.
  EXPECT_EQ(platform_.replica_count("noop"), 2u);
}

TEST_F(PlatformTest, IdleReplicasAreReclaimed) {
  platform_.deploy(exp::noop_spec(), StartMode::kVanilla);
  invoke_sync("noop");
  EXPECT_EQ(platform_.replica_count("noop"), 1u);
  const std::uint64_t used = platform_.resources().total_mem_used();
  EXPECT_GT(used, 0u);
  // Run past the idle timeout.
  kernel_.sim().run();
  EXPECT_EQ(platform_.replica_count("noop"), 0u);
  EXPECT_EQ(platform_.resources().total_mem_used(), 0u);
  EXPECT_EQ(platform_.stats().replicas_reclaimed, 1u);
}

TEST_F(PlatformTest, ActivityPushesIdleTimeoutOut) {
  PlatformConfig cfg;
  cfg.idle_timeout = sim::Duration::seconds(10);
  Platform p{kernel_, exp::testbed_runtime(), cfg, 7};
  p.resources().add_node("n", 8 * GiB);
  p.deploy(exp::noop_spec(), StartMode::kVanilla);

  // Invoke at t=0 and t=8s; the replica must survive to at least 18s.
  int responses = 0;
  auto cb = [&](const funcs::Response&, const RequestMetrics&) { ++responses; };
  p.invoke("noop", funcs::Request{}, cb);
  kernel_.sim().schedule_in(sim::Duration::seconds(8), [&] {
    EXPECT_EQ(p.replica_count("noop"), 1u);
    p.invoke("noop", funcs::Request{}, cb);
  });
  kernel_.sim().run();
  EXPECT_EQ(responses, 2);
  EXPECT_EQ(p.replica_count("noop"), 0u);  // eventually reclaimed
  EXPECT_EQ(p.stats().replicas_started, 1u);
}

TEST_F(PlatformTest, MemoryAccountingPerMode) {
  platform_.deploy(exp::image_resizer_spec(), StartMode::kPrebaked,
                   core::SnapshotPolicy::no_warmup());
  platform_.scale_up("image-resizer", 1);
  // The prebaked resizer replica accounts for its ~100 MiB snapshot.
  EXPECT_GT(platform_.resources().total_mem_used(), 100ull * 1024 * 1024);
}

TEST_F(PlatformTest, CorruptSnapshotFallsBackToVanilla) {
  platform_.deploy(exp::noop_spec(), StartMode::kPrebaked,
                   core::SnapshotPolicy::warmup(1));
  // Flip a byte in the stored snapshot's inventory image.
  core::BakedSnapshot& snap =
      platform_.snapshots().get_mutable("noop", core::SnapshotPolicy::warmup(1));
  criu::ImageDir corrupted;
  for (const auto& [name, f] : snap.images.files()) {
    auto bytes = f.bytes;
    if (name == "inventory.img") bytes[bytes.size() / 2] ^= 0xFF;
    corrupted.put(name, std::move(bytes), f.nominal_size);
  }
  snap.images = std::move(corrupted);

  // The invocation still succeeds, via the Vanilla fallback.
  const funcs::Response res = invoke_sync("noop");
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(platform_.stats().restore_fallbacks, 1u);
  EXPECT_EQ(platform_.stats().cold_starts, 1u);
}

TEST_F(PlatformTest, MinIdleKeepsPoolWarmPastTimeout) {
  PlatformConfig cfg;
  cfg.idle_timeout = sim::Duration::seconds(5);
  Platform p{kernel_, exp::testbed_runtime(), cfg, 5};
  p.resources().add_node("n", 8 * GiB);
  p.deploy(exp::noop_spec(), StartMode::kVanilla);
  p.set_min_idle("noop", 2);
  kernel_.sim().run_until(kernel_.sim().now() + sim::Duration::seconds(2));
  EXPECT_EQ(p.idle_replica_count("noop"), 2u);
  // Run far past the idle timeout: the pool floor survives.
  kernel_.sim().run_until(kernel_.sim().now() + sim::Duration::seconds(120));
  EXPECT_EQ(p.idle_replica_count("noop"), 2u);
  EXPECT_EQ(p.stats().replicas_reclaimed, 0u);
}

TEST_F(PlatformTest, MinIdleUnknownFunctionThrows) {
  EXPECT_THROW(platform_.set_min_idle("ghost", 1), std::out_of_range);
}

TEST_F(PlatformTest, ExcessAboveMinIdleIsStillReclaimed) {
  PlatformConfig cfg;
  cfg.idle_timeout = sim::Duration::seconds(5);
  Platform p{kernel_, exp::testbed_runtime(), cfg, 6};
  p.resources().add_node("n", 8 * GiB);
  p.deploy(exp::noop_spec(), StartMode::kVanilla);
  p.set_min_idle("noop", 1);
  p.scale_up("noop", 4);
  kernel_.sim().run_until(kernel_.sim().now() + sim::Duration::seconds(2));
  EXPECT_EQ(p.idle_replica_count("noop"), 4u);
  kernel_.sim().run_until(kernel_.sim().now() + sim::Duration::seconds(120));
  EXPECT_EQ(p.idle_replica_count("noop"), 1u);
  EXPECT_EQ(p.stats().replicas_reclaimed, 3u);
}

// Open-loop Poisson traffic through the one open-loop driver.
StreamReplayResult replay_poisson(Platform& platform, double rate_hz,
                                  sim::Duration duration, std::uint64_t seed) {
  PoissonTraceSource arrivals{"noop", rate_hz, duration, sim::Rng{seed}};
  return replay_trace_stream(platform, arrivals);
}

TEST_F(PlatformTest, OpenLoopDriverDeliversAllArrivals) {
  platform_.deploy(exp::noop_spec(), StartMode::kVanilla);
  const double mem_before = platform_.fleet_mem_byte_seconds();
  const StreamReplayResult result =
      replay_poisson(platform_, 20.0, sim::Duration::seconds(10), 11);
  // ~200 expected arrivals; all answered, none rejected, memory tracked.
  EXPECT_GT(result.responses_ok, 150u);
  EXPECT_EQ(result.responses_ok, result.events);
  EXPECT_EQ(result.responses_rejected, 0u);
  EXPECT_EQ(platform_.request_log().size(), result.responses_ok);
  EXPECT_GT(platform_.fleet_mem_byte_seconds(), mem_before);
  EXPECT_GE(result.makespan.to_seconds(), 9.0);
}

TEST_F(PlatformTest, OpenLoopDeterministicPerSeed) {
  platform_.deploy(exp::noop_spec(), StartMode::kVanilla);
  const StreamReplayResult a =
      replay_poisson(platform_, 5.0, sim::Duration::seconds(5), 21);
  // A different seed shifts the arrival count with high probability.
  const StreamReplayResult b =
      replay_poisson(platform_, 5.0, sim::Duration::seconds(5), 22);
  EXPECT_NE(a.responses_ok + 1000 * a.responses_rejected,
            b.responses_ok + 1000 * b.responses_rejected);
}

TEST_F(PlatformTest, RedeployBumpsVersion) {
  platform_.deploy(exp::noop_spec(), StartMode::kVanilla);
  EXPECT_EQ(platform_.registry().get("noop").version, 1u);
  platform_.deploy(exp::noop_spec(), StartMode::kPrebaked,
                   core::SnapshotPolicy::warmup(1));
  EXPECT_EQ(platform_.registry().get("noop").version, 2u);
  EXPECT_EQ(platform_.registry().get("noop").mode, StartMode::kPrebaked);
}

}  // namespace
}  // namespace prebake::faas
