// Fault injection and the resilient restore path. Every suite here is
// prefixed "Chaos" so `ctest -L chaos` / `--gtest_filter=Chaos*` runs the
// whole layer in one pass.
#include <gtest/gtest.h>

#include "core/prebaker.hpp"
#include "core/startup.hpp"
#include "exp/calibration.hpp"
#include "exp/cluster.hpp"
#include "faas/builder.hpp"
#include "faas/platform.hpp"
#include "os/faults.hpp"
#include "util/thread_pool.hpp"

namespace prebake {
namespace {

// --- Injector units --------------------------------------------------------

TEST(ChaosInjector, DefaultPlanIsDisabledNoOp) {
  faults::Injector inj;
  EXPECT_FALSE(inj.enabled());
  for (int i = 0; i < 100; ++i)
    EXPECT_FALSE(inj.fires(faults::FaultSite::kImageCorruption));
  // Disabled means zero work: no draws consumed, no trace, jitter pinned 0.
  EXPECT_EQ(inj.draws(faults::FaultSite::kImageCorruption), 0u);
  EXPECT_EQ(inj.total_fired(), 0u);
  EXPECT_TRUE(inj.trace().empty());
  EXPECT_EQ(inj.jitter(), 0.0);
}

TEST(ChaosInjector, RateEndpointsAreExact) {
  os::FaultPlan plan;
  plan.image_corruption_rate = 1.0;
  plan.registry_stall_rate = 0.0;
  faults::Injector inj;
  inj.configure(plan);
  for (int i = 0; i < 50; ++i) {
    EXPECT_TRUE(inj.fires(faults::FaultSite::kImageCorruption));
    EXPECT_FALSE(inj.fires(faults::FaultSite::kRegistryStall));
  }
  EXPECT_EQ(inj.fired(faults::FaultSite::kImageCorruption), 50u);
  EXPECT_EQ(inj.fired(faults::FaultSite::kRegistryStall), 0u);
}

TEST(ChaosInjector, SameSeedSamePlanSameTrace) {
  os::FaultPlan plan;
  plan.seed = 7;
  plan.image_corruption_rate = 0.3;
  plan.image_read_error_rate = 0.2;
  auto drive = [&plan] {
    faults::Injector inj;
    inj.configure(plan);
    for (int i = 0; i < 500; ++i) {
      inj.fires(faults::FaultSite::kImageCorruption);
      if (i % 3 == 0) inj.fires(faults::FaultSite::kImageReadError);
    }
    return inj.trace();
  };
  const auto a = drive();
  const auto b = drive();
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(ChaosInjector, SiteStreamsAreIndependent) {
  // Extra draws at one site must not perturb another site's outcomes: each
  // site's decisions depend only on (seed, site, own draw index).
  os::FaultPlan plan;
  plan.image_corruption_rate = 0.5;
  plan.registry_stall_rate = 0.5;

  faults::Injector plain;
  plain.configure(plan);
  std::vector<bool> baseline;
  for (int i = 0; i < 200; ++i)
    baseline.push_back(plain.fires(faults::FaultSite::kRegistryStall));

  faults::Injector noisy;
  noisy.configure(plan);
  std::vector<bool> interleaved;
  for (int i = 0; i < 200; ++i) {
    noisy.fires(faults::FaultSite::kImageCorruption);  // extra traffic
    noisy.fires(faults::FaultSite::kImageCorruption);
    interleaved.push_back(noisy.fires(faults::FaultSite::kRegistryStall));
  }
  EXPECT_EQ(baseline, interleaved);
}

TEST(ChaosInjector, EmpiricalRateTracksPlan) {
  os::FaultPlan plan;
  plan.image_corruption_rate = 0.1;
  faults::Injector inj;
  inj.configure(plan);
  for (int i = 0; i < 20000; ++i)
    inj.fires(faults::FaultSite::kImageCorruption);
  const double hit = static_cast<double>(
                         inj.fired(faults::FaultSite::kImageCorruption)) /
                     20000.0;
  EXPECT_NEAR(hit, 0.1, 0.01);
}

TEST(ChaosInjector, ResetKeepsPlanDropsCounters) {
  os::FaultPlan plan;
  plan.image_corruption_rate = 1.0;
  faults::Injector inj;
  inj.configure(plan);
  inj.fires(faults::FaultSite::kImageCorruption);
  inj.reset();
  EXPECT_TRUE(inj.enabled());
  EXPECT_EQ(inj.total_fired(), 0u);
  EXPECT_TRUE(inj.trace().empty());
  // Post-reset the draw streams restart from index 0: same decisions again.
  EXPECT_TRUE(inj.fires(faults::FaultSite::kImageCorruption));
  EXPECT_EQ(inj.trace().front().draw, 0u);
}

// --- StartupService: retry / deadline / fallback ---------------------------

class ChaosStartup : public ::testing::Test {
 protected:
  ChaosStartup()
      : kernel_{sim_, exp::testbed_costs()},
        startup_{kernel_, exp::testbed_runtime(), assets_},
        builder_{kernel_, startup_} {}

  core::BakedSnapshot bake(const rt::FunctionSpec& spec) {
    core::PrebakeConfig cfg;
    cfg.policy = core::SnapshotPolicy::no_warmup();
    faas::BuildResult built = builder_.build(spec, cfg, sim::Rng{2});
    baked_spec_ = built.spec;
    return std::move(*built.snapshot);
  }

  static criu::ImageDir drop_file(const criu::ImageDir& src,
                                  const std::string& name) {
    criu::ImageDir out;
    for (const std::string& n : src.names()) {
      if (n == name) continue;
      const auto& f = src.get(n);
      out.put(n, f.bytes, f.nominal_size);
    }
    return out;
  }

  sim::Simulation sim_;
  os::Kernel kernel_;
  funcs::SharedAssets assets_;
  core::StartupService startup_;
  faas::FunctionBuilder builder_;
  rt::FunctionSpec baked_spec_;
};

TEST_F(ChaosStartup, MissingImageFileThrowsTypedError) {
  const core::BakedSnapshot snap = bake(exp::noop_spec());
  const criu::ImageDir broken = drop_file(snap.images, "files.img");

  core::PrebakedStartOptions opts;
  opts.restore.fs_prefix = snap.fs_prefix;
  try {
    startup_.start_prebaked(baked_spec_, broken, opts, sim::Rng{4});
    FAIL() << "start_prebaked accepted a snapshot without files.img";
  } catch (const criu::RestoreError& e) {
    EXPECT_EQ(e.kind(), criu::RestoreErrorKind::kMissingImage);
  }
}

TEST_F(ChaosStartup, RetriesAbsorbTransientReadErrors) {
  const core::BakedSnapshot snap = bake(exp::noop_spec());
  os::FaultPlan plan;
  plan.image_read_error_rate = 0.3;
  kernel_.faults().configure(plan);

  core::PrebakedStartOptions opts;
  opts.restore.fs_prefix = snap.fs_prefix;
  opts.policy.max_attempts = 50;
  core::ReplicaProcess rep =
      startup_.start_prebaked(baked_spec_, snap.images, opts, sim::Rng{4});

  EXPECT_NE(rep.pid, os::kNoPid);
  EXPECT_FALSE(rep.breakdown.fell_back_to_vanilla);
  ASSERT_GT(kernel_.faults().total_fired(), 0u);  // faults did hit this start
  EXPECT_GT(rep.breakdown.restore_attempts, 1u);
  EXPECT_GT(rep.breakdown.fault_time.to_millis(), 0.0);
}

TEST_F(ChaosStartup, ExhaustedRetriesFallBackToVanilla) {
  const core::BakedSnapshot snap = bake(exp::noop_spec());
  os::FaultPlan plan;
  plan.image_corruption_rate = 1.0;  // every attempt sees a corrupt record
  kernel_.faults().configure(plan);

  core::PrebakedStartOptions opts;
  opts.restore.fs_prefix = snap.fs_prefix;
  opts.policy.max_attempts = 3;
  opts.policy.fallback_to_vanilla = true;
  core::ReplicaProcess rep =
      startup_.start_prebaked(baked_spec_, snap.images, opts, sim::Rng{4});

  EXPECT_TRUE(rep.breakdown.fell_back_to_vanilla);
  EXPECT_EQ(rep.breakdown.restore_attempts, 3u);
  EXPECT_GT(rep.breakdown.fault_time.to_millis(), 0.0);
  // The fallback replica is a real Vanilla start that can serve.
  EXPECT_NE(rep.pid, os::kNoPid);
  EXPECT_GT(rep.breakdown.rts_time.to_millis(), 0.0);
  // Total covers the whole start including the wasted restore attempts.
  EXPECT_GE(rep.breakdown.total.to_millis(),
            rep.breakdown.fault_time.to_millis());
}

TEST_F(ChaosStartup, WithoutFallbackTheTypedErrorPropagates) {
  const core::BakedSnapshot snap = bake(exp::noop_spec());
  os::FaultPlan plan;
  plan.image_corruption_rate = 1.0;
  kernel_.faults().configure(plan);

  core::PrebakedStartOptions opts;
  opts.restore.fs_prefix = snap.fs_prefix;
  opts.policy.max_attempts = 2;
  try {
    startup_.start_prebaked(baked_spec_, snap.images, opts, sim::Rng{4});
    FAIL() << "restore of always-corrupt images succeeded";
  } catch (const criu::RestoreError& e) {
    EXPECT_EQ(e.kind(), criu::RestoreErrorKind::kCorruptImage);
  }
}

TEST_F(ChaosStartup, DeadlineShortCircuitsRetryBudget) {
  const core::BakedSnapshot snap = bake(exp::noop_spec());
  os::FaultPlan plan;
  plan.image_corruption_rate = 1.0;
  kernel_.faults().configure(plan);

  core::PrebakedStartOptions opts;
  opts.restore.fs_prefix = snap.fs_prefix;
  opts.policy.max_attempts = 100;
  opts.policy.deadline = sim::Duration::millis(1);
  opts.policy.fallback_to_vanilla = true;
  core::ReplicaProcess rep =
      startup_.start_prebaked(baked_spec_, snap.images, opts, sim::Rng{4});

  EXPECT_TRUE(rep.breakdown.fell_back_to_vanilla);
  // The deadline cut the 100-attempt budget after a couple of tries.
  EXPECT_LT(rep.breakdown.restore_attempts, 5u);
}

TEST_F(ChaosStartup, NonTransientFaultSkipsRetries) {
  const core::BakedSnapshot snap = bake(exp::noop_spec());
  // Truncate the persisted payload: deterministically unrecoverable, so
  // retrying is pointless and the policy must short-circuit.
  const std::string path = snap.fs_prefix + "pages-1.img";
  kernel_.fs().truncate(path, kernel_.fs().size_of(path) / 2);

  core::PrebakedStartOptions opts;
  opts.restore.fs_prefix = snap.fs_prefix;
  opts.policy.max_attempts = 10;
  opts.policy.fallback_to_vanilla = true;
  core::ReplicaProcess rep =
      startup_.start_prebaked(baked_spec_, snap.images, opts, sim::Rng{4});
  EXPECT_TRUE(rep.breakdown.fell_back_to_vanilla);
  EXPECT_EQ(rep.breakdown.restore_attempts, 1u);  // no futile retries
}

TEST_F(ChaosStartup, ImageFileMissingFromDiskFailsTypedAndFallsBack) {
  const core::BakedSnapshot snap = bake(exp::noop_spec());
  // The image directory lists mm.img, but its persisted copy is gone.
  kernel_.fs().remove(snap.fs_prefix + "mm.img");

  core::PrebakedStartOptions opts;
  opts.restore.fs_prefix = snap.fs_prefix;
  try {
    criu::Restorer{kernel_}.restore(snap.images, opts.restore);
    FAIL() << "restore read an image file that is not on disk";
  } catch (const criu::RestoreError& e) {
    EXPECT_EQ(e.kind(), criu::RestoreErrorKind::kMissingImage);
    EXPECT_EQ(e.chain_link(), -1);  // a single-image restore
  }

  // Not transient: the start skips futile retries and falls back.
  opts.policy.max_attempts = 10;
  opts.policy.fallback_to_vanilla = true;
  core::ReplicaProcess rep =
      startup_.start_prebaked(baked_spec_, snap.images, opts, sim::Rng{4});
  EXPECT_TRUE(rep.breakdown.fell_back_to_vanilla);
  EXPECT_EQ(rep.breakdown.restore_attempts, 1u);
}

// --- Platform: fail_node retry accounting (satellite) ----------------------

TEST(ChaosPlatform, RequeuedRequestCountsRetryNotQueueWait) {
  sim::Simulation sim;
  os::Kernel kernel{sim, exp::testbed_costs()};
  faas::Platform platform{kernel, exp::testbed_runtime(),
                          faas::PlatformConfig{}, 99};
  platform.resources().add_node("a", 8ull << 30);
  platform.resources().add_node("b", 8ull << 30);
  platform.deploy(exp::image_resizer_spec(), faas::StartMode::kVanilla);

  faas::RequestMetrics metrics;
  bool done = false;
  platform.invoke(
      "image-resizer",
      funcs::sample_request(
          platform.registry().get("image-resizer").spec.handler_id),
      [&](const funcs::Response& res, const faas::RequestMetrics& m) {
        EXPECT_TRUE(res.ok());
        metrics = m;
        done = true;
      });

  // Fail the serving node once the request is actually being served.
  struct Poller {
    sim::Simulation* sim;
    faas::Platform* platform;
    sim::TimePoint* failed_at;
    bool failed = false;
    void operator()() {
      if (failed) return;
      const bool busy = platform->replica_count("image-resizer") >
                        platform->idle_replica_count("image-resizer") +
                            platform->starting_replica_count("image-resizer");
      if (busy) {
        for (const faas::WorkerNode& n : platform->resources().nodes())
          if (n.replicas() > 0) {
            failed = true;
            *failed_at = sim->now();
            platform->fail_node(n.id());
            return;
          }
      }
      sim->schedule_in(sim::Duration::millis(1), *this);
    }
  };
  sim::TimePoint failed_at;
  sim.schedule_in(sim::Duration::millis(1),
                  Poller{&sim, &platform, &failed_at});
  while (!done && sim.step()) {
  }
  ASSERT_TRUE(done);

  // The requeue is accounted as a retry...
  EXPECT_EQ(metrics.retries, 1u);
  EXPECT_EQ(platform.stats().requests_requeued, 1u);
  // ...and queueing delay restarts at the failure, instead of inheriting
  // the doomed first attempt's wait (the bug this satellite fixes): the
  // recorded wait fits between the node failure and the response.
  EXPECT_LE(metrics.queue_wait.to_millis(),
            (sim.now() - failed_at).to_millis());
  ASSERT_EQ(platform.request_log().size(), 1u);
  EXPECT_EQ(platform.request_log()[0].retries, 1u);
}

// --- Platform: a truncated node-local copy heals ----------------------------

// One node's registry copy of pages-1.img is cut to half its nominal size
// before the first request. The first start fails typed and falls back; the
// breaker quarantines the snapshot and the re-bake removes the poisoned node
// copy, so every later start fetches fresh images and restores. Templates
// (page_store) must not hide the node copy from the re-bake.
void expect_truncated_node_copy_heals(bool page_store) {
  SCOPED_TRACE(page_store ? "page_store on" : "page_store off");
  sim::Simulation sim;
  os::Kernel kernel{sim, exp::testbed_costs()};
  faas::PlatformConfig cfg;
  cfg.remote_registry = true;
  cfg.page_store = page_store;
  cfg.quarantine_threshold = 1;
  cfg.idle_timeout = sim::Duration::seconds(1);
  faas::Platform platform{kernel, exp::testbed_runtime(), cfg, 99};
  const faas::NodeId node = platform.resources().add_node("w1", 8ull << 30);
  const core::SnapshotPolicy policy = core::SnapshotPolicy::warmup(1);
  platform.deploy(exp::noop_spec(), faas::StartMode::kPrebaked, policy);
  const core::BakedSnapshot& snap = platform.snapshots().get("noop", policy);
  kernel.fs().create(
      platform.node_image_prefix(node, snap.fs_prefix) + "pages-1.img",
      snap.images.get("pages-1.img").nominal_size / 2);

  const funcs::Request req = funcs::sample_request(
      platform.registry().get("noop").spec.handler_id);
  for (int i = 0; i < 4; ++i) {
    bool done = false;
    platform.invoke("noop", req,
                    [&](const funcs::Response& res, const faas::RequestMetrics&) {
                      EXPECT_TRUE(res.ok());
                      done = true;
                    });
    while (!done && sim.step()) {
    }
    ASSERT_TRUE(done);
    sim.run();  // idle the replica out; the re-bake lands meanwhile
    ASSERT_EQ(platform.replica_count("noop"), 0u);
  }
  EXPECT_EQ(platform.stats().restore_fallbacks, 1u);
  EXPECT_EQ(platform.stats().snapshot_quarantines, 1u);
  EXPECT_EQ(platform.stats().snapshot_rebakes, 1u);
  const std::vector<faas::RequestMetrics>& log = platform.request_log();
  ASSERT_EQ(log.size(), 4u);
  EXPECT_TRUE(log[3].cold_start);
  EXPECT_FALSE(log[3].fallback);  // the fourth start restores
}

TEST(ChaosPlatform, TruncatedNodeCopyHealsByRebake) {
  expect_truncated_node_copy_heals(/*page_store=*/false);
  expect_truncated_node_copy_heals(/*page_store=*/true);
}

// --- Scenario level --------------------------------------------------------

// The chaos scenario: the cluster scenario with locality placement and the
// resilience policy on (three restore attempts, quarantine after three
// consecutive failures, crashed nodes back after 30 s).
exp::ClusterScenarioConfig chaos_config() {
  exp::ClusterScenarioConfig cfg;
  cfg.policy = faas::PlacementPolicy::kSnapshotLocality;
  cfg.restore_max_attempts = 3;
  cfg.quarantine_threshold = 3;
  cfg.node_recovery_delay = sim::Duration::seconds(30);
  return cfg;
}

exp::ClusterScenarioConfig short_chaos(double corruption) {
  exp::ClusterScenarioConfig cfg = chaos_config();
  cfg.duration = sim::Duration::seconds(120);
  cfg.faults.image_corruption_rate = corruption;
  cfg.faults.image_read_error_rate = corruption / 2;
  return cfg;
}

TEST(ChaosScenario, ZeroPlanMatchesClusterScenarioExactly) {
  // With an all-zero fault plan the resilience policy must be free: a run
  // with it on reproduces the plain cluster run (policy off) bit-for-bit —
  // the injector hooks cost nothing when nothing fires.
  const exp::ClusterScenarioResult c =
      exp::run_cluster_scenario(short_chaos(0.0));

  exp::ClusterScenarioConfig plain;
  plain.policy = faas::PlacementPolicy::kSnapshotLocality;
  plain.duration = sim::Duration::seconds(120);
  const exp::ClusterScenarioResult p = exp::run_cluster_scenario(plain);

  EXPECT_EQ(c.faults_injected, 0u);
  EXPECT_TRUE(c.fault_trace.empty());
  EXPECT_EQ(c.stats.restore_retries, 0u);
  EXPECT_EQ(c.stats.restore_fallbacks, 0u);

  EXPECT_EQ(c.requests, p.requests);
  EXPECT_EQ(c.answered, p.answered);
  EXPECT_EQ(c.responses_ok, p.responses_ok);
  EXPECT_EQ(c.stats.cold_starts, p.stats.cold_starts);
  EXPECT_EQ(c.stats.replicas_started, p.stats.replicas_started);
  EXPECT_EQ(c.total_p50_ms, p.total_p50_ms);
  EXPECT_EQ(c.total_p95_ms, p.total_p95_ms);
  EXPECT_EQ(c.total_p99_ms, p.total_p99_ms);
}

TEST(ChaosScenario, FaultTraceIsReproducible) {
  const exp::ClusterScenarioResult a =
      exp::run_cluster_scenario(short_chaos(0.05));
  const exp::ClusterScenarioResult b =
      exp::run_cluster_scenario(short_chaos(0.05));
  ASSERT_FALSE(a.fault_trace.empty());
  EXPECT_EQ(a.fault_trace, b.fault_trace);
  EXPECT_EQ(a.responses_ok, b.responses_ok);
  EXPECT_EQ(a.stats.restore_retries, b.stats.restore_retries);
  EXPECT_EQ(a.total_p99_ms, b.total_p99_ms);
}

TEST(ChaosScenario, FaultTraceIdenticalAcrossThreadCounts) {
  // The acceptance criterion: same seed + same plan => identical fault
  // trace at any thread count. Three sweep cells run serially, then again
  // on three threads; each cell owns its simulation so only scheduling
  // differs.
  const double rates[] = {0.02, 0.05, 0.08};
  auto sweep = [&rates](int threads) {
    std::vector<exp::ClusterScenarioResult> out(3);
    util::parallel_for(
        3,
        [&](std::size_t i) {
          out[i] = exp::run_cluster_scenario(short_chaos(rates[i]));
        },
        threads);
    return out;
  };
  const auto serial = sweep(1);
  const auto parallel = sweep(3);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(serial[i].fault_trace, parallel[i].fault_trace) << "cell " << i;
    EXPECT_EQ(serial[i].responses_ok, parallel[i].responses_ok);
    EXPECT_EQ(serial[i].total_p99_ms, parallel[i].total_p99_ms);
  }
}

TEST(ChaosScenario, NoRequestLostAtFivePercentCorruption) {
  exp::ClusterScenarioConfig cfg = short_chaos(0.05);
  cfg.duration = sim::Duration::seconds(300);
  const exp::ClusterScenarioResult r = exp::run_cluster_scenario(cfg);
  ASSERT_GT(r.requests, 0u);
  EXPECT_EQ(r.answered, r.requests);       // nothing dropped on the floor
  EXPECT_EQ(r.responses_ok, r.requests);   // and everything actually served
  EXPECT_GT(r.faults_injected, 0u);        // under real fault pressure
  EXPECT_GT(r.stats.restore_retries, 0u);
}

TEST(ChaosScenario, HeavyCorruptionTripsQuarantineAndRebake) {
  exp::ClusterScenarioConfig cfg = short_chaos(0.3);
  cfg.duration = sim::Duration::seconds(300);
  cfg.faults.truncated_write_rate = 0.2;
  const exp::ClusterScenarioResult r = exp::run_cluster_scenario(cfg);
  EXPECT_GE(r.stats.snapshot_quarantines, 1u);
  EXPECT_GE(r.stats.snapshot_rebakes, 1u);
  EXPECT_EQ(r.answered, r.requests);  // quarantine routes around, not away
  // A re-baked snapshot leaves the breaker closed again by run end, or the
  // health table still shows it quarantined mid-heal; either way the rows
  // exist for every function that ever failed.
  EXPECT_FALSE(r.snapshot_health.empty());
}

TEST(ChaosScenario, NodeCrashesAreRecoveredAndNothingIsLost) {
  // The crash draw is per replica start, so the rate must stay realistic:
  // with locality placement a whole queue's restarts land on one node, and
  // a high per-start rate crashes every batch faster than the cluster can
  // recover (LivelockEndsAtTheGraceHorizon below). At 5% the cluster sees
  // several crashes yet loses nothing.
  exp::ClusterScenarioConfig cfg = chaos_config();
  cfg.duration = sim::Duration::seconds(300);
  cfg.faults.node_crash_rate = 0.05;
  cfg.node_recovery_delay = sim::Duration::seconds(10);
  const exp::ClusterScenarioResult r = exp::run_cluster_scenario(cfg);
  EXPECT_GE(r.stats.node_crashes, 1u);
  EXPECT_GE(r.stats.node_recoveries, 1u);
  EXPECT_EQ(r.answered, r.requests);
}

TEST(ChaosScenario, LivelockEndsAtTheGraceHorizon) {
  // Every prebaked start crashes its node, and each recovery re-places the
  // requeued work, which crashes the node again. The replay must still end
  // (faas::kReplayGrace past the last arrival) and report the backlog as
  // lost rather than run forever. Host time grows with the crash/recover
  // cycles that fit in the grace horizon, hence two nodes and a 20 s
  // recovery.
  exp::ClusterScenarioConfig cfg = chaos_config();
  cfg.nodes = 2;
  cfg.duration = sim::Duration::seconds(20);
  cfg.faults.node_crash_rate = 1.0;
  cfg.node_recovery_delay = sim::Duration::seconds(20);
  const exp::ClusterScenarioResult r = exp::run_cluster_scenario(cfg);
  ASSERT_GT(r.requests, 0u);
  EXPECT_LT(r.answered, r.requests);
  EXPECT_LT(r.availability, 1.0);
  EXPECT_GT(r.stats.node_crashes, r.requests);
}

}  // namespace
}  // namespace prebake
