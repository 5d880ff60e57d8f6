// Cluster layer: worker-node timelines, snapshot locality, placement
// policies, node drain/failure, and the bounded request aggregate.
#include "faas/cluster.hpp"

#include <gtest/gtest.h>

#include "exp/calibration.hpp"
#include "exp/cluster.hpp"
#include "faas/metrics.hpp"
#include "faas/platform.hpp"

namespace prebake::faas {
namespace {

constexpr std::uint64_t MiB = 1024ull * 1024;
constexpr std::uint64_t GiB = 1024 * MiB;

// --- WorkerNode units ------------------------------------------------------

TEST(WorkerNode, OneCpuSerializesWork) {
  WorkerNode n{1, "n", GiB, /*cpus=*/1};
  const sim::TimePoint t0 = sim::TimePoint::origin();
  const sim::Duration work = sim::Duration::millis(10);
  EXPECT_EQ(n.run(t0, work), t0 + work);
  EXPECT_EQ(n.run(t0, work), t0 + work + work);  // queued behind the first
  EXPECT_EQ(n.stats().busy, work + work);
}

TEST(WorkerNode, TwoCpusOverlapThenQueue) {
  WorkerNode n{1, "n", GiB, /*cpus=*/2};
  const sim::TimePoint t0 = sim::TimePoint::origin();
  const sim::Duration work = sim::Duration::millis(10);
  EXPECT_EQ(n.run(t0, work), t0 + work);
  EXPECT_EQ(n.run(t0, work), t0 + work);          // second core
  EXPECT_EQ(n.run(t0, work), t0 + work + work);   // queued
}

TEST(WorkerNode, UncappedNeverQueues) {
  WorkerNode n{1, "n", GiB, /*cpus=*/0};
  const sim::TimePoint t0 = sim::TimePoint::origin();
  const sim::Duration work = sim::Duration::millis(10);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(n.run(t0, work), t0 + work);
  EXPECT_EQ(n.next_core_free(t0), t0);
}

TEST(WorkerNode, LaterSubmissionStartsAtNow) {
  WorkerNode n{1, "n", GiB, 1};
  const sim::TimePoint t0 = sim::TimePoint::origin();
  n.run(t0, sim::Duration::millis(5));
  const sim::TimePoint later = t0 + sim::Duration::millis(20);
  EXPECT_EQ(n.run(later, sim::Duration::millis(5)),
            later + sim::Duration::millis(5));
}

// --- Scheduler policies ----------------------------------------------------

TEST(Scheduler, RoundRobinRotates) {
  std::vector<WorkerNode> nodes;
  nodes.emplace_back(1, "a", GiB, 0);
  nodes.emplace_back(2, "b", GiB, 0);
  nodes.emplace_back(3, "c", GiB, 0);
  Scheduler s{PlacementPolicy::kRoundRobin};
  PlacementRequest req{100, {}};
  EXPECT_EQ(s.pick(nodes, req)->id(), 1u);
  EXPECT_EQ(s.pick(nodes, req)->id(), 2u);
  EXPECT_EQ(s.pick(nodes, req)->id(), 3u);
  EXPECT_EQ(s.pick(nodes, req)->id(), 1u);
}

TEST(Scheduler, LocalityPrefersCachedNode) {
  std::vector<WorkerNode> nodes;
  nodes.emplace_back(1, "a", GiB, 0);
  nodes.emplace_back(2, "b", GiB, 0);
  const std::vector<std::uint64_t> snap{11, 12, 13, 12};
  nodes[0].store().insert(std::vector<std::uint64_t>{11});
  nodes[1].store().insert(snap);
  Scheduler s{PlacementPolicy::kSnapshotLocality};
  EXPECT_EQ(s.pick(nodes, PlacementRequest{100, snap})->id(), 2u);
  // Fewer missing pages beat more free memory.
  nodes[1].reserve(500 * MiB);
  EXPECT_EQ(s.pick(nodes, PlacementRequest{100, snap})->id(), 2u);
  // No digests (vanilla) falls back to worst-fit: node a has more free
  // memory once b hosts a replica.
  EXPECT_EQ(s.pick(nodes, PlacementRequest{100, {}})->id(), 1u);
  // Cached-but-full nodes are skipped.
  nodes[1].reserve(nodes[1].mem_free());
  EXPECT_EQ(s.pick(nodes, PlacementRequest{100, snap})->id(), 1u);
}

TEST(Scheduler, SkipsUnschedulableNodes) {
  std::vector<WorkerNode> nodes;
  nodes.emplace_back(1, "a", GiB, 0);
  nodes.emplace_back(2, "b", 2 * GiB, 0);
  nodes[1].set_state(NodeState::kDraining);
  Scheduler s{PlacementPolicy::kWorstFit};
  EXPECT_EQ(s.pick(nodes, PlacementRequest{100, {}})->id(), 1u);
  nodes[0].set_state(NodeState::kFailed);
  EXPECT_EQ(s.pick(nodes, PlacementRequest{100, {}}), nullptr);
}

// --- Platform-level cluster behaviour --------------------------------------

struct Harness {
  explicit Harness(PlatformConfig cfg = {}, std::uint64_t seed = 99)
      : kernel{sim, exp::testbed_costs()},
        platform{kernel, exp::testbed_runtime(), cfg, seed} {}

  // Pump until `done` flips or the event queue drains.
  void pump(const bool& done) {
    while (!done && kernel.sim().step()) {
    }
    EXPECT_TRUE(done);
  }

  funcs::Request request_for(const std::string& fn) {
    return funcs::sample_request(
        platform.registry().get(fn).spec.handler_id);
  }

  sim::Simulation sim;
  os::Kernel kernel;
  Platform platform;
};

TEST(ClusterPlatform, SingleCpuNodeSerializesService) {
  // The same two-request burst finishes later on a 1-core node than on a
  // 2-core node: service windows queue on the node timeline.
  auto run_burst = [](std::uint32_t cpus) {
    Harness h;
    h.platform.resources().add_node("n", 8 * GiB, cpus);
    h.platform.deploy(exp::markdown_spec(), StartMode::kVanilla);
    h.platform.scale_up("markdown-render", 2);
    h.kernel.sim().run_until(h.kernel.sim().now() + sim::Duration::seconds(2));
    EXPECT_EQ(h.platform.idle_replica_count("markdown-render"), 2u);

    int responses = 0;
    sim::TimePoint last_completion;
    for (int i = 0; i < 2; ++i)
      h.platform.invoke("markdown-render", h.request_for("markdown-render"),
                        [&](const funcs::Response& res, const RequestMetrics&) {
                          EXPECT_TRUE(res.ok());
                          ++responses;
                          last_completion = h.kernel.sim().now();
                        });
    while (responses < 2 && h.kernel.sim().step()) {
    }
    EXPECT_EQ(responses, 2);
    return last_completion;
  };
  const sim::TimePoint serialized = run_burst(1);
  const sim::TimePoint overlapped = run_burst(2);
  EXPECT_GT(serialized, overlapped);
}

TEST(ClusterPlatform, RoundRobinSpreadsReplicas) {
  Harness h;
  h.platform.resources().set_policy(PlacementPolicy::kRoundRobin);
  for (int i = 0; i < 3; ++i) {
    std::string name = "n";
    name += std::to_string(i);
    h.platform.resources().add_node(std::move(name), 8 * GiB);
  }
  h.platform.deploy(exp::noop_spec(), StartMode::kVanilla);
  h.platform.scale_up("noop", 3);
  for (const WorkerNode& n : h.platform.resources().nodes())
    EXPECT_EQ(n.replicas(), 1u);
}

TEST(ClusterPlatform, RemoteRegistryFirstRestorePaysFetch) {
  PlatformConfig cfg;
  cfg.remote_registry = true;
  cfg.idle_timeout = sim::Duration::seconds(1);
  Harness h{cfg};
  h.platform.resources().add_node("w1", 8 * GiB);
  h.platform.deploy(exp::noop_spec(), StartMode::kPrebaked,
                    core::SnapshotPolicy::warmup(1));

  bool done = false;
  h.platform.invoke("noop", h.request_for("noop"),
                    [&](const funcs::Response& res, const RequestMetrics&) {
                      EXPECT_TRUE(res.ok());
                      done = true;
                    });
  h.pump(done);
  const WorkerNode& w1 = h.platform.resources().nodes().front();
  EXPECT_EQ(w1.stats().snapshot_misses, 1u);
  EXPECT_EQ(w1.stats().snapshot_hits, 0u);
  EXPECT_GT(w1.stats().remote_bytes_fetched, 0u);
  const std::uint64_t fetched_once = w1.stats().remote_bytes_fetched;

  // Let the replica idle out, then cold-start again: the images are now
  // node-local, so no further registry traffic and a faster restore.
  h.kernel.sim().run();
  EXPECT_EQ(h.platform.replica_count("noop"), 0u);
  done = false;
  h.platform.invoke("noop", h.request_for("noop"),
                    [&](const funcs::Response& res, const RequestMetrics&) {
                      EXPECT_TRUE(res.ok());
                      done = true;
                    });
  h.pump(done);
  EXPECT_EQ(w1.stats().snapshot_hits, 1u);
  EXPECT_EQ(w1.stats().remote_bytes_fetched, fetched_once);

  const auto& log = h.platform.request_log();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_TRUE(log[0].cold_start);
  EXPECT_TRUE(log[1].cold_start);
  EXPECT_GT(log[0].startup.to_millis(), log[1].startup.to_millis() * 1.5);
}

TEST(ClusterPlatform, NodeStoreSurvivesNodeVectorGrowth) {
  // Adding nodes reallocates the node vector and moves every WorkerNode
  // with its page store; the moved store must still hold w1's template.
  PlatformConfig cfg;
  cfg.remote_registry = true;
  cfg.page_store = true;
  cfg.idle_timeout = sim::Duration::seconds(1);
  Harness h{cfg};
  h.platform.resources().set_policy(PlacementPolicy::kSnapshotLocality);
  const NodeId w1 = h.platform.resources().add_node("w1", 8 * GiB);
  h.platform.deploy(exp::noop_spec(), StartMode::kPrebaked,
                    core::SnapshotPolicy::warmup(1));
  const auto invoke_once = [&] {
    bool done = false;
    h.platform.invoke("noop", h.request_for("noop"),
                      [&](const funcs::Response& res, const RequestMetrics&) {
                        EXPECT_TRUE(res.ok());
                        done = true;
                      });
    h.pump(done);
    h.kernel.sim().run();  // idle out
  };
  invoke_once();

  const criu::PageStore& before = h.platform.resources().node(w1).store();
  ASSERT_EQ(before.template_count(), 1u);
  const std::uint64_t stored = before.stored_pages();
  // The template pins the snapshot's whole digest list.
  const std::span<const std::uint64_t> digests =
      h.platform.snapshots()
          .get("noop", core::SnapshotPolicy::warmup(1))
          .images.decoded()
          .pages->digests();
  std::vector<std::uint32_t> refcounts;
  for (const std::uint64_t d : digests) refcounts.push_back(before.refcount(d));
  ASSERT_GT(stored, 0u);

  const std::size_t capacity = h.platform.resources().nodes().capacity();
  for (std::size_t i = 2; i <= capacity + 1; ++i) {
    std::string name = "w";
    name += std::to_string(i);
    h.platform.resources().add_node(std::move(name), 8 * GiB);
  }
  ASSERT_GT(h.platform.resources().nodes().capacity(), capacity);

  const criu::PageStore& store = h.platform.resources().node(w1).store();
  EXPECT_EQ(store.stored_pages(), stored);
  EXPECT_EQ(store.template_count(), 1u);
  for (std::size_t i = 0; i < digests.size(); ++i) {
    ASSERT_TRUE(store.contains(digests[i]));
    ASSERT_EQ(store.refcount(digests[i]), refcounts[i]);
  }
  // The next start lands on w1, the only node holding the pages, and
  // clones the template out of the moved store.
  invoke_once();
  EXPECT_EQ(store.stats().template_clones, 1u);
  EXPECT_EQ(store.stored_pages(), stored);
}

TEST(ClusterPlatform, LocalityPolicyReplacesOnCachedNode) {
  PlatformConfig cfg;
  cfg.remote_registry = true;
  cfg.idle_timeout = sim::Duration::seconds(1);
  Harness h{cfg};
  h.platform.resources().set_policy(PlacementPolicy::kSnapshotLocality);
  h.platform.resources().add_node("w1", 8 * GiB);
  h.platform.resources().add_node("w2", 8 * GiB);
  h.platform.deploy(exp::noop_spec(), StartMode::kPrebaked,
                    core::SnapshotPolicy::warmup(1));

  for (int round = 0; round < 3; ++round) {
    bool done = false;
    h.platform.invoke("noop", h.request_for("noop"),
                      [&](const funcs::Response& res, const RequestMetrics&) {
                        EXPECT_TRUE(res.ok());
                        done = true;
                      });
    h.pump(done);
    h.kernel.sim().run();  // idle out between rounds
  }
  // Every restore landed on the node that fetched the images first.
  const WorkerNode& w1 = h.platform.resources().node(1);
  const WorkerNode& w2 = h.platform.resources().node(2);
  EXPECT_EQ(w1.stats().replicas_placed, 3u);
  EXPECT_EQ(w2.stats().replicas_placed, 0u);
  EXPECT_EQ(w1.stats().snapshot_hits, 2u);
  EXPECT_EQ(w1.stats().snapshot_misses, 1u);
}

TEST(ClusterPlatform, DrainNodeReclaimsIdleAndBlocksPlacement) {
  Harness h;
  const NodeId a = h.platform.resources().add_node("a", 8 * GiB);
  h.platform.resources().add_node("b", 8 * GiB);
  h.platform.deploy(exp::noop_spec(), StartMode::kVanilla);
  h.platform.scale_up("noop", 2);  // worst-fit spreads: one per node
  h.kernel.sim().run_until(h.kernel.sim().now() + sim::Duration::seconds(2));
  EXPECT_EQ(h.platform.idle_replica_count("noop"), 2u);
  EXPECT_EQ(h.platform.resources().node(a).replicas(), 1u);

  h.platform.drain_node(a);
  EXPECT_EQ(h.platform.resources().node(a).replicas(), 0u);
  EXPECT_EQ(h.platform.replica_count("noop"), 1u);
  EXPECT_EQ(h.platform.stats().replicas_reclaimed, 1u);

  // Requests still serve, on the remaining node's replica.
  bool done = false;
  h.platform.invoke("noop", h.request_for("noop"),
                    [&](const funcs::Response& res, const RequestMetrics&) {
                      EXPECT_TRUE(res.ok());
                      done = true;
                    });
  h.pump(done);
  EXPECT_EQ(h.platform.resources().node(a).replicas(), 0u);
}

TEST(ClusterPlatform, FailNodeRequeuesInflightRequest) {
  Harness h;
  h.platform.resources().add_node("a", 8 * GiB);
  h.platform.resources().add_node("b", 8 * GiB);
  h.platform.deploy(exp::image_resizer_spec(), StartMode::kVanilla);

  funcs::Response response;
  bool done = false;
  h.platform.invoke("image-resizer", h.request_for("image-resizer"),
                    [&](const funcs::Response& res, const RequestMetrics&) {
                      response = res;
                      done = true;
                    });

  // Poll until the request is being served, then fail the serving node.
  struct Poller {
    Harness* h;
    bool failed = false;
    void operator()() {
      if (failed) return;
      Platform& p = h->platform;
      const bool busy = p.replica_count("image-resizer") >
                        p.idle_replica_count("image-resizer") +
                            p.starting_replica_count("image-resizer");
      if (busy) {
        for (const WorkerNode& n : p.resources().nodes())
          if (n.replicas() > 0) {
            failed = true;
            p.fail_node(n.id());
            return;
          }
      }
      h->kernel.sim().schedule_in(sim::Duration::millis(1), *this);
    }
  };
  h.kernel.sim().schedule_in(sim::Duration::millis(1), Poller{&h});
  h.pump(done);

  EXPECT_TRUE(response.ok());  // the re-served copy answered
  EXPECT_EQ(h.platform.stats().node_failures, 1u);
  EXPECT_EQ(h.platform.stats().requests_requeued, 1u);
  // Exactly one response was recorded for the request.
  EXPECT_EQ(h.platform.request_log().size(), 1u);
  // The failed node hosts nothing; the survivor served the retry.
  std::uint32_t failed_nodes = 0;
  for (const WorkerNode& n : h.platform.resources().nodes())
    if (n.state() == NodeState::kFailed) {
      ++failed_nodes;
      EXPECT_EQ(n.replicas(), 0u);
    }
  EXPECT_EQ(failed_nodes, 1u);
}

TEST(ClusterPlatform, FailNodeReplenishesWarmPool) {
  Harness h;
  const NodeId a = h.platform.resources().add_node("a", 8 * GiB);
  h.platform.resources().add_node("b", 8 * GiB);
  h.platform.deploy(exp::noop_spec(), StartMode::kVanilla);
  h.platform.set_min_idle("noop", 2);
  h.kernel.sim().run_until(h.kernel.sim().now() + sim::Duration::seconds(2));
  EXPECT_EQ(h.platform.idle_replica_count("noop"), 2u);

  h.platform.fail_node(a);
  h.kernel.sim().run_until(h.kernel.sim().now() + sim::Duration::seconds(2));
  // The pool floor is restored on the surviving node.
  EXPECT_EQ(h.platform.idle_replica_count("noop"), 2u);
  EXPECT_EQ(h.platform.resources().node(a).replicas(), 0u);
}

// --- Satellite: bounded request aggregation --------------------------------

TEST(LatencyHistogram, PercentilesWithinBucketError) {
  LatencyHistogram hist;
  for (int i = 1; i <= 1000; ++i) hist.record(static_cast<double>(i));
  EXPECT_EQ(hist.count(), 1000u);
  EXPECT_DOUBLE_EQ(hist.min_ms(), 1.0);
  EXPECT_DOUBLE_EQ(hist.max_ms(), 1000.0);
  EXPECT_NEAR(hist.mean_ms(), 500.5, 1e-9);
  // Log-spaced buckets at 40/decade: <= ~6% relative error per edge.
  EXPECT_NEAR(hist.percentile(0.50), 500.0, 500.0 * 0.08);
  EXPECT_NEAR(hist.percentile(0.95), 950.0, 950.0 * 0.08);
  EXPECT_DOUBLE_EQ(hist.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(hist.percentile(1.0), 1000.0);
}

TEST(LatencyHistogram, EmptyAndExtremeValues) {
  LatencyHistogram hist;
  EXPECT_DOUBLE_EQ(hist.percentile(0.5), 0.0);
  hist.record(0.0);        // below the first bucket edge
  hist.record(1e12);       // beyond the last decade: clamped to the top
  EXPECT_EQ(hist.count(), 2u);
  EXPECT_DOUBLE_EQ(hist.percentile(1.0), 1e12);
  EXPECT_DOUBLE_EQ(hist.percentile(0.0), 0.0);
}

TEST(ClusterPlatform, AggregateRequestLogStaysBounded) {
  PlatformConfig cfg;
  cfg.aggregate_request_log = true;
  Harness h{cfg};
  h.platform.resources().add_node("n", 8 * GiB);
  h.platform.deploy(exp::noop_spec(), StartMode::kVanilla);

  for (int i = 0; i < 5; ++i) {
    bool done = false;
    h.platform.invoke("noop", h.request_for("noop"),
                      [&](const funcs::Response& res, const RequestMetrics&) {
                        EXPECT_TRUE(res.ok());
                        done = true;
                      });
    h.pump(done);
  }
  // The full log stays empty; the aggregate carries the same information.
  EXPECT_TRUE(h.platform.request_log().empty());
  const RequestAggregate& agg = h.platform.request_aggregate();
  EXPECT_EQ(agg.cold_starts, 1u);
  EXPECT_EQ(agg.total_ms.count(), 5u);
  EXPECT_EQ(agg.cold_startup_ms.count(), 1u);
  EXPECT_GT(agg.total_ms.percentile(0.5), 0.0);
  // The cold request is the slowest one.
  EXPECT_GT(agg.total_ms.max_ms(), agg.total_ms.min_ms());
}

// --- Satellite: snapshot corruption fallback (truncated image) -------------

TEST(ClusterPlatform, TruncatedPagesImageFallsBackToVanilla) {
  Harness h;
  h.platform.resources().add_node("n", 8 * GiB);
  h.platform.deploy(exp::noop_spec(), StartMode::kPrebaked,
                    core::SnapshotPolicy::warmup(1));
  // Truncate the page payload image: the CRC check catches it at decode.
  core::BakedSnapshot& snap = h.platform.snapshots().get_mutable(
      "noop", core::SnapshotPolicy::warmup(1));
  criu::ImageDir truncated;
  for (const auto& [name, f] : snap.images.files()) {
    auto bytes = f.bytes;
    if (name == "pages-1.img") bytes.resize(bytes.size() / 2);
    truncated.put(name, std::move(bytes), f.nominal_size);
  }
  snap.images = std::move(truncated);

  bool done = false;
  h.platform.invoke("noop", h.request_for("noop"),
                    [&](const funcs::Response& res, const RequestMetrics&) {
                      EXPECT_TRUE(res.ok());
                      done = true;
                    });
  h.pump(done);
  EXPECT_EQ(h.platform.stats().restore_fallbacks, 1u);
  EXPECT_EQ(h.platform.stats().cold_starts, 1u);
  ASSERT_EQ(h.platform.request_log().size(), 1u);
  EXPECT_TRUE(h.platform.request_log()[0].cold_start);
}

// --- Satellite: lazy-pages restore through Platform::invoke ----------------

TEST(ClusterPlatform, LazyRestoreChargesFirstRequestService) {
  auto run = [](bool lazy) {
    PlatformConfig cfg;
    if (lazy) cfg.paging = criu::PagingPolicy::lazy(0.2);
    Harness h{cfg};
    h.platform.resources().add_node("n", 8 * GiB);
    h.platform.deploy(exp::image_resizer_spec(), StartMode::kPrebaked,
                      core::SnapshotPolicy::warmup(1));
    for (int i = 0; i < 2; ++i) {
      bool done = false;
      h.platform.invoke("image-resizer", h.request_for("image-resizer"),
                        [&](const funcs::Response& res, const RequestMetrics&) {
                          EXPECT_TRUE(res.ok());
                          done = true;
                        });
      h.pump(done);
    }
    std::vector<RequestMetrics> log = h.platform.request_log();
    EXPECT_EQ(log.size(), 2u);
    return log;
  };
  const auto lazy = run(true);
  const auto eager = run(false);

  // Lazy: the restore itself is cheaper (only the eager fraction is read)...
  EXPECT_LT(lazy[0].startup.to_millis(), eager[0].startup.to_millis());
  // ...but the deferred pages fault in during the first request's service
  // window (uffd round trips + image reads).
  EXPECT_GT(lazy[0].service.to_millis(), eager[0].service.to_millis() * 2);
  // Once drained, steady-state service matches the eager platform.
  EXPECT_NEAR(lazy[1].service.to_millis(), eager[1].service.to_millis(),
              eager[1].service.to_millis() * 0.25);
}

// --- exp-layer scenario ----------------------------------------------------

TEST(ClusterScenario, DeterministicAndPolicySensitive) {
  exp::ClusterScenarioConfig cfg;
  cfg.duration = sim::Duration::seconds(60);
  const exp::ClusterScenarioResult a = exp::run_cluster_scenario(cfg);
  const exp::ClusterScenarioResult b = exp::run_cluster_scenario(cfg);
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.stats.cold_starts, b.stats.cold_starts);
  EXPECT_EQ(a.remote_bytes_fetched, b.remote_bytes_fetched);
  EXPECT_DOUBLE_EQ(a.total_p99_ms, b.total_p99_ms);
  EXPECT_EQ(a.nodes.size(), cfg.nodes);
  EXPECT_EQ(a.stats.rejected, 0u);

  // The locality policy strictly reduces registry traffic on this workload.
  cfg.policy = PlacementPolicy::kSnapshotLocality;
  const exp::ClusterScenarioResult loc = exp::run_cluster_scenario(cfg);
  EXPECT_EQ(loc.requests, a.requests);
  EXPECT_LT(loc.remote_bytes_fetched, a.remote_bytes_fetched);
  EXPECT_GT(loc.snapshot_hits, a.snapshot_hits);
}

}  // namespace
}  // namespace prebake::faas
