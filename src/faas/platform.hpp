// The FaaS platform: Function Router, Function Deployer and autoscaling glue
// over the SPEC-RG components (Section 2 / Figure 1 of the paper).
//
// Concurrency model matches the paper's description of public clouds: each
// replica handles one request at a time; a request arriving while every
// replica is busy triggers a scale-up; replicas idle longer than the
// idle-timeout are garbage collected. Replica start-up and request service
// execute on the owning WorkerNode's CPU timeline (see faas/cluster.hpp):
// the work is measured inline against the simulated kernel, rewound, and
// re-emitted as a completion event at the time the node's cores actually
// finish it — so concurrent work on one node contends while work on
// different nodes overlaps.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/prebaker.hpp"
#include "core/startup.hpp"
#include "faas/builder.hpp"
#include "faas/metrics.hpp"
#include "faas/migration.hpp"
#include "faas/registry.hpp"
#include "faas/resource_manager.hpp"
#include "os/container.hpp"

namespace prebake::faas {

struct RequestMetrics {
  std::string function;
  sim::TimePoint arrival;
  sim::Duration queue_wait;  // waiting for a replica (includes start-up)
  sim::Duration startup;     // replica start-up this request had to wait for
  sim::Duration service;     // handler execution
  sim::Duration total;       // arrival -> response
  bool cold_start = false;
  // The cold start behind this request was served by the Vanilla fallback
  // path (failed restore or quarantined snapshot) instead of the prebaked
  // restore — the request succeeded but paid fork-exec latency. Distinct
  // from a queue rejection: the platform 503s those without ever reaching a
  // replica.
  bool fallback = false;
  // Times the request was re-queued after a node failure killed the replica
  // serving it. queue_wait counts from the latest enqueue, so a retried
  // request reports its real queueing delay, not the lost service time;
  // `total` still spans arrival -> response.
  std::uint32_t retries = 0;
  // Worker node whose replica served the request. Recorded at serve time, so
  // it survives drain/fail requeues (the re-serving node wins); kNoNode for
  // requests that never reached a replica (e.g. 503 rejects).
  static constexpr NodeId kNoNode = 0xffffffffu;
  NodeId node = kNoNode;
};

using InvokeCallback =
    std::function<void(const funcs::Response&, const RequestMetrics&)>;

struct PlatformConfig {
  // Idle replicas are reclaimed after this long (Wang et al. [27] observe
  // minutes-scale timeouts in public platforms).
  sim::Duration idle_timeout = sim::Duration::seconds(600);
  std::uint32_t max_replicas_per_function = 64;
  // Run every replica inside a container (Section 2's execution-environment
  // provisioning term); adds the ContainerCosts to each replica start and
  // enforces a cgroup memory limit sized to the placement estimate.
  bool containerized = false;
  os::ContainerCosts container_costs{};
  // "Checkpoint/restore as a service" (Section 7): snapshot images live on a
  // remote registry. A node's first restore of a function pulls the images
  // at network bandwidth into a node-local copy; later restores on the same
  // node read the local (page-cached) copy. The node's content-addressed
  // page store (DESIGN.md §6f) is the node cache: pages-1.img transfers as a
  // per-page delta against it, and locality placement scores nodes by the
  // unique pages their store is missing.
  bool remote_registry = false;
  // Frozen restore templates (DESIGN.md §6f): the first eager restore of a
  // snapshot on a node freezes a template in the node's page store that
  // later replicas COW-clone, and live migration ships links as deltas
  // against the destination's store. Off = every start replays its images.
  bool page_store = false;
  // Per-node byte budget for unpinned store pages (0 = unbounded), applied
  // to a node on its first start that uses the store.
  std::uint64_t node_page_store_bytes = 0;
  // Layered base+delta snapshots (DESIGN.md §6k): deploy() bakes — once per
  // runtime binary — a bare booted-runtime *base* snapshot, and every
  // prebaked function is dumped as a split delta against it (layers-1.img
  // manifest). Restores run base→delta: a node holding the pinned base
  // template COW-clones it and replays only the app delta; registry pulls
  // negotiate per-layer, so a node with the base ships ~delta bytes. Off =
  // monolithic snapshots everywhere (byte-identical legacy behavior).
  bool layered = false;
  // How restores page replica memory in (DESIGN.md §6j): eager (the
  // default), lazy post-copy (PagingPolicy::lazy(fraction) — only a prefix
  // of each pagemap run is mapped at start, the remainder faults in on
  // first use, charged to the first request's service time), or REAP-style
  // working-set (PagingPolicy::ws_prefetch() — the first start of each
  // snapshot records the first invocation's working set into ws-1.img,
  // every later start bulk-maps exactly that set and lazy-serves only the
  // cold tail).
  criu::PagingPolicy paging{};
  // Record requests into a bounded RequestAggregate (histogram percentiles)
  // instead of growing the full per-request log — required for runs with
  // millions of invocations.
  bool aggregate_request_log = false;

  // --- restore resilience (DESIGN.md §6d) ---------------------------------
  // Per-start retry budget against transient restore faults (device errors,
  // aborted fetches, corrupt read copies), with core::kRestoreRetryBackoff
  // between tries. 1 = the legacy single attempt.
  int restore_max_attempts = 1;
  // Circuit breaker: quarantine a function's snapshot after this many
  // *consecutive* failed restores (0 = breaker off). While quarantined the
  // function starts Vanilla; a re-bake runs off the request path and lifts
  // the quarantine when the fresh snapshot is ready.
  std::uint32_t quarantine_threshold = 0;
  // Crashed nodes (FaultSite::kNodeCrash) rejoin the cluster after this
  // long; zero = they stay down.
  sim::Duration node_recovery_delay{};

  // --- live replica migration (DESIGN.md §6i) ------------------------------
  // Pre-dump chain shape for warm evacuations.
  MigrationConfig migration{};
};

struct PlatformStats {
  std::uint64_t invocations = 0;
  std::uint64_t cold_starts = 0;
  std::uint64_t replicas_started = 0;
  std::uint64_t replicas_reclaimed = 0;
  std::uint64_t rejected = 0;  // no capacity and queue overflow
  std::uint64_t oom_kills = 0;  // cgroup memory.max enforcement actions
  // Snapshot restores that failed (corrupt/missing images) and fell back to
  // the Vanilla start path.
  std::uint64_t restore_fallbacks = 0;
  // Failed restore attempts that were retried (and eventually succeeded or
  // fell back); a 3-attempt success contributes 2.
  std::uint64_t restore_retries = 0;
  std::uint64_t snapshot_quarantines = 0;  // circuit-breaker trips
  std::uint64_t snapshot_rebakes = 0;      // fresh bakes that lifted one
  std::uint64_t node_failures = 0;      // fail_node calls
  std::uint64_t node_crashes = 0;       // injected mid-restore crashes
  std::uint64_t node_recoveries = 0;    // crashed nodes brought back
  std::uint64_t requests_requeued = 0;  // in-flight work re-queued by failures
  // --- live migration (DESIGN.md §6i) -------------------------------------
  std::uint64_t migrations_started = 0;
  std::uint64_t migrations_completed = 0;
  std::uint64_t migrations_aborted = 0;    // fell back to serving locally
  std::uint64_t migration_rounds = 0;      // pre-dump rounds executed
  std::uint64_t migration_full_dumps = 0;  // corrupt-link full-dump fallbacks
  std::uint64_t migration_dest_retries = 0;  // destination crashes mid-restore
  std::uint64_t migration_precopy_bytes = 0;  // shipped while still serving
  std::uint64_t migration_final_bytes = 0;    // shipped inside the blackout
  sim::Duration migration_downtime;  // summed cutover blackout windows
  // --- working-set restore (DESIGN.md §6j) --------------------------------
  std::uint64_t ws_recordings = 0;       // first-invocation captures closed
  std::uint64_t ws_prefetch_starts = 0;  // restores that bulk-mapped a WS
  std::uint64_t ws_prefetched_pages = 0;  // pages eagerly mapped from WSes
  std::uint64_t ws_fallbacks = 0;  // WS prefetches downgraded to pure-lazy
  // --- layered snapshots (DESIGN.md §6k) ----------------------------------
  std::uint64_t layered_starts = 0;  // prebaked starts that ran base+delta
  std::uint64_t base_template_clones = 0;  // served by cloning a base template
  std::uint64_t base_templates_materialized = 0;  // base freezes paid
  std::uint64_t layered_full_restores = 0;  // no usable template: full chain
  bool operator==(const PlatformStats&) const = default;
};

// Circuit-breaker state for one function's snapshot. Failures count
// consecutively (any successful restore resets them); tripping the breaker
// quarantines the snapshot and kicks off a re-bake.
struct SnapshotHealth {
  std::uint32_t consecutive_failures = 0;
  bool quarantined = false;
  std::uint32_t rebakes = 0;       // completed re-bakes for this function
  std::uint64_t quarantine_epoch = 0;  // invalidates stale lift events
};

class Platform {
 public:
  Platform(os::Kernel& kernel, rt::RuntimeCosts runtime_costs,
           PlatformConfig config, std::uint64_t seed);

  // Build (optionally prebake) and register a function. Replaces any
  // existing version.
  void deploy(rt::FunctionSpec spec, StartMode mode,
              core::SnapshotPolicy policy = core::SnapshotPolicy::no_warmup());

  // Invoke a function; the callback fires when the response is ready (in
  // simulation time). Must be called from within the simulation (or before
  // running it).
  void invoke(const std::string& function, funcs::Request req,
              InvokeCallback callback);

  // Pre-warm: ensure at least `count` replicas are idle or on their way to
  // idle (start-up is asynchronous; run the simulation to realize them).
  void scale_up(const std::string& function, std::uint32_t count);

  // Warm-pool policy (the pool-based alternative of Lin & Glikson [14], the
  // approach the paper contrasts prebaking against): keep at least `count`
  // idle replicas alive at all times — they are exempt from idle-timeout
  // reclaim and replenished after scale-downs. The pool's memory is the cost
  // the provider eats for the latency (Section 1).
  void set_min_idle(const std::string& function, std::uint32_t count);

  // How drain_node disposes of the drained node's warm replicas: reclaim
  // (destroy the warmth, the legacy behavior) or live-migrate them to other
  // nodes via pre-dump chains (warm evacuation, DESIGN.md §6i).
  enum class DrainMode : std::uint8_t { kReclaim, kMigrateWarm };

  // Node lifecycle, platform view. Draining stops new placements, reclaims
  // (or, in kMigrateWarm mode, live-migrates) the node's idle replicas and
  // lets busy ones finish (reclaimed or evacuated on completion). Failing a
  // node kills everything on it: in-flight requests are re-queued at the
  // front of their function's queue and re-served elsewhere; warm pools are
  // replenished on surviving nodes.
  void drain_node(NodeId node, DrainMode mode = DrainMode::kReclaim);
  void fail_node(NodeId node);

  // Live-migrate one replica of `function` from node `from` to node `to`
  // (kNoNode = any). Idle replicas start migrating immediately; a busy one
  // is marked to evacuate when its current request completes. Returns false
  // when no replica matches or no destination has room.
  bool migrate_replica(const std::string& function, NodeId from = kNoNode,
                       NodeId to = kNoNode);

  // Node hosting the first (creation-order) replica of `function`, or
  // kNoNode when none exists.
  NodeId find_replica_node(const std::string& function) const;

  ResourceManager& resources() { return resources_; }
  FunctionRegistry& registry() { return registry_; }
  core::SnapshotStore& snapshots() { return snapshots_; }
  const PlatformStats& stats() const { return stats_; }
  // Per-function circuit-breaker state (empty until a restore fails).
  const std::map<std::string, SnapshotHealth>& snapshot_health() const {
    return snapshot_health_;
  }
  const std::vector<RequestMetrics>& request_log() const { return request_log_; }
  // The bounded aggregate (populated when aggregate_request_log is set).
  const RequestAggregate& request_aggregate() const { return aggregate_; }
  std::uint32_t replica_count(const std::string& function) const;
  std::uint32_t idle_replica_count(const std::string& function) const;
  std::uint32_t starting_replica_count(const std::string& function) const;
  std::size_t total_replica_count() const { return replicas_.size(); }
  // Integral of resident fleet memory over simulated time, in byte-seconds,
  // up to the current simulation clock. Counts every placed replica's
  // placement estimate from placement to release — the provider-side memory
  // cost axis of the keep-alive policy study.
  double fleet_mem_byte_seconds() const {
    return mem_byte_seconds_ +
           static_cast<double>(fleet_mem_bytes_) *
               (kernel_->sim().now() - mem_mark_).to_seconds();
  }
  os::Kernel& kernel() { return *kernel_; }
  os::ContainerRuntime& containers() { return containers_; }

  // Where a snapshot's images live on `node` under remote_registry.
  std::string node_image_prefix(NodeId node, const std::string& fs_prefix) const;

  // Layered snapshots: the shared base snapshot's name for a runtime binary
  // ("rt-base-<sanitized binary>"); deploy() bakes it on first use.
  static std::string base_snapshot_name(const std::string& runtime_binary);
  // Drop every pinned base-runtime template — and the function templates
  // derived from one — from `node`'s page store (admin/test hook: simulates
  // memory pressure reclaiming the pinned bases). Later layered starts on
  // the node pay the full base+delta restore, or re-freeze the base; no
  // request is lost. Returns how many templates were dropped.
  std::uint32_t evict_base_templates(NodeId node);

 private:
  // kMigrating covers only the cutover blackout (final dump -> destination
  // resume); during pre-dump rounds the replica stays kIdle/kBusy and keeps
  // serving — that is what makes the migration "live".
  enum class ReplicaState : std::uint8_t { kStarting, kIdle, kBusy, kMigrating };

  struct Pending {
    funcs::Request req;
    InvokeCallback callback;
    sim::TimePoint arrival;
    // When the request last entered a queue: arrival, or the requeue time
    // after a node failure. queue_wait measures from here.
    sim::TimePoint enqueued;
    std::uint32_t retries = 0;
  };

  struct MigrationState;  // defined below Replica, which holds one

  struct Replica {
    std::uint64_t id = 0;
    std::string function;
    NodeId node = 0;
    std::uint64_t mem_bytes = 0;
    core::ReplicaProcess proc;
    ReplicaState state = ReplicaState::kStarting;
    std::uint64_t idle_epoch = 0;   // invalidates stale idle-timeout events
    std::uint64_t serve_epoch = 0;  // invalidates stale completion events
    bool served_any = false;
    bool prewarmed = false;  // started proactively (scale_up), not by a request
    std::optional<os::ContainerId> container;
    // The request being served; completion events take it back out. Kept on
    // the replica (not in the event closure) so a node failure can re-queue
    // it.
    std::optional<Pending> inflight;
    // In-flight live migration (null = none). unique_ptr: the chain links
    // hold stable ImageDir addresses across replica-map rehashes.
    std::unique_ptr<MigrationState> migration;
    // Busy replica marked for evacuation: when its current request
    // completes, finish_serve starts a migration (to evacuate_to, kNoNode =
    // any) instead of returning it to the idle pool.
    bool evacuate_on_idle = false;
    NodeId evacuate_to = kNoNode;
  };

  // One live migration in flight. The pre-dump chain accumulates here
  // (oldest link first, --prev-images-dir layout); the staged destination
  // process replaces the replica's proc only at finish time, so any failure
  // up to that point can abort back to the still-running source.
  struct MigrationState {
    std::uint64_t id = 0;
    NodeId dest = kNoNode;
    std::vector<std::unique_ptr<criu::ImageDir>> chain;
    int rounds = 0;
    bool cutover_pending = false;  // converged while the replica was busy
    sim::TimePoint cutover_started;
    core::ReplicaProcess new_proc;  // staged destination-side process
    // Warm standby pre-restored at the destination from the shipped chain
    // (later links replay onto it as they arrive). With a standby up, the
    // cutover blackout bills only the final-delta apply + resume; without
    // one (stop-and-copy, corrupt chain, destination crash) it pays the
    // full restore.
    os::Pid staged_pid = os::kNoPid;

    // The chain as the criu calls take it: borrowed links, oldest first.
    std::vector<const criu::ImageDir*> links() const {
      std::vector<const criu::ImageDir*> out;
      out.reserve(chain.size());
      for (const auto& link : chain) out.push_back(link.get());
      return out;
    }
  };

  Replica* find_idle(const std::string& function);
  Replica* find_replica(std::uint64_t id);
  // Count the resident-memory change at the current simulated time: the
  // byte-seconds integral accrues at the previous level up to now, then the
  // level moves by `delta`.
  void note_mem_change(std::int64_t delta);
  Replica* start_replica(const std::string& function, bool prewarmed = false);
  void on_replica_ready(std::uint64_t id);
  void dispatch(const std::string& function);
  void serve(Replica& replica, Pending pending);
  // Close a working-set recording (DESIGN.md §6j): the replica's first
  // invocation completed, so the kernel's fault log holds exactly the pages
  // it touched. Encode them as ws-1.img and attach the image to the stored
  // snapshot; later starts of the function prefetch it.
  void finish_ws_capture(Replica& replica);
  void finish_serve(std::uint64_t id, std::uint64_t serve_epoch,
                    const funcs::Response& response, RequestMetrics metrics);
  void arm_idle_timer(Replica& replica);
  void reclaim(Replica& replica);
  void record_request(const RequestMetrics& metrics);
  // Re-establish capacity for a function after a node loss.
  void ensure_capacity(const std::string& function);
  // Circuit breaker: bump the failure count, possibly trip the breaker.
  void note_restore_failure(const std::string& function);
  // Bake a fresh snapshot off the request path; lifts the quarantine when
  // the new images are ready. Removes the poisoned snapshot's node-local
  // copies and frozen templates from every node first.
  void rebake(const std::string& function);
  // Injected kNodeCrash: fail the node now, optionally schedule recovery.
  void crash_node(NodeId node);
  // Layered snapshots: bake (once) and return the base snapshot for the
  // spec's runtime binary. The pointer is stable while the snapshot store
  // holds the entry (map nodes do not move).
  const core::BakedSnapshot* ensure_base_snapshot(const rt::FunctionSpec& spec);

  // --- live migration (DESIGN.md §6i) --------------------------------------
  // Reserve a destination and start the pre-dump loop for an idle replica.
  bool begin_migration(Replica& replica, NodeId to);
  // One pre-dump round: dump the dirty delta while the source keeps
  // serving, ship the link, then converge or schedule the next round.
  void migration_round(std::uint64_t replica_id, std::uint64_t migration_id);
  // Converged: cut over now if the replica is idle, else after its current
  // request completes.
  void request_cutover(std::uint64_t replica_id, std::uint64_t migration_id);
  // The blackout: final freeze+dump, ship the last delta, restore the chain
  // at the destination (retrying elsewhere if it crashes mid-restore).
  void do_cutover(Replica& replica);
  // Destination resumed: kill the source, swap procs, move accounting.
  void finish_migration(std::uint64_t replica_id, std::uint64_t migration_id);
  // Release the staged destination and (when revive is set) return the
  // replica to local service; revive=false when the replica itself is dying.
  void abort_migration(Replica& replica, MigrationErrorKind kind, bool revive);
  void drop_standby(MigrationState& m);

  os::Kernel* kernel_;
  funcs::SharedAssets assets_;
  core::StartupService startup_;
  os::ContainerRuntime containers_;
  FunctionBuilder builder_;
  FunctionRegistry registry_;
  core::SnapshotStore snapshots_;
  ResourceManager resources_;
  PlatformConfig config_;
  sim::Rng rng_;
  PlatformStats stats_;

  // Replica ownership and lookup. Keyed by the monotonically increasing
  // replica id, so map iteration order == creation order — the same order
  // the original vector gave the failure/drain paths (behavior there is
  // order-sensitive: requeued requests go back queue-front in replica
  // order). by_function_ holds creation-ordered non-owning views so the hot
  // paths (find_idle, the per-function counts) scan one function's
  // replicas, not the whole fleet — with thousands of deployed functions
  // the fleet-wide scans were O(replicas) per request.
  std::map<std::uint64_t, std::unique_ptr<Replica>> replicas_;
  std::map<std::string, std::vector<Replica*>> by_function_;
  std::map<std::string, std::uint32_t> min_idle_;
  std::map<std::string, std::deque<Pending>> queues_;
  std::vector<RequestMetrics> request_log_;
  RequestAggregate aggregate_;
  std::map<std::string, SnapshotHealth> snapshot_health_;
  std::uint64_t next_replica_id_ = 1;
  std::uint64_t next_rebake_ = 1;  // rng stream ids for re-bakes
  Migrator migrator_;
  std::uint64_t next_migration_id_ = 1;

  // Fleet-memory integral (see fleet_mem_byte_seconds()).
  double mem_byte_seconds_ = 0.0;
  std::uint64_t fleet_mem_bytes_ = 0;
  sim::TimePoint mem_mark_;
};

}  // namespace prebake::faas
