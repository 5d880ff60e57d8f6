// The cluster layer: real worker nodes and replica placement.
//
// The paper deploys prebaking inside OpenFaaS, where replicas land on worker
// nodes. A WorkerNode owns (a) its memory budget, (b) its CPU timeline —
// replica start-ups and request service execute as serialized work on the
// node's cores, so concurrent restores on one node contend while restores on
// different nodes overlap — and (c) a content-addressed page store: under
// the Section-7 "checkpoint/restore as a service" deployment a node's restore
// pulls from the remote registry only the pages its store lacks (cf.
// Ustiugov et al., PAPERS.md, on snapshot locality deciding restore cost).
//
// The Scheduler picks a node for each replica with a pluggable policy:
// worst-fit (spread by free memory), round-robin, or snapshot-locality-aware
// (prefer nodes whose store already holds most of the snapshot's pages).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "criu/page_store.hpp"
#include "sim/time.hpp"

namespace prebake::faas {

using NodeId = std::uint32_t;

// Sentinel for "no node": unresolved placement, wildcard migration endpoint.
inline constexpr NodeId kNoNode = 0xffffffffu;

// Node lifecycle. Draining nodes accept no new replicas but let resident
// ones finish; failed nodes lose everything on them (the platform kills the
// replicas and re-queues their in-flight work).
enum class NodeState : std::uint8_t { kReady, kDraining, kFailed };

const char* node_state_name(NodeState state);

struct NodeStats {
  std::uint64_t replicas_placed = 0;   // lifetime placements (not current)
  // Remote-registry starts that pulled nothing from the registry (template
  // clones included) vs something.
  std::uint64_t snapshot_hits = 0;
  std::uint64_t snapshot_misses = 0;
  std::uint64_t remote_bytes_fetched = 0;
  sim::Duration busy;                  // CPU time executed on this node
  // Page-store accounting (zero unless the platform runs with remote_registry
  // or page_store on).
  std::uint64_t store_hit_pages = 0;
  std::uint64_t store_delta_bytes = 0;
  std::uint64_t template_clones = 0;
  // Layered restores served by COW-cloning this node's pinned base-runtime
  // template (DESIGN.md §6k).
  std::uint64_t base_template_clones = 0;
  // Live-migration accounting (DESIGN.md §6i).
  std::uint64_t migrations_out = 0;      // replicas migrated off this node
  std::uint64_t migrations_in = 0;       // replicas that resumed here
  std::uint64_t migrations_aborted = 0;  // attempts that fell back to local
  // Warmth ledger: what fail/drain did to this node's warm state. A killed
  // warm replica and a dropped template are destroyed warmth; a replica
  // that left via live migration kept its warmth elsewhere.
  std::uint64_t warmth_replicas_destroyed = 0;
  std::uint64_t warmth_replicas_migrated = 0;
  std::uint64_t warmth_template_pages_destroyed = 0;
  bool operator==(const NodeStats&) const = default;
};

class WorkerNode {
 public:
  // `cpus` == 0 models a node with enough cores that replica work never
  // queues (the seed's behaviour); a positive count serializes work onto
  // that many core timelines.
  WorkerNode(NodeId id, std::string name, std::uint64_t mem_capacity,
             std::uint32_t cpus);

  NodeId id() const { return id_; }
  const std::string& name() const { return name_; }
  std::uint32_t cpus() const { return cpus_; }
  NodeState state() const { return state_; }
  void set_state(NodeState state) { state_ = state; }
  bool schedulable() const { return state_ == NodeState::kReady; }

  // --- memory ------------------------------------------------------------
  std::uint64_t mem_capacity() const { return mem_capacity_; }
  std::uint64_t mem_used() const { return mem_used_; }
  std::uint64_t mem_free() const { return mem_capacity_ - mem_used_; }
  std::uint32_t replicas() const { return replicas_; }

  void reserve(std::uint64_t mem_bytes);
  void release(std::uint64_t mem_bytes);  // throws on accounting underflow

  // --- CPU timeline ------------------------------------------------------
  // Schedule `work` of CPU time on the earliest-free core, no earlier than
  // `now`; returns the completion time. Work submitted while every core is
  // busy queues behind the earliest completion (serialized start-ups and
  // request service — the contention the single-CPU seed model charged
  // globally, now charged per node).
  sim::TimePoint run(sim::TimePoint now, sim::Duration work);
  // When the next core becomes available (>= now).
  sim::TimePoint next_core_free(sim::TimePoint now) const;

  // --- node-local content-addressed page store (DESIGN.md §6f) -------------
  // The node's snapshot cache: dedup-aware registry delta transfer, plus
  // frozen restore templates when the platform runs with page_store on.
  criu::PageStore& store() { return store_; }
  const criu::PageStore& store() const { return store_; }

  NodeStats& stats() { return stats_; }
  const NodeStats& stats() const { return stats_; }

 private:
  NodeId id_ = 0;
  std::string name_;
  std::uint64_t mem_capacity_ = 0;
  std::uint64_t mem_used_ = 0;
  std::uint32_t replicas_ = 0;
  std::uint32_t cpus_ = 1;
  NodeState state_ = NodeState::kReady;
  std::vector<sim::TimePoint> core_free_;
  criu::PageStore store_;
  NodeStats stats_;
};

// --- placement -------------------------------------------------------------

enum class PlacementPolicy : std::uint8_t {
  kWorstFit,         // most free memory first (the seed's behaviour)
  kRoundRobin,       // rotate across schedulable nodes
  kSnapshotLocality  // prefer nodes whose store holds the snapshot's pages
};

const char* placement_policy_name(PlacementPolicy policy);

struct PlacementRequest {
  std::uint64_t mem_bytes = 0;
  // Page digests of the snapshot's payload (empty for vanilla replicas and
  // platforms without a node store). The locality policy scores nodes by the
  // unique pages their store is missing — a node sharing most of the image
  // through another function's snapshot is nearly as good as one that
  // restored this very snapshot; with no digests it degrades to worst-fit.
  // Borrowed from the snapshot's ImageDir decode cache (zero-copy, §6g);
  // valid for the placement call, not for storage.
  std::span<const std::uint64_t> snapshot_digests;
  // Node the placement must avoid (kNoNode = none): a migration destination
  // must differ from its source even when the source has the most room.
  NodeId exclude = kNoNode;
};

class Scheduler {
 public:
  explicit Scheduler(PlacementPolicy policy = PlacementPolicy::kWorstFit)
      : policy_{policy} {}

  PlacementPolicy policy() const { return policy_; }
  void set_policy(PlacementPolicy policy) { policy_ = policy; }

  // Pick a schedulable node with room for the request, or nullptr.
  WorkerNode* pick(std::vector<WorkerNode>& nodes,
                   const PlacementRequest& request);

 private:
  WorkerNode* pick_worst_fit(std::vector<WorkerNode>& nodes,
                             const PlacementRequest& request);

  PlacementPolicy policy_;
  std::size_t rr_cursor_ = 0;
};

}  // namespace prebake::faas
