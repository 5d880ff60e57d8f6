// Cluster scenario: the paper's three functions under mixed Poisson traffic
// on a multi-node platform with a remote snapshot registry (Section 7's
// "checkpoint/restore as a service"). The knob under study is the placement
// policy: how often does a restore land on a node that already holds the
// function's pages (local, page-cached reads) versus one that must pull
// them over the network first?
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "faas/platform.hpp"

namespace prebake::exp {

struct ClusterScenarioConfig {
  std::uint32_t nodes = 4;
  // Cores per node for the WorkerNode timeline; 0 = uncapped.
  std::uint32_t cpus_per_node = 2;
  std::uint64_t node_mem_bytes = 8ull << 30;
  faas::PlacementPolicy policy = faas::PlacementPolicy::kWorstFit;
  bool remote_registry = true;
  // COW template restores from each node's page store (DESIGN.md §6f).
  bool page_store = false;
  // Per-node page-store budget (0 = unbounded): below the three functions'
  // combined image files (138.3 MiB), above their deduplicated pages.
  std::uint64_t node_page_store_bytes = 120ull << 20;
  faas::StartMode mode = faas::StartMode::kPrebaked;
  // Sparse arrivals against a short idle timeout: pools drain between
  // requests, so cold starts recur and placement decides their cost.
  sim::Duration idle_timeout = sim::Duration::seconds(4);
  double rate_hz = 0.5;  // per-function Poisson arrival rate
  sim::Duration duration = sim::Duration::seconds(600);
  std::uint64_t seed = 42;
};

struct ClusterNodeReport {
  faas::NodeId id = 0;
  std::string name;
  std::string state;
  std::uint32_t replicas = 0;  // resident at end of run
  std::uint64_t mem_used = 0;
  std::uint64_t mem_capacity = 0;
  std::uint64_t replicas_placed = 0;
  std::uint64_t snapshot_hits = 0;
  std::uint64_t snapshot_misses = 0;
  std::uint64_t remote_bytes_fetched = 0;
  double busy_ms = 0.0;
  // Page-store accounting.
  std::uint64_t store_hit_pages = 0;
  std::uint64_t store_delta_bytes = 0;
  std::uint64_t template_clones = 0;
  std::uint64_t store_pages = 0;       // resident records at end of run
  std::uint64_t store_evicted_pages = 0;
  std::size_t store_templates = 0;
  // Live-migration / warmth ledger (zero unless migrations ran, §6i).
  std::uint64_t migrations_out = 0;
  std::uint64_t migrations_in = 0;
  std::uint64_t migrations_aborted = 0;
  std::uint64_t warmth_replicas_migrated = 0;
  std::uint64_t warmth_replicas_destroyed = 0;
};

struct ClusterScenarioResult {
  std::uint64_t requests = 0;
  std::uint64_t responses_ok = 0;
  std::uint64_t rejected = 0;
  std::uint64_t cold_starts = 0;
  std::uint64_t restore_fallbacks = 0;
  std::uint64_t replicas_started = 0;
  // From the platform's bounded aggregate (the scenario always runs with
  // aggregate_request_log on).
  double total_p50_ms = 0.0;
  double total_p95_ms = 0.0;
  double total_p99_ms = 0.0;
  double cold_startup_p50_ms = 0.0;
  double cold_startup_p95_ms = 0.0;
  std::uint64_t snapshot_hits = 0;
  std::uint64_t snapshot_misses = 0;
  std::uint64_t remote_bytes_fetched = 0;
  std::uint64_t store_hit_pages = 0;
  std::uint64_t store_delta_bytes = 0;
  std::uint64_t template_clones = 0;
  std::vector<ClusterNodeReport> nodes;
};

ClusterScenarioResult run_cluster_scenario(const ClusterScenarioConfig& config);

}  // namespace prebake::exp
