// Migration scenario: a warm replica serves a Poisson request stream while
// the platform live-migrates it between worker nodes via a pre-dump chain
// (DESIGN.md §6i). The scenario triggers the move mid-run — either a warm
// drain of the source node (evacuation) or a targeted migrate_replica — and
// measures the cutover blackout against the cost of destroying the replica
// and cold re-restoring it from the registry. An optional fault plan aims
// chaos at the migration machinery (source crash mid-pre-dump, destination
// crash mid-restore, corrupt chain links); the robustness claim under test
// is that every such fault degrades the migration, never the service.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "faas/platform.hpp"
#include "obs/report.hpp"
#include "os/faults.hpp"

namespace prebake::exp {

struct MigrationScenarioConfig {
  // Cluster shape; each node has 8 GiB of memory.
  std::uint32_t nodes = 3;
  std::uint32_t cpus_per_node = 2;
  faas::PlacementPolicy policy = faas::PlacementPolicy::kSnapshotLocality;
  // Registry-backed images: the cold re-restore baseline pays the remote
  // fetch, which is exactly the cost a live migration's shipped chain avoids.
  bool remote_registry = true;
  // Content-addressed node stores: per-link delta negotiation against the
  // destination's store (off = every link ships in full).
  bool page_store = true;
  // Keep the replica warm across the whole run; the scenario studies the
  // migration blackout, not idle reclamation.
  sim::Duration idle_timeout = sim::Duration::seconds(300);

  // Workload: one function, Poisson arrivals, each request dirtying this
  // many heap pages (the knob the downtime-vs-dirty-rate sweep turns). The
  // rate is high enough that several requests land inside each pre-dump
  // round, so the dirty-page knob actually re-dirties the chain.
  std::uint64_t request_dirty_pages = 0;
  double rate_hz = 50.0;
  sim::Duration duration = sim::Duration::seconds(120);
  std::uint64_t seed = 42;

  // The move. At `migrate_at`: drain_source ? drain the replica's node with
  // DrainMode::kMigrateWarm : migrate_replica(fn) to a node the platform
  // picks.
  sim::Duration migrate_at = sim::Duration::seconds(30);
  bool drain_source = true;

  // Migration policy under test (rounds, convergence threshold).
  faas::MigrationConfig migration{};

  // Fault plan, armed only after deploy + initial warm placement: the chaos
  // under study targets the migration machinery, not the first restore.
  os::FaultPlan faults;
  int restore_max_attempts = 3;
  sim::Duration node_recovery_delay = sim::Duration::seconds(30);
};

struct MigrationScenarioResult {
  std::uint64_t requests = 0;  // arrivals issued
  std::uint64_t answered = 0;  // callbacks delivered (any status)
  std::uint64_t responses_ok = 0;
  double availability = 0.0;  // responses_ok / requests

  faas::PlatformStats stats;  // the platform's counters at end of run
  // Mean cutover blackout per completed migration (0 when none completed).
  double downtime_ms = 0.0;
  // Baseline: start-up latency of a cold re-restore of the same function
  // from the registry on an otherwise idle node (what destroying the warm
  // replica instead of migrating it would cost the next request).
  double cold_restore_ms = 0.0;

  // Warmth ledger summed over nodes: replicas whose warm state survived the
  // move vs. replicas/template pages destroyed by drain or failure.
  std::uint64_t warmth_replicas_migrated = 0;
  std::uint64_t warmth_replicas_destroyed = 0;
  std::uint64_t warmth_template_pages_destroyed = 0;

  // Where the replica lived before and after (kNoNode when unresolved).
  faas::NodeId source_node = faas::kNoNode;
  faas::NodeId final_node = faas::kNoNode;

  double total_p50_ms = 0.0;
  double total_p95_ms = 0.0;

  std::uint64_t faults_injected = 0;
  std::vector<std::pair<std::string, std::uint64_t>> fired_by_site;
  bool operator==(const MigrationScenarioResult&) const = default;
};

// `trace`: see run_startup_scenario (exp/scenario.hpp).
MigrationScenarioResult run_migration_scenario(
    const MigrationScenarioConfig& config, obs::TraceReport* trace = nullptr);

}  // namespace prebake::exp
