// Chaos scenario: the cluster workload of exp/cluster.hpp with a seeded
// fault plan injected into the restore pipeline (os/faults.hpp) and the
// platform's resilience machinery turned on — per-start retries, restore
// deadline, Vanilla fallback, snapshot quarantine + re-bake, and node-crash
// recovery. The question the sweep answers: how much fault pressure can the
// prebaking path absorb before requests are lost or latency degrades to the
// Vanilla baseline?
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "faas/platform.hpp"
#include "os/faults.hpp"

namespace prebake::exp {

struct ChaosScenarioConfig {
  // Cluster shape (mirrors ClusterScenarioConfig).
  std::uint32_t nodes = 4;
  std::uint32_t cpus_per_node = 2;
  std::uint64_t node_mem_bytes = 8ull << 30;
  std::uint64_t node_page_store_bytes = 120ull << 20;
  faas::PlacementPolicy policy = faas::PlacementPolicy::kSnapshotLocality;
  bool remote_registry = true;
  sim::Duration idle_timeout = sim::Duration::seconds(4);
  double rate_hz = 0.5;  // per-function Poisson arrival rate
  sim::Duration duration = sim::Duration::seconds(600);
  std::uint64_t seed = 42;

  // The fault mix. Installed after deploy (the build-time bake is verified
  // out-of-band; chaos targets the restore path), so an all-zero plan makes
  // this scenario behave exactly like run_cluster_scenario.
  os::FaultPlan faults;

  // Resilience policy under test.
  int restore_max_attempts = 3;
  sim::Duration restore_retry_backoff = sim::Duration::millis(5);
  sim::Duration restore_deadline{};  // zero = unbounded
  std::uint32_t quarantine_threshold = 3;
  sim::Duration node_recovery_delay = sim::Duration::seconds(30);
};

struct ChaosScenarioResult {
  std::uint64_t requests = 0;   // arrivals scheduled
  std::uint64_t answered = 0;   // callbacks delivered (any status)
  std::uint64_t responses_ok = 0;
  std::uint64_t rejected = 0;
  // answered / requests: 1.0 means no request was lost outright;
  // responses_ok / requests is the availability the --check gate asserts.
  double availability = 0.0;

  std::uint64_t cold_starts = 0;
  std::uint64_t replicas_started = 0;
  std::uint64_t restore_fallbacks = 0;
  std::uint64_t restore_retries = 0;
  std::uint64_t snapshot_quarantines = 0;
  std::uint64_t snapshot_rebakes = 0;
  std::uint64_t node_crashes = 0;
  std::uint64_t node_recoveries = 0;
  std::uint64_t requests_requeued = 0;
  // restore_fallbacks / replicas_started (0 when nothing started).
  double fallback_rate = 0.0;

  double total_p50_ms = 0.0;
  double total_p95_ms = 0.0;
  double total_p99_ms = 0.0;
  double cold_startup_p50_ms = 0.0;
  double cold_startup_p95_ms = 0.0;

  // Injector accounting: (site name, times fired), plus the full firing
  // trace — the determinism tests compare traces across runs/thread counts.
  std::uint64_t faults_injected = 0;
  std::vector<std::pair<std::string, std::uint64_t>> fired_by_site;
  std::vector<faults::Injector::Event> fault_trace;

  // End-of-run circuit-breaker state per function that ever failed a
  // restore (healthy functions have no row).
  struct HealthRow {
    std::string function;
    std::uint32_t consecutive_failures = 0;
    bool quarantined = false;
    std::uint32_t rebakes = 0;
  };
  std::vector<HealthRow> snapshot_health;
};

ChaosScenarioResult run_chaos_scenario(const ChaosScenarioConfig& config);

}  // namespace prebake::exp
