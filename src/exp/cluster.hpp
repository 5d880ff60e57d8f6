// Cluster scenario: the paper's three functions under mixed Poisson traffic
// on a multi-node platform with a remote snapshot registry (Section 7's
// "checkpoint/restore as a service"). The knob under study is the placement
// policy: how often does a restore land on a node that already holds the
// function's pages (local, page-cached reads) versus one that must pull
// them over the network first?
//
// With a fault plan the same run is the chaos scenario (DESIGN.md §6d): the
// plan is injected into the restore pipeline (os/faults.hpp) and the
// resilience fields turn on the platform's per-start retries with Vanilla
// fallback, snapshot quarantine + re-bake and node-crash recovery. The
// question that sweep answers: how much fault pressure can
// the prebaking path absorb before requests are lost or latency degrades to
// the Vanilla baseline?
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "faas/platform.hpp"
#include "obs/report.hpp"
#include "os/faults.hpp"
#include "sim/simulation.hpp"

namespace prebake::exp {

struct ClusterScenarioConfig {
  std::uint32_t nodes = 4;
  // Cores per node for the WorkerNode timeline; 0 = uncapped. Each node has
  // 8 GiB of memory.
  std::uint32_t cpus_per_node = 2;
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

  // The fault mix, armed after deploy: the build-time bake is verified
  // out-of-band, chaos targets the restore path. An all-zero plan fires
  // nothing.
  os::FaultPlan faults;
  // Resilience policy (faas::PlatformConfig's fields). The defaults are the
  // platform's, which leave a plain run untouched: one restore attempt, no
  // quarantine, and a crashed node stays down.
  int restore_max_attempts = 1;
  std::uint32_t quarantine_threshold = 0;
  sim::Duration node_recovery_delay{};
};

struct ClusterNodeReport {
  faas::NodeId id = 0;
  std::string name;
  std::string state;
  std::uint32_t replicas = 0;  // resident at end of run
  std::uint64_t mem_used = 0;
  std::uint64_t mem_capacity = 0;
  faas::NodeStats stats;
  // Page-store state at end of run.
  std::uint64_t store_pages = 0;  // resident records
  std::uint64_t store_evicted_pages = 0;
  std::size_t store_templates = 0;
  bool operator==(const ClusterNodeReport&) const = default;
};

struct ClusterScenarioResult {
  std::uint64_t requests = 0;  // arrivals issued
  std::uint64_t answered = 0;  // callbacks delivered (any status)
  std::uint64_t responses_ok = 0;
  // responses_ok / requests: the availability the chaos --check gate
  // asserts. answered < requests means requests were lost outright.
  double availability = 0.0;
  // restore_fallbacks / replicas_started (0 when nothing started).
  double fallback_rate = 0.0;
  faas::PlatformStats stats;  // the platform's counters at end of run
  // From the platform's bounded aggregate (the scenario always runs with
  // aggregate_request_log on).
  double total_p50_ms = 0.0;
  double total_p95_ms = 0.0;
  double total_p99_ms = 0.0;
  double cold_startup_p50_ms = 0.0;
  double cold_startup_p95_ms = 0.0;
  // Summed over nodes.
  std::uint64_t snapshot_hits = 0;
  std::uint64_t snapshot_misses = 0;
  std::uint64_t remote_bytes_fetched = 0;
  std::uint64_t store_hit_pages = 0;
  std::uint64_t store_delta_bytes = 0;
  std::uint64_t template_clones = 0;
  std::vector<ClusterNodeReport> nodes;

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
    bool operator==(const HealthRow&) const = default;
  };
  std::vector<HealthRow> snapshot_health;
  bool operator==(const ClusterScenarioResult&) const = default;
};

// `trace`: see run_startup_scenario (exp/scenario.hpp).
ClusterScenarioResult run_cluster_scenario(const ClusterScenarioConfig& config,
                                           obs::TraceReport* trace = nullptr);

namespace detail {
// Step an open-loop run on to the end of its arrival window once the replay
// is done, then `settle` further: a crash among the last requests schedules
// its node's recovery up to node_recovery_delay past the final response,
// and end-of-run stats should reflect the healed cluster. The migration
// runner ends the same way.
void finish_window(sim::Simulation& sim, sim::TimePoint end,
                   sim::Duration settle);
}  // namespace detail

}  // namespace prebake::exp
