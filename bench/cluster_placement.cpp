// Cluster placement policies under "restore as a service" (Section 7).
//
// The paper's Section 7 sketches prebaking deployed against a remote
// snapshot registry: a node's first restore of a function pulls the images
// over the network, the page payload as a delta against the node's page
// store; later restores on the same node read the local, page-cached copy.
// The placement policy decides how often, and how much of, that transfer is
// paid. This bench runs identical mixed Poisson traffic (noop + markdown +
// image-resizer) over a 4-node cluster with each policy:
//
//   worst-fit   — spread by free memory (ignores where images already live)
//   round-robin — rotate placements across nodes
//   locality    — prefer nodes whose store holds most of the snapshot's
//                 pages (Ustiugov et al.'s snapshot-locality observation)
//
// and reports cold-start latency, registry traffic, and cache behaviour.
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "exp/cluster.hpp"
#include "exp/report.hpp"
#include "gate.hpp"

using namespace prebake;

namespace {

constexpr faas::PlacementPolicy kPolicies[] = {
    faas::PlacementPolicy::kWorstFit,
    faas::PlacementPolicy::kRoundRobin,
    faas::PlacementPolicy::kSnapshotLocality,
};

exp::ClusterScenarioResult run_policy(faas::PlacementPolicy policy,
                                      std::uint64_t seed) {
  exp::ClusterScenarioConfig cfg;
  cfg.policy = policy;
  cfg.seed = seed;
  return exp::run_cluster_scenario(cfg);
}

using Outcome =
    bench::Outcome<faas::PlacementPolicy, exp::ClusterScenarioResult>;

void json_row(const Outcome& o, bench::Row& row) {
  const exp::ClusterScenarioResult& r = o.r;
  row.add("policy", "\"%s\"", faas::placement_policy_name(o.cell))
      .add("requests", "%" PRIu64, r.requests)
      .add("ok", "%" PRIu64, r.responses_ok)
      .add("cold_starts", "%" PRIu64, r.stats.cold_starts)
      .add("cold_startup_p50_ms", "%.2f", r.cold_startup_p50_ms)
      .add("cold_startup_p95_ms", "%.2f", r.cold_startup_p95_ms)
      .add("total_p50_ms", "%.2f", r.total_p50_ms)
      .add("total_p95_ms", "%.2f", r.total_p95_ms)
      .add("total_p99_ms", "%.2f", r.total_p99_ms)
      .add("snapshot_hits", "%" PRIu64, r.snapshot_hits)
      .add("snapshot_misses", "%" PRIu64, r.snapshot_misses)
      .add("remote_mib_fetched", "%.1f",
           static_cast<double>(r.remote_bytes_fetched) / (1024.0 * 1024.0));
}

void report(const std::vector<Outcome>& outcomes) {
  exp::TextTable table{{"Policy", "Requests", "Cold", "Cold p50", "Cold p95",
                        "Total p95", "Cache hit", "Registry MiB"}};
  for (const auto& [policy, r] : outcomes) {
    const std::uint64_t lookups = r.snapshot_hits + r.snapshot_misses;
    table.add_row(
        {faas::placement_policy_name(policy), std::to_string(r.requests),
         std::to_string(r.stats.cold_starts),
         exp::fmt_ms(r.cold_startup_p50_ms),
         exp::fmt_ms(r.cold_startup_p95_ms), exp::fmt_ms(r.total_p95_ms),
         exp::fmt_percent(lookups == 0 ? 0.0
                                       : static_cast<double>(r.snapshot_hits) /
                                             static_cast<double>(lookups)),
         exp::fmt_mib(r.remote_bytes_fetched)});
  }
  std::printf("%s\n", table.to_string().c_str());

  std::printf("Per-node view (locality policy):\n");
  const exp::ClusterScenarioResult& loc = outcomes.back().r;
  exp::TextTable nodes{{"Node", "Placed", "Hits", "Misses", "Evicted pages",
                        "Registry MiB", "Busy"}};
  for (const exp::ClusterNodeReport& n : loc.nodes)
    nodes.add_row({n.name, std::to_string(n.stats.replicas_placed),
                   std::to_string(n.stats.snapshot_hits),
                   std::to_string(n.stats.snapshot_misses),
                   std::to_string(n.store_evicted_pages),
                   exp::fmt_mib(n.stats.remote_bytes_fetched),
                   exp::fmt_ms(n.stats.busy.to_millis(), 1)});
  std::printf("%s\n", nodes.to_string().c_str());

  const exp::ClusterScenarioResult& worst_fit = outcomes[0].r;
  const bool locality_wins =
      loc.cold_startup_p50_ms <= worst_fit.cold_startup_p50_ms &&
      loc.remote_bytes_fetched < worst_fit.remote_bytes_fetched;
  std::printf(
      "Shape: locality-aware placement re-lands restores on nodes that\n"
      "already hold the images, so cold starts read the page-cached copy\n"
      "instead of pulling the registry — %s here vs worst-fit.\n\n",
      locality_wins ? "confirmed" : "NOT confirmed");
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags =
      bench::parse_flags(argc, argv, "cluster_placement", bench::kSeed,
                         "BENCH_cluster_placement.json");
  std::printf("== Placement policies, 4-node cluster, remote snapshot "
              "registry (Section 7) ==\n\n");
  return bench::run<faas::PlacementPolicy, exp::ClusterScenarioResult>(
      flags, {.cells = kPolicies,
              .run_cell = [&](faas::PlacementPolicy policy) {
                return run_policy(policy, flags.seed);
              },
              .array = "policies",
              .row = json_row,
              .report = report,
              .threaded = false});
}
