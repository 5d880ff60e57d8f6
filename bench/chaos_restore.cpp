// Resilient restore under injected faults (chaos sweep).
//
// The paper assumes every CRIU restore succeeds; production snapshot stores
// see corrupt images, flaky disks, registry disconnects and node crashes.
// This bench drives the mixed Poisson cluster workload while sweeping the
// injected fault rate across the restore pipeline (bit-flips caught by the
// per-record CRCs, transient read errors, truncated persists, registry
// stalls/disconnects, mid-restore node crashes) with the resilience
// machinery on: bounded retries, Vanilla fallback, snapshot quarantine +
// re-bake, node recovery. Reported per rate: availability, fallback rate,
// and latency percentiles.
//
//   --check  gates on the default fault rate (5%): every request answered,
//            availability >= 99%.
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "exp/cluster.hpp"
#include "exp/report.hpp"
#include "gate.hpp"

using namespace prebake;

namespace {

// The swept knob is a single "fault pressure" r, fanned out across the
// sites: corruption and stalls at r, read errors / truncation / disconnects
// at r/2, node crashes at r/10 (a crash takes out every replica on the
// node, so equal pressure there would swamp the rest of the mix).
os::FaultPlan plan_at(double r, std::uint64_t seed) {
  os::FaultPlan plan;
  plan.seed = seed;
  plan.image_corruption_rate = r;
  plan.image_read_error_rate = r / 2;
  plan.truncated_write_rate = r / 2;
  plan.registry_stall_rate = r;
  plan.registry_disconnect_rate = r / 2;
  plan.node_crash_rate = r / 10;
  return plan;
}

constexpr double kRates[] = {0.0, 0.01, 0.05, 0.10};
constexpr std::size_t kDefaultCell = 2;  // the default 5% fault rate

// The cluster scenario with locality placement and the resilience policy
// under test: three restore attempts 5 ms apart, quarantine after three
// consecutive failures, crashed nodes back after 30 s.
exp::ClusterScenarioResult run_rate(double rate, std::uint64_t seed) {
  exp::ClusterScenarioConfig cfg;
  cfg.seed = seed;
  cfg.policy = faas::PlacementPolicy::kSnapshotLocality;
  cfg.faults = plan_at(rate, seed);
  cfg.restore_max_attempts = 3;
  cfg.quarantine_threshold = 3;
  cfg.node_recovery_delay = sim::Duration::seconds(30);
  return exp::run_cluster_scenario(cfg);
}

using Outcome = bench::Outcome<double, exp::ClusterScenarioResult>;

void json_row(const Outcome& o, bench::Row& row) {
  const exp::ClusterScenarioResult& r = o.r;
  row.add("fault_rate", "%.3f", o.cell)
      .add("requests", "%" PRIu64, r.requests)
      .add("answered", "%" PRIu64, r.answered)
      .add("ok", "%" PRIu64, r.responses_ok)
      .add("availability", "%.4f", r.availability)
      .add("fallback_rate", "%.4f", r.fallback_rate)
      .add("restore_retries", "%" PRIu64, r.stats.restore_retries)
      .add("quarantines", "%" PRIu64, r.stats.snapshot_quarantines)
      .add("rebakes", "%" PRIu64, r.stats.snapshot_rebakes)
      .add("node_crashes", "%" PRIu64, r.stats.node_crashes)
      .add("requests_requeued", "%" PRIu64, r.stats.requests_requeued)
      .add("faults_injected", "%" PRIu64, r.faults_injected)
      .add("total_p50_ms", "%.2f", r.total_p50_ms)
      .add("total_p95_ms", "%.2f", r.total_p95_ms)
      .add("total_p99_ms", "%.2f", r.total_p99_ms);
}

void report(const std::vector<Outcome>& outcomes) {
  exp::TextTable table{{"Fault rate", "Requests", "Avail", "Fallback",
                        "Retries", "Quar", "Rebake", "Crash", "Total p95",
                        "Total p99"}};
  for (const auto& [rate, r] : outcomes)
    table.add_row({exp::fmt_percent(rate), std::to_string(r.requests),
                   exp::fmt_percent(r.availability),
                   exp::fmt_percent(r.fallback_rate),
                   std::to_string(r.stats.restore_retries),
                   std::to_string(r.stats.snapshot_quarantines),
                   std::to_string(r.stats.snapshot_rebakes),
                   std::to_string(r.stats.node_crashes),
                   exp::fmt_ms(r.total_p95_ms), exp::fmt_ms(r.total_p99_ms)});
  std::printf("%s\n", table.to_string().c_str());

  const auto& [rate, r] = outcomes[kDefaultCell];
  std::printf("Injected faults by site (rate %.0f%%):\n", rate * 100.0);
  for (const auto& [site, fired] : r.fired_by_site)
    if (fired > 0) std::printf("  %-20s %" PRIu64 "\n", site.c_str(), fired);
  std::printf(
      "\nShape: retries absorb transient faults, quarantine + re-bake heal\n"
      "poisoned snapshots, fallbacks keep availability while trading away\n"
      "the prebaking latency win (p99 climbs toward the Vanilla "
      "baseline).\n\n");
}

void check_gates(const std::vector<Outcome>& outcomes, bench::Gates& g) {
  const auto& [rate, r] = outcomes[kDefaultCell];
  g.check(r.answered == r.requests,
          "%" PRIu64 " of %" PRIu64 " requests never answered",
          r.requests - r.answered, r.requests);
  if (g.check(r.availability >= 0.99,
              "availability %.4f < 0.99 at %.0f%% faults", r.availability,
              rate * 100.0))
    std::printf("availability %.2f%% >= 99%% at %.0f%% fault rate\n",
                r.availability * 100.0, rate * 100.0);
  g.check(outcomes[0].r.faults_injected == 0,
          "%" PRIu64 " faults fired with an all-zero plan",
          outcomes[0].r.faults_injected);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags = bench::parse_flags(
      argc, argv, "chaos_restore", bench::kCheck | bench::kSeed,
      "BENCH_chaos_restore.json");
  std::printf("== Chaos: resilient restore under injected faults ==\n\n");
  return bench::run<double, exp::ClusterScenarioResult>(
      flags,
      {.cells = kRates,
       .run_cell = [&](double rate) { return run_rate(rate, flags.seed); },
       .array = "rates",
       .row = json_row,
       .report = report,
       .gates = check_gates,
       .threaded = false});
}
