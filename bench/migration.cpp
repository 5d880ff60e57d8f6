// Live replica migration via pre-dump chains (DESIGN.md §6i).
//
// The paper keeps warm state alive by restoring prebaked snapshots; this
// bench measures the complementary operation — moving a warm replica
// between worker nodes without destroying its warmth. The sweep crosses the
// per-request dirty-page rate (how fast the replica re-dirties its heap
// between pre-dump rounds) with the pre-copy round budget, and reports the
// cutover blackout against the cold re-restore a destroyed replica would
// have cost.
//
//   --check  gates: (1) a warm drain loses zero requests in every cell;
//            (2) the read-heavy cell's blackout stays under 30% of the cold
//            re-restore baseline; (3) blackout is monotone non-decreasing
//            in the dirty-page rate at the full round budget.
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "exp/migration.hpp"
#include "exp/report.hpp"
#include "gate.hpp"

using namespace prebake;

namespace {

struct Cell {
  std::uint64_t dirty_pages;
  int rounds;
};

// dirty 0 = read-heavy handler (the pre-copy converges immediately);
// 64/256 pages per request re-dirty the heap between rounds. rounds 1 vs 3
// shows what the iterative chain buys over a single pre-dump.
constexpr Cell kCells[] = {
    {0, 1}, {0, 3}, {64, 1}, {64, 3}, {256, 1}, {256, 3},
};

exp::MigrationScenarioResult run_cell(const Cell& cell, std::uint64_t seed) {
  exp::MigrationScenarioConfig cfg;
  cfg.seed = seed;
  cfg.request_dirty_pages = cell.dirty_pages;
  cfg.migration.max_rounds = cell.rounds;
  return exp::run_migration_scenario(cfg);
}

using Outcome = bench::Outcome<Cell, exp::MigrationScenarioResult>;

void json_row(const Outcome& o, bench::Row& row) {
  const exp::MigrationScenarioResult& r = o.r;
  row.add("dirty_pages", "%" PRIu64, o.cell.dirty_pages)
      .add("max_rounds", "%d", o.cell.rounds)
      .add("requests", "%" PRIu64, r.requests)
      .add("answered", "%" PRIu64, r.answered)
      .add("rejected", "%" PRIu64, r.stats.rejected)
      .add("migrations_completed", "%" PRIu64, r.stats.migrations_completed)
      .add("migrations_aborted", "%" PRIu64, r.stats.migrations_aborted)
      .add("rounds", "%" PRIu64, r.stats.migration_rounds)
      .add("precopy_bytes", "%" PRIu64, r.stats.migration_precopy_bytes)
      .add("final_bytes", "%" PRIu64, r.stats.migration_final_bytes)
      .add("downtime_ms", "%.3f", r.downtime_ms)
      .add("cold_restore_ms", "%.3f", r.cold_restore_ms)
      .add("warmth_migrated", "%" PRIu64, r.warmth_replicas_migrated)
      .add("warmth_destroyed", "%" PRIu64, r.warmth_replicas_destroyed)
      .add("total_p95_ms", "%.3f", r.total_p95_ms);
}

void report(const std::vector<Outcome>& outcomes) {
  exp::TextTable table{{"Dirty/req", "Rounds", "Requests", "Lost", "Migr",
                        "Pre-copy", "Final", "Downtime", "Cold restore"}};
  for (const auto& [cell, r] : outcomes) {
    char final_kib[32];
    std::snprintf(final_kib, sizeof final_kib, "%.1f KiB",
                  static_cast<double>(r.stats.migration_final_bytes) / 1024.0);
    table.add_row(
        {std::to_string(cell.dirty_pages), std::to_string(cell.rounds),
         std::to_string(r.requests), std::to_string(r.requests - r.answered),
         std::to_string(r.stats.migrations_completed),
         exp::fmt_mib(r.stats.migration_precopy_bytes), final_kib,
         exp::fmt_ms(r.downtime_ms), exp::fmt_ms(r.cold_restore_ms)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Shape: a read-heavy replica converges in one pre-dump round and\n"
      "cuts over in a blackout far below the cold re-restore; heavier\n"
      "dirtying grows the final delta until extra rounds stop paying.\n\n");
}

void check_gates(const std::vector<Outcome>& outcomes, bench::Gates& g) {
  for (const auto& [cell, r] : outcomes) {
    g.check(r.answered == r.requests && r.stats.rejected == 0,
            "dirty=%" PRIu64 " rounds=%d lost %" PRIu64 " of %" PRIu64
            " requests (%" PRIu64 " rejected) under a warm drain",
            cell.dirty_pages, cell.rounds, r.requests - r.answered,
            r.requests, r.stats.rejected);
    g.check(r.stats.migrations_completed > 0,
            "dirty=%" PRIu64 " rounds=%d completed no migration",
            cell.dirty_pages, cell.rounds);
  }
  // Read-heavy break-even: the blackout of a converged live migration must
  // be well under the cold re-restore a destroyed replica would pay.
  const auto& read_heavy = outcomes[1].r;  // dirty=0, rounds=3
  g.check(read_heavy.downtime_ms < 0.3 * read_heavy.cold_restore_ms,
          "read-heavy downtime %.3f ms >= 30%% of cold restore %.3f ms",
          read_heavy.downtime_ms, read_heavy.cold_restore_ms);
  // Monotonicity at the full round budget: more dirtying per request can
  // only grow the final delta (1% slack for request-timing jitter).
  for (std::size_t i = 3; i < outcomes.size(); i += 2) {
    const double prev = outcomes[i - 2].r.downtime_ms;
    const double cur = outcomes[i].r.downtime_ms;
    g.check(cur >= prev * 0.99,
            "downtime not monotone in dirty rate: dirty=%" PRIu64
            " -> %.3f ms, dirty=%" PRIu64 " -> %.3f ms",
            outcomes[i - 2].cell.dirty_pages, prev,
            outcomes[i].cell.dirty_pages, cur);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags =
      bench::parse_flags(argc, argv, "migration", bench::kCheck | bench::kSeed,
                         "BENCH_migration.json");
  std::printf(
      "== Live replica migration via pre-dump chains (DESIGN.md §6i) ==\n\n");
  return bench::run<Cell, exp::MigrationScenarioResult>(
      flags, {.cells = kCells,
              .run_cell =
                  [&](const Cell& c) { return run_cell(c, flags.seed); },
              .row = json_row,
              .report = report,
              .gates = check_gates});
}
