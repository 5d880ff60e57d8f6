// Content-addressed page store (DESIGN.md §6f): delta-aware registry
// transfer + COW template restores.
//
// Sweeps replica counts over two sharing shapes:
//
//   same-function  — N replicas of one snapshot on one node. The first
//                    restore pays the registry fetch and freezes a template;
//                    replicas 2..N are COW clones (~CLONE cost, no I/O).
//   cross-function — the node already holds another function's pages (the
//                    shared runtime base); the target function's first fetch
//                    ships only its app-specific delta.
//
// `--check` gates (the protocol is bench/gate.hpp's):
//   * template-clone p95 < 30% of first-restore p95
//   * cross-function delta bytes < 50% of the full page payload
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/prebaker.hpp"
#include "criu/page_store.hpp"
#include "criu/restore.hpp"
#include "exp/calibration.hpp"
#include "exp/report.hpp"
#include "faas/builder.hpp"
#include "gate.hpp"
#include "stats/descriptive.hpp"

using namespace prebake;

namespace {

struct Cell {
  const char* mode;  // "same-function" | "cross-function"
  int replicas;
};

constexpr Cell kCells[] = {
    {"same-function", 1},  {"same-function", 4},  {"same-function", 16},
    {"same-function", 64}, {"cross-function", 1}, {"cross-function", 4},
    {"cross-function", 16}, {"cross-function", 64},
};

struct CellResult {
  double first_restore_ms = 0.0;  // full restore (fetch + template freeze)
  double clone_p50_ms = 0.0;      // COW clones, replicas 2..N
  double clone_p95_ms = 0.0;
  std::uint64_t delta_bytes = 0;    // first fetch's page payload on the wire
  std::uint64_t payload_bytes = 0;  // full page payload of the snapshot
  std::uint64_t hit_pages = 0;
  std::uint64_t remote_bytes = 0;  // registry traffic across all replicas
  std::uint64_t template_clones = 0;
  std::vector<double> clone_ms;
};

core::BakedSnapshot bake(faas::FunctionBuilder& builder,
                         const rt::FunctionSpec& spec, std::uint64_t seed) {
  core::PrebakeConfig cfg;
  cfg.store_root = "/registry/";
  faas::BuildResult built = builder.build(spec, cfg, sim::Rng{seed});
  return std::move(*built.snapshot);
}

CellResult run_cell(const Cell& cell) {
  sim::Simulation sim;
  os::Kernel kernel{sim, exp::testbed_costs()};
  funcs::SharedAssets assets;
  core::StartupService startup{kernel, exp::testbed_runtime(), assets};
  faas::FunctionBuilder builder{kernel, startup};

  criu::PageStore store;
  const bool cross = std::strcmp(cell.mode, "cross-function") == 0;

  // Cross-function shape: the base function's pages are already on the node
  // (one prior full restore), so the target's fetch is delta-only.
  if (cross) {
    const core::BakedSnapshot base = bake(builder, exp::noop_spec(), 1);
    criu::RestoreOptions warm;
    warm.fs_prefix = base.fs_prefix;
    warm.remote_fetch = true;
    warm.page_store = &store;
    warm.store_key = base.fs_prefix;
    kernel.fs().drop_caches();
    criu::Restorer{kernel}.restore(base.images, warm);
  }

  const core::BakedSnapshot target =
      bake(builder, cross ? exp::markdown_spec() : exp::noop_spec(), 2);
  criu::RestoreOptions opts;
  opts.fs_prefix = target.fs_prefix;
  opts.remote_fetch = true;
  opts.page_store = &store;
  opts.store_key = target.fs_prefix;
  kernel.fs().drop_caches();

  CellResult out;
  out.payload_bytes = target.stats.payload_bytes;
  const std::uint64_t clones_before = store.stats().template_clones;
  for (int i = 0; i < cell.replicas; ++i) {
    const sim::TimePoint t0 = sim.now();
    const criu::RestoreResult r =
        criu::Restorer{kernel}.restore(target.images, opts);
    const double ms = (sim.now() - t0).to_millis();
    if (i == 0) {
      out.first_restore_ms = ms;
      out.delta_bytes = r.store_delta_bytes;
    } else {
      out.clone_ms.push_back(ms);
    }
    out.hit_pages += r.store_hit_pages;
    out.remote_bytes += r.remote_bytes;
  }
  out.template_clones = store.stats().template_clones - clones_before;
  if (!out.clone_ms.empty()) {
    out.clone_p50_ms = stats::percentile(out.clone_ms, 0.5);
    out.clone_p95_ms = stats::percentile(out.clone_ms, 0.95);
  }
  return out;
}

using Outcome = bench::Outcome<Cell, CellResult>;

void json_row(const Outcome& o, bench::Row& row) {
  row.add("mode", "\"%s\"", o.cell.mode)
      .add("replicas", "%d", o.cell.replicas)
      .add("first_restore_ms", "%.3f", o.r.first_restore_ms)
      .add("clone_p50_ms", "%.3f", o.r.clone_p50_ms)
      .add("clone_p95_ms", "%.3f", o.r.clone_p95_ms)
      .add("delta_bytes", "%" PRIu64, o.r.delta_bytes)
      .add("payload_bytes", "%" PRIu64, o.r.payload_bytes)
      .add("hit_pages", "%" PRIu64, o.r.hit_pages)
      .add("remote_bytes", "%" PRIu64, o.r.remote_bytes)
      .add("template_clones", "%" PRIu64, o.r.template_clones);
}

void report(const std::vector<Outcome>& outcomes) {
  exp::TextTable table{{"Mode", "Replicas", "First restore", "Clone p50",
                        "Clone p95", "Delta", "Payload", "Registry"}};
  for (const auto& [cell, r] : outcomes)
    table.add_row({cell.mode, std::to_string(cell.replicas),
                   exp::fmt_ms(r.first_restore_ms),
                   r.clone_ms.empty() ? "-" : exp::fmt_ms(r.clone_p50_ms),
                   r.clone_ms.empty() ? "-" : exp::fmt_ms(r.clone_p95_ms),
                   exp::fmt_mib(r.delta_bytes), exp::fmt_mib(r.payload_bytes),
                   exp::fmt_mib(r.remote_bytes)});
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Shape: replica 1 pays the fetch + template freeze; replicas 2..N\n"
      "are COW clones of the frozen template, and a node that already holds\n"
      "another function's runtime base fetches only the app delta.\n\n");
}

void check_gates(const std::vector<Outcome>& outcomes, bench::Gates& g) {
  std::vector<double> firsts;
  std::vector<double> clones;
  for (const auto& [cell, r] : outcomes) {
    firsts.push_back(r.first_restore_ms);
    clones.insert(clones.end(), r.clone_ms.begin(), r.clone_ms.end());
    if (std::strcmp(cell.mode, "cross-function") == 0)
      g.check(r.delta_bytes * 2 < r.payload_bytes,
              "cross-function delta %" PRIu64 " B >= 50%% of payload %" PRIu64
              " B (replicas=%d)",
              r.delta_bytes, r.payload_bytes, cell.replicas);
  }
  const double first_p95 = stats::percentile(firsts, 0.95);
  const double clone_p95 = stats::percentile(clones, 0.95);
  if (g.check(clone_p95 < 0.30 * first_p95,
              "template-clone p95 %.3f ms >= 30%% of first-restore p95 "
              "%.3f ms",
              clone_p95, first_p95))
    std::printf("clone p95 %.3f ms vs first-restore p95 %.3f ms (%.1f%%)\n",
                clone_p95, first_p95, 100.0 * clone_p95 / first_p95);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags =
      bench::parse_flags(argc, argv, "dedup_store", bench::kCheck,
                         "BENCH_dedup_store.json");
  std::printf("== Content-addressed page store: delta transfer + COW "
              "template restores (DESIGN.md §6f) ==\n\n");
  return bench::run<Cell, CellResult>(
      flags, {.cells = kCells, .run_cell = run_cell, .row = json_row,
              .report = report, .gates = check_gates});
}
