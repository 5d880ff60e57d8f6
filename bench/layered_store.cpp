// Layered base+delta snapshots (DESIGN.md §6k): one warmed runtime template
// serves every function.
//
// Sweeps {monolithic, layered} x {1, 4, 16, 64 functions per base} x three
// runtime archetypes (calibrated JVM, interpreter-heavy CPython-like, AOT
// Go-like). Each cell models one node restoring every function once from a
// remote registry:
//
//   monolithic — every function's snapshot is self-contained; each first
//                restore on the node ships the full image and replays every
//                page (the platform's default path).
//   layered    — functions are split deltas over the runtime's shared base
//                snapshot. The node's first restore materializes the pinned
//                base template; every later function COW-clones the base and
//                ships + replays only its app delta.
//
// `--check` gates, for each runtime:
//   * warm-base new-function first-restore p95 <= 40% of monolithic
//     (fleets of >= 4 functions)
//   * 64-function registry bytes <= 35% of monolithic
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <stdexcept>
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
  const char* mode;  // "monolithic" | "layered"
  exp::RuntimeKind kind;
  int functions;
};

constexpr exp::RuntimeKind kRuntimes[] = {exp::RuntimeKind::kJava8,
                                          exp::RuntimeKind::kPython3,
                                          exp::RuntimeKind::kGo114};
constexpr int kFleets[] = {1, 4, 16, 64};

std::vector<Cell> make_cells() {
  std::vector<Cell> cells;
  for (const char* mode : {"monolithic", "layered"})
    for (const exp::RuntimeKind kind : kRuntimes)
      for (const int n : kFleets) cells.push_back(Cell{mode, kind, n});
  return cells;
}

struct CellResult {
  double first_fn_ms = 0.0;      // function 1's restore (cold node)
  double warm_p95_ms = 0.0;      // functions 2..N: first restore, base warm
  std::uint64_t registry_bytes = 0;  // total remote transfer for the cell
  std::uint64_t payload_bytes = 0;   // sum of snapshot page payloads
  std::uint64_t shared_pages = 0;    // dump-side pages deduped into the base
  std::uint64_t delta_pages = 0;     // restore-side pages replayed from deltas
  std::uint64_t base_clones = 0;     // restores served by base-template clone
  std::vector<double> warm_ms;
};

rt::FunctionSpec function_spec(exp::RuntimeKind kind, int i) {
  rt::FunctionSpec spec = exp::cross_runtime_spec(kind, 2);
  spec.name += "-f" + std::to_string(i);
  // Distinct app memory per function: the base stays shared, deltas do not.
  spec.memory_seed ^= 0x51ED0000ULL + static_cast<std::uint64_t>(i) * 0x9E37ULL;
  return spec;
}

CellResult run_cell(const Cell& cell) {
  sim::Simulation sim;
  os::Kernel kernel{sim, exp::testbed_costs()};
  funcs::SharedAssets assets;
  core::StartupService startup{kernel, exp::runtime_profile(cell.kind), assets};
  faas::FunctionBuilder builder{kernel, startup};
  const bool layered = std::strcmp(cell.mode, "layered") == 0;

  CellResult out;

  // Bake the shared base (layered only), then every function.
  core::BakedSnapshot base;
  if (layered) {
    rt::FunctionSpec base_spec;
    base_spec.name =
        std::string{"rt-base-"} + exp::runtime_kind_name(cell.kind);
    base_spec.handler_id = "noop";
    base_spec.runtime_binary = exp::cross_runtime_spec(cell.kind, 1).runtime_binary;
    core::PrebakeConfig cfg;
    cfg.store_root = "/registry/";
    faas::BuildResult built = builder.build(base_spec, cfg, sim::Rng{11});
    base = std::move(*built.snapshot);
  }
  std::vector<core::BakedSnapshot> snaps;
  for (int i = 0; i < cell.functions; ++i) {
    core::PrebakeConfig cfg;
    cfg.store_root = "/registry/";
    if (layered) cfg.split_base = &base;
    faas::BuildResult built = builder.build(function_spec(cell.kind, i), cfg,
                                            sim::Rng(100 + i));
    snaps.push_back(std::move(*built.snapshot));
    out.payload_bytes += snaps.back().stats.payload_bytes;
    out.shared_pages += snaps.back().shared_with_base;
  }

  // The node starts cold: the bake-side page-cache warmth does not count.
  kernel.fs().drop_caches();

  criu::PageStore store;
  const std::uint64_t clones_before = store.stats().base_template_clones;
  for (int i = 0; i < cell.functions; ++i) {
    const core::BakedSnapshot& snap = snaps[i];
    criu::RestoreOptions opts;
    opts.fs_prefix = snap.fs_prefix;
    opts.remote_fetch = true;
    criu::Restorer restorer{kernel};
    const sim::TimePoint t0 = sim.now();
    criu::RestoreResult r;
    if (layered) {
      opts.page_store = &store;
      opts.store_key = snap.fs_prefix;
      const criu::LayerLink links[] = {
          {&base.images, base.fs_prefix, base.fs_prefix},
          {&snap.images, snap.fs_prefix, snap.fs_prefix}};
      r = restorer.restore_layered(links, opts);
    } else {
      r = restorer.restore(snap.images, opts);
    }
    const double ms = (sim.now() - t0).to_millis();
    if (i == 0) {
      out.first_fn_ms = ms;  // with layers, fn 1 carries the base freeze
    } else {
      out.warm_ms.push_back(ms);
    }
    out.registry_bytes += r.remote_bytes;
    out.delta_pages += r.delta_pages_restored;
  }
  out.base_clones = store.stats().base_template_clones - clones_before;
  if (!out.warm_ms.empty())
    out.warm_p95_ms = stats::percentile(out.warm_ms, 0.95);
  return out;
}

using Outcome = bench::Outcome<Cell, CellResult>;

void json_row(const Outcome& o, bench::Row& row) {
  row.add("mode", "\"%s\"", o.cell.mode)
      .add("runtime", "\"%s\"", exp::runtime_kind_name(o.cell.kind))
      .add("functions", "%d", o.cell.functions)
      .add("first_fn_ms", "%.3f", o.r.first_fn_ms)
      .add("warm_p95_ms", "%.3f", o.r.warm_p95_ms)
      .add("registry_bytes", "%" PRIu64, o.r.registry_bytes)
      .add("payload_bytes", "%" PRIu64, o.r.payload_bytes)
      .add("shared_pages", "%" PRIu64, o.r.shared_pages)
      .add("delta_pages", "%" PRIu64, o.r.delta_pages)
      .add("base_clones", "%" PRIu64, o.r.base_clones);
}

void report(const std::vector<Outcome>& outcomes) {
  exp::TextTable table{{"Mode", "Runtime", "Fns", "First fn", "Warm p95",
                        "Registry", "Payload", "Shared pages", "Base clones"}};
  for (const auto& [cell, r] : outcomes)
    table.add_row({cell.mode, exp::runtime_kind_name(cell.kind),
                   std::to_string(cell.functions), exp::fmt_ms(r.first_fn_ms),
                   r.warm_ms.empty() ? "-" : exp::fmt_ms(r.warm_p95_ms),
                   exp::fmt_mib(r.registry_bytes), exp::fmt_mib(r.payload_bytes),
                   std::to_string(r.shared_pages),
                   std::to_string(r.base_clones)});
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Shape: function 1 materializes the pinned base template (one full\n"
      "base pull per node); functions 2..N COW-clone the warm base and ship\n"
      "+ replay only their app delta — the bigger the fleet per base, the\n"
      "closer the registry bill gets to deltas-only.\n\n");
}

const CellResult& find_cell(const std::vector<Outcome>& outcomes,
                            const char* mode, exp::RuntimeKind kind, int fns) {
  for (const auto& [cell, r] : outcomes)
    if (std::strcmp(cell.mode, mode) == 0 && cell.kind == kind &&
        cell.functions == fns)
      return r;
  throw std::logic_error{"layered_store: no such cell"};
}

void check_gates(const std::vector<Outcome>& outcomes, bench::Gates& g) {
  for (const exp::RuntimeKind kind : kRuntimes) {
    const char* rt_name = exp::runtime_kind_name(kind);
    for (const int fns : kFleets) {
      if (fns < 4) continue;
      const CellResult& mono = find_cell(outcomes, "monolithic", kind, fns);
      const CellResult& lay = find_cell(outcomes, "layered", kind, fns);
      g.check(lay.warm_p95_ms <= 0.40 * mono.warm_p95_ms,
              "%s/%d warm-base first-restore p95 %.3f ms > 40%% of "
              "monolithic %.3f ms",
              rt_name, fns, lay.warm_p95_ms, mono.warm_p95_ms);
    }
    const CellResult& mono64 = find_cell(outcomes, "monolithic", kind, 64);
    const CellResult& lay64 = find_cell(outcomes, "layered", kind, 64);
    if (g.check(lay64.registry_bytes * 100 <= mono64.registry_bytes * 35,
                "%s/64 layered registry bytes %" PRIu64 " > 35%% of "
                "monolithic %" PRIu64,
                rt_name, lay64.registry_bytes, mono64.registry_bytes))
      std::printf("%s/64: layered registry %.1f%% of monolithic, warm p95 "
                  "%.1f%% of monolithic\n",
                  rt_name,
                  100.0 * static_cast<double>(lay64.registry_bytes) /
                      static_cast<double>(mono64.registry_bytes),
                  100.0 * lay64.warm_p95_ms / mono64.warm_p95_ms);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags =
      bench::parse_flags(argc, argv, "layered_store", bench::kCheck,
                         "BENCH_layered.json");
  std::printf("== Layered base+delta snapshots: one warmed runtime template "
              "serves every function (DESIGN.md §6k) ==\n\n");
  const std::vector<Cell> cells = make_cells();
  return bench::run<Cell, CellResult>(
      flags, {.cells = cells, .run_cell = run_cell, .row = json_row,
              .report = report, .gates = check_gates});
}
