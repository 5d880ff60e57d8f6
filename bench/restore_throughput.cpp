// Restore-throughput hot-path bench (DESIGN.md §6g): how many restores per
// second the *host* can execute — the wall-clock cost of the simulation
// engine itself, not the simulated restore latency (which must not change).
//
// Sweeps snapshot sizes over three restore modes:
//
//   full-eager — every payload page installed during the restore call
//   lazy       — 25% working set eager, tail handed to the uffd server
//   cow-clone  — template already frozen on the node; restore = COW clone
//
// Each cell reports wall-clock restores/sec plus deterministic fields
// (simulated per-restore duration, pages, and a fingerprint of the restored
// process state). `--check` is the regression gate: it enforces >= 5x
// restores/sec over the recorded per-page-replay baseline (decode-copy era,
// captured on the reference container; see EXPERIMENTS.md).
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "criu/dump.hpp"
#include "criu/page_store.hpp"
#include "criu/restore.hpp"
#include "exp/calibration.hpp"
#include "exp/report.hpp"
#include "gate.hpp"

using namespace prebake;

namespace {

struct Cell {
  const char* mode;  // "full-eager" | "lazy" | "cow-clone"
  int heap_mib;
  // Restores/sec of the per-page replay loop and decode-copy image path
  // that DESIGN.md §6g replaced, recorded on the reference container with
  // this same bench — the denominator of the --check speedup gate.
  double baseline_per_sec;
};

constexpr Cell kCells[] = {
    {"full-eager", 16, 64694.0}, {"full-eager", 64, 18855.0},
    {"lazy", 16, 60934.0},       {"lazy", 64, 17305.0},
    {"cow-clone", 16, 35591.0},  {"cow-clone", 64, 9309.0},
};
constexpr double kMinSpeedup = 5.0;

// Timed repetitions per pass. The simulated durations are rep-independent
// after the first (steady-state warm fs), so reps only trade wall-clock
// noise for bench runtime. Each cell runs kTimingPasses passes and reports
// the median rate: a single pass is at the mercy of whatever else the
// scheduler co-runs (ctest -j shares the cores), and the median of three
// absorbs one arbitrarily bad pass without serializing the whole suite.
constexpr int kReps = 200;
constexpr int kTimingPasses = 3;

struct CellResult {
  double restores_per_sec = 0.0;  // wall-clock; excluded from determinism
  double sim_ms = 0.0;            // simulated duration of a steady-state restore
  std::uint64_t pages_restored = 0;
  std::uint64_t state_fingerprint = 0;
};

// Order-sensitive hash of the restored process's full state: VMA layout,
// residency bitmaps, and the content digest of every resident page. Two
// restores with equal fingerprints restored bit-identical processes.
std::uint64_t fingerprint(const os::Process& proc) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
    h ^= h >> 29;
  };
  for (const os::Thread& t : proc.threads()) {
    mix(static_cast<std::uint64_t>(t.tid));
    for (const std::uint64_t r : t.regs) mix(r);
  }
  for (const os::Vma& vma : proc.mm().vmas()) {
    mix(vma.start);
    mix(vma.length);
    mix(static_cast<std::uint64_t>(vma.prot));
    mix(static_cast<std::uint64_t>(vma.kind));
    const std::uint64_t n = vma.page_count();
    for (std::uint64_t p = 0; p < n; ++p) {
      if (!vma.present[p]) continue;
      mix(p);
      mix(vma.source->page_digest(p));
    }
  }
  return h;
}

CellResult run_cell(const Cell& cell) {
  sim::Simulation sim;
  os::Kernel kernel{sim, exp::testbed_costs()};
  kernel.fs().create("/bin/app", 1024 * 1024);

  // Bake the workload: a process with `heap_mib` of deterministic pattern
  // pages, dumped to a persisted image directory.
  const os::Pid pid = kernel.clone_process(os::kNoPid);
  kernel.exec(pid, "/bin/app", {"/bin/app"});
  const os::VmaId heap = kernel.mmap(
      pid, static_cast<std::uint64_t>(cell.heap_mib) * 1024 * 1024,
      os::Prot::kReadWrite, os::VmaKind::kAnon, "[heap]",
      std::make_shared<os::PatternSource>(0x9e11 + cell.heap_mib), false);
  kernel.fault_in_all(pid, heap, /*write=*/true);
  criu::DumpOptions dopts;
  dopts.fs_prefix = "/img/";
  const criu::DumpResult dump = criu::Dumper{kernel}.dump(pid, dopts);

  criu::RestoreOptions opts;
  opts.fs_prefix = "/img/";
  const bool lazy = std::strcmp(cell.mode, "lazy") == 0;
  const bool clone = std::strcmp(cell.mode, "cow-clone") == 0;
  if (lazy) opts.paging = criu::PagingPolicy::lazy();

  criu::PageStore store;
  if (clone) {
    opts.page_store = &store;
    opts.store_key = "/img/";
    // Materialize the template outside the timed loop; every timed restore
    // below is a COW clone of it.
    const criu::RestoreResult first =
        criu::Restorer{kernel}.restore(dump.images, opts);
    kernel.kill_process(first.pid);
    kernel.reap(first.pid);
  }

  CellResult out;

  criu::Restorer restorer{kernel};
  // Untimed warm-up restore: first restore pays the simulated cold reads and
  // the host-side decode; steady state is what the throughput gate measures.
  {
    const criu::RestoreResult r = restorer.restore(dump.images, opts);
    kernel.kill_process(r.pid);
    kernel.reap(r.pid);
  }

  // The clock covers restore + kill + reap only. The last-rep fingerprint is
  // a determinism artifact — it re-hashes every resident page, which costs
  // orders of magnitude more than the restore under test and would otherwise
  // swamp the thing being measured.
  double rates[kTimingPasses] = {};
  for (int pass = 0; pass < kTimingPasses; ++pass) {
    std::chrono::steady_clock::duration timed{};
    for (int i = 0; i < kReps; ++i) {
      const sim::TimePoint s0 = sim.now();
      const auto t0 = std::chrono::steady_clock::now();
      const criu::RestoreResult r = restorer.restore(dump.images, opts);
      timed += std::chrono::steady_clock::now() - t0;
      if (pass == 0 && i + 1 == kReps) {
        out.sim_ms = (sim.now() - s0).to_millis();
        out.pages_restored = r.pages_restored;
        out.state_fingerprint = fingerprint(kernel.process(r.pid));
      }
      const auto t1 = std::chrono::steady_clock::now();
      kernel.kill_process(r.pid);
      kernel.reap(r.pid);
      timed += std::chrono::steady_clock::now() - t1;
    }
    const double secs = std::chrono::duration<double>(timed).count();
    rates[pass] = static_cast<double>(kReps) / secs;
  }
  std::sort(rates, rates + kTimingPasses);
  out.restores_per_sec = rates[kTimingPasses / 2];
  return out;
}

using Outcome = bench::Outcome<Cell, CellResult>;

void json_row(const Outcome& o, bench::Row& row) {
  row.add("mode", "\"%s\"", o.cell.mode)
      .add("heap_mib", "%d", o.cell.heap_mib)
      .add("restores_per_sec", "%.1f", o.r.restores_per_sec)
      .host()
      .add("sim_ms", "%.6f", o.r.sim_ms)
      .add("pages_restored", "%" PRIu64, o.r.pages_restored)
      .add("state_fingerprint", "\"%016" PRIx64 "\"", o.r.state_fingerprint);
}

void report(const std::vector<Outcome>& outcomes) {
  exp::TextTable table{{"Mode", "Heap", "Restores/s", "Sim per restore",
                        "Pages", "Baseline", "Speedup"}};
  char buf[64];
  for (const auto& [cell, r] : outcomes) {
    std::snprintf(buf, sizeof buf, "%.0f", r.restores_per_sec);
    std::string rps = buf;
    std::snprintf(buf, sizeof buf, "%.0f", cell.baseline_per_sec);
    std::string base = buf;
    std::snprintf(buf, sizeof buf, "%.1fx",
                  r.restores_per_sec / cell.baseline_per_sec);
    table.add_row({cell.mode, std::to_string(cell.heap_mib) + " MiB", rps,
                   exp::fmt_ms(r.sim_ms), std::to_string(r.pages_restored),
                   base, buf});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Shape: restores/sec is host wall-clock (the harness's own speed);\n"
      "sim_ms is the simulated restore latency, which this bench must never\n"
      "change. The --check gate compares against the recorded\n"
      "baseline of the per-page replay loop.\n\n");
}

void check_gates(const std::vector<Outcome>& outcomes, bench::Gates& g) {
  for (const auto& [cell, r] : outcomes) {
    const double speedup = r.restores_per_sec / cell.baseline_per_sec;
    g.check(speedup >= kMinSpeedup,
            "%s/%d MiB %.0f restores/s is %.1fx the per-page-replay "
            "baseline %.0f (need >= %.1fx)",
            cell.mode, cell.heap_mib, r.restores_per_sec, speedup,
            cell.baseline_per_sec, kMinSpeedup);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags =
      bench::parse_flags(argc, argv, "restore_throughput", bench::kCheck,
                         "BENCH_restore_throughput.json");
  std::printf("== Restore throughput: zero-copy image path + batched page "
              "replay (DESIGN.md §6g) ==\n\n");
  return bench::run<Cell, CellResult>(
      flags, {.cells = kCells, .run_cell = run_cell, .row = json_row,
              .report = report, .gates = check_gates});
}
