// Working-set restore bench (DESIGN.md §6j): REAP-style record-and-prefetch
// against eager and pure-lazy restores.
//
// The workload is the REAP sweet spot: a large resident runtime heap of
// which the first invocation touches only a small working set (a handler's
// footprint is set by its code, not the runtime's heap). Each cell restores
// a baked snapshot and then runs the first invocation's memory touches
// through the mode's own paging mechanism:
//
//   eager     — everything installed during restore; the invocation faults
//               nothing (the paper's baseline restore)
//   pure-lazy — nothing installed; every touch is a userfaultfd round trip
//   ws        — an untimed record pass captures the invocation's working
//               set into ws-1.img; the timed restore bulk-maps exactly
//               those pages and the invocation faults nothing
//
// All reported fields are simulated durations, so the whole JSON is
// deterministic. `--check` gates (per heap size):
//   * ws first-invoke stall   <= 30% of pure-lazy's
//   * ws restore latency      <= 2x pure-lazy's
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "criu/dump.hpp"
#include "criu/restore.hpp"
#include "criu/ws.hpp"
#include "exp/calibration.hpp"
#include "exp/report.hpp"
#include "gate.hpp"

using namespace prebake;

namespace {

// First-invocation working set: 128 pages (512 KiB) regardless of heap
// size — a handler's touches do not grow with the runtime baggage around
// them. Small enough that bulk-mapping it stays within the restore-latency
// gate, large enough that serving it by uffd round trips visibly stalls
// the first request.
constexpr std::uint64_t kWsPages = 128;

struct Cell {
  const char* mode;  // "eager" | "pure-lazy" | "ws"
  int heap_mib;
};

constexpr Cell kCells[] = {
    {"eager", 16}, {"eager", 64}, {"pure-lazy", 16},
    {"pure-lazy", 64}, {"ws", 16}, {"ws", 64},
};

struct CellResult {
  double restore_ms = 0.0;       // simulated restore-to-ready latency
  double first_invoke_ms = 0.0;  // simulated demand-fault stall of invoke #1
  std::uint64_t ws_prefetched = 0;
  std::uint64_t pending_after_restore = 0;
};

// The invocation's memory touches under the cell's paging mode: the working
// set is the heap's first kWsPages pages, touched first — so under lazy
// paging they are exactly the uffd server's next pages in first-touch
// order, and under eager/ws paging they are already resident and stall
// nothing.
void first_invocation(const criu::RestoreResult& r) {
  if (r.lazy_server == nullptr || r.lazy_server->done()) return;
  const std::uint64_t touched =
      std::min<std::uint64_t>(kWsPages, r.lazy_server->pending_pages());
  if (touched > 0 && r.ws_prefetched_pages == 0) r.lazy_server->page_in(touched);
}

CellResult run_cell(const Cell& cell) {
  sim::Simulation sim;
  os::Kernel kernel{sim, exp::testbed_costs()};

  // Bake: a process whose resident heap is `heap_mib` of pattern pages.
  const os::Pid pid = kernel.clone_process(os::kNoPid);
  kernel.process(pid).set_name("ws-bench");
  const os::VmaId heap = kernel.mmap(
      pid, static_cast<std::uint64_t>(cell.heap_mib) * 1024 * 1024,
      os::Prot::kReadWrite, os::VmaKind::kAnon, "[heap]",
      std::make_shared<os::PatternSource>(0x3A9 + cell.heap_mib), false);
  kernel.fault_in_all(pid, heap);
  criu::DumpOptions dopts;
  dopts.fs_prefix = "/snap/ws/";
  criu::DumpResult dump = criu::Dumper{kernel}.dump(pid, dopts);

  criu::RestoreOptions opts;
  opts.fs_prefix = "/snap/ws/";
  if (std::strcmp(cell.mode, "pure-lazy") == 0)
    opts.paging = criu::PagingPolicy::lazy(0.0);

  if (std::strcmp(cell.mode, "ws") == 0) {
    // Untimed record pass: restore in recording mode, run the first
    // invocation's touches, close the capture into ws-1.img. This is the
    // platform's one-time per-snapshot cost; every later restore prefetches.
    opts.paging = criu::PagingPolicy::ws_recording();
    const criu::RestoreResult rec =
        criu::Restorer{kernel}.restore(dump.images, opts);
    rec.lazy_server->page_in(kWsPages);
    const criu::WorkingSetImage ws =
        criu::finish_ws_recording(kernel, *rec.ws_recorder);
    const std::vector<std::uint8_t> bytes = criu::encode_ws(ws);
    kernel.fs().create("/snap/ws/" + std::string{criu::kWsImageName},
                       bytes.size());
    dump.images.put(criu::kWsImageName, bytes);
    kernel.kill_process(rec.pid);
    kernel.reap(rec.pid);
    opts.paging = criu::PagingPolicy::ws_prefetch();
  }

  // Untimed warm-up restore: the first restore pays cold disk reads; the
  // gates compare steady-state (page-cache warm) latencies, like a node
  // restoring the same snapshot repeatedly.
  {
    const criu::RestoreResult warm =
        criu::Restorer{kernel}.restore(dump.images, opts);
    if (warm.lazy_server != nullptr) warm.lazy_server->page_in_all();
    kernel.kill_process(warm.pid);
    kernel.reap(warm.pid);
  }

  CellResult out;

  const sim::TimePoint t0 = sim.now();
  const criu::RestoreResult r = criu::Restorer{kernel}.restore(dump.images, opts);
  out.restore_ms = (sim.now() - t0).to_millis();
  out.ws_prefetched = r.ws_prefetched_pages;
  out.pending_after_restore =
      r.lazy_server != nullptr ? r.lazy_server->pending_pages() : 0;

  const sim::TimePoint t1 = sim.now();
  first_invocation(r);
  out.first_invoke_ms = (sim.now() - t1).to_millis();
  return out;
}

using Outcome = bench::Outcome<Cell, CellResult>;

void json_row(const Outcome& o, bench::Row& row) {
  row.add("mode", "\"%s\"", o.cell.mode)
      .add("heap_mib", "%d", o.cell.heap_mib)
      .add("restore_ms", "%.6f", o.r.restore_ms)
      .add("first_invoke_ms", "%.6f", o.r.first_invoke_ms)
      .add("ws_prefetched", "%" PRIu64, o.r.ws_prefetched)
      .add("pending_after_restore", "%" PRIu64, o.r.pending_after_restore);
}

void report(const std::vector<Outcome>& outcomes) {
  exp::TextTable table{{"Mode", "Heap", "Restore", "First-invoke stall",
                        "Restore + stall", "WS prefetched", "Lazy pending"}};
  for (const auto& [cell, r] : outcomes)
    table.add_row({cell.mode, std::to_string(cell.heap_mib) + " MiB",
                   exp::fmt_ms(r.restore_ms), exp::fmt_ms(r.first_invoke_ms),
                   exp::fmt_ms(r.restore_ms + r.first_invoke_ms),
                   std::to_string(r.ws_prefetched),
                   std::to_string(r.pending_after_restore)});
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Shape: pure-lazy defers everything and pays one uffd round trip\n"
      "per first-invocation touch; the ws restore bulk-maps the recorded\n"
      "working set for a fraction of that stall while staying within 2x of\n"
      "the pure-lazy restore latency (the cold tail stays lazy for life).\n\n");
}

const CellResult& find(const std::vector<Outcome>& outcomes, const char* mode,
                       int heap_mib) {
  for (const auto& [cell, r] : outcomes)
    if (std::strcmp(cell.mode, mode) == 0 && cell.heap_mib == heap_mib)
      return r;
  throw std::logic_error{"ws_restore: no such cell"};
}

void check_gates(const std::vector<Outcome>& outcomes, bench::Gates& g) {
  for (const int heap : {16, 64}) {
    const CellResult& lazy = find(outcomes, "pure-lazy", heap);
    const CellResult& ws = find(outcomes, "ws", heap);
    g.check(ws.first_invoke_ms <= 0.30 * lazy.first_invoke_ms,
            "%d MiB ws first-invoke stall %.3f ms exceeds 30%% of "
            "pure-lazy's %.3f ms",
            heap, ws.first_invoke_ms, lazy.first_invoke_ms);
    g.check(ws.restore_ms <= 2.0 * lazy.restore_ms,
            "%d MiB ws restore %.3f ms exceeds 2x pure-lazy's %.3f ms", heap,
            ws.restore_ms, lazy.restore_ms);
    g.check(ws.ws_prefetched == kWsPages,
            "%d MiB ws cell prefetched %" PRIu64 " pages, recorded %" PRIu64,
            heap, ws.ws_prefetched, kWsPages);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags =
      bench::parse_flags(argc, argv, "ws_restore", bench::kCheck,
                         "BENCH_ws_restore.json");
  std::printf("== Working-set restore: record-and-prefetch vs eager and "
              "pure-lazy (DESIGN.md §6j) ==\n\n");
  bench::Row header;
  header.add("ws_pages", "%" PRIu64, kWsPages);
  return bench::run<Cell, CellResult>(
      flags, {.cells = kCells, .run_cell = run_cell, .header = header,
              .row = json_row, .report = report, .gates = check_gates});
}
