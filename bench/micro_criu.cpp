// Micro-benchmarks (google-benchmark) for the checkpoint/restore engine:
// image encode/decode throughput, CRC32, page-source generation, pagemap
// walks, and full dump/restore cycles of the simulated engine (host-side
// cost of the simulation itself, useful for keeping the harness fast).
#include <benchmark/benchmark.h>

#include <array>
#include <optional>
#include <span>

#include "criu/crc32.hpp"
#include "criu/dump.hpp"
#include "criu/page_store.hpp"
#include "criu/restore.hpp"
#include "exp/calibration.hpp"

using namespace prebake;

namespace {

void BM_Crc32(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)));
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<std::uint8_t>(i * 31);
  for (auto _ : state)
    benchmark::DoNotOptimize(criu::crc32(data));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(4096)->Arg(65536)->Arg(1 << 20);

void BM_PatternSourceFill(benchmark::State& state) {
  const os::PatternSource src{42};
  std::array<std::uint8_t, os::kPageSize> buf{};
  std::uint64_t page = 0;
  for (auto _ : state) {
    src.fill(page++, std::span<std::uint8_t, os::kPageSize>{buf});
    benchmark::DoNotOptimize(buf);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(os::kPageSize));
}
BENCHMARK(BM_PatternSourceFill);

void BM_PageDigest(benchmark::State& state) {
  const os::PatternSource src{42};
  std::uint64_t page = 0;
  for (auto _ : state)
    benchmark::DoNotOptimize(src.page_digest(page++));
}
BENCHMARK(BM_PageDigest);

// Host-side cost of producing the digest list a delta negotiation ships:
// decoding the payload record from the raw image bytes every time...
void BM_DigestListDecode(benchmark::State& state) {
  std::vector<std::uint64_t> digests;
  const os::PatternSource src{42};
  for (int i = 0; i < state.range(0); ++i)
    digests.push_back(src.page_digest(static_cast<std::uint64_t>(i)));
  criu::PagesEntry entry;
  entry.mode = criu::PayloadMode::kDigest;
  entry.digests = digests;
  const std::vector<std::uint8_t> img = criu::encode_pages(entry);
  for (auto _ : state) {
    const criu::PagesEntry decoded = criu::decode_pages(img);
    benchmark::DoNotOptimize(decoded.digests.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_DigestListDecode)->Arg(256)->Arg(4096)->Arg(65536);

// ...versus reading it out of the ImageDir's shared decode cache, the path
// the page store's per-fetch negotiation actually takes (satellite of
// DESIGN.md §6f: re-hashing/re-decoding per fetch would dominate the RTT).
void BM_DigestListCached(benchmark::State& state) {
  std::vector<std::uint64_t> digests;
  const os::PatternSource src{42};
  for (int i = 0; i < state.range(0); ++i)
    digests.push_back(src.page_digest(static_cast<std::uint64_t>(i)));
  criu::PagesEntry entry;
  entry.mode = criu::PayloadMode::kDigest;
  entry.digests = std::move(digests);
  criu::ImageDir images;
  images.put("pages-1.img", criu::encode_pages(entry));
  for (auto _ : state) {
    const criu::ImageDir::Decoded& dec = images.decoded();
    benchmark::DoNotOptimize(dec.pages->digests().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_DigestListCached)->Arg(256)->Arg(4096)->Arg(65536);

// A template freeze on a node whose store already holds `range(0)` records,
// all pinned by one resident template. The frozen template has a fleet
// snapshot's seven pagemap runs, 3,591 digests. With `range(2)` = 1, the
// fleet's shape, its three runtime runs (java.text, [jvm-heap] and
// [metaspace]: 3,392 digests) are runs the resident template pins too, and
// only its four own runs (199 digests) are new; with 0, every run is new.
// Dropping the template and applying a budget of exactly the resident
// records (untimed) evicts its new pages, so every iteration starts from the
// same store. With `range(1)` = 1 that budget stays on, so each
// registration overflows it with pinned pages alone and evicts nothing. The
// reset scans the whole table, so the iteration count is fixed to keep the
// untimed part short.
void BM_PageStoreMaterialize(benchmark::State& state) {
  // A fleet snapshot's runs in pagemap order, and which of them are the
  // runtime's, the same in every fleet function.
  constexpr std::array<std::size_t, 7> kRuns{64, 128, 2816, 512, 42, 11, 18};
  constexpr std::array<bool, 7> kRuntime{true,  false, true, true,
                                         false, false, false};
  constexpr std::size_t kDigests = 3591;
  const auto records = static_cast<std::size_t>(state.range(0));
  const bool bounded = state.range(1) != 0;
  const bool shared = state.range(2) != 0;
  const os::PatternSource src{42};
  std::vector<std::uint64_t> resident(records);
  for (std::size_t i = 0; i < records; ++i) resident[i] = src.page_digest(i);
  // The frozen template's digests, run by run: a shared runtime run repeats
  // the resident's next digests, every other run is fresh.
  std::vector<std::uint64_t> fn;
  std::size_t held = 0;
  for (std::size_t r = 0; r < kRuns.size(); ++r)
    for (std::size_t i = 0; i < kRuns[r]; ++i)
      fn.push_back(shared && kRuntime[r] ? resident[held++]
                                         : src.page_digest(records + fn.size()));
  // The resident template pins the runtime runs, then its other records as
  // one more run.
  std::vector<criu::PageStore::Run> resident_runs;
  std::vector<criu::PageStore::Run> fn_runs;
  std::size_t res_at = 0;
  std::size_t fn_at = 0;
  for (std::size_t r = 0; r < kRuns.size(); ++r) {
    if (kRuntime[r]) {
      resident_runs.push_back(std::span{resident}.subspan(res_at, kRuns[r]));
      res_at += kRuns[r];
    }
    fn_runs.push_back(std::span{fn}.subspan(fn_at, kRuns[r]));
    fn_at += kRuns[r];
  }
  resident_runs.push_back(std::span{resident}.subspan(res_at));
  criu::PageStore store;
  store.register_template("resident", {}, resident_runs);
  if (bounded) store.set_capacity(records * os::kPageSize);
  for (auto _ : state) {
    store.register_template("fn", {}, fn_runs);
    benchmark::ClobberMemory();
    state.PauseTiming();
    store.drop_template("fn");
    if (!bounded) {
      store.set_capacity(records * os::kPageSize);
      store.set_capacity(0);
    }
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kDigests));
}
BENCHMARK(BM_PageStoreMaterialize)
    ->ArgNames({"records", "bounded", "shared"})
    ->ArgsProduct({{4000, 50000, 400000}, {0, 1}, {0, 1}})
    ->Iterations(1000);

void BM_EncodeDecodePagemap(benchmark::State& state) {
  std::vector<criu::PagemapEntry> entries;
  for (int i = 0; i < state.range(0); ++i)
    entries.push_back(criu::PagemapEntry{static_cast<os::VmaId>(i % 7),
                                         static_cast<std::uint64_t>(i) * 16, 8});
  for (auto _ : state) {
    const auto img = criu::encode_pagemap(entries);
    benchmark::DoNotOptimize(criu::decode_pagemap(img));
  }
}
BENCHMARK(BM_EncodeDecodePagemap)->Arg(16)->Arg(256)->Arg(4096);

void BM_KernelPagemapWalk(benchmark::State& state) {
  sim::Simulation sim;
  os::Kernel kernel{sim};
  kernel.fs().create("/bin/app", 1024 * 1024);
  const os::Pid pid = kernel.clone_process(os::kNoPid);
  kernel.exec(pid, "/bin/app", {"/bin/app"});
  const os::VmaId heap = kernel.mmap(
      pid, static_cast<std::uint64_t>(state.range(0)) * os::kPageSize,
      os::Prot::kReadWrite, os::VmaKind::kAnon, "[heap]",
      std::make_shared<os::PatternSource>(1), false);
  kernel.fault_in_all(pid, heap);
  for (auto _ : state)
    benchmark::DoNotOptimize(kernel.pagemap(pid));
}
BENCHMARK(BM_KernelPagemapWalk)->Arg(1024)->Arg(16384);

// A process whose heap is `mib` MiB of resident PatternSource{1} pages.
os::Pid spawn_heap(os::Kernel& kernel, std::int64_t mib) {
  const os::Pid pid = kernel.clone_process(os::kNoPid);
  kernel.exec(pid, "/bin/app", {"/bin/app"});
  const os::VmaId heap = kernel.mmap(
      pid, static_cast<std::uint64_t>(mib) * 1024 * 1024, os::Prot::kReadWrite,
      os::VmaKind::kAnon, "[heap]", std::make_shared<os::PatternSource>(1),
      false);
  kernel.fault_in_all(pid, heap);
  return pid;
}

struct Testbed {
  Testbed() { kernel.fs().create("/bin/app", 1024 * 1024); }
  sim::Simulation sim;
  os::Kernel kernel{sim, exp::testbed_costs()};
};

// The first bake of its content: a fresh kernel per iteration, so the
// kernel's digest memo holds nothing for the heap and every page is hashed.
void BM_FullDump(benchmark::State& state) {
  std::optional<Testbed> bed;
  for (auto _ : state) {
    state.PauseTiming();
    bed.emplace();
    const os::Pid pid = spawn_heap(bed->kernel, state.range(0));
    state.ResumeTiming();
    criu::DumpResult dump = criu::Dumper{bed->kernel}.dump(pid);
    benchmark::DoNotOptimize(dump);
  }
}
BENCHMARK(BM_FullDump)->Arg(4)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

// The Nth bake on a runtime: two earlier processes dumped the same heap
// seed, so the memo serves the heap and only pid-seeded pages are hashed.
void BM_FullDumpSharedSource(benchmark::State& state) {
  Testbed bed;
  for (int i = 0; i < 2; ++i)
    criu::Dumper{bed.kernel}.dump(spawn_heap(bed.kernel, state.range(0)));
  for (auto _ : state) {
    state.PauseTiming();
    const os::Pid pid = spawn_heap(bed.kernel, state.range(0));
    state.ResumeTiming();
    criu::DumpResult dump = criu::Dumper{bed.kernel}.dump(pid);
    benchmark::DoNotOptimize(dump);
  }
}
BENCHMARK(BM_FullDumpSharedSource)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

void BM_FullRestore(benchmark::State& state) {
  Testbed bed;
  const criu::DumpResult dump =
      criu::Dumper{bed.kernel}.dump(spawn_heap(bed.kernel, state.range(0)));
  for (auto _ : state) {
    const criu::RestoreResult r =
        criu::Restorer{bed.kernel}.restore(dump.images);
    state.PauseTiming();
    bed.kernel.kill_process(r.pid);
    bed.kernel.reap(r.pid);
    state.ResumeTiming();
  }
}
BENCHMARK(BM_FullRestore)->Arg(4)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
