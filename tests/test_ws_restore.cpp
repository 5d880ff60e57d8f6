// REAP-style working-set restore (DESIGN.md §6j): the ws-1.img format, the
// record -> prefetch restore state machine, damaged-image fallback, the
// page-store delta interaction, and the platform's record-then-prefetch
// lifecycle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "criu/dump.hpp"
#include "criu/page_store.hpp"
#include "criu/restore.hpp"
#include "exp/calibration.hpp"
#include "exp/parallel_runner.hpp"
#include "faas/cluster.hpp"
#include "faas/platform.hpp"

namespace prebake::criu {
namespace {

using os::kPageSize;

// --- ws-1.img format -------------------------------------------------------

TEST(WsRestoreImage, RoundTripPreservesRunsAndTotals) {
  WorkingSetImage ws;
  ws.runs = {WsRun{1, 0, 5}, WsRun{1, 10, 3}, WsRun{2, 4, 1}};
  ws.total_pages = 9;
  const std::vector<std::uint8_t> bytes = encode_ws(ws);
  EXPECT_EQ(decode_ws(bytes), ws);
}

TEST(WsRestoreImage, EmptyWorkingSetRoundTrips) {
  // A function that touches nothing during its first invocation is legal:
  // the image encodes zero runs and decodes back to an empty set.
  const WorkingSetImage ws;
  EXPECT_EQ(decode_ws(encode_ws(ws)), ws);
}

TEST(WsRestoreImage, TruncatedBytesThrowTypedTruncation) {
  WorkingSetImage ws;
  ws.runs = {WsRun{1, 0, 8}};
  ws.total_pages = 8;
  std::vector<std::uint8_t> bytes = encode_ws(ws);
  bytes.resize(8);  // shorter than the fixed header
  try {
    decode_ws(bytes);
    FAIL() << "decode_ws accepted a truncated image";
  } catch (const RestoreError& e) {
    EXPECT_EQ(e.kind(), RestoreErrorKind::kTruncatedImage);
  }
}

TEST(WsRestoreImage, CorruptBytesThrowTypedCorruption) {
  WorkingSetImage ws;
  ws.runs = {WsRun{1, 0, 8}};
  ws.total_pages = 8;
  std::vector<std::uint8_t> bytes = encode_ws(ws);
  bytes[bytes.size() / 2] ^= 0xFF;  // CRC no longer matches
  try {
    decode_ws(bytes);
    FAIL() << "decode_ws accepted a corrupt image";
  } catch (const RestoreError& e) {
    EXPECT_EQ(e.kind(), RestoreErrorKind::kCorruptImage);
  }
}

// --- record / prefetch restores -------------------------------------------

class WsRestoreTest : public ::testing::Test {
 protected:
  WsRestoreTest() : kernel_{sim_} {}

  // A single-VMA target (one pattern heap, `pages` resident) so the
  // recorded working set and the restore's residency are exactly
  // predictable: pagemap order == page order within the one VMA.
  os::Pid make_target(std::uint64_t pages = 64) {
    const os::Pid pid = kernel_.clone_process(os::kNoPid);
    kernel_.process(pid).set_name("ws-app");
    const os::VmaId heap = kernel_.mmap(
        pid, kPageSize * pages, os::Prot::kReadWrite, os::VmaKind::kAnon,
        "[heap]", std::make_shared<os::PatternSource>(0x5E7), false);
    kernel_.fault_in_all(pid, heap);
    return pid;
  }

  DumpResult dump_to(os::Pid pid, const std::string& prefix) {
    DumpOptions opts;
    opts.fs_prefix = prefix;
    return Dumper{kernel_}.dump(pid, opts);
  }

  static os::VmaId image_heap_vma(const DumpResult& dump) {
    for (const VmaEntry& e : dump.images.decoded().vmas)
      if (e.name == "[heap]") return e.id;
    ADD_FAILURE() << "dump has no [heap] vma";
    return 0;
  }

  const os::Vma& restored_heap(os::Pid pid) {
    for (const os::Vma& v : kernel_.process(pid).mm().vmas())
      if (v.name == "[heap]") return v;
    throw std::logic_error{"restored process has no [heap] vma"};
  }

  sim::Simulation sim_;
  os::Kernel kernel_;
};

TEST_F(WsRestoreTest, RecordingRestoreDefersEverythingAndArmsCapture) {
  const DumpResult dump = dump_to(make_target(), "/snap/ws/");
  RestoreOptions opts;
  opts.fs_prefix = "/snap/ws/";
  opts.paging = PagingPolicy::ws_recording();
  const RestoreResult r = Restorer{kernel_}.restore(dump.images, opts);

  // Record mode restores pure-lazy: every page is deferred so the kernel's
  // fault capture sees exactly the first invocation's touches.
  ASSERT_NE(r.ws_recorder, nullptr);
  EXPECT_EQ(r.ws_recorder->pid, r.pid);
  EXPECT_TRUE(kernel_.fault_recording(r.pid));
  ASSERT_NE(r.lazy_server, nullptr);
  EXPECT_EQ(r.lazy_server->pending_pages(), 64u);
  EXPECT_EQ(r.ws_prefetched_pages, 0u);
  EXPECT_FALSE(r.ws_fallback);
  EXPECT_EQ(restored_heap(r.pid).resident_pages(), 0u);
}

TEST_F(WsRestoreTest, RecordedSetMatchesKernelFaultLogExactly) {
  const DumpResult dump = dump_to(make_target(), "/snap/ws/");
  const os::VmaId img_vma = image_heap_vma(dump);
  RestoreOptions opts;
  opts.fs_prefix = "/snap/ws/";
  opts.paging = PagingPolicy::ws_recording();
  const RestoreResult r = Restorer{kernel_}.restore(dump.images, opts);
  ASSERT_NE(r.ws_recorder, nullptr);

  // The "first invocation": five demand faults through the uffd server
  // (first-touch order -> pages 0..4) plus a direct three-page touch at 10.
  r.lazy_server->page_in(5);
  kernel_.fault_in(r.pid, restored_heap(r.pid).id, 10, 3, /*write=*/false);

  const WorkingSetImage ws = finish_ws_recording(kernel_, *r.ws_recorder);
  EXPECT_FALSE(kernel_.fault_recording(r.pid));  // capture disarmed
  const std::vector<WsRun> want = {WsRun{img_vma, 0, 5}, WsRun{img_vma, 10, 3}};
  EXPECT_EQ(ws.runs, want);
  EXPECT_EQ(ws.total_pages, 8u);
  // And the capture persists faithfully through its image encoding.
  EXPECT_EQ(decode_ws(encode_ws(ws)), ws);
}

TEST_F(WsRestoreTest, PrefetchMapsExactlyTheRecordedSet) {
  DumpResult dump = dump_to(make_target(), "/snap/ws/");
  const os::VmaId img_vma = image_heap_vma(dump);
  WorkingSetImage ws;
  ws.runs = {WsRun{img_vma, 0, 5}, WsRun{img_vma, 10, 3}};
  ws.total_pages = 8;
  dump.images.put(kWsImageName, encode_ws(ws));

  RestoreOptions opts;
  opts.fs_prefix = "/snap/ws/";
  opts.paging = PagingPolicy::ws_prefetch();
  const RestoreResult r = Restorer{kernel_}.restore(dump.images, opts);

  EXPECT_FALSE(r.ws_fallback);
  EXPECT_EQ(r.ws_recorder, nullptr);
  EXPECT_EQ(r.ws_prefetched_pages, 8u);
  ASSERT_NE(r.lazy_server, nullptr);
  EXPECT_EQ(r.lazy_server->pending_pages(), 64u - 8u);

  // Residency is exactly the recorded set: runs mapped, gaps cold.
  const os::Vma& heap = restored_heap(r.pid);
  EXPECT_EQ(heap.resident_pages(), 8u);
  for (std::uint64_t p : {0u, 4u, 10u, 12u}) EXPECT_TRUE(heap.present[p]);
  for (std::uint64_t p : {5u, 9u, 13u, 63u}) EXPECT_FALSE(heap.present[p]);

  // The cold tail drains through the uffd server like any lazy restore.
  r.lazy_server->page_in_all();
  EXPECT_EQ(restored_heap(r.pid).resident_pages(), 64u);
}

TEST_F(WsRestoreTest, DamagedWsImageFallsBackToPureLazyWithTypedWarning) {
  DumpResult dump = dump_to(make_target(), "/snap/ws/");
  const os::VmaId img_vma = image_heap_vma(dump);
  WorkingSetImage ws;
  ws.runs = {WsRun{img_vma, 0, 8}};
  ws.total_pages = 8;
  const std::vector<std::uint8_t> good = encode_ws(ws);

  RestoreOptions opts;
  opts.fs_prefix = "/snap/ws/";
  opts.paging = PagingPolicy::ws_prefetch();

  struct Case {
    const char* label;
    std::vector<std::uint8_t> bytes;  // empty = drop ws-1.img entirely
    RestoreErrorKind want;
  };
  std::vector<std::uint8_t> corrupt = good;
  corrupt[corrupt.size() / 2] ^= 0xFF;
  std::vector<std::uint8_t> truncated = good;
  truncated.resize(8);
  const Case cases[] = {
      {"missing", {}, RestoreErrorKind::kMissingImage},
      {"corrupt", corrupt, RestoreErrorKind::kCorruptImage},
      {"truncated", truncated, RestoreErrorKind::kTruncatedImage},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.label);
    ImageDir images = dump.images;
    if (!c.bytes.empty()) images.put(kWsImageName, c.bytes);
    // A damaged advisory image must never fail the restore.
    const RestoreResult r = Restorer{kernel_}.restore(images, opts);
    EXPECT_TRUE(r.ws_fallback);
    EXPECT_EQ(r.ws_fallback_kind, c.want);
    EXPECT_FALSE(r.ws_fallback_detail.empty());
    EXPECT_EQ(r.ws_recorder, nullptr);
    EXPECT_EQ(r.ws_prefetched_pages, 0u);
    ASSERT_NE(r.lazy_server, nullptr);
    EXPECT_EQ(r.lazy_server->pending_pages(), 64u);  // pure-lazy downgrade
    kernel_.kill_process(r.pid);
    kernel_.reap(r.pid);
  }
}

TEST_F(WsRestoreTest, WsImageMissingFromRegistryFallsBackUnderRemoteFetch) {
  // ws-1.img is in the image directory but was never persisted, so a
  // remote restore cannot fetch it: that is a missing WS image, which
  // downgrades to pure-lazy rather than failing the restore.
  DumpResult dump = dump_to(make_target(), "/registry/ws/");
  WorkingSetImage ws;
  ws.runs = {WsRun{image_heap_vma(dump), 0, 8}};
  ws.total_pages = 8;
  dump.images.put(kWsImageName, encode_ws(ws));

  RestoreOptions opts;
  opts.fs_prefix = "/registry/ws/";
  opts.remote_fetch = true;
  opts.paging = PagingPolicy::ws_prefetch();
  kernel_.fs().drop_caches();
  const RestoreResult r = Restorer{kernel_}.restore(dump.images, opts);
  EXPECT_TRUE(r.ws_fallback);
  EXPECT_EQ(r.ws_fallback_kind, RestoreErrorKind::kMissingImage);
  EXPECT_EQ(r.ws_prefetched_pages, 0u);
  ASSERT_NE(r.lazy_server, nullptr);
  EXPECT_EQ(r.lazy_server->pending_pages(), 64u);
}

TEST_F(WsRestoreTest, StoreDeltaShipsOnlyWorkingSetPages) {
  DumpResult dump = dump_to(make_target(96), "/registry/ws/");
  const os::VmaId img_vma = image_heap_vma(dump);
  WorkingSetImage ws;
  ws.runs = {WsRun{img_vma, 0, 32}};
  ws.total_pages = 32;
  const std::vector<std::uint8_t> ws_bytes = encode_ws(ws);
  kernel_.fs().create("/registry/ws/" + std::string{kWsImageName},
                      ws_bytes.size());
  dump.images.put(kWsImageName, ws_bytes);

  // Single VMA faulted from page 0: digest list is in page order, so the
  // working set's digests are exactly the first 32 entries.
  const std::span<const std::uint64_t> digests =
      dump.images.decoded().pages->digests();
  PageStore store;
  const std::uint64_t unique = store.missing_unique_pages(digests.first(32));

  RestoreOptions opts;
  opts.fs_prefix = "/registry/ws/";
  opts.remote_fetch = true;
  opts.page_store = &store;  // no store_key: delta only (templates need eager)
  opts.paging = PagingPolicy::ws_prefetch();

  kernel_.fs().drop_caches();
  const RestoreResult first = Restorer{kernel_}.restore(dump.images, opts);
  EXPECT_FALSE(first.ws_fallback);
  EXPECT_EQ(first.ws_prefetched_pages, 32u);
  // The negotiation ran over the WS digests only: the delta is the unique
  // WS pages, and only those landed in the store — the cold tail stays out.
  EXPECT_EQ(first.store_delta_bytes, unique * kPageSize);
  EXPECT_EQ(first.store_hit_pages, 32u - unique);
  EXPECT_EQ(store.stored_pages(), unique);
  kernel_.kill_process(first.pid);
  kernel_.reap(first.pid);

  // Same node, cache dropped: every WS page is already in the store, so the
  // second first-restore ships digests only.
  kernel_.fs().drop_caches();
  const RestoreResult second = Restorer{kernel_}.restore(dump.images, opts);
  EXPECT_EQ(second.store_delta_bytes, 0u);
  EXPECT_EQ(second.store_hit_pages, 32u);
  EXPECT_LT(second.remote_bytes, first.remote_bytes);
}

TEST_F(WsRestoreTest, PrefetchRestoreIsBitIdenticalAcrossEngineThreads) {
  // Four independent prefetch-restore worlds, summarized as strings exactly
  // like a bench JSON cell; the sweep must not depend on the runner's
  // thread count (same determinism bar as tools/run_benches.sh --check).
  auto sweep = [](int threads) {
    exp::ParallelRunner runner{threads};
    std::vector<std::string> out(4);
    runner.for_each(4, [&](std::size_t i) {
      sim::Simulation sim;
      os::Kernel kernel{sim};
      const os::Pid pid = kernel.clone_process(os::kNoPid);
      const os::VmaId heap = kernel.mmap(
          pid, kPageSize * 64, os::Prot::kReadWrite, os::VmaKind::kAnon,
          "[heap]", std::make_shared<os::PatternSource>(0xABC0 + i), false);
      kernel.fault_in_all(pid, heap);
      DumpOptions dopts;
      dopts.fs_prefix = "/snap/t/";
      DumpResult dump = Dumper{kernel}.dump(pid, dopts);
      WorkingSetImage ws;
      ws.runs = {WsRun{dump.images.decoded().vmas.front().id, 0,
                       8 + static_cast<std::uint64_t>(i)}};
      ws.total_pages = 8 + i;
      dump.images.put(kWsImageName, encode_ws(ws));
      RestoreOptions opts;
      opts.fs_prefix = "/snap/t/";
      opts.paging = PagingPolicy::ws_prefetch();
      const sim::TimePoint t0 = sim.now();
      const RestoreResult r = Restorer{kernel}.restore(dump.images, opts);
      char buf[128];
      std::snprintf(buf, sizeof buf, "%llu/%llu/%llu/%.6f",
                    static_cast<unsigned long long>(r.pages_restored),
                    static_cast<unsigned long long>(r.ws_prefetched_pages),
                    static_cast<unsigned long long>(
                        r.lazy_server->pending_pages()),
                    (sim.now() - t0).to_millis());
      out[i] = buf;
    });
    return out;
  };
  EXPECT_EQ(sweep(1), sweep(4));
}

}  // namespace
}  // namespace prebake::criu

// --- platform lifecycle ----------------------------------------------------

namespace prebake::faas {
namespace {

constexpr std::uint64_t GiB = 1024ull * 1024 * 1024;

TEST(WsRestorePlatform, RecordsOnFirstStartThenPrefetchesForever) {
  PlatformConfig cfg;
  cfg.paging = criu::PagingPolicy::ws_prefetch();
  cfg.idle_timeout = sim::Duration::seconds(1);

  sim::Simulation sim;
  os::Kernel kernel{sim, exp::testbed_costs()};
  Platform platform{kernel, exp::testbed_runtime(), cfg, 99};
  platform.resources().add_node("w1", 8 * GiB);
  platform.deploy(exp::image_resizer_spec(), StartMode::kPrebaked,
                  core::SnapshotPolicy::warmup(1));
  auto invoke_once = [&] {
    bool done = false;
    platform.invoke("image-resizer",
                    funcs::sample_request(platform.registry()
                                              .get("image-resizer")
                                              .spec.handler_id),
                    [&](const funcs::Response& res, const RequestMetrics&) {
                      EXPECT_TRUE(res.ok());
                      done = true;
                    });
    while (!done && sim.step()) {
    }
    EXPECT_TRUE(done);
  };

  // First cold start of the snapshot: no ws-1.img yet, so the platform
  // records; serve() closes the capture and attaches it to the snapshot.
  invoke_once();
  EXPECT_EQ(platform.stats().ws_recordings, 1u);
  EXPECT_EQ(platform.stats().ws_prefetch_starts, 0u);
  const core::BakedSnapshot& snap =
      platform.snapshots().get("image-resizer", core::SnapshotPolicy::warmup(1));
  EXPECT_TRUE(snap.images.has(criu::kWsImageName));

  // Idle the replica out, then cold-start again: now the snapshot carries a
  // working set and the restore prefetches it.
  sim.run();
  EXPECT_EQ(platform.replica_count("image-resizer"), 0u);
  invoke_once();
  EXPECT_EQ(platform.stats().ws_recordings, 1u);  // recorded exactly once
  EXPECT_EQ(platform.stats().ws_prefetch_starts, 1u);
  EXPECT_GT(platform.stats().ws_prefetched_pages, 0u);
  EXPECT_EQ(platform.stats().ws_fallbacks, 0u);

  // The prefetched replica's first request pays no demand faults and no
  // record-finish cost: strictly less service time than the recording one.
  const auto& log = platform.request_log();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_TRUE(log[0].cold_start);
  EXPECT_TRUE(log[1].cold_start);
  EXPECT_LT(log[1].service.to_millis(), log[0].service.to_millis());
}

}  // namespace
}  // namespace prebake::faas
