// Batched page replay (DESIGN.md §6g): the bulk kernel APIs the per-run
// restore loop rides on, their cost identity with the per-page era, and the
// run-length-encoded lazy-pages handoff.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <vector>

#include "criu/dump.hpp"
#include "criu/restore.hpp"
#include "os/kernel.hpp"

namespace prebake::criu {
namespace {

using os::kPageSize;

class RestoreBatchTest : public ::testing::Test {
 protected:
  RestoreBatchTest() : kernel_{sim_} {
    kernel_.fs().create("/bin/app", 2 * 1024 * 1024);
  }

  os::Pid spawn() {
    const os::Pid pid = kernel_.clone_process(os::kNoPid);
    kernel_.exec(pid, "/bin/app", {"/bin/app"});
    return pid;
  }

  os::Pid make_pattern_target(std::uint64_t seed, std::uint64_t pages) {
    const os::Pid pid = spawn();
    const os::VmaId heap = kernel_.mmap(
        pid, pages * kPageSize, os::Prot::kReadWrite, os::VmaKind::kAnon,
        "[heap]", std::make_shared<os::PatternSource>(seed), false);
    kernel_.fault_in_all(pid, heap, /*write=*/true);
    return pid;
  }

  sim::Simulation sim_;
  os::Kernel kernel_;
};

TEST_F(RestoreBatchTest, PopulateRunCostMatchesFaultIn) {
  // populate_run(touch_pages, no payload) is the batched form of fault_in:
  // identical residency, identical simulated charge.
  const os::Pid a = spawn();
  const os::Pid b = spawn();
  const os::VmaId va =
      kernel_.mmap(a, 64 * kPageSize, os::Prot::kReadWrite, os::VmaKind::kAnon,
                   "[x]", std::make_shared<os::PatternSource>(1), false);
  const os::VmaId vb =
      kernel_.mmap(b, 64 * kPageSize, os::Prot::kReadWrite, os::VmaKind::kAnon,
                   "[x]", std::make_shared<os::PatternSource>(1), false);

  const sim::TimePoint t0 = sim_.now();
  kernel_.fault_in(a, va, 3, 40, /*write=*/false);
  const sim::Duration legacy = sim_.now() - t0;

  const sim::TimePoint t1 = sim_.now();
  kernel_.populate_run(b, vb, 3, 40, {});
  const sim::Duration batched = sim_.now() - t1;

  EXPECT_EQ(batched.nanos_count(), legacy.nanos_count());
  EXPECT_EQ(kernel_.process(b).mm().resident_pages(),
            kernel_.process(a).mm().resident_pages());
}

TEST_F(RestoreBatchTest, PopulateRunCopiesPayloadIntoBufferSource) {
  const os::Pid pid = spawn();
  auto buf = std::make_shared<os::BufferSource>(
      std::vector<std::uint8_t>(8 * kPageSize, 0));
  const os::VmaId vma =
      kernel_.mmap(pid, 8 * kPageSize, os::Prot::kReadWrite, os::VmaKind::kAnon,
                   "[data]", buf, false);

  std::vector<std::uint8_t> payload(3 * kPageSize);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<std::uint8_t>(i * 7 + 1);
  kernel_.populate_run(pid, vma, 2, 3, payload);

  // Bytes landed at page 2's offset in one copy...
  EXPECT_EQ(buf->bytes()[2 * kPageSize], payload[0]);
  EXPECT_EQ(buf->bytes()[5 * kPageSize - 1], payload[3 * kPageSize - 1]);
  EXPECT_EQ(buf->bytes()[2 * kPageSize - 1], 0);  // page 1 untouched
  // ...and exactly the touched run is resident.
  const os::Vma* v = kernel_.process(pid).mm().find(vma);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->present.count(), 3u);
  EXPECT_TRUE(v->present[2]);
  EXPECT_TRUE(v->present[4]);
  EXPECT_FALSE(v->present[5]);
}

TEST_F(RestoreBatchTest, PopulateRunClampsShortPayload) {
  // A truncated raw section (fuzzed images) must clamp, not read or write
  // out of bounds: only one page of bytes exists for a two-page run.
  const os::Pid pid = spawn();
  auto buf = std::make_shared<os::BufferSource>(
      std::vector<std::uint8_t>(2 * kPageSize, 0));
  const os::VmaId vma =
      kernel_.mmap(pid, 2 * kPageSize, os::Prot::kReadWrite, os::VmaKind::kAnon,
                   "[data]", buf, false);
  const std::vector<std::uint8_t> payload(kPageSize, 0x5A);
  kernel_.populate_run(pid, vma, 1, 1, payload);
  EXPECT_EQ(buf->bytes()[kPageSize], 0x5A);
  EXPECT_EQ(kernel_.process(pid).mm().find(vma)->present.count(), 1u);
}

TEST_F(RestoreBatchTest, VerifyRunChargesPerMatchedPage) {
  const std::uint64_t n = 32;
  const os::Pid pid = make_pattern_target(0xFACE, n);
  const os::VmaId heap = kernel_.process(pid).mm().vmas().back().id;

  const os::PatternSource src{0xFACE};
  std::vector<std::uint64_t> expected;
  for (std::uint64_t p = 0; p < n; ++p) expected.push_back(src.page_digest(p));

  const sim::TimePoint t0 = sim_.now();
  EXPECT_EQ(kernel_.verify_run(pid, heap, 0, expected), n);
  const sim::Duration charged = sim_.now() - t0;
  // One aggregated advance, same total as n per-page charges (memcpy_cost
  // is linear with no base term).
  const sim::Duration per_page = os::CostModel{}.memcpy_cost(kPageSize);
  EXPECT_EQ(charged.nanos_count(),
            (per_page * static_cast<double>(n)).nanos_count());
}

TEST_F(RestoreBatchTest, VerifyRunStopsAtFirstMismatch) {
  const std::uint64_t n = 16;
  const os::Pid pid = make_pattern_target(0xFACE, n);
  const os::VmaId heap = kernel_.process(pid).mm().vmas().back().id;

  const os::PatternSource src{0xFACE};
  std::vector<std::uint64_t> expected;
  for (std::uint64_t p = 0; p < n; ++p) expected.push_back(src.page_digest(p));
  expected[5] ^= 1;  // corrupt one digest

  const sim::TimePoint t0 = sim_.now();
  EXPECT_EQ(kernel_.verify_run(pid, heap, 0, expected), 5u);
  const sim::Duration charged = sim_.now() - t0;
  // The mismatching page is uncharged, exactly like the per-page loop that
  // threw before advancing.
  const sim::Duration per_page = os::CostModel{}.memcpy_cost(kPageSize);
  EXPECT_EQ(charged.nanos_count(),
            (per_page * 5.0).nanos_count());
}

TEST_F(RestoreBatchTest, BufferDigestsFollowTheirBytes) {
  // BufferSource bytes are mutable, so their digests are never kept, even
  // when two pids (a process and its fork) ask for one shared buffer: a
  // dump after a write records the new content, and verifying against the
  // old digests stops at the first changed page with the usual charge.
  const std::uint64_t n = 16;
  std::vector<std::uint8_t> bytes(n * kPageSize);
  for (std::size_t i = 0; i < bytes.size(); ++i)
    bytes[i] = static_cast<std::uint8_t>(i * 7 + 1);
  auto buf = std::make_shared<os::BufferSource>(std::move(bytes));
  const os::Pid parent = kernel_.clone_process(os::kNoPid);
  const os::VmaId vma = kernel_.mmap(parent, n * kPageSize,
                                     os::Prot::kReadWrite, os::VmaKind::kAnon,
                                     "[data]", buf, false);
  kernel_.fault_in_all(parent, vma);
  const os::Pid child = kernel_.clone_process(parent);  // shares `buf`

  const auto dumped_digests = [&](os::Pid pid) {
    DumpOptions opts;
    opts.leave_running = true;
    const DumpResult dump = Dumper{kernel_}.dump(pid, opts);
    const std::span<const std::uint64_t> d = dump.images.decoded().pages->digests();
    return std::vector<std::uint64_t>(d.begin(), d.end());
  };
  const std::vector<std::uint64_t> before = dumped_digests(parent);
  ASSERT_EQ(before.size(), n);
  EXPECT_EQ(dumped_digests(child), before);

  buf->bytes()[5 * kPageSize + 9] ^= 0xFF;  // one write into page 5
  const std::vector<std::uint64_t> after = dumped_digests(child);
  ASSERT_EQ(after.size(), n);
  for (std::uint64_t p = 0; p < n; ++p) {
    if (p == 5)
      EXPECT_NE(after[p], before[p]);
    else
      EXPECT_EQ(after[p], before[p]) << "page " << p;
  }
  EXPECT_EQ(after[5], os::BufferSource{buf->bytes()}.page_digest(5));

  const sim::TimePoint t0 = sim_.now();
  EXPECT_EQ(kernel_.verify_run(parent, vma, 0, before), 5u);
  EXPECT_EQ((sim_.now() - t0).nanos_count(),
            (os::CostModel{}.memcpy_cost(kPageSize) * 5.0).nanos_count());
  EXPECT_EQ(kernel_.digest_memo_stats().kept_pages, 0u);
}

TEST_F(RestoreBatchTest, VerifyCostIdentity) {
  // Satellite gate: a verified restore costs exactly the unverified restore
  // plus memcpy_cost(page) * pages_dumped — batching the charge into one
  // advance per run must not drift the simulated clock by a nanosecond.
  const os::Pid pid = make_pattern_target(0xBEE, 96);
  DumpOptions dopts;
  dopts.fs_prefix = "/snap/v/";
  const DumpResult dump = Dumper{kernel_}.dump(pid, dopts);

  RestoreOptions opts;
  opts.fs_prefix = "/snap/v/";
  {  // warm the image cache so both measured restores read at equal cost
    const RestoreResult r = Restorer{kernel_}.restore(dump.images, opts);
    kernel_.kill_process(r.pid);
    kernel_.reap(r.pid);
  }

  const sim::TimePoint t0 = sim_.now();
  const RestoreResult plain = Restorer{kernel_}.restore(dump.images, opts);
  const sim::Duration base = sim_.now() - t0;
  kernel_.kill_process(plain.pid);
  kernel_.reap(plain.pid);

  opts.verify_pages = true;
  const sim::TimePoint t1 = sim_.now();
  const RestoreResult verified = Restorer{kernel_}.restore(dump.images, opts);
  const sim::Duration with_verify = sim_.now() - t1;
  kernel_.kill_process(verified.pid);
  kernel_.reap(verified.pid);

  const sim::Duration per_page = os::CostModel{}.memcpy_cost(kPageSize);
  const sim::Duration expected =
      per_page * static_cast<double>(dump.stats.pages_dumped);
  EXPECT_EQ((with_verify - base).nanos_count(), expected.nanos_count());
}

TEST_F(RestoreBatchTest, LazyPendingIsRunLengthEncoded) {
  const os::Pid pid = make_pattern_target(0x1A2B, 80);
  DumpOptions dopts;
  dopts.fs_prefix = "/snap/rle/";
  const DumpResult dump = Dumper{kernel_}.dump(pid, dopts);

  RestoreOptions opts;
  opts.fs_prefix = "/snap/rle/";
  opts.paging = PagingPolicy::lazy(0.0);  // everything deferred
  const RestoreResult restored = Restorer{kernel_}.restore(dump.images, opts);
  ASSERT_NE(restored.lazy_server, nullptr);
  LazyPagesServer& server = *restored.lazy_server;

  // Zero runs are always mapped eagerly (no payload to serve); everything
  // with payload is deferred.
  const std::uint64_t total = server.pending_pages();
  EXPECT_EQ(total, dump.stats.pages_dumped);

  // Serving decrements page-at-a-time in first-touch order regardless of
  // how the queue is encoded.
  EXPECT_EQ(server.page_in(3), 3u);
  EXPECT_EQ(server.pending_pages(), total - 3);

  // Per-page serving cost is unchanged: two consecutive single-page faults
  // (warm image cache) charge identical time.
  (void)server.page_in(1);
  const sim::TimePoint t0 = sim_.now();
  (void)server.page_in(1);
  const sim::Duration first = sim_.now() - t0;
  const sim::TimePoint t1 = sim_.now();
  (void)server.page_in(1);
  const sim::Duration second = sim_.now() - t1;
  EXPECT_EQ(first.nanos_count(), second.nanos_count());

  // Draining serves exactly the remainder, once.
  EXPECT_EQ(server.page_in_all(), total - 6);
  EXPECT_TRUE(server.done());
  EXPECT_EQ(server.page_in(5), 0u);
}

TEST_F(RestoreBatchTest, LazyDrainMatchesEagerResidency) {
  const os::Pid pid = make_pattern_target(0x7777, 48);
  DumpOptions dopts;
  dopts.fs_prefix = "/snap/drain/";
  const DumpResult dump = Dumper{kernel_}.dump(pid, dopts);

  RestoreOptions eager;
  eager.fs_prefix = "/snap/drain/";
  const RestoreResult full = Restorer{kernel_}.restore(dump.images, eager);

  RestoreOptions lazy = eager;
  lazy.paging = PagingPolicy::lazy(0.3);
  const RestoreResult post = Restorer{kernel_}.restore(dump.images, lazy);
  ASSERT_NE(post.lazy_server, nullptr);
  post.lazy_server->page_in_all();

  EXPECT_EQ(kernel_.process(post.pid).mm().resident_pages(),
            kernel_.process(full.pid).mm().resident_pages());
}

}  // namespace
}  // namespace prebake::criu
