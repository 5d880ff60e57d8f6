// The content-addressed page store (DESIGN.md §6f): unit behavior, the
// delta-aware registry transfer, and COW template restores.
#include "criu/page_store.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <random>
#include <set>

#include "criu/dump.hpp"
#include "criu/restore.hpp"

namespace prebake::criu {
namespace {

using os::kPageSize;

// --- store unit behavior ---------------------------------------------------

TEST(StoreTest, InsertTracksUniquePages) {
  PageStore store;
  const std::uint64_t digests[] = {1, 2, 3, 2, 1};
  EXPECT_EQ(store.missing_unique_pages(digests), 3u);
  EXPECT_EQ(store.missing_unique_bytes(digests), 3 * kPageSize);
  EXPECT_EQ(store.insert(digests), 3u);
  EXPECT_EQ(store.stored_pages(), 3u);
  EXPECT_EQ(store.stored_bytes(), 3 * kPageSize);
  EXPECT_TRUE(store.contains(2));
  EXPECT_FALSE(store.contains(9));
  EXPECT_EQ(store.missing_unique_pages(digests), 0u);
  // Re-inserting known pages adds nothing.
  EXPECT_EQ(store.insert(digests), 0u);
  EXPECT_EQ(store.stored_pages(), 3u);
}

TEST(StoreTest, PinUnpinRefcounts) {
  PageStore store;
  const std::uint64_t digests[] = {10, 20};
  store.pin(digests);
  store.pin(digests);
  EXPECT_EQ(store.refcount(10), 2u);
  store.unpin(digests);
  EXPECT_EQ(store.refcount(10), 1u);
  store.unpin(digests);
  EXPECT_EQ(store.refcount(10), 0u);
  EXPECT_TRUE(store.contains(10));  // unpinned but still resident
  EXPECT_THROW(store.unpin(digests), std::logic_error);
  EXPECT_EQ(store.refcount(999), 0u);
}

TEST(StoreTest, EvictionIsRefcountThenLru) {
  PageStore store;
  const std::uint64_t pinned[] = {1};
  const std::uint64_t old_pages[] = {2, 3};
  const std::uint64_t new_pages[] = {4, 5};
  store.pin(pinned);
  store.insert(old_pages);
  store.insert(new_pages);
  // Room for three pages: both LRU victims are unpinned "old" pages even
  // though the pinned page is older still.
  store.set_capacity(3 * kPageSize);
  EXPECT_EQ(store.stored_pages(), 3u);
  EXPECT_TRUE(store.contains(1));
  EXPECT_FALSE(store.contains(2));
  EXPECT_FALSE(store.contains(3));
  EXPECT_TRUE(store.contains(4));
  EXPECT_TRUE(store.contains(5));
  EXPECT_EQ(store.stats().evicted_pages, 2u);
}

TEST(StoreTest, PinnedPagesMayExceedBudget) {
  PageStore store;
  std::vector<std::uint64_t> digests(8);
  std::iota(digests.begin(), digests.end(), 100);
  store.pin(digests);
  store.set_capacity(2 * kPageSize);
  EXPECT_EQ(store.stored_pages(), 8u);  // nothing evictable
  store.unpin(digests);
  EXPECT_EQ(store.stored_pages(), 2u);  // now the budget applies
}

TEST(TemplateTest, RegisterPinsAndDropUnpins) {
  PageStore store;
  PageStore::TemplateInfo info;
  info.pid = 42;
  const std::uint64_t digests[] = {7, 8, 9};
  const PageStore::Run runs[] = {digests};
  store.register_template("snap", std::move(info), runs);
  EXPECT_TRUE(store.has_template("snap"));
  EXPECT_EQ(store.template_count(), 1u);
  EXPECT_EQ(store.refcount(7), 1u);
  EXPECT_EQ(store.stats().templates_materialized, 1u);
  ASSERT_NE(store.find_template("snap"), nullptr);
  EXPECT_EQ(store.find_template("snap")->pid, 42);
  EXPECT_EQ(store.find_template("nope"), nullptr);

  PageStore::TemplateInfo dup;
  EXPECT_THROW(store.register_template("snap", std::move(dup)),
               std::logic_error);

  EXPECT_THROW(store.clear_pages(), std::logic_error);  // template still live
  EXPECT_EQ(store.drop_template("snap"), 42);
  EXPECT_EQ(store.drop_template("snap"), os::kNoPid);
  EXPECT_EQ(store.refcount(7), 0u);
  store.clear_pages();
  EXPECT_EQ(store.stored_pages(), 0u);
}

TEST(TemplateTest, DropAllReturnsEveryPid) {
  PageStore store;
  PageStore::TemplateInfo a;
  a.pid = 10;
  store.register_template("a", std::move(a));
  PageStore::TemplateInfo b;
  b.pid = 11;
  store.register_template("b", std::move(b));
  const std::vector<os::Pid> pids = store.drop_all_templates();
  ASSERT_EQ(pids.size(), 2u);
  EXPECT_EQ(pids[0], 10);
  EXPECT_EQ(pids[1], 11);
  EXPECT_EQ(store.template_count(), 0u);
}

TEST(TemplateTest, RegisterUnderTinyBudgetKeepsEveryPinnedPage) {
  // A budget smaller than one template's new pages: registering evicts the
  // older unpinned pages but none of the template's own, which stay pinned
  // over budget until the template is dropped. evicted_pages counts the two
  // old pages only: no template page is evicted and re-created.
  PageStore store;
  const std::uint64_t old_pages[] = {1, 2};
  store.insert(old_pages);
  store.set_capacity(2 * kPageSize);
  PageStore::TemplateInfo info;
  info.pid = 9;
  const std::uint64_t digests[] = {10, 11, 12, 13, 14};
  const PageStore::Run runs[] = {digests};
  store.register_template("t", std::move(info), runs);
  EXPECT_EQ(store.stored_pages(), 5u);
  EXPECT_FALSE(store.contains(1));
  EXPECT_FALSE(store.contains(2));
  for (std::uint64_t d = 10; d <= 14; ++d) EXPECT_EQ(store.refcount(d), 1u);
  EXPECT_EQ(store.stats().evicted_pages, 2u);

  // Dropping the template applies the budget: equal ticks, so the lowest
  // digests go first.
  EXPECT_EQ(store.drop_template("t"), 9);
  EXPECT_EQ(store.stored_pages(), 2u);
  EXPECT_TRUE(store.contains(13));
  EXPECT_TRUE(store.contains(14));
  EXPECT_EQ(store.stats().evicted_pages, 5u);
}

TEST(TemplateTest, SharedRunsOutliveOneTemplate) {
  // Two fleet functions: the runtime's heap and metaspace runs are the same
  // in both, each has a run of its own. The second registration only bumps
  // the shared extents' counts, so the pages count once per template, and
  // dropping one template keeps the shared pages pinned for the other.
  PageStore store;
  const std::uint64_t heap[] = {1, 2, 3, 4};
  const std::uint64_t meta[] = {5, 6};
  const std::uint64_t own_a[] = {10, 11, 12};
  const std::uint64_t own_b[] = {20, 21};
  const PageStore::Run runs_a[] = {heap, meta, own_a};
  const PageStore::Run runs_b[] = {heap, meta, own_b};
  PageStore::TemplateInfo a;
  a.pid = 1;
  store.register_template("a", std::move(a), runs_a);
  const std::uint64_t later[] = {30, 31};
  store.insert(later);
  PageStore::TemplateInfo b;
  b.pid = 2;
  store.register_template("b", std::move(b), runs_b);
  EXPECT_EQ(store.stored_pages(), 13u);
  EXPECT_EQ(store.template_pages(), 9u + 8u);
  EXPECT_EQ(store.pinned_pages(*store.find_template("b")), 8u);
  EXPECT_EQ(store.refcount(1), 2u);
  EXPECT_EQ(store.refcount(10), 1u);

  EXPECT_EQ(store.drop_template("a"), 1);
  EXPECT_EQ(store.refcount(1), 1u);
  EXPECT_EQ(store.refcount(10), 0u);
  // The dropped template's own pages are the least recently pinned.
  store.set_capacity(10 * kPageSize);
  EXPECT_EQ(store.stats().evicted_pages, 3u);
  for (const std::uint64_t d : own_a) EXPECT_FALSE(store.contains(d));
  for (const std::uint64_t d : heap) EXPECT_TRUE(store.contains(d));
  store.set_capacity(9 * kPageSize);
  EXPECT_FALSE(store.contains(30));
  EXPECT_TRUE(store.contains(31));

  // Dropping the other template unpins the shared pages with the tick of
  // their last pin, b's registration: they go after 31, inserted before
  // it, and before 5 and 6 only by digest.
  EXPECT_EQ(store.drop_template("b"), 2);
  EXPECT_EQ(store.stored_pages(), 9u);
  store.set_capacity(4 * kPageSize);
  EXPECT_EQ(store.stats().evicted_pages, 9u);
  for (const std::uint64_t d : {31, 1, 2, 3, 4})
    EXPECT_FALSE(store.contains(d)) << d;
  for (const std::uint64_t d : {5, 6, 20, 21})
    EXPECT_TRUE(store.contains(d)) << d;
}

TEST(StoreTest, MovedStoreKeepsItsRecords) {
  PageStore store;
  std::vector<std::uint64_t> digests(100);
  std::iota(digests.begin(), digests.end(), 1);
  store.insert(digests);
  PageStore::TemplateInfo info;
  info.pid = 7;
  const std::uint64_t pinned[] = {1, 2, 3};
  const PageStore::Run runs[] = {pinned};
  store.register_template("t", std::move(info), runs);
  store.set_capacity(64 * kPageSize);  // evicts unpinned 4..39

  PageStore moved{std::move(store)};
  EXPECT_EQ(moved.stored_pages(), 64u);
  EXPECT_EQ(moved.refcount(1), 1u);
  EXPECT_FALSE(moved.contains(39));
  EXPECT_TRUE(moved.contains(40));
  EXPECT_TRUE(moved.has_template("t"));
  EXPECT_EQ(moved.stats().evicted_pages, 36u);

  // A move-assigned store keeps working: it grows, probes and evicts.
  PageStore assigned;
  assigned = std::move(moved);
  std::vector<std::uint64_t> more(200);
  std::iota(more.begin(), more.end(), 1000);
  EXPECT_EQ(assigned.insert(more), 200u);
  EXPECT_EQ(assigned.stored_pages(), 64u);
  EXPECT_FALSE(assigned.contains(100));
  EXPECT_TRUE(assigned.contains(1199));
  EXPECT_EQ(assigned.drop_template("t"), 7);
  EXPECT_EQ(assigned.refcount(1), 0u);
  EXPECT_TRUE(assigned.contains(1));
  EXPECT_EQ(assigned.stats().evicted_pages, 36u + 200u);
}

// The store's documented semantics on a std::map: each record holds a
// refcount and a recency tick, and eviction sorts every unpinned record by
// (tick, digest), dropping the oldest until the budget holds.
class ReferenceStore {
 public:
  std::uint64_t insert(std::span<const std::uint64_t> digests) {
    ++tick_;
    std::uint64_t fresh = 0;
    for (const std::uint64_t d : digests) {
      const auto [it, created] = pages_.try_emplace(d);
      it->second.tick = tick_;
      if (created) ++fresh;
    }
    evict();
    return fresh;
  }
  void pin(std::span<const std::uint64_t> digests) {
    ++tick_;
    for (const std::uint64_t d : digests) {
      Record& r = pages_[d];
      ++r.refcount;
      r.tick = tick_;
    }
  }
  void unpin(std::span<const std::uint64_t> digests) {
    for (const std::uint64_t d : digests) --pages_.at(d).refcount;
    evict();
  }
  void register_template(std::span<const std::uint64_t> digests) {
    pin(digests);
    evict();
  }
  void set_capacity(std::uint64_t bytes) {
    capacity_ = bytes;
    evict();
  }
  void clear() { pages_.clear(); }

  bool contains(std::uint64_t d) const { return pages_.contains(d); }
  std::uint32_t refcount(std::uint64_t d) const {
    const auto it = pages_.find(d);
    return it == pages_.end() ? 0 : it->second.refcount;
  }
  std::uint64_t size() const { return pages_.size(); }
  std::uint64_t missing_unique(std::span<const std::uint64_t> digests) const {
    std::set<std::uint64_t> missing;
    for (const std::uint64_t d : digests)
      if (!contains(d)) missing.insert(d);
    return missing.size();
  }
  std::uint64_t evicted() const { return evicted_; }

 private:
  struct Record {
    std::uint32_t refcount = 0;
    std::uint64_t tick = 0;
  };
  void evict() {
    if (capacity_ == 0) return;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> victims;
    for (const auto& [d, r] : pages_)
      if (r.refcount == 0) victims.emplace_back(r.tick, d);
    std::sort(victims.begin(), victims.end());
    for (const auto& [tick, d] : victims) {
      if (pages_.size() * kPageSize <= capacity_) break;
      pages_.erase(d);
      ++evicted_;
    }
  }

  std::map<std::uint64_t, Record> pages_;
  std::uint64_t tick_ = 0;
  std::uint64_t capacity_ = 0;
  std::uint64_t evicted_ = 0;
};

TEST(StoreTest, MatchesReferenceModel) {
  // A small pool keeps the table at 16..64 slots: digest 0, small integers,
  // four digests that share the last home slot at every one of those sizes
  // (so their probe run wraps to slot 0) and three homed at slot 0.
  std::vector<std::uint64_t> pool{0, 1, 2, 3, 4, 5, 6, 7};
  int last_home = 0;
  int first_home = 0;
  for (std::uint64_t d = 8; last_home < 4 || first_home < 3; ++d) {
    const std::uint64_t home = PageStore::slot_hash(d) % 64;
    if (home == 63 && last_home < 4) {
      pool.push_back(d);
      ++last_home;
    } else if (home == 0 && first_home < 3) {
      pool.push_back(d);
      ++first_home;
    }
  }
  const std::uint64_t absent = pool.back() + 1;

  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    std::mt19937_64 rng{seed};
    const auto below = [&](std::uint64_t n) { return rng() % n; };
    const auto draw = [&](std::uint64_t n) {
      std::vector<std::uint64_t> digests(n);
      for (std::uint64_t& d : digests) d = pool[below(pool.size())];
      return digests;
    };
    // The runs templates are made of: runs[0] recurs in about half of them
    // (the fleet's runtime runs), runs[1] shares digests with it, runs[2]
    // is empty, and fresh runs are drawn per template. The last six equal
    // runs[0] but for one digest each, so whichever digests the store's
    // run key samples, some of them share runs[0]'s key.
    std::vector<std::vector<std::uint64_t>> runs{draw(6), draw(3), {}, draw(4),
                                                 draw(2)};
    runs[1].push_back(runs[0][1]);
    runs[1].insert(runs[1].begin(), runs[0][4]);
    for (std::size_t i = 0; i < 6; ++i) {
      std::vector<std::uint64_t> near = runs[0];
      near[i] = near[i] == pool[0] ? pool[1] : pool[0];
      runs.push_back(std::move(near));
    }
    PageStore store;
    ReferenceStore ref;
    std::map<std::string, std::vector<std::uint64_t>> templates;
    std::vector<std::vector<std::uint64_t>> pins;
    for (int step = 0; step < 3000; ++step) {
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " step " << step);
      std::vector<std::uint64_t> batch = draw(below(11));
      switch (below(7)) {
        case 0:
          ASSERT_EQ(store.insert(batch), ref.insert(batch));
          break;
        case 1:
          store.pin(batch);
          ref.pin(batch);
          pins.push_back(batch);
          break;
        case 2:
          if (!pins.empty()) {
            const auto it = pins.begin() + static_cast<std::ptrdiff_t>(
                                               below(pins.size()));
            store.unpin(*it);
            ref.unpin(*it);
            pins.erase(it);
          }
          break;
        case 3: {
          // Up to five runs, some of them from the pool, sometimes one run
          // twice. The model pins their concatenation page by page.
          std::vector<std::vector<std::uint64_t>> mine;
          if (below(2) == 0) mine.push_back(runs[0]);
          for (std::uint64_t n = below(4); n > 0; --n)
            mine.push_back(below(3) == 0 ? draw(below(6))
                                         : runs[below(runs.size())]);
          if (!mine.empty() && below(4) == 0) {
            std::vector<std::uint64_t> again = mine[below(mine.size())];
            mine.push_back(std::move(again));
          }
          const std::vector<PageStore::Run> spans(mine.begin(), mine.end());
          std::vector<std::uint64_t> all;
          for (const std::vector<std::uint64_t>& run : mine)
            all.insert(all.end(), run.begin(), run.end());
          std::string key = "t";
          key += std::to_string(step);
          store.register_template(key, {}, spans);
          ref.register_template(all);
          templates.emplace(key, std::move(all));
          break;
        }
        case 4:
          if (!templates.empty()) {
            auto it = templates.begin();
            std::advance(it, static_cast<std::ptrdiff_t>(
                                 below(templates.size())));
            store.drop_template(it->first);
            ref.unpin(it->second);
            templates.erase(it);
          }
          break;
        case 5: {
          // Unbounded, or 1..20 pages, sometimes not a whole page.
          const std::uint64_t pages = below(21);
          const std::uint64_t bytes =
              pages == 0 ? 0 : pages * kPageSize + below(2) * (kPageSize / 2);
          store.set_capacity(bytes);
          ref.set_capacity(bytes);
          break;
        }
        case 6:
          if (below(8) == 0) {  // a node crash: rare, it empties the store
            store.drop_all_templates();
            for (const auto& [key, digests] : templates) ref.unpin(digests);
            templates.clear();
            pins.clear();
            store.clear_pages();
            ref.clear();
          }
          break;
      }
      ASSERT_EQ(store.stored_pages(), ref.size());
      ASSERT_EQ(store.stats().evicted_pages, ref.evicted());
      ASSERT_EQ(store.missing_unique_pages(pool), ref.missing_unique(pool));
      ASSERT_EQ(store.missing_unique_pages(batch), ref.missing_unique(batch));
      for (const std::uint64_t d : pool) {
        ASSERT_EQ(store.contains(d), ref.contains(d)) << "digest " << d;
        ASSERT_EQ(store.refcount(d), ref.refcount(d)) << "digest " << d;
      }
      ASSERT_FALSE(store.contains(absent));
    }
  }
}

// --- delta transfer + templates through the restore engine ------------------

class StoreRestoreTest : public ::testing::Test {
 protected:
  StoreRestoreTest() : kernel_{sim_} {
    kernel_.fs().create("/bin/app", 2 * 1024 * 1024);
  }

  // A process whose big heap regenerates from `heap_seed`: targets sharing
  // the seed share those page contents (the cross-function runtime base).
  os::Pid make_target(std::uint64_t heap_seed, std::uint64_t extra_seed = 0,
                      std::uint64_t heap_pages = 384) {
    const os::Pid pid = kernel_.clone_process(os::kNoPid);
    kernel_.exec(pid, "/bin/app", {"/bin/app"});
    const os::VmaId heap = kernel_.mmap(
        pid, kPageSize * (heap_pages + 128), os::Prot::kReadWrite,
        os::VmaKind::kAnon, "[big-heap]",
        std::make_shared<os::PatternSource>(heap_seed), false);
    kernel_.fault_in(pid, heap, 0, heap_pages);
    if (extra_seed != 0) {
      const os::VmaId extra = kernel_.mmap(
          pid, kPageSize * 16, os::Prot::kReadWrite, os::VmaKind::kAnon,
          "[app-delta]", std::make_shared<os::PatternSource>(extra_seed),
          false);
      kernel_.fault_in_all(pid, extra);
    }
    return pid;
  }

  DumpResult dump_to(os::Pid pid, const std::string& prefix) {
    DumpOptions opts;
    opts.fs_prefix = prefix;
    return Dumper{kernel_}.dump(pid, opts);
  }

  sim::Simulation sim_;
  os::Kernel kernel_;
};

TEST_F(StoreRestoreTest, StoreSecondFetchShipsOnlyDigests) {
  const DumpResult dump = dump_to(make_target(0xFEED), "/registry/a/");
  const std::span<const std::uint64_t> digests =
      dump.images.decoded().pages->digests();
  const std::uint64_t digest_bytes = digests.size() * 8;

  PageStore store;
  const std::uint64_t unique = store.missing_unique_pages(digests);
  RestoreOptions opts;
  opts.fs_prefix = "/registry/a/";
  opts.remote_fetch = true;
  opts.page_store = &store;  // no store_key: delta only, no templates

  kernel_.fs().drop_caches();
  const RestoreResult first = Restorer{kernel_}.restore(dump.images, opts);
  // Cold store: the negotiation saves nothing, costs the digest list.
  EXPECT_EQ(first.store_hit_pages, digests.size() - unique);
  EXPECT_EQ(first.store_delta_bytes, unique * kPageSize);
  EXPECT_FALSE(first.template_materialized);
  EXPECT_EQ(store.stored_pages(), digests.size());

  // Same node fetches again after losing its page cache: every payload page
  // is already in the store, so only the digest list crosses the wire.
  kernel_.fs().drop_caches();
  const RestoreResult second = Restorer{kernel_}.restore(dump.images, opts);
  EXPECT_EQ(second.store_delta_bytes, 0u);
  EXPECT_EQ(second.store_hit_pages, digests.size());
  EXPECT_EQ(second.remote_bytes,
            first.remote_bytes - first.store_delta_bytes);
  EXPECT_GE(second.remote_bytes, digest_bytes);
  EXPECT_EQ(store.stats().delta_bytes, first.store_delta_bytes);
}

TEST_F(StoreRestoreTest, StoreCrossFunctionDeltaIsOnlyTheAppPages) {
  // Two "functions" sharing the runtime-base heap seed; the second differs
  // only in its app VMA (plus per-pid stack/heap noise).
  const DumpResult base = dump_to(make_target(0xBA5E), "/registry/base/");
  const DumpResult app =
      dump_to(make_target(0xBA5E, 0xA44), "/registry/app/");

  PageStore store;
  RestoreOptions opts;
  opts.fs_prefix = "/registry/base/";
  opts.remote_fetch = true;
  opts.page_store = &store;
  kernel_.fs().drop_caches();
  Restorer{kernel_}.restore(base.images, opts);

  opts.fs_prefix = "/registry/app/";
  kernel_.fs().drop_caches();
  const RestoreResult restored = Restorer{kernel_}.restore(app.images, opts);
  const std::uint64_t payload =
      app.images.decoded().pages->digests().size() * kPageSize;
  EXPECT_GT(restored.store_hit_pages, 0u);
  EXPECT_LT(restored.store_delta_bytes, payload / 2);
  EXPECT_GT(restored.store_delta_bytes, 0u);  // the app pages are new
}

TEST_F(StoreRestoreTest, StoreChainRestoreFetchesOnlyFinalDelta) {
  // Pre-dump chain in CRIU's --prev-images-dir layout: the parent link's
  // files live under parent/ inside the final link's registry directory.
  const os::Pid pid = make_target(0xFEED);
  DumpOptions pre;
  pre.pre_dump = true;
  pre.fs_prefix = "/registry/chain/parent/";
  const DumpResult parent = Dumper{kernel_}.dump(pid, pre);
  // New app state appears between the pre-dump and the final dump.
  const os::VmaId fresh = kernel_.mmap(
      pid, kPageSize * 16, os::Prot::kReadWrite, os::VmaKind::kAnon,
      "[app-delta]", std::make_shared<os::PatternSource>(0xD1FF), false);
  kernel_.fault_in_all(pid, fresh, /*write=*/true);
  DumpOptions fin;
  fin.parent = &parent.images;
  fin.fs_prefix = "/registry/chain/";
  const DumpResult child = Dumper{kernel_}.dump(pid, fin);

  // The pre-dump's pages are already materialized on this node (the
  // pre-dump transfer itself put them there): only the final dump's delta
  // should cross the wire.
  PageStore store;
  store.insert(parent.images.decoded().pages->digests());
  RestoreOptions opts;
  opts.fs_prefix = "/registry/chain/";
  opts.remote_fetch = true;
  opts.page_store = &store;
  kernel_.fs().drop_caches();
  const ImageDir* chain[] = {&parent.images, &child.images};
  const RestoreResult restored = Restorer{kernel_}.restore_chain(chain, opts);

  const std::uint64_t pre_pages = parent.images.decoded().pages->digests().size();
  const std::uint64_t fin_pages = child.images.decoded().pages->digests().size();
  // Every pre-dump page was a store hit; only the final delta was fetched.
  EXPECT_GE(restored.store_hit_pages, pre_pages);
  EXPECT_GT(restored.store_delta_bytes, 0u);
  EXPECT_LE(restored.store_delta_bytes, fin_pages * kPageSize);
  EXPECT_LT(restored.store_delta_bytes, (pre_pages + fin_pages) * kPageSize);
}

TEST_F(StoreRestoreTest, StoreDisabledMatchesLegacyTiming) {
  const DumpResult dump = dump_to(make_target(0xFEED), "/snap/legacy/");
  RestoreOptions opts;
  opts.fs_prefix = "/snap/legacy/";

  kernel_.fs().drop_caches();
  const sim::TimePoint t0 = sim_.now();
  const RestoreResult without = Restorer{kernel_}.restore(dump.images, opts);
  const sim::Duration legacy = sim_.now() - t0;
  kernel_.kill_process(without.pid);
  kernel_.reap(without.pid);

  // A local (non-remote) restore with a store attached but no template key
  // charges exactly the same time: the store only records digests.
  PageStore store;
  opts.page_store = &store;
  kernel_.fs().drop_caches();
  const sim::TimePoint t1 = sim_.now();
  const RestoreResult with = Restorer{kernel_}.restore(dump.images, opts);
  EXPECT_EQ((sim_.now() - t1).nanos_count(), legacy.nanos_count());
  EXPECT_EQ(with.store_hit_pages, 0u);
  EXPECT_EQ(with.store_delta_bytes, 0u);
  EXPECT_FALSE(with.template_clone);
  EXPECT_GT(store.stored_pages(), 0u);
}

TEST_F(StoreRestoreTest, StoreLazyRemoteRestoreBypassesStore) {
  // Lazy paging leaves the page lifecycle to the uffd server: a remote
  // restore with a store attached negotiates no delta and records no page,
  // so the node's store gives locality placement no signal for it.
  const DumpResult dump = dump_to(make_target(0xFEED), "/registry/lazy/");
  PageStore store;
  RestoreOptions opts;
  opts.fs_prefix = "/registry/lazy/";
  opts.remote_fetch = true;
  opts.page_store = &store;
  opts.paging = PagingPolicy::lazy();
  kernel_.fs().drop_caches();
  const RestoreResult r = Restorer{kernel_}.restore(dump.images, opts);
  ASSERT_NE(r.lazy_server, nullptr);
  EXPECT_GT(r.remote_bytes, 0u);
  EXPECT_EQ(r.store_hit_pages, 0u);
  EXPECT_EQ(r.store_delta_bytes, 0u);
  EXPECT_EQ(store.stats().digest_bytes, 0u);
  EXPECT_EQ(store.stored_pages(), 0u);
}

// --- COW template restores --------------------------------------------------

class TemplateRestoreTest : public StoreRestoreTest {};

TEST_F(TemplateRestoreTest, TemplateFirstRestoreMaterializesSecondClones) {
  // A big enough snapshot that the fixed CLONE cost is well under a tenth of
  // the full restore cost (with a 384-page target the 300us clone_call alone
  // would dominate, which is exactly what the paper's Figure 4 shows).
  const DumpResult dump = dump_to(make_target(0xFEED, 0, 16384), "/snap/tpl/");
  PageStore store;
  RestoreOptions opts;
  opts.fs_prefix = "/snap/tpl/";
  opts.page_store = &store;
  opts.store_key = "/snap/tpl/";

  const sim::TimePoint t0 = sim_.now();
  const RestoreResult first = Restorer{kernel_}.restore(dump.images, opts);
  const sim::Duration first_cost = sim_.now() - t0;
  EXPECT_TRUE(first.template_materialized);
  EXPECT_FALSE(first.template_clone);
  ASSERT_TRUE(store.has_template("/snap/tpl/"));

  // The template is a frozen copy; the caller got a live clone of it.
  const os::Pid tpl = store.find_template("/snap/tpl/")->pid;
  ASSERT_NE(tpl, first.pid);
  EXPECT_EQ(kernel_.process(tpl).state(), os::ProcState::kFrozen);
  EXPECT_NE(kernel_.process(tpl).name().find("[template]"), std::string::npos);
  EXPECT_EQ(kernel_.process(first.pid).state(), os::ProcState::kRunning);
  EXPECT_EQ(kernel_.process(first.pid).mm().resident_pages(),
            kernel_.process(tpl).mm().resident_pages());

  const sim::TimePoint t1 = sim_.now();
  const RestoreResult second = Restorer{kernel_}.restore(dump.images, opts);
  const sim::Duration clone_cost = sim_.now() - t1;
  EXPECT_TRUE(second.template_clone);
  EXPECT_EQ(second.bytes_read, 0u);
  EXPECT_EQ(second.remote_bytes, 0u);
  EXPECT_GT(second.pages_restored, 0u);  // clone shares all resident pages
  EXPECT_EQ(kernel_.process(second.pid).mm().resident_pages(),
            kernel_.process(tpl).mm().resident_pages());
  EXPECT_EQ(store.stats().template_clones, 1u);
  // The whole point: Nth replica start costs ~CLONE, not a full restore.
  EXPECT_LT(clone_cost.nanos_count(), first_cost.nanos_count() / 10);
}

TEST_F(TemplateRestoreTest, TemplateCowWriteChargesPageCopyOnce) {
  const DumpResult dump = dump_to(make_target(0xFEED), "/snap/cow/");
  PageStore store;
  RestoreOptions opts;
  opts.fs_prefix = "/snap/cow/";
  opts.page_store = &store;
  opts.store_key = "/snap/cow/";
  Restorer{kernel_}.restore(dump.images, opts);
  const RestoreResult clone = Restorer{kernel_}.restore(dump.images, opts);
  ASSERT_TRUE(clone.template_clone);

  os::Process& proc = kernel_.process(clone.pid);
  const std::uint64_t shared_before = proc.mm().cow_pages();
  EXPECT_EQ(shared_before, proc.mm().resident_pages());
  os::VmaId heap = 0;
  for (const os::Vma& v : proc.mm().vmas())
    if (v.name == "[big-heap]") heap = v.id;
  ASSERT_NE(heap, 0u);

  const sim::TimePoint t0 = sim_.now();
  kernel_.fault_in(clone.pid, heap, 0, 4, /*write=*/true);
  const sim::Duration write_cost = sim_.now() - t0;
  EXPECT_EQ(write_cost.nanos_count(),
            (kernel_.costs().memcpy_cost(kPageSize) * 4.0).nanos_count());
  EXPECT_EQ(proc.mm().cow_pages(), shared_before - 4);

  // The copies are made; writing the same pages again is free.
  const sim::TimePoint t1 = sim_.now();
  kernel_.fault_in(clone.pid, heap, 0, 4, /*write=*/true);
  EXPECT_EQ((sim_.now() - t1).nanos_count(), 0);
  // The frozen template never shares in the clone's direction.
  const os::Pid tpl = store.find_template("/snap/cow/")->pid;
  EXPECT_EQ(kernel_.process(tpl).mm().cow_pages(), 0u);
}

TEST_F(TemplateRestoreTest, TemplateVerifyPagesPassesAfterCowWrites) {
  const DumpResult dump = dump_to(make_target(0xFEED), "/snap/verify/");
  PageStore store;
  RestoreOptions opts;
  opts.fs_prefix = "/snap/verify/";
  opts.page_store = &store;
  opts.store_key = "/snap/verify/";
  Restorer{kernel_}.restore(dump.images, opts);

  // Clone a replica and break COW on part of its heap.
  const RestoreResult writer = Restorer{kernel_}.restore(dump.images, opts);
  os::Process& wproc = kernel_.process(writer.pid);
  for (const os::Vma& v : wproc.mm().vmas())
    if (v.name == "[big-heap]")
      kernel_.fault_in(writer.pid, v.id, 0, 16, /*write=*/true);

  // A verified clone still checks out: the template's pages are immutable,
  // and COW isolated the writer's copies from everyone else.
  RestoreOptions verify = opts;
  verify.verify_pages = true;
  const RestoreResult checked = Restorer{kernel_}.restore(dump.images, verify);
  EXPECT_TRUE(checked.template_clone);
  EXPECT_GT(checked.duration.nanos_count(), 0);  // verification charges page reads
}

TEST_F(TemplateRestoreTest, TemplateDroppedTemplateRematerializes) {
  const DumpResult dump = dump_to(make_target(0xFEED), "/snap/drop/");
  PageStore store;
  RestoreOptions opts;
  opts.fs_prefix = "/snap/drop/";
  opts.page_store = &store;
  opts.store_key = "/snap/drop/";
  Restorer{kernel_}.restore(dump.images, opts);

  const os::Pid tpl = store.drop_template("/snap/drop/");
  ASSERT_NE(tpl, os::kNoPid);
  kernel_.kill_process(tpl);
  kernel_.reap(tpl);

  const RestoreResult again = Restorer{kernel_}.restore(dump.images, opts);
  EXPECT_TRUE(again.template_materialized);
  EXPECT_FALSE(again.template_clone);
  EXPECT_TRUE(store.has_template("/snap/drop/"));
  EXPECT_EQ(store.stats().templates_materialized, 2u);
}

TEST_F(TemplateRestoreTest, TemplateFreezeUnderTinyBudgetKeepsItsPages) {
  // The store's budget is smaller than the snapshot: the freeze keeps every
  // page it pins and evicts none of them.
  const DumpResult dump = dump_to(make_target(0xFEED), "/snap/tiny/");
  const std::uint64_t unique =
      PageStore{}.missing_unique_pages(dump.images.decoded().pages->digests());
  ASSERT_GT(unique, 8u);
  PageStore store;
  store.set_capacity(8 * kPageSize);
  RestoreOptions opts;
  opts.fs_prefix = "/snap/tiny/";
  opts.page_store = &store;
  opts.store_key = "/snap/tiny/";
  const RestoreResult first = Restorer{kernel_}.restore(dump.images, opts);
  EXPECT_TRUE(first.template_materialized);
  EXPECT_EQ(store.stored_pages(), unique);
  EXPECT_EQ(store.stats().evicted_pages, 0u);
  const RestoreResult second = Restorer{kernel_}.restore(dump.images, opts);
  EXPECT_TRUE(second.template_clone);
  EXPECT_EQ(store.stored_pages(), unique);
}

// Regression (DESIGN.md §6j): requesting a template clone together with
// non-eager paging used to silently skip the template; it is now a typed,
// non-retryable config error diagnosed before any work happens.
TEST_F(TemplateRestoreTest, TemplateWithNonEagerPagingIsConfigError) {
  const DumpResult dump = dump_to(make_target(0xFEED), "/snap/lazy/");
  PageStore store;
  RestoreOptions opts;
  opts.fs_prefix = "/snap/lazy/";
  opts.page_store = &store;
  opts.store_key = "/snap/lazy/";
  opts.paging = PagingPolicy::lazy();
  try {
    Restorer{kernel_}.restore(dump.images, opts);
    FAIL() << "template clone + lazy paging was accepted";
  } catch (const RestoreError& e) {
    EXPECT_EQ(e.kind(), RestoreErrorKind::kConfig);
    EXPECT_FALSE(e.transient());
  }
  // The rejected restore did no work against the store...
  EXPECT_FALSE(store.has_template("/snap/lazy/"));
  EXPECT_EQ(store.stored_pages(), 0u);
  // ...and the same options without the template request (delta-only store
  // use) restore lazily as before.
  opts.store_key.clear();
  const RestoreResult restored = Restorer{kernel_}.restore(dump.images, opts);
  ASSERT_NE(restored.lazy_server, nullptr);
  EXPECT_FALSE(restored.template_materialized);
  EXPECT_FALSE(store.has_template("/snap/lazy/"));
}

}  // namespace
}  // namespace prebake::criu
