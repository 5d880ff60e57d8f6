#include "core/prebaker.hpp"

#include <gtest/gtest.h>

#include "exp/calibration.hpp"
#include "faas/builder.hpp"

namespace prebake::core {
namespace {

class PrebakerTest : public ::testing::Test {
 protected:
  PrebakerTest()
      : kernel_{sim_, exp::testbed_costs()},
        startup_{kernel_, exp::testbed_runtime(), assets_},
        builder_{kernel_, startup_} {}

  BakedSnapshot bake(rt::FunctionSpec spec, PrebakeConfig cfg) {
    faas::BuildResult built = builder_.build(std::move(spec), std::nullopt,
                                             sim::Rng{1});
    Prebaker prebaker{startup_};
    return prebaker.bake(built.spec, cfg, sim::Rng{2});
  }

  sim::Simulation sim_;
  os::Kernel kernel_;
  funcs::SharedAssets assets_;
  StartupService startup_;
  faas::FunctionBuilder builder_;
};

TEST_F(PrebakerTest, BakePersistsImagesUnderStoreRoot) {
  PrebakeConfig cfg;
  const BakedSnapshot snap = bake(exp::noop_spec(), cfg);
  EXPECT_EQ(snap.fs_prefix, "/var/lib/prebake/noop/nowarmup/");
  EXPECT_TRUE(kernel_.fs().exists(snap.fs_prefix + "inventory.img"));
  EXPECT_TRUE(kernel_.fs().exists(snap.fs_prefix + "pages-1.img"));
  EXPECT_NO_THROW(snap.images.validate());
}

TEST_F(PrebakerTest, BakedProcessIsGoneAfterBake) {
  // The baked process served its purpose; only the snapshot remains. The
  // launcher is the single surviving process.
  bake(exp::noop_spec(), PrebakeConfig{});
  EXPECT_EQ(kernel_.process_count(), 1u);
}

TEST_F(PrebakerTest, WarmupPolicyRecordsRequests) {
  PrebakeConfig cfg;
  cfg.policy = SnapshotPolicy::warmup(3);
  const BakedSnapshot snap = bake(exp::noop_spec(), cfg);
  EXPECT_EQ(snap.stats.warmup_requests, 3u);
  EXPECT_EQ(snap.policy.tag(), "warmup3");
}

TEST_F(PrebakerTest, WarmSnapshotIsBiggerThanColdSnapshot) {
  // Warm-up loads + JIT-compiles the request classes into the image.
  PrebakeConfig cold_cfg;
  const BakedSnapshot cold = bake(exp::synthetic_spec(exp::SynthSize::kSmall),
                                  cold_cfg);
  PrebakeConfig warm_cfg;
  warm_cfg.policy = SnapshotPolicy::warmup(1);
  const BakedSnapshot warm = bake(exp::synthetic_spec(exp::SynthSize::kSmall),
                                  warm_cfg);
  EXPECT_GT(warm.images.nominal_total(),
            cold.images.nominal_total() + 4ull * 1024 * 1024);
}

TEST_F(PrebakerTest, SnapshotSizeTracksFunctionFootprint) {
  const BakedSnapshot noop = bake(exp::noop_spec(), PrebakeConfig{});
  const BakedSnapshot resizer = bake(exp::image_resizer_spec(), PrebakeConfig{});
  // Paper: 13 MB (NOOP) vs 99.2 MB (Image Resizer).
  EXPECT_GT(resizer.images.nominal_total(),
            noop.images.nominal_total() * 5);
}

TEST_F(PrebakerTest, UnprivilegedBakeWorksWithNewCapability) {
  PrebakeConfig cfg;
  cfg.unprivileged = true;  // CAP_CHECKPOINT_RESTORE only [11]
  EXPECT_NO_THROW(bake(exp::noop_spec(), cfg));
}

TEST_F(PrebakerTest, BuildTimeIsRecorded) {
  const BakedSnapshot snap = bake(exp::noop_spec(), PrebakeConfig{});
  // Bake = full vanilla start + dump + persist; well above a restore.
  EXPECT_GT(snap.build_time.to_millis(), 50.0);
}

TEST(PrebakerDigestMemo, BakeAfterOtherBakesIsByteIdentical) {
  // A function baked after two others on the same runtime reads the shared
  // runtime pages' digests back from the kernel's memo; its image files
  // must equal those of the same bake in a fresh kernel.
  struct Bed {
    sim::Simulation sim;
    os::Kernel kernel{sim, exp::testbed_costs()};
    funcs::SharedAssets assets;
    StartupService startup{kernel, exp::testbed_runtime(), assets};
    faas::FunctionBuilder builder{kernel, startup};

    // `pid`, when set, is the pid the baked process must get: the pid is
    // part of the images, so beds with different histories line it up.
    BakedSnapshot bake(rt::FunctionSpec spec, os::Pid pid = os::kNoPid) {
      faas::BuildResult built =
          builder.build(std::move(spec), std::nullopt, sim::Rng{1});
      for (os::Pid burnt = os::kNoPid; pid != os::kNoPid && burnt + 1 < pid;) {
        burnt = kernel.clone_process(os::kNoPid);
        kernel.kill_process(burnt);
        kernel.reap(burnt);
      }
      PrebakeConfig cfg;
      cfg.policy = SnapshotPolicy::warmup(1);
      return Prebaker{startup}.bake(built.spec, cfg, sim::Rng{2});
    }
  };
  Bed shared;
  shared.bake(exp::noop_spec());
  shared.bake(exp::markdown_spec());
  const BakedSnapshot third = shared.bake(exp::image_resizer_spec());
  EXPECT_GT(shared.kernel.digest_memo_stats().hits, 0u);

  Bed fresh;
  const BakedSnapshot alone = fresh.bake(
      exp::image_resizer_spec(), third.images.decoded().inventory->root_pid);
  EXPECT_EQ(fresh.kernel.digest_memo_stats().hits, 0u);
  ASSERT_EQ(alone.images.names(), third.images.names());
  for (const std::string& name : third.images.names()) {
    EXPECT_EQ(alone.images.get(name).bytes, third.images.get(name).bytes)
        << name;
    EXPECT_EQ(alone.images.get(name).nominal_size,
              third.images.get(name).nominal_size)
        << name;
  }
}

TEST(SnapshotStore, PutGetHas) {
  SnapshotStore store;
  BakedSnapshot snap;
  snap.function_name = "fn";
  snap.policy = SnapshotPolicy::warmup(1);
  store.put(std::move(snap));
  EXPECT_TRUE(store.has("fn", SnapshotPolicy::warmup(1)));
  EXPECT_FALSE(store.has("fn", SnapshotPolicy::no_warmup()));
  EXPECT_EQ(store.get("fn", SnapshotPolicy::warmup(1)).function_name, "fn");
  EXPECT_THROW(store.get("other", SnapshotPolicy::no_warmup()),
               std::out_of_range);
  EXPECT_EQ(store.size(), 1u);
}

namespace {
BakedSnapshot fake_snapshot(const std::string& name, SnapshotPolicy policy,
                            std::uint64_t bytes) {
  BakedSnapshot snap;
  snap.function_name = name;
  snap.policy = policy;
  snap.images.put("pages-1.img", {1, 2, 3}, bytes);
  return snap;
}
}  // namespace

TEST(SnapshotStoreLru, UnlimitedByDefault) {
  SnapshotStore store;
  for (int i = 0; i < 20; ++i)
    store.put(fake_snapshot("fn" + std::to_string(i),
                            SnapshotPolicy::no_warmup(), 100 << 20));
  EXPECT_EQ(store.size(), 20u);
  EXPECT_EQ(store.cache_stats().evictions, 0u);
}

TEST(SnapshotStoreLru, CapacityEvictsLeastRecentlyUsed) {
  SnapshotStore store;
  store.set_capacity(250ull << 20);
  store.put(fake_snapshot("a", SnapshotPolicy::no_warmup(), 100 << 20));
  store.put(fake_snapshot("b", SnapshotPolicy::no_warmup(), 100 << 20));
  // Touch "a" so "b" becomes the LRU victim.
  (void)store.get("a", SnapshotPolicy::no_warmup());
  store.put(fake_snapshot("c", SnapshotPolicy::no_warmup(), 100 << 20));
  EXPECT_TRUE(store.has("a", SnapshotPolicy::no_warmup()));
  EXPECT_FALSE(store.has("b", SnapshotPolicy::no_warmup()));
  EXPECT_TRUE(store.has("c", SnapshotPolicy::no_warmup()));
  EXPECT_EQ(store.cache_stats().evictions, 1u);
}

TEST(SnapshotStoreLru, VictimOrderFollowsInterleavedGetsAndPuts) {
  SnapshotStore store;
  const SnapshotPolicy p = SnapshotPolicy::no_warmup();
  for (const char* name : {"a", "b", "c"})
    store.put(fake_snapshot(name, p, 100 << 20));
  // Recency, oldest first: a b c -> b c a -> c a b -> a b c.
  (void)store.get("a", p);
  store.put(fake_snapshot("b", p, 100 << 20));  // a re-put refreshes too
  (void)store.get("c", p);
  store.set_capacity(250ull << 20);  // room for two
  EXPECT_FALSE(store.has("a", p));
  EXPECT_TRUE(store.has("b", p));
  EXPECT_TRUE(store.has("c", p));
  store.put(fake_snapshot("d", p, 100 << 20));  // b c d: b goes
  EXPECT_FALSE(store.has("b", p));
  (void)store.get("c", p);                      // d c
  store.put(fake_snapshot("e", p, 100 << 20));  // d c e: d goes
  EXPECT_FALSE(store.has("d", p));
  EXPECT_TRUE(store.has("c", p));
  EXPECT_TRUE(store.has("e", p));
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.cache_stats().evictions, 3u);
}

TEST(SnapshotStoreLru, ShrinkingCapacityEvictsImmediately) {
  SnapshotStore store;
  store.put(fake_snapshot("a", SnapshotPolicy::no_warmup(), 100 << 20));
  store.put(fake_snapshot("b", SnapshotPolicy::no_warmup(), 100 << 20));
  store.set_capacity(150ull << 20);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_TRUE(store.has("b", SnapshotPolicy::no_warmup()));
}

TEST(SnapshotStoreLru, NeverEvictsTheLastSnapshot) {
  SnapshotStore store;
  store.set_capacity(1);  // smaller than any snapshot
  store.put(fake_snapshot("a", SnapshotPolicy::no_warmup(), 100 << 20));
  EXPECT_EQ(store.size(), 1u);
}

TEST(SnapshotStoreLru, HitMissAccounting) {
  SnapshotStore store;
  store.put(fake_snapshot("a", SnapshotPolicy::no_warmup(), 1000));
  (void)store.get("a", SnapshotPolicy::no_warmup());
  EXPECT_THROW((void)store.get("zzz", SnapshotPolicy::no_warmup()),
               std::out_of_range);
  EXPECT_EQ(store.cache_stats().hits, 1u);
  EXPECT_EQ(store.cache_stats().misses, 1u);
  EXPECT_EQ(store.stored_bytes(), 1000u);
}

TEST(SnapshotPolicy, Tags) {
  EXPECT_EQ(SnapshotPolicy::no_warmup().tag(), "nowarmup");
  EXPECT_EQ(SnapshotPolicy::warmup().tag(), "warmup1");
  EXPECT_EQ(SnapshotPolicy::warmup(5).tag(), "warmup5");
  EXPECT_FALSE(SnapshotPolicy::no_warmup().warmed());
  EXPECT_TRUE(SnapshotPolicy::warmup().warmed());
}

}  // namespace
}  // namespace prebake::core
