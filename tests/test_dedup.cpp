// Content sharing across snapshots (Ablation G), measured through the page
// store every node keeps: PageStore::insert reports the pages it lacked.
#include <gtest/gtest.h>

#include "core/prebaker.hpp"
#include "criu/page_store.hpp"
#include "exp/calibration.hpp"
#include "faas/builder.hpp"

namespace prebake::criu {
namespace {

class DedupTest : public ::testing::Test {
 protected:
  DedupTest()
      : kernel_{sim_, exp::testbed_costs()},
        startup_{kernel_, exp::testbed_runtime(), assets_},
        builder_{kernel_, startup_} {}

  core::BakedSnapshot bake(const rt::FunctionSpec& spec,
                           core::SnapshotPolicy policy, std::uint64_t seed) {
    core::PrebakeConfig cfg;
    cfg.policy = policy;
    cfg.store_root = "/snapshots/" + std::to_string(seed) + "/";
    faas::BuildResult built = builder_.build(spec, cfg, sim::Rng{seed});
    return std::move(*built.snapshot);
  }

  // Records a snapshot's pages in the store; returns how many were new.
  std::uint64_t add(const core::BakedSnapshot& snap) {
    const std::span<const std::uint64_t> digests =
        snap.images.decoded().pages->digests();
    total_pages_ += digests.size();
    return store_.insert(digests);
  }
  double dedup_ratio() const {
    return static_cast<double>(total_pages_) /
           static_cast<double>(store_.stored_pages());
  }

  sim::Simulation sim_;
  os::Kernel kernel_;
  funcs::SharedAssets assets_;
  core::StartupService startup_;
  faas::FunctionBuilder builder_;
  PageStore store_;
  std::uint64_t total_pages_ = 0;  // pages across every added snapshot
};

TEST_F(DedupTest, FirstSnapshotIsAllFresh) {
  const auto snap = bake(exp::noop_spec(), core::SnapshotPolicy::no_warmup(), 1);
  const std::uint64_t fresh = add(snap);
  EXPECT_EQ(fresh, snap.stats.pages_dumped);
  EXPECT_EQ(store_.stored_pages(), total_pages_);
}

TEST_F(DedupTest, IdenticalRebakeDedupsCompletely) {
  const auto a = bake(exp::noop_spec(), core::SnapshotPolicy::no_warmup(), 1);
  const auto b = bake(exp::noop_spec(), core::SnapshotPolicy::no_warmup(), 2);
  add(a);
  const std::uint64_t fresh = add(b);
  // Re-bakes of the same function share everything except per-process state
  // (the stack and the tiny demand-paged text prefix differ by pid).
  EXPECT_LT(fresh, 300u);
  EXPECT_GT(dedup_ratio(), 1.85);
}

TEST_F(DedupTest, RuntimeBaseSharedAcrossFunctions) {
  const auto noop = bake(exp::noop_spec(), core::SnapshotPolicy::no_warmup(), 1);
  add(noop);
  const auto md =
      bake(exp::markdown_spec(), core::SnapshotPolicy::no_warmup(), 2);
  const std::uint64_t fresh = add(md);
  // The JVM base (heap + metaspace after bootstrap) dedups away; only the
  // markdown-specific state is new.
  EXPECT_LT(fresh, md.stats.pages_dumped / 3);
  EXPECT_GT(fresh, 0u);
}

TEST_F(DedupTest, WarmSnapshotSharesColdBase) {
  const auto cold = bake(exp::noop_spec(), core::SnapshotPolicy::no_warmup(), 1);
  add(cold);
  const auto warm = bake(exp::noop_spec(), core::SnapshotPolicy::warmup(1), 2);
  const std::uint64_t fresh = add(warm);
  // Warm-up only adds lazy metaspace + code cache pages.
  EXPECT_LT(fresh, warm.stats.pages_dumped / 4);
}

}  // namespace
}  // namespace prebake::criu
