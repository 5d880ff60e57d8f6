// Layered base+delta snapshots (DESIGN.md §6k): the layers-1.img manifest
// format, split dumps against a base runtime snapshot, layered restore in all
// its paths (full chain replay, base-template clone + delta replay, function
// template), damage attribution by chain link, base-template eviction, and
// the composition with working-set prefetch.
#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/prebaker.hpp"
#include "criu/page_store.hpp"
#include "criu/restore.hpp"
#include "exp/calibration.hpp"
#include "exp/parallel_runner.hpp"
#include "faas/builder.hpp"
#include "faas/platform.hpp"

namespace prebake::criu {
namespace {

// --- layers-1.img format ---------------------------------------------------

TEST(LayerImage, ManifestRoundTrip) {
  LayerManifest m;
  m.layers = {LayerRef{"rt-base-java8", 0x1234abcdULL, 3000},
              LayerRef{"fn-alpha", 0, 220}};
  m.shared_pages = 2780;
  const std::vector<std::uint8_t> bytes = encode_layers(m);
  EXPECT_EQ(decode_layers(bytes), m);
}

TEST(LayerImage, EmptyChainRejected) {
  // A manifest naming no layers is never legal (the delta always names at
  // least itself); the decoder rejects it rather than round-tripping it.
  EXPECT_THROW(decode_layers(encode_layers(LayerManifest{})), RestoreError);
}

TEST(LayerImage, TruncatedBytesThrowTyped) {
  LayerManifest m;
  m.layers = {LayerRef{"base", 7, 100}, LayerRef{"delta", 0, 10}};
  std::vector<std::uint8_t> bytes = encode_layers(m);
  bytes.resize(8);
  try {
    decode_layers(bytes);
    FAIL() << "decode_layers accepted a truncated image";
  } catch (const RestoreError& e) {
    EXPECT_EQ(e.kind(), RestoreErrorKind::kTruncatedImage);
  }
}

TEST(LayerImage, CorruptBytesThrowTyped) {
  LayerManifest m;
  m.layers = {LayerRef{"base", 7, 100}, LayerRef{"delta", 0, 10}};
  std::vector<std::uint8_t> bytes = encode_layers(m);
  bytes[bytes.size() / 2] ^= 0xFF;
  try {
    decode_layers(bytes);
    FAIL() << "decode_layers accepted a corrupt image";
  } catch (const RestoreError& e) {
    EXPECT_EQ(e.kind(), RestoreErrorKind::kCorruptImage);
  }
}

// --- split dump + layered restore ------------------------------------------

class LayerRestoreTest : public ::testing::Test {
 protected:
  LayerRestoreTest()
      : kernel_{sim_, exp::testbed_costs()},
        startup_{kernel_, exp::testbed_runtime(), assets_},
        builder_{kernel_, startup_} {}

  // A bare snapshot of the runtime alone: same binary, trivial handler.
  core::BakedSnapshot bake_base(std::uint64_t seed = 11) {
    rt::FunctionSpec spec;
    spec.name = "rt-base";
    spec.handler_id = "noop";
    spec.runtime_binary = exp::noop_spec().runtime_binary;
    return bake(spec, nullptr, seed);
  }

  core::BakedSnapshot bake(const rt::FunctionSpec& spec,
                           const core::BakedSnapshot* split_base,
                           std::uint64_t seed) {
    core::PrebakeConfig cfg;
    cfg.store_root = "/registry/" + std::to_string(seed) + "/";
    cfg.split_base = split_base;
    faas::BuildResult built = builder_.build(spec, cfg, sim::Rng{seed});
    return std::move(*built.snapshot);
  }

  // Copy an image directory with one file's bytes damaged in place.
  enum class Damage { kFlip, kTruncate };
  static ImageDir damaged(const ImageDir& src, const std::string& victim,
                          Damage how) {
    ImageDir out;
    for (const std::string& name : src.names()) {
      const ImageDir::ImageFile& f = src.get(name);
      std::vector<std::uint8_t> bytes = f.bytes;
      if (name == victim) {
        if (how == Damage::kFlip)
          bytes[bytes.size() / 2] ^= 0x40;
        else
          bytes.resize(bytes.size() / 2);
      }
      out.put(name, std::move(bytes), f.nominal_size);
    }
    return out;
  }

  // Content fingerprint of a restored process: thread registers plus every
  // resident page's digest. Deliberately excludes pids/tids so two restores
  // of the same snapshot compare equal even though they run as different
  // processes (the bench-side fingerprint can mix tids because it compares
  // across identically-seeded worlds).
  std::uint64_t fingerprint_contents(os::Pid pid) {
    const os::Process& proc = kernel_.process(pid);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](std::uint64_t v) {
      h ^= v;
      h *= 0x100000001b3ULL;
      h ^= h >> 29;
    };
    for (const os::Thread& t : proc.threads())
      for (const std::uint64_t r : t.regs) mix(r);
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

  sim::Simulation sim_;
  os::Kernel kernel_;
  funcs::SharedAssets assets_;
  core::StartupService startup_;
  faas::FunctionBuilder builder_;
};

TEST_F(LayerRestoreTest, SplitDumpEmitsDeltaPlusManifest) {
  const core::BakedSnapshot base = bake_base();
  const core::BakedSnapshot mono = bake(exp::markdown_spec(), nullptr, 2);
  const core::BakedSnapshot delta = bake(exp::markdown_spec(), &base, 3);

  // The delta names its base chain and records the coverage.
  ASSERT_TRUE(delta.images.has(kLayersImageName));
  const LayerManifest m =
      decode_layers(delta.images.get(kLayersImageName).bytes);
  ASSERT_EQ(m.layers.size(), 2u);
  EXPECT_EQ(m.layers[0].content_digest, layer_digest(base.images));
  EXPECT_EQ(m.layers[1].content_digest, 0u);  // self
  EXPECT_EQ(m.shared_pages, delta.shared_with_base);
  EXPECT_GT(delta.shared_with_base, 0u);
  EXPECT_EQ(delta.base_function, base.function_name);
  EXPECT_EQ(delta.base_fs_prefix, base.fs_prefix);

  // The whole point: the runtime's pages stay in the base, the delta ships a
  // fraction of the monolithic payload.
  EXPECT_LT(delta.stats.payload_bytes, mono.stats.payload_bytes / 2);
  EXPECT_EQ(delta.stats.pages_dumped + delta.shared_with_base,
            mono.stats.pages_dumped);
}

TEST_F(LayerRestoreTest, FullChainReplayRestoresTheFunction) {
  const core::BakedSnapshot base = bake_base();
  const core::BakedSnapshot delta = bake(exp::markdown_spec(), &base, 3);
  const LayerLink links[] = {{&base.images, base.fs_prefix, ""},
                             {&delta.images, delta.fs_prefix, ""}};
  const RestoreResult r = Restorer{kernel_}.restore_layered(links, {});
  EXPECT_NE(r.pid, os::kNoPid);
  EXPECT_GT(r.layer_shared_pages, 0u);
  EXPECT_EQ(r.layer_shared_pages, delta.shared_with_base);
  EXPECT_FALSE(r.base_template_clone);
  // All pages land: the base's resident set plus the delta's own pages.
  EXPECT_EQ(r.pages_restored,
            base.stats.pages_dumped + delta.stats.pages_dumped);
}

TEST_F(LayerRestoreTest, TemplatePathBitIdenticalToFullReplay) {
  const core::BakedSnapshot base = bake_base();
  const core::BakedSnapshot delta = bake(exp::markdown_spec(), &base, 3);

  // Slow path: replay the whole chain, no store.
  const LayerLink plain[] = {{&base.images, base.fs_prefix, ""},
                             {&delta.images, delta.fs_prefix, ""}};
  const RestoreResult full = Restorer{kernel_}.restore_layered(plain, {});
  const std::uint64_t want = fingerprint_contents(full.pid);

  // Fast path: pinned base template + delta replay, then a pure clone.
  PageStore store;
  RestoreOptions opts;
  opts.page_store = &store;
  opts.store_key = delta.fs_prefix;
  const LayerLink keyed[] = {{&base.images, base.fs_prefix, base.fs_prefix},
                             {&delta.images, delta.fs_prefix, delta.fs_prefix}};
  const RestoreResult first = Restorer{kernel_}.restore_layered(keyed, opts);
  EXPECT_TRUE(first.base_template_materialized);
  EXPECT_TRUE(first.template_materialized);
  EXPECT_TRUE(store.has_template(base.fs_prefix));
  EXPECT_TRUE(store.has_template(delta.fs_prefix));
  EXPECT_EQ(store.template_dependents(base.fs_prefix), 1u);
  EXPECT_EQ(fingerprint_contents(first.pid), want);

  const RestoreResult again = Restorer{kernel_}.restore_layered(keyed, opts);
  EXPECT_TRUE(again.template_clone);
  EXPECT_EQ(fingerprint_contents(again.pid), want);
}

TEST_F(LayerRestoreTest, VerifyPagesPassesOnFullChainReplay) {
  const core::BakedSnapshot base = bake_base();
  const core::BakedSnapshot delta = bake(exp::markdown_spec(), &base, 3);
  const LayerLink links[] = {{&base.images, base.fs_prefix, ""},
                             {&delta.images, delta.fs_prefix, ""}};
  // The delta re-dumps pages the base also holds (the pid-seeded stack), so
  // each page is verified once, against the newest link that covers it.
  std::set<std::pair<os::VmaId, std::uint64_t>> in_delta;
  std::uint64_t verified_pages = 0;
  for (const PagemapEntry& e : delta.images.decoded().pagemap)
    for (std::uint64_t p = 0; p < e.pages; ++p) {
      in_delta.insert({e.vma, e.first_page + p});
      if (!e.zero) ++verified_pages;
    }
  for (const PagemapEntry& e : base.images.decoded().pagemap)
    for (std::uint64_t p = 0; p < e.pages; ++p)
      if (!e.zero && !in_delta.contains({e.vma, e.first_page + p}))
        ++verified_pages;

  Restorer{kernel_}.restore_layered(links, {});  // warm the image cache
  const RestoreResult plain = Restorer{kernel_}.restore_layered(links, {});
  RestoreOptions opts;
  opts.verify_pages = true;
  RestoreResult checked;
  ASSERT_NO_THROW(checked = Restorer{kernel_}.restore_layered(links, opts));
  const sim::Duration per_page = exp::testbed_costs().memcpy_cost(os::kPageSize);
  EXPECT_EQ((checked.duration - plain.duration).nanos_count(),
            (per_page * static_cast<double>(verified_pages)).nanos_count());
}

TEST_F(LayerRestoreTest, VerifyPagesPassesOnFunctionTemplateClone) {
  const core::BakedSnapshot base = bake_base();
  const core::BakedSnapshot delta = bake(exp::markdown_spec(), &base, 3);
  PageStore store;
  RestoreOptions opts;
  opts.page_store = &store;
  opts.store_key = delta.fs_prefix;
  opts.verify_pages = true;
  const LayerLink keyed[] = {{&base.images, base.fs_prefix, base.fs_prefix},
                             {&delta.images, delta.fs_prefix, delta.fs_prefix}};
  const RestoreResult first = Restorer{kernel_}.restore_layered(keyed, opts);
  EXPECT_TRUE(first.base_template_materialized);
  // The second restore clones the function template and walks every link.
  RestoreResult again;
  EXPECT_NO_THROW(again = Restorer{kernel_}.restore_layered(keyed, opts));
  EXPECT_TRUE(again.template_clone);
}

TEST_F(LayerRestoreTest, SecondFunctionClonesTheWarmBase) {
  const core::BakedSnapshot base = bake_base();
  const core::BakedSnapshot f0 = bake(exp::markdown_spec(), &base, 3);
  rt::FunctionSpec spec2 = exp::markdown_spec();
  spec2.name = "markdown-2";
  spec2.memory_seed ^= 0x51ED;
  const core::BakedSnapshot f1 = bake(spec2, &base, 4);

  PageStore store;
  RestoreOptions opts;
  opts.page_store = &store;
  opts.store_key = f0.fs_prefix;
  const LayerLink l0[] = {{&base.images, base.fs_prefix, base.fs_prefix},
                          {&f0.images, f0.fs_prefix, f0.fs_prefix}};
  const RestoreResult r0 = Restorer{kernel_}.restore_layered(l0, opts);
  EXPECT_TRUE(r0.base_template_materialized);
  EXPECT_FALSE(r0.base_template_clone);

  // A *different* function over the same base: no image read of the base, a
  // COW clone plus its own delta replay.
  opts.store_key = f1.fs_prefix;
  const LayerLink l1[] = {{&base.images, base.fs_prefix, base.fs_prefix},
                          {&f1.images, f1.fs_prefix, f1.fs_prefix}};
  const RestoreResult r1 = Restorer{kernel_}.restore_layered(l1, opts);
  EXPECT_TRUE(r1.base_template_clone);
  EXPECT_FALSE(r1.base_template_materialized);
  EXPECT_GT(r1.delta_pages_restored, 0u);
  EXPECT_LT(r1.delta_pages_restored, r1.pages_restored);
  EXPECT_EQ(store.stats().base_template_clones, 1u);
  // Both functions' templates depend on the pinned base.
  EXPECT_EQ(store.template_dependents(base.fs_prefix), 2u);
}

TEST_F(LayerRestoreTest, CorruptBaseAttributedToItsChainDepth) {
  const core::BakedSnapshot base = bake_base();
  const core::BakedSnapshot delta = bake(exp::markdown_spec(), &base, 3);
  const ImageDir bad_base =
      damaged(base.images, "pages-1.img", Damage::kFlip);
  const LayerLink links[] = {{&bad_base, base.fs_prefix, ""},
                             {&delta.images, delta.fs_prefix, ""}};
  try {
    Restorer{kernel_}.restore_layered(links, {});
    FAIL() << "restore_layered accepted a corrupt base layer";
  } catch (const RestoreError& e) {
    EXPECT_EQ(e.kind(), RestoreErrorKind::kCorruptImage);
    EXPECT_EQ(e.chain_link(), 1);  // base sits below the delta (link 0)
  }
}

TEST_F(LayerRestoreTest, TruncatedBaseAttributedToItsChainDepth) {
  const core::BakedSnapshot base = bake_base();
  const core::BakedSnapshot delta = bake(exp::markdown_spec(), &base, 3);
  const ImageDir cut = damaged(base.images, "pages-1.img", Damage::kTruncate);
  const LayerLink links[] = {{&cut, base.fs_prefix, ""},
                             {&delta.images, delta.fs_prefix, ""}};
  try {
    Restorer{kernel_}.restore_layered(links, {});
    FAIL() << "restore_layered accepted a truncated base layer";
  } catch (const RestoreError& e) {
    EXPECT_EQ(e.kind(), RestoreErrorKind::kCorruptImage);
    EXPECT_EQ(e.chain_link(), 1);
  }
}

TEST_F(LayerRestoreTest, CorruptDeltaAttributedToLinkZero) {
  const core::BakedSnapshot base = bake_base();
  const core::BakedSnapshot delta = bake(exp::markdown_spec(), &base, 3);
  for (const Damage how : {Damage::kFlip, Damage::kTruncate}) {
    SCOPED_TRACE(how == Damage::kFlip ? "flip" : "truncate");
    const ImageDir bad = damaged(delta.images, "pages-1.img", how);
    const LayerLink links[] = {{&base.images, base.fs_prefix, ""},
                               {&bad, delta.fs_prefix, ""}};
    try {
      Restorer{kernel_}.restore_layered(links, {});
      FAIL() << "restore_layered accepted a damaged delta layer";
    } catch (const RestoreError& e) {
      EXPECT_EQ(e.kind(), RestoreErrorKind::kCorruptImage);
      EXPECT_EQ(e.chain_link(), 0);
    }
  }
}

TEST_F(LayerRestoreTest, MismatchedBasePairingRejected) {
  // A delta restored over a base it was not diffed against must fail typed
  // at the base's depth, not silently mix layers.
  const core::BakedSnapshot base = bake_base(11);
  const core::BakedSnapshot delta = bake(exp::markdown_spec(), &base, 3);
  rt::FunctionSpec other_spec;
  other_spec.name = "rt-base-other";
  other_spec.handler_id = "noop";
  other_spec.runtime_binary = exp::noop_spec().runtime_binary;
  other_spec.memory_seed ^= 0xBAD;
  const core::BakedSnapshot other = bake(other_spec, nullptr, 12);
  const LayerLink links[] = {{&other.images, other.fs_prefix, ""},
                             {&delta.images, delta.fs_prefix, ""}};
  try {
    Restorer{kernel_}.restore_layered(links, {});
    FAIL() << "restore_layered accepted a mismatched base layer";
  } catch (const RestoreError& e) {
    EXPECT_EQ(e.kind(), RestoreErrorKind::kCorruptImage);
    EXPECT_EQ(e.chain_link(), 1);
    EXPECT_NE(std::string{e.what()}.find("digest mismatch"),
              std::string::npos);
  }
}

TEST_F(LayerRestoreTest, MissingManifestRejected) {
  const core::BakedSnapshot base = bake_base();
  const core::BakedSnapshot mono = bake(exp::markdown_spec(), nullptr, 2);
  // A monolithic snapshot carries no layers-1.img: passing it as a delta is
  // a caller error surfaced as a typed missing-image failure.
  const LayerLink links[] = {{&base.images, base.fs_prefix, ""},
                             {&mono.images, mono.fs_prefix, ""}};
  try {
    Restorer{kernel_}.restore_layered(links, {});
    FAIL() << "restore_layered accepted a delta without a manifest";
  } catch (const RestoreError& e) {
    EXPECT_EQ(e.kind(), RestoreErrorKind::kMissingImage);
    EXPECT_EQ(e.chain_link(), 0);
  }
}

TEST_F(LayerRestoreTest, LayeredWithWsPrefetchServesWorkingSet) {
  // Composition with §6j: a non-eager layered restore replays the full
  // chain under the working-set policy — the recorded set is bulk-mapped,
  // the cold tail lazy-served.
  const core::BakedSnapshot base = bake_base();
  core::BakedSnapshot delta = bake(exp::markdown_spec(), &base, 3);
  os::VmaId heap = 0;
  for (const VmaEntry& e : delta.images.decoded().vmas)
    if (e.name == "[jvm-heap]") heap = e.id;
  ASSERT_NE(heap, 0u);
  WorkingSetImage ws;
  ws.runs = {WsRun{heap, 0, 16}};
  ws.total_pages = 16;
  delta.images.put(kWsImageName, encode_ws(ws));

  RestoreOptions opts;
  opts.paging = PagingPolicy::ws_prefetch();
  const LayerLink links[] = {{&base.images, base.fs_prefix, ""},
                             {&delta.images, delta.fs_prefix, ""}};
  const RestoreResult r = Restorer{kernel_}.restore_layered(links, opts);
  EXPECT_FALSE(r.ws_fallback);
  EXPECT_EQ(r.ws_prefetched_pages, 16u);
  ASSERT_NE(r.lazy_server, nullptr);
  EXPECT_GT(r.lazy_server->pending_pages(), 0u);
  // Draining the tail completes the restore like any lazy chain replay:
  // residency matches an eager restore of the same chain. (The sum of the
  // two layers' dumped pages over-counts: positions the delta re-dumps over
  // the base — the pid-seeded stack — replay twice onto one page.)
  r.lazy_server->page_in_all();
  const RestoreResult eager = Restorer{kernel_}.restore_layered(links, {});
  EXPECT_EQ(kernel_.process(r.pid).mm().resident_pages(),
            kernel_.process(eager.pid).mm().resident_pages());
}

// --- determinism across engine threads -------------------------------------

TEST(LayerDeterminism, LayeredWsPrefetchBitIdenticalAcrossEngineThreads) {
  // Four independent layered + ws-prefetch worlds, summarized like a bench
  // JSON cell; the sweep must not depend on the runner's thread count (same
  // determinism bar as tools/run_benches.sh --check).
  auto sweep = [](int threads) {
    exp::ParallelRunner runner{threads};
    std::vector<std::string> out(4);
    runner.for_each(4, [&](std::size_t i) {
      sim::Simulation sim;
      os::Kernel kernel{sim, exp::testbed_costs()};
      funcs::SharedAssets assets;
      core::StartupService startup{kernel, exp::testbed_runtime(), assets};
      faas::FunctionBuilder builder{kernel, startup};

      rt::FunctionSpec base_spec;
      base_spec.name = "rt-base";
      base_spec.handler_id = "noop";
      base_spec.runtime_binary = exp::noop_spec().runtime_binary;
      core::PrebakeConfig cfg;
      cfg.store_root = "/registry/";
      faas::BuildResult bb = builder.build(base_spec, cfg, sim::Rng{11});
      const core::BakedSnapshot base = std::move(*bb.snapshot);

      rt::FunctionSpec spec = exp::markdown_spec();
      spec.memory_seed ^= 0x51ED0000ULL + i * 0x9E37ULL;
      cfg.split_base = &base;
      faas::BuildResult fb = builder.build(spec, cfg, sim::Rng{100 + i});
      core::BakedSnapshot delta = std::move(*fb.snapshot);

      os::VmaId heap = 0;
      for (const VmaEntry& e : delta.images.decoded().vmas)
        if (e.name == "[jvm-heap]") heap = e.id;
      WorkingSetImage ws;
      ws.runs = {WsRun{heap, 0, 8 + static_cast<std::uint64_t>(i)}};
      ws.total_pages = 8 + i;
      delta.images.put(kWsImageName, encode_ws(ws));

      RestoreOptions opts;
      opts.paging = PagingPolicy::ws_prefetch();
      const LayerLink links[] = {{&base.images, base.fs_prefix, ""},
                                 {&delta.images, delta.fs_prefix, ""}};
      const sim::TimePoint t0 = sim.now();
      const RestoreResult r = Restorer{kernel}.restore_layered(links, opts);
      char buf[160];
      std::snprintf(buf, sizeof buf, "%llu/%llu/%llu/%llu/%.6f",
                    static_cast<unsigned long long>(r.pages_restored),
                    static_cast<unsigned long long>(r.ws_prefetched_pages),
                    static_cast<unsigned long long>(
                        r.lazy_server->pending_pages()),
                    static_cast<unsigned long long>(r.layer_shared_pages),
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

class LayerPlatformTest : public ::testing::Test {
 protected:
  LayerPlatformTest() : kernel_{sim_, exp::testbed_costs()} {
    PlatformConfig cfg;
    cfg.layered = true;
    cfg.page_store = true;
    cfg.node_page_store_bytes = 2 * GiB;
    cfg.idle_timeout = sim::Duration::seconds(1);
    platform_.emplace(kernel_, exp::testbed_runtime(), cfg, 99);
    node_ = platform_->resources().add_node("w1", 8 * GiB);
  }

  void invoke_ok(const std::string& fn) {
    bool done = false;
    platform_->invoke(
        fn, funcs::sample_request(platform_->registry().get(fn).spec.handler_id),
        [&](const funcs::Response& res, const RequestMetrics&) {
          EXPECT_TRUE(res.ok()) << fn;
          done = true;
        });
    while (!done && sim_.step()) {
    }
    EXPECT_TRUE(done) << fn;
  }

  sim::Simulation sim_;
  os::Kernel kernel_;
  std::optional<Platform> platform_;
  NodeId node_ = 0;
};

TEST_F(LayerPlatformTest, LayeredDeployBakesSharedBaseOnce) {
  platform_->deploy(exp::noop_spec(), StartMode::kPrebaked,
                    core::SnapshotPolicy::warmup(1));
  const std::string base_name =
      Platform::base_snapshot_name(exp::noop_spec().runtime_binary);
  ASSERT_TRUE(
      platform_->snapshots().has(base_name, core::SnapshotPolicy::no_warmup()));
  const core::BakedSnapshot& snap = platform_->snapshots().get(
      exp::noop_spec().name, core::SnapshotPolicy::warmup(1));
  EXPECT_EQ(snap.base_function, base_name);
  EXPECT_GT(snap.shared_with_base, 0u);

  // A second function on the same runtime reuses the baked base.
  const std::size_t snaps_before = platform_->snapshots().size();
  platform_->deploy(exp::markdown_spec(), StartMode::kPrebaked,
                    core::SnapshotPolicy::warmup(1));
  EXPECT_EQ(platform_->snapshots().size(), snaps_before + 1);  // no second base
}

TEST_F(LayerPlatformTest, FleetSharesOnePinnedBaseTemplate) {
  platform_->deploy(exp::noop_spec(), StartMode::kPrebaked,
                    core::SnapshotPolicy::warmup(1));
  platform_->deploy(exp::markdown_spec(), StartMode::kPrebaked,
                    core::SnapshotPolicy::warmup(1));
  invoke_ok("noop");
  invoke_ok("markdown-render");
  EXPECT_EQ(platform_->stats().layered_starts, 2u);
  EXPECT_EQ(platform_->stats().base_templates_materialized, 1u);
  EXPECT_EQ(platform_->stats().base_template_clones, 1u);
  EXPECT_EQ(platform_->resources().node(node_).stats().base_template_clones,
            1u);
}

TEST_F(LayerPlatformTest, BaseTemplateEvictionFallsBackWithoutLostRequests) {
  platform_->deploy(exp::noop_spec(), StartMode::kPrebaked,
                    core::SnapshotPolicy::warmup(1));
  platform_->deploy(exp::markdown_spec(), StartMode::kPrebaked,
                    core::SnapshotPolicy::warmup(1));
  invoke_ok("noop");
  invoke_ok("markdown-render");
  ASSERT_EQ(platform_->stats().base_templates_materialized, 1u);

  // Idle the fleet out, then reclaim the pinned base (memory pressure): the
  // base template and every function template depending on it go away.
  sim_.run();
  EXPECT_EQ(platform_->replica_count("noop"), 0u);
  EXPECT_GE(platform_->evict_base_templates(node_), 1u);

  // Mid-fleet loss of the base is absorbed, never surfaced: the next starts
  // rebuild from images (re-pinning the base) and answer every request.
  invoke_ok("noop");
  invoke_ok("markdown-render");
  EXPECT_EQ(platform_->stats().layered_starts, 4u);
  EXPECT_EQ(platform_->stats().base_templates_materialized, 2u);
  EXPECT_EQ(platform_->stats().invocations, 4u);
  EXPECT_EQ(platform_->stats().rejected, 0u);
}

}  // namespace
}  // namespace prebake::faas

