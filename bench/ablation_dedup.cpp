// Ablation G — content-addressed snapshot storage.
//
// The paper notes the same snapshot seeds every replica of a function
// (§3.1); a snapshot *store* can go further and share identical pages
// *across* functions, since every Java function's post-bootstrap runtime
// base is byte-identical. Measures dedup ratios for the paper's three
// functions plus both snapshot policies.
#include <cstdio>

#include "core/prebaker.hpp"
#include "criu/page_store.hpp"
#include "exp/calibration.hpp"
#include "exp/report.hpp"
#include "faas/builder.hpp"

using namespace prebake;

namespace {

core::BakedSnapshot bake(faas::FunctionBuilder& builder,
                         const rt::FunctionSpec& spec,
                         core::SnapshotPolicy policy, std::uint64_t seed) {
  core::PrebakeConfig cfg;
  cfg.policy = policy;
  cfg.store_root = "/var/lib/prebake/" + std::to_string(seed) + "/";
  faas::BuildResult built = builder.build(spec, cfg, sim::Rng{seed});
  return std::move(*built.snapshot);
}

}  // namespace

int main() {
  std::printf("== Ablation G: page dedup across snapshots ==\n\n");

  sim::Simulation sim;
  os::Kernel kernel{sim, exp::testbed_costs()};
  funcs::SharedAssets assets;
  core::StartupService startup{kernel, exp::testbed_runtime(), assets};
  faas::FunctionBuilder builder{kernel, startup};

  struct Entry {
    const char* label;
    rt::FunctionSpec spec;
    core::SnapshotPolicy policy;
  };
  const Entry entries[] = {
      {"noop/nowarmup", exp::noop_spec(), core::SnapshotPolicy::no_warmup()},
      {"noop/warmup1", exp::noop_spec(), core::SnapshotPolicy::warmup(1)},
      {"markdown/nowarmup", exp::markdown_spec(),
       core::SnapshotPolicy::no_warmup()},
      {"image-resizer/nowarmup", exp::image_resizer_spec(),
       core::SnapshotPolicy::no_warmup()},
  };

  // The store holds each distinct page once; `total` counts every snapshot's
  // pages as if each were stored whole.
  criu::PageStore store;
  std::uint64_t total = 0;
  exp::TextTable table{{"Snapshot", "Pages", "New pages", "Store total",
                        "Store unique", "Dedup ratio"}};
  std::uint64_t seed = 1;
  for (const Entry& e : entries) {
    const core::BakedSnapshot snap = bake(builder, e.spec, e.policy, seed++);
    const std::span<const std::uint64_t> digests =
        snap.images.decoded().pages->digests();
    const std::uint64_t fresh = store.insert(digests);
    total += digests.size();
    char ratio[16];
    std::snprintf(ratio, sizeof ratio, "%.2fx",
                  static_cast<double>(total) /
                      static_cast<double>(store.stored_pages()));
    table.add_row({e.label, std::to_string(snap.stats.pages_dumped),
                   std::to_string(fresh), exp::fmt_mib(total * os::kPageSize),
                   exp::fmt_mib(store.stored_bytes()), ratio});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf("saved by content addressing: %s\n",
              exp::fmt_mib(total * os::kPageSize - store.stored_bytes())
                  .c_str());
  std::printf(
      "\nShape: the second and later snapshots contribute mostly their own\n"
      "app state — the ~13 MiB runtime base (heap + metaspace after\n"
      "bootstrap) is stored once for the whole fleet.\n");
  return 0;
}
