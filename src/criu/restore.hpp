// The restore side of the CRIU-model engine.
//
// Mirrors CRIU's restore: the restorer process reads the image files,
// transmutes itself into the checkpointed process (clone — optionally with
// the original pid, which needs CAP_CHECKPOINT_RESTORE), recreates
// namespaces and open files, then remaps and faults the checkpointed memory.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "criu/error.hpp"
#include "criu/image.hpp"
#include "criu/paging.hpp"
#include "criu/ws.hpp"
#include "os/kernel.hpp"

namespace prebake::criu {

class PageStore;

struct RestoreOptions {
  // Reuse the checkpointed pid (requires CAP_CHECKPOINT_RESTORE or root).
  bool restore_original_pid = false;
  // Recompute every page digest after mapping and compare against the image
  // (integrity check; costs CPU time).
  bool verify_pages = false;
  // Keep images in memory / page cache (the in-memory CRIU optimization of
  // Venkatesh et al. [26], discussed as future work in Section 7): image
  // reads are charged at page-cache bandwidth even on first restore.
  bool in_memory = false;
  // N concurrent restores sharing the storage device (processor-sharing
  // approximation); used by the concurrency ablation.
  double io_contention = 1.0;
  os::Cap criu_caps = os::Cap::kSysPtrace | os::Cap::kSysAdmin;
  // Where the image files live in the simulated filesystem ("" = images were
  // never persisted; no storage read is charged, only decode + mapping).
  // For a pre-dump chain this is the *final* link's directory; earlier links
  // are read from nested "parent/" subdirectories of it, mirroring CRIU's
  // --prev-images-dir layout (each link names its payload pages-1.img, so a
  // flat directory would alias the links' files).
  std::string fs_prefix;
  // The images live on a remote snapshot registry ("checkpoint/restore as
  // a service", Section 7): a node's first read of each file is charged at
  // network bandwidth, after which it is cached locally. A transfer that
  // disconnects mid-flight is retried up to 3 attempts, sleeping 10 ms *
  // attempt * (1 + jitter) between tries, then fails with
  // RestoreError{kFetchFailed}; with no faults injected the fetch succeeds
  // on the first attempt and the retry path charges nothing.
  bool remote_fetch = false;
  // How the memory replay pages the process in (DESIGN.md §6j): eager
  // (default), lazy (CRIU's userfaultfd post-copy mode — an eager prefix per
  // pagemap run, the rest served on demand by the returned LazyPagesServer),
  // or REAP-style working-set record/prefetch.
  PagingPolicy paging;
  // Node-local content-addressed page store (DESIGN.md §6f). When set,
  // remote fetches of the page payload negotiate per-page digests and
  // transfer only what the store is missing, and restores materialize (or
  // clone) a frozen per-snapshot template keyed by `store_key`. Delta
  // negotiation also serves working-set prefetch restores (over the WS
  // pages only); template clone requires eager paging — see validate().
  // Null = the legacy behavior everywhere.
  PageStore* page_store = nullptr;
  // The snapshot's identity in the node store (e.g. its node-local image
  // prefix). Empty disables template materialization/cloning even with a
  // store attached; delta transfer still applies. Requires eager paging: a
  // non-eager restore leaves a lazy tail a frozen template would miss, so
  // validate() rejects the combination (RestoreError{kConfig}) instead of
  // the silent downgrade the pre-PagingPolicy code performed.
  std::string store_key;

  // Reject contradictory option combinations up front with a typed,
  // non-transient error (retrying a caller bug fails identically forever).
  // Every Restorer entry point calls it first, before any image is checked
  // or a restore is planned.
  void validate() const {
    if (paging.mode != PagingMode::kEager && page_store != nullptr &&
        !store_key.empty())
      throw RestoreError{
          RestoreErrorKind::kConfig,
          std::string{"restore: template clone (store_key) requires eager "
                      "paging, got "} +
              paging_mode_name(paging.mode)};
  }
};

// One layer of a base+delta restore (DESIGN.md §6k). `images` is required;
// fs_prefix names where *this layer's* files live in the simulated fs (""
// = unpersisted, decode only); store_key is the layer's template identity in
// the node page store ("" = no template for this layer).
struct LayerLink {
  const ImageDir* images = nullptr;
  std::string fs_prefix;
  std::string store_key;
};

// The three ways a restore runs (DESIGN.md §6l).
enum class RestorePath : std::uint8_t {
  kReplay,         // replay every link's images into a fresh process
  kCloneTemplate,  // COW-clone the function's frozen template; read nothing
  kCloneBase,      // COW-clone the base template, freezing it from link 0
                   // first when absent, and replay only the delta link
};

// What plan_restore decided: the path, the links it planned over (borrowed
// from the caller) and the templates to clone from and to freeze.
struct RestorePlan {
  RestorePath path = RestorePath::kReplay;
  std::span<const LayerLink> links;  // oldest first, as passed
  std::string clone_key;  // the template a clone path starts from
  // kCloneBase: the base template to freeze from link 0 first ("" = the
  // node already holds it).
  std::string freeze_base;
  // The function template to freeze after the restore ("" = none).
  std::string freeze_key;

  // Link i's chain depth for error attribution: 0 is the newest link,
  // growing toward the oldest; -1 for a single-image restore.
  int depth(std::size_t i) const {
    return links.size() > 1 ? static_cast<int>(links.size() - 1 - i) : -1;
  }
};

// Choose how to restore `links` (oldest first; the last is the final dump or
// the app delta). Pure: reads only the links, opts.page_store, opts.paging
// and PageStore::has_template, and charges no simulated time. The function's
// template key is links.back().store_key; a two-link chain whose first link
// has a store_key is a base+delta whose base template can be cloned.
// Templates need a page store and eager paging.
RestorePlan plan_restore(std::span<const LayerLink> links,
                         const RestoreOptions& opts);

// A run of not-yet-mapped pages handed to the uffd server. Run-length
// encoded: a lazy restore of a large VMA queues one entry per pagemap run,
// not one pair per page.
struct LazyRun {
  os::VmaId vma = 0;
  std::uint64_t first_page = 0;
  std::uint64_t pages = 0;
};

// The uffd page server left behind by a lazy restore: it owns the pages that
// were *not* eagerly mapped and faults them into the target on demand.
class LazyPagesServer {
 public:
  LazyPagesServer() = default;
  LazyPagesServer(os::Kernel& kernel, os::Pid pid, std::string fs_prefix,
                  std::vector<LazyRun> pending);

  // Fault `pages` pending pages into the target (first-touch order);
  // charges page-fault plus image-read costs. Returns pages actually served.
  // Under an enabled fault injector the server may die once (kLazyServerDeath:
  // the supervisor respawns it and the faulting thread eats the latency) and
  // transient image-read errors are retried a bounded number of times before
  // surfacing as RestoreError{kIoError}.
  std::uint64_t page_in(std::uint64_t pages);
  // Drain everything (e.g. before a full-memory operation).
  std::uint64_t page_in_all() { return page_in(pending_pages()); }

  std::uint64_t pending_pages() const { return remaining_; }
  bool done() const { return pending_pages() == 0; }

 private:
  os::Kernel* kernel_ = nullptr;
  os::Pid pid_ = os::kNoPid;
  std::string fs_prefix_;
  std::vector<LazyRun> pending_;
  std::size_t run_ = 0;        // current run index
  std::uint64_t run_off_ = 0;  // pages already served from pending_[run_]
  std::uint64_t remaining_ = 0;
  bool died_ = false;  // the uffd server died and was respawned (once)
};

struct RestoreResult {
  os::Pid pid = os::kNoPid;
  std::uint64_t pages_restored = 0;
  std::uint64_t bytes_read = 0;
  // Bytes pulled from the remote snapshot registry (remote_fetch restores
  // whose image files were not yet in the node-local cache). 0 on local
  // restores and on cache hits — the node-locality signal the cluster
  // layer's placement policies optimize for.
  std::uint64_t remote_bytes = 0;
  sim::Duration duration;
  // Present iff the restore ran under a non-eager paging mode (lazy, or the
  // working-set modes, which lazy-serve their cold tail).
  std::shared_ptr<LazyPagesServer> lazy_server;
  // Working-set restore (DESIGN.md §6j). The recorder is present iff the
  // restore ran in ws-recording mode; the platform closes it with
  // finish_ws_recording after the first invocation completes.
  std::shared_ptr<WsRecorder> ws_recorder;
  // Pages eagerly mapped from the recorded working set (prefetch mode).
  std::uint64_t ws_prefetched_pages = 0;
  // A requested WS prefetch downgraded to pure-lazy because ws-1.img was
  // missing, truncated, or corrupt; kind/detail carry the typed warning.
  bool ws_fallback = false;
  RestoreErrorKind ws_fallback_kind = RestoreErrorKind::kMissingImage;
  std::string ws_fallback_detail;
  // Page-store accounting (zero / false without opts.page_store). Hit pages
  // are payload pages the delta negotiation found already materialized on
  // the node; delta bytes are the payload that actually crossed the wire.
  std::uint64_t store_hit_pages = 0;
  std::uint64_t store_delta_bytes = 0;
  // This restore was served by COW-cloning the node's frozen template.
  bool template_clone = false;
  // This restore left a frozen template behind (first restore on the node).
  bool template_materialized = false;
  // Layered restore accounting (DESIGN.md §6k; zero/false outside
  // restore_layered). base_template_clone: the replica was built by
  // COW-cloning the pinned *base-runtime* template and replaying only the
  // app delta. base_template_materialized: this restore was the node's first
  // over that base and left the pinned base template behind.
  bool base_template_clone = false;
  bool base_template_materialized = false;
  // Pages replayed from the app delta layer (subset of pages_restored).
  std::uint64_t delta_pages_restored = 0;
  // Pages the manifest records as covered by the base layer(s).
  std::uint64_t layer_shared_pages = 0;
};

// The three entry points are adapters over one executor (DESIGN.md §6l):
// each names its links, then the executor validates them, plans and runs.
class Restorer {
 public:
  explicit Restorer(os::Kernel& kernel) : kernel_{&kernel} {}

  RestoreResult restore(const ImageDir& images, const RestoreOptions& opts = {});
  // Restore from an incremental chain (pre-dump(s) followed by the final
  // dump); metadata comes from the last image, memory from the whole chain.
  RestoreResult restore_chain(std::span<const ImageDir* const> chain,
                              const RestoreOptions& opts = {});
  // Restore a layered snapshot (DESIGN.md §6k): base layer(s) first, the app
  // delta last. The delta must carry a layers-1.img manifest whose base
  // content digests match `layers` — a mismatched pairing fails typed with
  // the offending link's chain depth. With a page store and eager paging the
  // base is restored once into a pinned template and later functions COW-
  // clone it, replaying only their delta; without, the whole chain replays.
  // opts.fs_prefix / opts.store_key are ignored in favor of the per-layer
  // values.
  RestoreResult restore_layered(std::span<const LayerLink> layers,
                                const RestoreOptions& opts = {});

 private:
  // Check the options and every link (CRC; the layer manifest when
  // `layered`), plan, and run the plan.
  RestoreResult execute(std::span<const LayerLink> links,
                        const RestoreOptions& opts, bool layered);
  // Run a plan's steps (DESIGN.md §6l lists them in order).
  RestoreResult run(const RestorePlan& plan, const RestoreOptions& opts);

  os::Kernel* kernel_;
};

}  // namespace prebake::criu
