#include "criu/restore.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <stdexcept>
#include <utility>

#include "criu/page_store.hpp"

namespace prebake::criu {

DeltaNegotiation negotiate_delta(os::Kernel& k, PageStore& store,
                                 std::span<const std::uint64_t> digests,
                                 double io_contention) {
  obs::Span span = k.trace().span("delta-negotiate", "criu.net");
  DeltaNegotiation out;
  out.digest_bytes = digests.size() * sizeof(std::uint64_t);
  k.sim().advance(k.costs().network_rtt);
  k.sim().advance(k.costs().network_fetch_cost(out.digest_bytes) *
                  std::max(io_contention, 1.0));
  const std::uint64_t missing = store.missing_unique_pages(digests);
  out.hit_pages = digests.size() - missing;
  out.delta_bytes = missing * os::kPageSize;
  PageStoreStats& st = store.stats_mut();
  st.hit_pages += out.hit_pages;
  st.delta_bytes += out.delta_bytes;
  st.digest_bytes += out.digest_bytes;
  k.trace().count("store.hit_pages", out.hit_pages);
  k.trace().count("store.delta_bytes", out.delta_bytes);
  span.attr("pages", digests.size());
  span.attr("missing", missing);
  return out;
}

namespace {

// Registry-fetch retry budget: attempts, and the unit of the linear backoff.
constexpr int kFetchMaxAttempts = 3;
constexpr sim::Duration kFetchRetryBackoff = sim::Duration::millis(10);

// Pull one image file from the remote registry. A transfer may disconnect
// mid-flight (kRegistryDisconnect): the failed attempt still costs a round
// trip, then the fetcher backs off (linear * jitter) and retries, up to
// kFetchMaxAttempts. A stalled registry (kRegistryStall) adds the plan's
// stall latency to a successful transfer. With no faults injected this
// reduces to the original single fetch.
void fetch_from_registry(os::Kernel& k, const std::string& path,
                         std::uint64_t bytes, const RestoreOptions& opts,
                         RestoreResult& result) {
  faults::Injector& inj = k.faults();
  obs::Span span = k.trace().span("registry-fetch", "criu.net");
  span.attr("path", path);
  span.attr("bytes", bytes);
  for (int attempt = 1;; ++attempt) {
    if (inj.enabled() && inj.fires(faults::FaultSite::kRegistryDisconnect)) {
      k.trace().count("criu.fetch_retries");
      k.sim().advance(k.costs().network_rtt);
      if (attempt >= kFetchMaxAttempts) {
        span.attr("attempts", attempt);
        span.attr("error", "disconnect");
        throw RestoreError{RestoreErrorKind::kFetchFailed,
                           "restore: registry fetch failed after " +
                               std::to_string(attempt) + " attempts: " + path};
      }
      k.sim().advance(kFetchRetryBackoff *
                      (static_cast<double>(attempt) * (1.0 + inj.jitter())));
      continue;
    }
    if (inj.enabled() && inj.fires(faults::FaultSite::kRegistryStall))
      k.sim().advance(inj.plan().registry_stall);
    k.sim().advance(k.costs().network_fetch_cost(bytes) *
                    std::max(opts.io_contention, 1.0));
    k.fs().warm(path);
    result.remote_bytes += bytes;
    k.trace().count("criu.remote_bytes", bytes);
    span.attr("attempts", attempt);
    return;
  }
}

// How much of one link's page payload the up-front read pass covers, and
// which digests a delta negotiation runs over. Eager restores read
// everything (bytes unset); lazy restores a fraction; working-set prefetch
// reads exactly the link's WS pages and negotiates only their digests, so
// first-restore-on-node ships the WS delta and nothing else up front.
struct Pages1Plan {
  std::optional<std::uint64_t> bytes;  // nullopt = the full nominal size
  // Delta-negotiation scope when a page store is attached; empty = the
  // image's full digest list.
  std::span<const std::uint64_t> digests;
  // Lazy paging keeps its legacy behavior of bypassing the store entirely
  // (the uffd server owns the page lifecycle there).
  bool allow_delta = true;
};

// Charge the storage cost of reading every image file of one snapshot. The
// page payload is covered per `plan` (see Pages1Plan); whatever is not read
// up front is read on demand by the LazyPagesServer. The working-set image
// is skipped here unconditionally — it is advisory, read explicitly by the
// prefetch prep path with fallback-not-fail semantics. Accumulates
// read/remote byte counts into `result`. Throws typed RestoreErrors for
// truncated on-disk copies, transient device errors and injected record
// corruption. The files live under `fs_prefix` ("" = unpersisted).
// `chain_depth` names the chain link being read (0 = final dump, growing
// toward the oldest parent; -1 = not part of a chain) so truncation in a
// *parent* link is attributable at the error level.
void charge_image_reads(os::Kernel& k, const ImageDir& images,
                        const std::string& fs_prefix,
                        const RestoreOptions& opts, const Pages1Plan& plan,
                        RestoreResult& result, int chain_depth) {
  faults::Injector& inj = k.faults();
  obs::Tracer& tr = k.trace();
  std::string path;  // one buffer for every file's path
  for (const auto& [name, f] : images.files()) {
    if (name == kWsImageName) continue;
    std::uint64_t to_read = f.nominal_size;
    if (plan.bytes && name == "pages-1.img")
      to_read = std::min(*plan.bytes, f.nominal_size);
    result.bytes_read += to_read;
    if (to_read == 0) continue;
    // Per-image read span ("read:pages-1.img" ...). The name is built only
    // when tracing is on so the disabled path stays allocation-free.
    obs::Span read_span;
    if (tr.enabled()) {
      read_span = tr.span("read:" + name, "criu.io");
      read_span.attr("bytes", to_read);
      tr.count("criu.bytes_read", to_read);
    }
    if (!fs_prefix.empty()) {
      path.assign(fs_prefix).append(name);
      // A persisted copy shorter than the record's nominal size is the scar
      // of a truncated write: unrecoverable from this replica, heals via
      // quarantine + re-bake. The size lookup is also the existence check.
      std::uint64_t size = 0;
      try {
        size = k.fs().size_of(path);
      } catch (const std::invalid_argument&) {
        throw RestoreError{RestoreErrorKind::kMissingImage,
                           "restore: missing image file " + path, chain_depth};
      }
      if (size < f.nominal_size) {
        std::string what = "restore: truncated image file " + path + " (" +
                           std::to_string(size) + " < " +
                           std::to_string(f.nominal_size) + " bytes)";
        if (chain_depth > 0)
          what += " in chain link " + std::to_string(chain_depth);
        throw RestoreError{RestoreErrorKind::kTruncatedImage, what,
                           chain_depth};
      }
      if (opts.remote_fetch && !k.fs().is_cached(path)) {
        if (opts.page_store != nullptr && plan.allow_delta &&
            name == "pages-1.img" && images.decoded().pages) {
          // Borrowed digest span straight out of the decode cache — the
          // negotiation never copies the digest list. A WS-prefetch plan
          // narrows it to the link's working-set pages.
          const std::span<const std::uint64_t> digests =
              plan.digests.empty() ? images.decoded().pages->digests()
                                   : plan.digests;
          const DeltaNegotiation neg = negotiate_delta(
              k, *opts.page_store, digests, opts.io_contention);
          result.remote_bytes += neg.digest_bytes;
          k.trace().count("criu.remote_bytes", neg.digest_bytes);
          result.store_hit_pages += neg.hit_pages;
          result.store_delta_bytes += neg.delta_bytes;
          if (neg.delta_bytes > 0)
            fetch_from_registry(k, path, neg.delta_bytes, opts, result);
          else
            k.fs().warm(path);  // every page already on the node
          opts.page_store->insert(digests);
        } else {
          fetch_from_registry(k, path, to_read, opts, result);
        }
      }
      if (opts.in_memory) k.fs().warm(path);
      try {
        k.fs().charge_read(path, to_read, opts.io_contention);
      } catch (const os::IoError& e) {
        throw RestoreError{RestoreErrorKind::kIoError, e.what()};
      }
    } else {
      // Unpersisted images: behave as if already page-cache resident.
      k.sim().advance(k.costs().page_cache_read_cost(to_read) *
                      std::max(opts.io_contention, 1.0));
    }
    // A bit-flip in the record that the per-record CRC catches after the
    // read. The in-memory ImageDir bytes stay pristine — this models
    // corruption of the transferred/cached copy, so a retry can succeed.
    if (inj.enabled() && inj.fires(faults::FaultSite::kImageCorruption)) {
      read_span.attr("error", "crc-mismatch");
      throw RestoreError{RestoreErrorKind::kCorruptImage,
                         "restore: CRC mismatch reading " + name +
                             " (injected bit-flip)"};
    }
  }
}

// COW-clone a frozen template into a fresh shell: the clone shares every
// resident page with the template (first writes are charged a page copy by
// the kernel) and inherits its VMAs and fds. adopt_identity then gives it
// the checkpointed identity.
os::Pid cow_clone(os::Kernel& k, os::Pid tpl, const RestoreOptions& opts) {
  os::CloneOptions copts;
  copts.caller_caps = opts.criu_caps;
  copts.cow_tracked = true;
  return k.clone_process(tpl, copts);
}

// Take over the checkpointed identity: name, argv, namespaces, caps and the
// thread table. The recorded threads replace whatever the shell carried:
// the first takes over the root thread (tids are process-local in the
// model), the rest are spawned, and every register file is loaded.
void adopt_identity(os::Process& proc, const InventoryEntry& inv,
                    const std::vector<CoreEntry>& cores) {
  proc.set_name(inv.name);
  proc.set_argv(inv.argv);
  proc.ns() = inv.ns;
  proc.grant(static_cast<os::Cap>(inv.caps));
  std::vector<os::Thread>& threads = proc.threads();
  threads.resize(1);
  threads[0] = os::Thread{cores[0].tid, os::ThreadState::kRunning,
                          cores[0].regs};
  for (std::size_t i = 1; i < cores.size(); ++i)
    proc.spawn_thread(cores[i].tid).regs = cores[i].regs;
}

// A link's page digests cut at its non-zero pagemap runs: the extents a
// template pins. Runs are clamped to the digest list, and digests past the
// last run form one more extent, so the extents always concatenate to the
// link's whole digest list.
void append_page_runs(const ImageDir::Decoded& dec,
                      std::vector<PageStore::Run>& runs) {
  if (!dec.pages) return;
  const std::span<const std::uint64_t> digests = dec.pages->digests();
  std::size_t at = 0;
  for (const PagemapEntry& e : dec.pagemap) {
    if (e.zero) continue;
    const std::size_t len =
        std::min<std::uint64_t>(e.pages, digests.size() - at);
    if (len > 0) runs.push_back(digests.subspan(at, len));
    at += len;
  }
  if (at < digests.size()) runs.push_back(digests.subspan(at));
}

// If a restore step throws, tear the half-built process down so a failed
// restore doesn't leak a process into the kernel table; the retry/fallback
// paths start from a clean slate.
struct ShellGuard {
  explicit ShellGuard(os::Kernel& kernel) : k{&kernel} {}
  ShellGuard(const ShellGuard&) = delete;
  ShellGuard& operator=(const ShellGuard&) = delete;
  ~ShellGuard() {
    if (pid == os::kNoPid) return;
    k->kill_process(pid);
    k->reap(pid);
  }
  os::Kernel* k;
  os::Pid pid = os::kNoPid;
};

// Manifest pairing: the delta (last layer) names the exact base content it
// was diffed against; restoring over any other base would silently mix
// layers. Returns the pages the manifest records as covered by the bases.
std::uint64_t check_layer_manifest(std::span<const LayerLink> layers) {
  const ImageDir& delta = *layers.back().images;
  const int n = static_cast<int>(layers.size());
  if (!delta.has(kLayersImageName))
    throw RestoreError{RestoreErrorKind::kMissingImage,
                       std::string{"restore: missing image file "} +
                           kLayersImageName,
                       0};
  LayerManifest manifest;
  try {
    manifest = decode_layers(delta.get(kLayersImageName).bytes);
  } catch (const RestoreError& e) {
    throw RestoreError{e.kind(), e.what(), 0};
  }
  if (manifest.layers.size() != layers.size())
    throw RestoreError{RestoreErrorKind::kConfig,
                       "restore: manifest names " +
                           std::to_string(manifest.layers.size()) +
                           " layers, caller passed " +
                           std::to_string(layers.size()),
                       0};
  for (int i = 0; i < n - 1; ++i) {
    const int depth = n - 1 - i;
    if (layer_digest(*layers[i].images) != manifest.layers[i].content_digest)
      throw RestoreError{RestoreErrorKind::kCorruptImage,
                         "restore: base layer '" + manifest.layers[i].id +
                             "' is not the layer this delta was diffed "
                             "against (content digest mismatch, chain link " +
                             std::to_string(depth) + ")",
                         depth};
  }
  return manifest.shared_pages;
}

}  // namespace

RestorePlan plan_restore(std::span<const LayerLink> links,
                         const RestoreOptions& opts) {
  if (links.empty()) throw std::invalid_argument{"restore: empty image chain"};
  RestorePlan plan;
  plan.links = links;
  // A template captures the whole process: only eager restores against a
  // node store clone or freeze one.
  const PageStore* store = opts.page_store;
  if (store == nullptr || opts.paging.mode != PagingMode::kEager) return plan;
  const std::string& key = links.back().store_key;
  if (!key.empty() && store->has_template(key)) {
    plan.path = RestorePath::kCloneTemplate;
    plan.clone_key = key;
    return plan;
  }
  plan.freeze_key = key;
  const std::string& base_key = links.front().store_key;
  if (links.size() == 2 && !base_key.empty()) {
    plan.path = RestorePath::kCloneBase;
    plan.clone_key = base_key;
    if (!store->has_template(base_key)) plan.freeze_base = base_key;
  }
  return plan;
}

RestoreResult Restorer::restore(const ImageDir& images,
                                const RestoreOptions& opts) {
  const LayerLink link{&images, opts.fs_prefix, opts.store_key};
  return execute({&link, 1}, opts, /*layered=*/false);
}

RestoreResult Restorer::restore_chain(std::span<const ImageDir* const> chain,
                                      const RestoreOptions& opts) {
  if (chain.empty()) throw std::invalid_argument{"restore: empty image chain"};
  // Pre-dump links live under nested parent/ subdirectories of the final
  // image dir (CRIU's --prev-images-dir layout): every link names its
  // payload pages-1.img, so a flat prefix would alias their files.
  std::vector<LayerLink> links(chain.size());
  for (std::size_t i = 0; i < chain.size(); ++i) {
    links[i].images = chain[i];
    if (opts.fs_prefix.empty()) continue;
    links[i].fs_prefix = opts.fs_prefix;
    for (std::size_t j = i + 1; j < chain.size(); ++j)
      links[i].fs_prefix += "parent/";
  }
  links.back().store_key = opts.store_key;
  return execute(links, opts, /*layered=*/false);
}

RestoreResult Restorer::restore_layered(std::span<const LayerLink> layers,
                                        const RestoreOptions& opts) {
  if (layers.empty()) throw std::invalid_argument{"restore: empty layer chain"};
  for (const LayerLink& l : layers)
    if (l.images == nullptr)
      throw std::invalid_argument{"restore: null layer image dir"};
  // Per-layer prefixes/keys win over whatever the caller left in opts.
  RestoreOptions lopts = opts;
  lopts.fs_prefix = layers.back().fs_prefix;
  lopts.store_key = layers.back().store_key;
  return execute(layers, lopts, /*layered=*/layers.size() > 1);
}

RestoreResult Restorer::execute(std::span<const LayerLink> links,
                                const RestoreOptions& opts, bool layered) {
  // 1. Check the options and every link, then plan.
  opts.validate();
  // Every path reads or clones from every link, so every link's records get
  // their CRCs re-checked before planning — a corrupt parent pre-dump or
  // base layer fails like a corrupt final dump, and a template is never
  // cloned over a damaged copy. Host-side and cached per ImageDir: no
  // simulated time.
  {
    obs::Span s = kernel_->trace().span("validate", "criu");
    const int n = static_cast<int>(links.size());
    for (int i = 0; i < n; ++i) {
      // Depth counts from the newest link: the final dump is link 0, its
      // parent pre-dump link 1, and so on toward the oldest pre-dump.
      const int depth = n - 1 - i;
      try {
        links[i].images->validate();
      } catch (const std::runtime_error& e) {
        throw RestoreError{RestoreErrorKind::kCorruptImage,
                           std::string{e.what()} + " (chain link " +
                               std::to_string(depth) + ")",
                           depth};
      }
    }
  }
  const std::uint64_t shared_pages = layered ? check_layer_manifest(links) : 0;
  RestoreResult result = run(plan_restore(links, opts), opts);
  result.layer_shared_pages = shared_pages;
  return result;
}

RestoreResult Restorer::run(const RestorePlan& plan,
                            const RestoreOptions& opts) {
  os::Kernel& k = *kernel_;
  obs::Tracer& tr = k.trace();
  const sim::TimePoint t0 = k.sim().now();
  const bool replay = plan.path == RestorePath::kReplay;
  const bool clone = plan.path == RestorePath::kCloneTemplate;
  const bool base = plan.path == RestorePath::kCloneBase;
  const PagingPolicy paging = opts.paging;
  const bool lazy = paging.mode == PagingMode::kLazy;
  const bool ws_record =
      paging.mode == PagingMode::kWorkingSet && paging.ws_record;
  const bool ws_prefetch =
      paging.mode == PagingMode::kWorkingSet && !paging.ws_record;
  PageStore* store = opts.page_store;
  // The links this restore reads and replays, [first_replayed, n): all of
  // them, the delta alone on top of a base clone, none for a template clone.
  const std::size_t n = plan.links.size();
  const std::size_t first_replayed = clone ? n : base ? n - 1 : 0;
  const LayerLink& final_link = plan.links.back();
  const ImageDir& last = *final_link.images;
  RestoreResult result;

  // Each path reports under one span; a replay also spans its steps.
  obs::Span span = tr.span(
      replay ? "criu.restore" : clone ? "template-clone" : "layered-restore",
      "criu");
  if (replay)
    span.attr("chain", static_cast<std::uint64_t>(plan.links.size()));
  else
    span.attr(clone ? "key" : "base", plan.clone_key);
  const auto step = [&](const char* name, const char* category = "criu") {
    return replay ? tr.span(name, category) : obs::Span{};
  };

  // 2. The final link describes the process. The decode cache is shared
  // across restores of the same snapshot.
  const ImageDir::Decoded& dec = last.decoded();
  const auto missing = [](const std::string& name) {
    return RestoreError{RestoreErrorKind::kMissingImage,
                        "restore: missing image file " + name};
  };
  if (!dec.inventory) throw missing("inventory.img");
  const InventoryEntry& inv = *dec.inventory;
  // A decoded table is non-empty only if its file is present; look the file
  // up only when it is empty.
  if (dec.cores.empty()) {
    const std::string core = "core-" + std::to_string(inv.root_pid) + ".img";
    if (!last.has(core)) throw missing(core);
  }
  if (dec.vmas.empty() && !last.has("mm.img")) throw missing("mm.img");
  if (dec.files.empty() && !last.has("files.img")) throw missing("files.img");
  if (dec.cores.empty() || dec.cores.size() != inv.n_threads)
    throw RestoreError{RestoreErrorKind::kUnsupported,
                       "restore: core/inventory thread count mismatch"};
  if (!dec.pages) throw missing("pages-1.img");

  // 3. A clone path starts from a COW clone of a frozen template, taken
  // before anything is read. When the node lacks the base template,
  // kCloneBase first freezes it: a single-image restore of link 0 under the
  // base key, whose hand-back clone becomes this replica's shell. Failures
  // there concern the base layer, so they carry link 0's depth.
  ShellGuard shell{k};
  const PageStore::TemplateInfo* tpl = nullptr;
  if (!replay) {
    if (!plan.freeze_base.empty()) {
      RestorePlan freeze;
      freeze.links = plan.links.first(1);
      freeze.freeze_key = plan.freeze_base;
      const int depth = plan.depth(0);
      try {
        const RestoreResult b = run(freeze, opts);
        shell.pid = b.pid;
        result.pages_restored += b.pages_restored;
        result.bytes_read += b.bytes_read;
        result.remote_bytes += b.remote_bytes;
        result.store_hit_pages += b.store_hit_pages;
        result.store_delta_bytes += b.store_delta_bytes;
      } catch (const RestoreError& e) {
        if (e.chain_link() >= 0) throw;
        throw RestoreError{e.kind(),
                           std::string{e.what()} + " (chain link " +
                               std::to_string(depth) + ")",
                           depth};
      }
      result.base_template_materialized = true;
      ++store->stats_mut().base_templates_materialized;
      tr.count("template.base_materialize");
    }
    tpl = store->find_template(plan.clone_key);
    if (tpl == nullptr)
      throw RestoreError{RestoreErrorKind::kUnsupported,
                         "restore: template vanished mid-restore: " +
                             plan.clone_key};
    if (shell.pid == os::kNoPid) {
      shell.pid = cow_clone(k, tpl->pid, opts);
      result.pages_restored += k.process(shell.pid).mm().resident_pages();
      if (clone) {
        result.template_clone = true;
      } else {
        result.base_template_clone = true;
        ++store->stats_mut().base_template_clones;
        tr.count("template.base_clone");
      }
    }
  }

  // 4. Working-set prefetch prep (DESIGN.md §6j): read and decode ws-1.img,
  // then expand it into per-vma bitmaps. Any failure here — missing file,
  // truncated or corrupt image, a bad read of the persisted copy —
  // downgrades the restore to pure-lazy with a typed warning in the result:
  // the WS image is advisory and must never fail a restore that would
  // otherwise complete.
  std::map<os::VmaId, os::PageBitmap> ws_pages;  // image vma id -> WS bitmap
  bool have_ws = false;
  if (ws_prefetch) {
    obs::Span s = tr.span("ws-prep", "criu");
    if (!last.has(kWsImageName)) {
      result.ws_fallback = true;
      result.ws_fallback_kind = RestoreErrorKind::kMissingImage;
      result.ws_fallback_detail =
          std::string{kWsImageName} + ": not present in snapshot";
    } else {
      try {
        // Read the WS image like any other metadata file (fetched from the
        // registry on remote first-restore, charged at storage bandwidth).
        const std::uint64_t ws_bytes = last.get(kWsImageName).bytes.size();
        result.bytes_read += ws_bytes;
        if (!final_link.fs_prefix.empty()) {
          const std::string path = final_link.fs_prefix + kWsImageName;
          const bool on_fs = k.fs().exists(path);
          if (opts.remote_fetch && !on_fs)
            throw RestoreError{RestoreErrorKind::kMissingImage,
                               "restore: missing image file " + path};
          if (opts.remote_fetch && !k.fs().is_cached(path))
            fetch_from_registry(k, path, ws_bytes, opts, result);
          if (opts.in_memory && on_fs) k.fs().warm(path);
          if (on_fs) {
            try {
              k.fs().charge_read(path, ws_bytes, opts.io_contention);
            } catch (const os::IoError& e) {
              throw RestoreError{RestoreErrorKind::kIoError, e.what()};
            }
          } else {
            k.sim().advance(k.costs().page_cache_read_cost(ws_bytes) *
                            std::max(opts.io_contention, 1.0));
          }
        } else {
          k.sim().advance(k.costs().page_cache_read_cost(ws_bytes) *
                          std::max(opts.io_contention, 1.0));
        }
        const WsLoad load = load_working_set(last);
        if (!load.ws)
          throw RestoreError{load.fallback_kind, load.detail};
        ws_pages = ws_bitmaps(*load.ws, dec.vmas);
        have_ws = true;
      } catch (const RestoreError& e) {
        result.ws_fallback = true;
        result.ws_fallback_kind = e.kind();
        result.ws_fallback_detail = e.what();
        ws_pages.clear();
      }
    }
    if (result.ws_fallback) {
      s.attr("fallback", restore_error_name(result.ws_fallback_kind));
      tr.count("criu.ws_fallback");
    }
  }

  // 5. Working-set prefetch reads and negotiates only each replayed link's
  // WS pages up front: count them and gather their digests (pagemap order).
  // Decodes the links; no simulated time.
  std::vector<std::uint64_t> ws_counts;
  std::vector<std::vector<std::uint64_t>> ws_digests;
  if (ws_prefetch && have_ws) {
    ws_counts.resize(n);
    ws_digests.resize(n);
    for (std::size_t i = first_replayed; i < n; ++i) {
      const ImageDir::Decoded& ddec = plan.links[i].images->decoded();
      const bool want_digests = store != nullptr && ddec.pages.has_value();
      const std::span<const std::uint64_t> digests =
          want_digests ? ddec.pages->digests()
                       : std::span<const std::uint64_t>{};
      std::uint64_t cursor = 0;
      for (const PagemapEntry& e : ddec.pagemap) {
        if (e.zero) continue;
        const auto bit = ws_pages.find(e.vma);
        if (bit != ws_pages.end()) {
          ws_counts[i] += bit->second.count_range(e.first_page, e.pages);
          if (want_digests)
            bit->second.for_each_set_run(
                e.first_page, e.pages,
                [&](std::uint64_t first, std::uint64_t count) {
                  const std::uint64_t at = cursor + (first - e.first_page);
                  for (std::uint64_t j = 0;
                       j < count && at + j < digests.size(); ++j)
                    ws_digests[i].push_back(digests[at + j]);
                });
        }
        cursor += e.pages;
      }
    }
  }

  // 6. Read the replayed links' images and charge their I/O. Each link's
  // files come from its own prefix (nested parent/ dirs for a pre-dump
  // chain, per-layer directories for a layered restore). The page payload
  // is read up front as far as the paging policy says.
  {
    obs::Span s = step("image-reads", "criu.io");
    for (std::size_t i = first_replayed; i < n; ++i) {
      const ImageDir& dir = *plan.links[i].images;
      Pages1Plan pages1;
      if (lazy) {
        const auto f = dir.files().find("pages-1.img");
        const std::uint64_t nominal =
            f == dir.files().end() ? 0 : f->second.nominal_size;
        pages1.bytes = static_cast<std::uint64_t>(
            static_cast<double>(nominal) *
            std::clamp(paging.lazy_fraction, 0.0, 1.0));
        pages1.allow_delta = false;
      } else if (ws_record || (ws_prefetch && !have_ws)) {
        // Record mode (and the damaged-WS fallback) restores pure-lazy:
        // every payload page is first read when it is first touched.
        pages1.bytes = 0;
        pages1.allow_delta = false;
      } else if (ws_prefetch) {
        pages1.bytes = ws_counts[i] * os::kPageSize;
        pages1.digests = ws_digests[i];
      }
      charge_image_reads(k, dir, plan.links[i].fs_prefix, opts, pages1,
                         result, plan.depth(i));
    }
  }

  // 7. Transmute: a replay clones a fresh process shell (optionally with the
  // original pid, which requires CAP_CHECKPOINT_RESTORE [11]); a clone path
  // already has its shell. Either way it takes the checkpointed identity.
  obs::Span delta_span = base ? tr.span("delta-apply", "criu") : obs::Span{};
  obs::Span transmute_span = step("transmute");
  if (replay) {
    os::CloneOptions clone_opts;
    clone_opts.caller_caps = opts.criu_caps;
    if (opts.restore_original_pid) {
      if (!os::has_cap(opts.criu_caps, os::Cap::kCheckpointRestore) &&
          !os::has_cap(opts.criu_caps, os::Cap::kSysAdmin))
        throw RestoreError{RestoreErrorKind::kPermission,
                           "restore: original pid requires CAP_CHECKPOINT_RESTORE"};
      clone_opts.set_child_pid = true;
      clone_opts.child_pid = inv.root_pid;
    }
    shell.pid = k.clone_process(os::kNoPid, clone_opts);
  }
  const os::Pid pid = shell.pid;
  os::Process& proc = k.process(pid);
  adopt_identity(proc, inv, dec.cores);
  transmute_span.attr("threads", static_cast<std::uint64_t>(dec.cores.size()));
  transmute_span.end();

  // 8. Address space. Image VMAs the shell already maps keep their ids: all
  // of them in a template clone, the regions a base clone shares with the
  // delta. The rest are mapped fresh — every VMA, on a replay's empty mm.
  // Buffer-backed VMAs need the full page payload; pattern VMAs regenerate
  // from the recorded descriptor. `vma_id_map` maps the image ids of the
  // final link's VMAs to actual ids (a template clone uses the template's).
  std::map<os::VmaId, os::VmaId> vma_id_map;
  std::set<os::VmaId> buffer_vmas;  // freshly mapped buffer VMAs
  // The actual id `map` gives an image vma id, or null.
  const auto find_vma = [](const auto& map,
                           os::VmaId image) -> const os::VmaId* {
    const auto it = map.find(image);
    return it == map.end() ? nullptr : &it->second;
  };
  if (!clone) {
    obs::Span vma_span = step("vma-rebuild");
    if (!base) proc.replace_mm(os::AddressSpace{});
    for (const VmaEntry& e : dec.vmas) {
      if (const os::VmaId* shared =
              base ? find_vma(tpl->vma_map, e.id) : nullptr) {
        // A shared id whose geometry disagrees means the delta was paired
        // with a base of a different layout — fail typed, don't guess.
        os::Vma* v = proc.mm().find_mutable(*shared);
        if (v == nullptr || v->length != e.length)
          throw RestoreError{RestoreErrorKind::kUnsupported,
                             "restore: base/delta vma geometry mismatch for " +
                                 e.name};
        // The clone inherited the *base process's* page generator. Regions
        // whose generator is per-process (the pid-seeded stack) must be
        // re-keyed to the delta's recorded source: base-covered pages
        // produce identical bytes either way (that is exactly what the split
        // dump verified positionally), and the runs the pagemap replays
        // below then yield the function's own content instead of the base's.
        if (e.source_kind == SourceKind::kPattern) {
          const auto* pat =
              dynamic_cast<const os::PatternSource*>(v->source.get());
          if (pat == nullptr || pat->seed() != e.pattern_seed ||
              pat->version() != e.pattern_version) {
            v->source = std::make_shared<os::PatternSource>(e.pattern_seed,
                                                            e.pattern_version);
            // The re-keyed region no longer shares the template's frames;
            // the outstanding shares are broken wholesale, like a full
            // rewrite.
            if (v->cow_shares != nullptr) *v->cow_shares -= v->cow.count();
            v->cow.assign(v->cow.size(), false);
          }
        }
        vma_id_map[e.id] = *shared;
        continue;
      }
      std::shared_ptr<os::PageSource> source;
      if (e.source_kind == SourceKind::kPattern) {
        source = std::make_shared<os::PatternSource>(e.pattern_seed,
                                                     e.pattern_version);
      } else {
        if (dec.pages->mode() != PayloadMode::kFull)
          throw RestoreError{
              RestoreErrorKind::kUnsupported,
              "restore: digest-mode image cannot rebuild buffer-backed memory"};
        source = std::make_shared<os::BufferSource>(
            std::vector<std::uint8_t>(e.length, 0));
        buffer_vmas.insert(e.id);
      }
      vma_id_map[e.id] = proc.mm().map(
          e.length, static_cast<os::Prot>(e.prot),
          static_cast<os::VmaKind>(e.kind), e.name, std::move(source),
          /*populate=*/false, e.backing_path);
    }
    vma_span.attr("vmas", static_cast<std::uint64_t>(dec.vmas.size()));
  }

  // 9. Walk the pagemap(s) oldest-first, one *run* at a time (DESIGN.md
  // §6g): each pagemap entry becomes a single bulk populate (one memcpy of
  // the run's payload span, one aggregated fault charge) and, when
  // verifying, a single bulk digest compare. Under lazy paging only a prefix
  // of each run is eagerly mapped; under WS prefetch the recorded working
  // set's sub-runs are; in both cases the cold remainder goes to the uffd
  // server as run-length-encoded entries. A template clone already holds
  // every page: it walks every link's runs only to verify them.
  obs::Span pagemap_span = step("pagemap-replay");
  obs::Span& walk_span = replay ? pagemap_span : base ? delta_span : span;
  // Compare `count` installed pages from `first` on against the image
  // digests at payload index `at`, skipping the pages `newer` marks.
  const auto verify = [&](os::VmaId vma, std::uint64_t first,
                          std::span<const std::uint64_t> digests,
                          std::uint64_t at, std::uint64_t count,
                          const os::PageBitmap* newer) {
    const auto check = [&](std::uint64_t page, std::uint64_t pages) {
      const std::uint64_t from =
          std::min<std::uint64_t>(at + (page - first), digests.size());
      const std::span<const std::uint64_t> want =
          digests.subspan(from, std::min(pages, digests.size() - from));
      if (k.verify_run(pid, vma, page, want) < pages) {
        walk_span.attr("error", "digest-mismatch");
        throw RestoreError{RestoreErrorKind::kCorruptImage,
                           "restore: page digest mismatch"};
      }
    };
    if (newer == nullptr) return check(first, count);
    std::uint64_t pos = first;
    newer->for_each_set_run(first, count,
                            [&](std::uint64_t run, std::uint64_t pages) {
                              if (run > pos) check(pos, run - pos);
                              pos = run + pages;
                            });
    if (pos < first + count) check(pos, first + count - pos);
  };
  const std::size_t first_walked =
      clone && opts.verify_pages ? 0 : first_replayed;
  // A page a newer link re-dumped holds that link's content, so each page is
  // verified only against the newest walked link that covers it:
  // newer_pages[i] marks, per image vma, the pages links after i cover.
  std::vector<std::map<os::VmaId, os::PageBitmap>> newer_pages;
  if (opts.verify_pages && n - first_walked > 1) {
    newer_pages.resize(n);
    for (std::size_t i = n - 1; i > first_walked; --i) {
      std::map<os::VmaId, os::PageBitmap>& covered = newer_pages[i - 1];
      covered = newer_pages[i];
      const ImageDir::Decoded& ddec =
          i + 1 == n ? dec : plan.links[i].images->decoded();
      for (const PagemapEntry& e : ddec.pagemap) {
        os::PageBitmap& bits = covered[e.vma];
        if (bits.empty())
          for (const VmaEntry& v : dec.vmas)
            if (v.id == e.vma)
              bits.assign((v.length + os::kPageSize - 1) / os::kPageSize,
                          false);
        bits.set_range(e.first_page, e.pages);
      }
    }
  }
  std::vector<LazyRun> lazy_pending;
  std::uint64_t lazy_pending_pages = 0;
  const std::uint64_t pages_before = result.pages_restored;
  for (std::size_t i = first_walked; i < n; ++i) {
    const ImageDir& dir = *plan.links[i].images;
    const ImageDir::Decoded& ddec = i + 1 == n ? dec : dir.decoded();
    const int depth = plan.depth(i);
    if (ddec.pagemap.empty() && !dir.has("pagemap.img"))
      throw RestoreError{RestoreErrorKind::kMissingImage,
                         "restore: missing image file pagemap.img", depth};
    if (!ddec.pages)
      throw RestoreError{RestoreErrorKind::kMissingImage,
                         "restore: missing image file pages-1.img", depth};
    // Lazy and record modes defer at most one run per pagemap entry.
    if (paging.mode != PagingMode::kEager)
      lazy_pending.reserve(lazy_pending.size() + ddec.pagemap.size());
    const ImageDir::PagesView& pages = *ddec.pages;
    // Borrow the payload spans once per image; every run below slices them.
    const std::span<const std::uint64_t> digests =
        opts.verify_pages ? pages.digests() : std::span<const std::uint64_t>{};
    const std::span<const std::uint8_t> raw =
        pages.mode() == PayloadMode::kFull ? pages.raw()
                                           : std::span<const std::uint8_t>{};
    std::uint64_t cursor = 0;  // page index within this image's payload
    for (const PagemapEntry& e : ddec.pagemap) {
      const os::VmaId* actual = clone ? find_vma(tpl->vma_map, e.vma)
                                      : find_vma(vma_id_map, e.vma);
      if (actual == nullptr)
        throw RestoreError{RestoreErrorKind::kCorruptImage,
                           "restore: pagemap references unknown vma", depth};
      const os::VmaId vma = *actual;
      const os::PageBitmap* newer = nullptr;
      if (!newer_pages.empty())
        if (const auto it = newer_pages[i].find(e.vma);
            it != newer_pages[i].end())
          newer = &it->second;
      if (e.zero) {
        // Zero run: map fresh zero pages; no payload, no digests.
        if (!clone) {
          k.fault_in(pid, vma, e.first_page, e.pages, /*write=*/false);
          result.pages_restored += e.pages;
        }
        continue;
      }
      std::uint64_t eager = e.pages;  // mapped now (a clone holds them all)
      if (!clone) {
        if (lazy) {
          eager = static_cast<std::uint64_t>(std::ceil(
              static_cast<double>(e.pages) *
              std::clamp(paging.lazy_fraction, 0.0, 1.0)));
          if (eager < e.pages) {
            lazy_pending.push_back(
                LazyRun{vma, e.first_page + eager, e.pages - eager});
            lazy_pending_pages += e.pages - eager;
          }
        } else if (ws_record || (ws_prefetch && !have_ws)) {
          // Pure-lazy: defer the whole run. In record mode the kernel's
          // fault capture (armed below) then sees exactly the first
          // invocation's touches.
          eager = 0;
          lazy_pending.push_back(LazyRun{vma, e.first_page, e.pages});
          lazy_pending_pages += e.pages;
        } else if (ws_prefetch) {
          // The recorded WS sub-runs are faulted explicitly after the
          // payload copy; the gaps between them go to the uffd server.
          eager = 0;
        }
        std::span<const std::uint8_t> payload{};
        if (buffer_vmas.contains(e.vma)) {
          if (pages.mode() != PayloadMode::kFull)
            throw RestoreError{RestoreErrorKind::kUnsupported,
                               "restore: digest-mode image cannot rebuild "
                               "buffer-backed memory",
                               depth};
          // The whole run's payload (clamped against a short raw section):
          // populate_run copies it even past the eager prefix, exactly like
          // the per-page copy loop it replaces.
          const std::uint64_t off = cursor * os::kPageSize;
          if (off < raw.size())
            payload = raw.subspan(off, std::min<std::uint64_t>(
                                           e.pages * os::kPageSize,
                                           raw.size() - off));
        }
        k.populate_run(pid, vma, e.first_page, eager, payload);
        result.pages_restored += eager;

        if (ws_prefetch && have_ws) {
          // Bulk-map the recorded working set's sub-runs of this pagemap
          // run; run-length-encode the cold gaps for the uffd server.
          const auto bit = ws_pages.find(e.vma);
          std::uint64_t pos = e.first_page;
          const std::uint64_t end = e.first_page + e.pages;
          if (bit != ws_pages.end())
            bit->second.for_each_set_run(
                e.first_page, e.pages,
                [&](std::uint64_t first, std::uint64_t count) {
                  if (first > pos) {
                    lazy_pending.push_back(LazyRun{vma, pos, first - pos});
                    lazy_pending_pages += first - pos;
                  }
                  k.fault_in(pid, vma, first, count, /*write=*/false);
                  result.pages_restored += count;
                  result.ws_prefetched_pages += count;
                  if (opts.verify_pages)
                    verify(vma, first, digests,
                           cursor + (first - e.first_page), count, newer);
                  pos = first + count;
                });
          if (pos < end) {
            lazy_pending.push_back(LazyRun{vma, pos, end - pos});
            lazy_pending_pages += end - pos;
          }
        }
      }
      if (opts.verify_pages && eager > 0)
        verify(vma, e.first_page, digests, cursor, eager, newer);
      cursor += e.pages;
    }
  }
  if (base) result.delta_pages_restored = result.pages_restored - pages_before;
  pagemap_span.attr("pages_restored", result.pages_restored);
  if (paging.mode != PagingMode::kEager)
    pagemap_span.attr("lazy_pending", lazy_pending_pages);
  if (ws_prefetch)
    pagemap_span.attr("ws_prefetched", result.ws_prefetched_pages);
  if (opts.verify_pages) walk_span.attr("verified", "true");
  pagemap_span.end();

  // 10. Reopen file descriptors (a template clone inherited its template's).
  if (!clone) {
    obs::Span s = step("fds");
    for (const FileEntry& e : dec.files) {
      os::FdDesc desc;
      desc.fd = e.fd;
      desc.kind = static_cast<os::FdKind>(e.kind);
      desc.path = e.path;
      desc.pipe_id = e.pipe_id;
      proc.fds()[e.fd] = desc;
    }
  }
  proc.set_state(os::ProcState::kRunning);
  delta_span.attr("delta_pages", result.delta_pages_restored);
  delta_span.end();
  shell.pid = os::kNoPid;  // restored: nothing left to tear down
  result.pid = pid;

  // 11. Whatever the payload source was, the node now holds every replayed
  // link's pages. When the plan says so, freeze the restored process into an
  // immutable template and hand back a COW clone ("restore once, clone
  // many"): later replicas of the same key take the kCloneTemplate path and
  // skip the image reads entirely. Registering the template inserts and pins
  // every link's pages, one extent per pagemap run, so a freeze records
  // nothing up front.
  if (store != nullptr && paging.mode == PagingMode::kEager) {
    if (plan.freeze_key.empty()) {
      for (std::size_t i = first_replayed; i < n; ++i)
        if (const auto& pages = plan.links[i].images->decoded().pages)
          store->insert(pages->digests());
    } else {
      obs::Span tspan = tr.span("template-materialize", "criu");
      tspan.attr("key", plan.freeze_key);
      k.freeze(pid, opts.criu_caps);
      proc.set_name(inv.name + " [template]");
      PageStore::TemplateInfo info;
      info.pid = pid;
      info.vma_map = vma_id_map;
      // A base+delta template maps the base's VMAs too, the delta's winning.
      if (base) info.vma_map.insert(tpl->vma_map.begin(), tpl->vma_map.end());
      std::vector<PageStore::Run> runs;
      for (const LayerLink& link : plan.links)
        append_page_runs(link.images->decoded(), runs);
      // A base+delta template records its base for refcounted eviction.
      if (base) info.base_key = plan.clone_key;
      store->register_template(plan.freeze_key, std::move(info), runs);
      result.template_materialized = true;
      result.pid = cow_clone(k, pid, opts);
      adopt_identity(k.process(result.pid), inv, dec.cores);
    }
  } else if (store != nullptr && ws_prefetch && have_ws) {
    // The node now holds the working-set pages (they were read up front);
    // the cold tail only lands page by page via the uffd server and is not
    // tracked. Re-inserting digests the delta path already registered is a
    // no-op — the store is content addressed.
    for (const std::vector<std::uint64_t>& d : ws_digests)
      if (!d.empty()) store->insert(d);
  }

  // 12. Non-eager paging leaves the cold tail to the uffd server.
  if (paging.mode != PagingMode::kEager)
    result.lazy_server = std::make_shared<LazyPagesServer>(
        k, pid, final_link.fs_prefix, std::move(lazy_pending));
  if (ws_record) {
    // Arm the kernel's fault capture only now, after the replay: everything
    // recorded from here on — lazy page-ins, the invocation's own touches —
    // is the first invocation's working set. Host-side bookkeeping, no
    // simulated time.
    auto rec = std::make_shared<WsRecorder>();
    rec->pid = pid;
    rec->image_to_new = vma_id_map;
    k.start_fault_recording(pid);
    result.ws_recorder = std::move(rec);
  }

  result.duration = k.sim().now() - t0;
  span.attr("pages", result.pages_restored);
  switch (plan.path) {
    case RestorePath::kReplay:
      span.attr("bytes_read", result.bytes_read);
      tr.measure("criu.restore_ms", result.duration.to_millis());
      break;
    case RestorePath::kCloneTemplate:
      ++store->stats_mut().template_clones;
      tr.count("template.clone");
      tr.measure("criu.template_clone_ms", result.duration.to_millis());
      break;
    case RestorePath::kCloneBase:
      span.attr("delta_pages", result.delta_pages_restored);
      tr.measure("criu.layered_restore_ms", result.duration.to_millis());
      break;
  }
  return result;
}

LazyPagesServer::LazyPagesServer(os::Kernel& kernel, os::Pid pid,
                                 std::string fs_prefix,
                                 std::vector<LazyRun> pending)
    : kernel_{&kernel},
      pid_{pid},
      fs_prefix_{std::move(fs_prefix)},
      pending_{std::move(pending)} {
  for (const LazyRun& run : pending_) remaining_ += run.pages;
}

std::uint64_t LazyPagesServer::page_in(std::uint64_t pages) {
  if (kernel_ == nullptr) return 0;
  os::Kernel& k = *kernel_;
  faults::Injector& inj = k.faults();
  obs::Span span = k.trace().span("lazy.page-in", "criu");
  span.attr("requested", pages);
  // Transient image-read errors during a page-in are retried this many times
  // before giving up — a persistently failing device means the target would
  // fault forever.
  constexpr int kMaxReadAttempts = 3;
  std::uint64_t served = 0;
  while (served < pages && run_ < pending_.size()) {
    // Pages are served in first-touch order, one uffd round trip each; the
    // run-length encoding only compresses the queue, not the fault costs.
    const os::VmaId vma = pending_[run_].vma;
    const std::uint64_t page = pending_[run_].first_page + run_off_;
    if (++run_off_ >= pending_[run_].pages) {
      ++run_;
      run_off_ = 0;
    }
    --remaining_;
    if (!died_ && inj.enabled() &&
        inj.fires(faults::FaultSite::kLazyServerDeath)) {
      // The uffd daemon died mid-fault. The supervisor respawns it (once per
      // server in this model) and the faulting thread eats the latency.
      died_ = true;
      k.sim().advance(k.costs().clone_call + k.costs().exec_base);
    }
    // uffd round trip + reading the page from the (cached) image.
    k.sim().advance(k.costs().uffd_fault);
    for (int attempt = 1;; ++attempt) {
      try {
        if (!fs_prefix_.empty())
          k.fs().charge_read(fs_prefix_ + "pages-1.img", os::kPageSize);
        else
          k.sim().advance(k.costs().page_cache_read_cost(os::kPageSize));
        break;
      } catch (const os::IoError& e) {
        if (attempt >= kMaxReadAttempts)
          throw RestoreError{RestoreErrorKind::kIoError, e.what()};
      }
    }
    if (k.alive(pid_)) k.fault_in(pid_, vma, page, 1, /*write=*/false);
    ++served;
  }
  span.attr("served", served);
  k.trace().count("criu.lazy_pages_served", served);
  return served;
}

}  // namespace prebake::criu
