// Checkpoint image format.
//
// A snapshot is a directory of image files, mirroring CRIU's on-disk layout:
//
//   inventory.img   — format version, root pid, process name, thread count
//   core-<tid>.img  — per-thread architectural state
//   mm.img          — VMA table (address layout, protections, page sources)
//   pagemap.img     — runs of dumped pages per VMA
//   pages-1.img     — page payload: either raw bytes (kFull) or per-page
//                     64-bit digests plus a regeneration descriptor (kDigest)
//   files.img       — open file descriptors
//   stats.img       — dump statistics (pages, bytes, durations)
//
// Every image file starts with a magic + type header and ends with a CRC-32
// of its body; ImageDir::validate() re-checks all of them. The *nominal*
// size of pages-1.img is always the full payload size (pages × 4 KiB), which
// is what restore I/O is charged on — the digest mode only avoids keeping
// tens of MiB of synthetic bytes resident in the host running the
// simulation. Both modes round-trip byte-identical process state because
// PatternSource contents are a pure function of the recorded descriptor.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "os/process.hpp"

namespace prebake::criu {

inline constexpr std::uint32_t kImageMagic = 0x50424B31;  // "PBK1"
// v4: pages-1.img pads the digest array to an 8-byte file offset so the
// decode cache can hand out a borrowed uint64 span over the stored bytes
// (the zero-copy image path, DESIGN.md §6g).
inline constexpr std::uint32_t kFormatVersion = 4;

enum class ImageType : std::uint32_t {
  kInventory = 1,
  kCore = 2,
  kMm = 3,
  kPagemap = 4,
  kPages = 5,
  kFiles = 6,
  kStats = 7,
  kWs = 8,  // ws-1.img: recorded first-invocation working set (DESIGN.md §6j)
  kLayers = 9,  // layers-1.img: base+delta layer manifest (DESIGN.md §6k)
};

enum class PayloadMode : std::uint8_t { kFull = 0, kDigest = 1 };

struct InventoryEntry {
  std::uint32_t version = kFormatVersion;
  os::Pid root_pid = 0;
  std::string name;
  std::vector<std::string> argv;
  std::uint32_t n_threads = 1;
  os::Namespaces ns{};
  std::uint32_t caps = 0;
  bool operator==(const InventoryEntry&) const = default;
};

struct CoreEntry {
  os::Tid tid = 0;
  std::array<std::uint64_t, 8> regs{};
  bool operator==(const CoreEntry&) const = default;
};

enum class SourceKind : std::uint8_t { kBuffer = 0, kPattern = 1 };

struct VmaEntry {
  os::VmaId id = 0;
  std::uint64_t start = 0;
  std::uint64_t length = 0;
  std::uint8_t prot = 0;
  std::uint8_t kind = 0;  // os::VmaKind
  std::string name;
  std::string backing_path;
  SourceKind source_kind = SourceKind::kPattern;
  std::uint64_t pattern_seed = 0;     // for kPattern
  std::uint64_t pattern_version = 0;  // for kPattern
  bool operator==(const VmaEntry&) const = default;
};

struct PagemapEntry {
  os::VmaId vma = 0;
  std::uint64_t first_page = 0;
  std::uint64_t pages = 0;
  // PAGE_IS_ZERO: the run is known to be all-zero pages; no payload is
  // stored and restore maps fresh zero pages (CRIU's zero-page detection).
  bool zero = false;
  bool operator==(const PagemapEntry&) const = default;
};

struct FileEntry {
  int fd = -1;
  std::uint8_t kind = 0;  // os::FdKind
  std::string path;
  std::uint64_t pipe_id = 0;
  bool operator==(const FileEntry&) const = default;
};

struct StatsEntry {
  std::uint64_t pages_dumped = 0;   // pages with payload (zero pages excluded)
  std::uint64_t zero_pages = 0;     // detected all-zero pages (no payload)
  std::uint64_t payload_bytes = 0;   // pages_dumped * 4 KiB
  std::uint64_t metadata_bytes = 0;  // everything except page payload
  std::int64_t dump_duration_ns = 0;
  std::uint32_t warmup_requests = 0;  // prebake policy bookkeeping
  bool operator==(const StatsEntry&) const = default;
};

// Page payload: one digest per dumped page (in pagemap order); raw bytes are
// kept only in kFull mode. This is the *owning* form used by the dump side
// and by round-trip tests; the restore hot path reads the zero-copy
// ImageDir::PagesView instead.
struct PagesEntry {
  PayloadMode mode = PayloadMode::kDigest;
  std::vector<std::uint64_t> digests;
  std::vector<std::uint8_t> raw;  // kFull: pages*4096 bytes
  bool operator==(const PagesEntry&) const = default;
};

// --- per-file encode/decode (each returns/accepts a full image file body,
// i.e. header + payload + trailing CRC) ------------------------------------
std::vector<std::uint8_t> encode_inventory(const InventoryEntry& e);
InventoryEntry decode_inventory(std::span<const std::uint8_t> img);
std::vector<std::uint8_t> encode_core(const std::vector<CoreEntry>& cores);
std::vector<CoreEntry> decode_core(std::span<const std::uint8_t> img);
std::vector<std::uint8_t> encode_mm(const std::vector<VmaEntry>& vmas);
std::vector<VmaEntry> decode_mm(std::span<const std::uint8_t> img);
std::vector<std::uint8_t> encode_pagemap(const std::vector<PagemapEntry>& es);
std::vector<PagemapEntry> decode_pagemap(std::span<const std::uint8_t> img);
std::vector<std::uint8_t> encode_pages(const PagesEntry& e);
PagesEntry decode_pages(std::span<const std::uint8_t> img);
std::vector<std::uint8_t> encode_files(const std::vector<FileEntry>& es);
std::vector<FileEntry> decode_files(std::span<const std::uint8_t> img);
std::vector<std::uint8_t> encode_stats(const StatsEntry& e);
StatsEntry decode_stats(std::span<const std::uint8_t> img);

// Recorded first-invocation working set (REAP-style restore, DESIGN.md §6j):
// RLE runs of faulted pages in *image* VMA coordinates, so any later restore
// can translate them through its own vma id map. Persisted as ws-1.img next
// to the snapshot, framed and CRC-guarded like every other image file.
// decode_ws throws *typed* RestoreError (kTruncatedImage / kCorruptImage) so
// the restore path can downgrade a damaged WS image to pure-lazy instead of
// failing the restore.
inline constexpr const char* kWsImageName = "ws-1.img";

struct WsRun {
  os::VmaId vma = 0;          // image vma id (VmaEntry::id)
  std::uint64_t first_page = 0;
  std::uint64_t pages = 0;
  bool operator==(const WsRun&) const = default;
};

struct WorkingSetImage {
  std::uint32_t version = kFormatVersion;
  std::vector<WsRun> runs;
  std::uint64_t total_pages = 0;  // sum of runs[i].pages, cross-checked
  bool operator==(const WorkingSetImage&) const = default;
};

std::vector<std::uint8_t> encode_ws(const WorkingSetImage& ws);
WorkingSetImage decode_ws(std::span<const std::uint8_t> img);

// Layered snapshot manifest (DESIGN.md §6k): a split dump writes the app
// delta plus a `layers-1.img` naming the ordered chain of content-addressed
// layers under it (base runtime first, the delta itself last). Each base
// layer is identified by registry id *and* by a content digest over its
// pagemap + page digests, so a restore pairs the delta only with the exact
// base it was diffed against. Framed and CRC-guarded like ws-1.img;
// decode_layers throws typed RestoreError (kTruncatedImage / kCorruptImage).
inline constexpr const char* kLayersImageName = "layers-1.img";

struct LayerRef {
  std::string id;                     // registry identity, e.g. "<fn>/<policy>"
  std::uint64_t content_digest = 0;   // layer_digest() of the layer; 0 = self
  std::uint64_t pages = 0;            // payload pages the layer carries
  std::uint64_t zero_pages = 0;
  bool operator==(const LayerRef&) const = default;
};

struct LayerManifest {
  std::uint32_t version = kFormatVersion;
  std::vector<LayerRef> layers;   // ordered base-first; back() is the delta
  // Pages of the dumped process whose content the base layers already carry
  // at the same (vma, page) position — what the split dump skipped.
  std::uint64_t shared_pages = 0;
  bool operator==(const LayerManifest&) const = default;
};

std::vector<std::uint8_t> encode_layers(const LayerManifest& m);
LayerManifest decode_layers(std::span<const std::uint8_t> img);

// Content identity of a layer: order-sensitive hash over its pagemap runs
// and page digests. Pure host-side bookkeeping (no simulated I/O charge);
// used by the split dump to stamp base LayerRefs and by layered restore to
// reject a base that is not the one the delta was diffed against.
std::uint64_t layer_digest(const class ImageDir& images);

// An in-memory image directory. Real bytes are kept here; nominal sizes are
// what storage accounting uses (they differ only for digest-mode pages).
class ImageDir {
 public:
  struct ImageFile {
    std::vector<std::uint8_t> bytes;
    std::uint64_t nominal_size = 0;
  };

  // Borrowed, zero-copy view of a decoded pages-1.img: the digest and raw
  // spans alias the directory's stored bytes — no per-restore payload copy.
  // put() (any content change) flips the view's liveness token, so touching
  // a stale view is a hard std::logic_error instead of a silent
  // use-after-free; re-call decoded() for a fresh view.
  class PagesView {
   public:
    PagesView() = default;
    PayloadMode mode() const { return mode_; }
    std::uint64_t page_count() const { return n_pages_; }
    std::span<const std::uint64_t> digests() const {
      check();
      return digests_;
    }
    std::span<const std::uint8_t> raw() const {
      check();
      return raw_;
    }

   private:
    friend class ImageDir;
    void check() const {
      if (live_ == nullptr || !live_->load(std::memory_order_acquire))
        throw std::logic_error{
            "ImageDir::PagesView: stale view (directory changed after decode)"};
    }
    PayloadMode mode_ = PayloadMode::kDigest;
    std::uint64_t n_pages_ = 0;
    std::span<const std::uint64_t> digests_;
    std::span<const std::uint8_t> raw_;
    std::shared_ptr<const std::atomic<bool>> live_;
  };

  // Decoded view of the standard image files, built lazily on first access
  // and reused by every restore of this directory. Re-parsing (and
  // CRC-checking) the same unchanged bytes on each of the harness's hundreds
  // of restores per scenario dominated the restore hot path. The first
  // access runs validate()'s CRC pass (so validate() then returns at once)
  // and parses the verified bytes without checking them again. Absent files
  // leave their field empty; restore still reports them via get().
  struct Decoded {
    std::optional<InventoryEntry> inventory;
    std::vector<CoreEntry> cores;       // core-<root_pid>.img
    std::vector<VmaEntry> vmas;         // mm.img
    std::vector<FileEntry> files;       // files.img
    std::vector<PagemapEntry> pagemap;  // pagemap.img
    std::optional<StatsEntry> stats;    // stats.img
    std::optional<PagesView> pages;     // pages-1.img (borrows file bytes)
    // Owned digest storage for the rare case where the stored bytes cannot
    // back the span directly (misaligned buffer or big-endian host).
    std::vector<std::uint64_t> digest_storage;
  };

  ImageDir() = default;
  // Copies re-derive their own caches and never alias the source's buffers:
  // snapshots travel by value, and two independent directories must not
  // serialize on one lock or see each other's invalidations.
  ImageDir(const ImageDir& o);
  ImageDir& operator=(const ImageDir& o);
  ImageDir(ImageDir&& o) noexcept = default;
  ImageDir& operator=(ImageDir&& o) noexcept;

  void put(const std::string& name, std::vector<std::uint8_t> bytes,
           std::optional<std::uint64_t> nominal_size = std::nullopt);
  const ImageFile& get(const std::string& name) const;
  bool has(const std::string& name) const { return files_.contains(name); }
  std::vector<std::string> names() const;

  std::uint64_t nominal_total() const;  // snapshot size as seen by storage
  std::uint64_t real_total() const;     // bytes actually held in memory

  // Re-verify the CRC of every file; throws on corruption. Verified once per
  // content generation: put() re-arms the check.
  void validate() const;

  // Lazy decode cache; put() invalidates it. Throws like validate() on a
  // CRC mismatch. Concurrent reads (shared snapshots restored from several
  // worker threads) are safe; mutation is not thread-safe, like every other
  // container in the model.
  const Decoded& decoded() const;

  const std::map<std::string, ImageFile>& files() const { return files_; }

 private:
  std::map<std::string, ImageFile> files_;
  // The mutex lives behind a shared_ptr so concurrent decoded()/validate()
  // readers of *one* directory serialize cheaply; every copy gets its own
  // mutex (a shared lock would make independent snapshots contend, and a
  // source put() must never invalidate a copy's caches).
  mutable std::shared_ptr<std::mutex> cache_mu_ = std::make_shared<std::mutex>();
  mutable std::shared_ptr<const Decoded> decoded_;
  // Liveness token stamped into every PagesView handed out by decoded();
  // put() flips it false and re-arms a fresh one, so stale borrowed spans
  // fail loudly instead of dangling.
  mutable std::shared_ptr<std::atomic<bool>> live_gen_ =
      std::make_shared<std::atomic<bool>>(true);
  mutable bool validated_ = false;
  void check_crcs() const;  // validate() under a held cache_mu_
};

}  // namespace prebake::criu
