#include "criu/image.hpp"

#include <bit>
#include <cstdint>
#include <stdexcept>

#include "criu/crc32.hpp"
#include "criu/error.hpp"
#include "criu/wire.hpp"

namespace prebake::criu {

namespace {

// Frame an image body with the magic/type header and a trailing CRC of
// everything before it.
std::vector<std::uint8_t> frame(ImageType type, Writer body) {
  Writer w;
  w.u32(kImageMagic);
  w.u32(static_cast<std::uint32_t>(type));
  w.u32(kFormatVersion);
  w.raw(body.bytes());
  const std::uint32_t crc = crc32(w.bytes());
  w.u32(crc);
  return w.take();
}

// Strip the header of an image whose CRC is already verified; returns a
// Reader over the body.
Reader open_frame(ImageType expected, std::span<const std::uint8_t> img) {
  if (img.size() < 16) throw std::runtime_error{"image too small"};
  Reader r{img.first(img.size() - 4)};
  if (r.u32() != kImageMagic) throw std::runtime_error{"bad image magic"};
  const auto type = static_cast<ImageType>(r.u32());
  if (type != expected) throw std::runtime_error{"unexpected image type"};
  const std::uint32_t version = r.u32();
  if (version != kFormatVersion)
    throw std::runtime_error{"unsupported image format version"};
  return r;
}

// Verify the trailing CRC, then strip the header.
Reader unframe(ImageType expected, std::span<const std::uint8_t> img) {
  if (img.size() < 16) throw std::runtime_error{"image too small"};
  Reader tail{img.subspan(img.size() - 4)};
  if (tail.u32() != crc32(img.first(img.size() - 4)))
    throw std::runtime_error{"image CRC mismatch"};
  return open_frame(expected, img);
}

}  // namespace

std::vector<std::uint8_t> encode_inventory(const InventoryEntry& e) {
  Writer w;
  w.u32(e.version);
  w.i32(e.root_pid);
  w.str(e.name);
  w.u32(static_cast<std::uint32_t>(e.argv.size()));
  for (const auto& a : e.argv) w.str(a);
  w.u32(e.n_threads);
  w.u64(e.ns.pid_ns);
  w.u64(e.ns.mnt_ns);
  w.u64(e.ns.net_ns);
  w.u32(e.caps);
  return frame(ImageType::kInventory, std::move(w));
}

namespace {
InventoryEntry read_inventory(Reader r) {
  InventoryEntry e;
  e.version = r.u32();
  e.root_pid = r.i32();
  e.name = r.str();
  const std::uint32_t argc = r.u32();
  for (std::uint32_t i = 0; i < argc; ++i) e.argv.push_back(r.str());
  e.n_threads = r.u32();
  e.ns.pid_ns = r.u64();
  e.ns.mnt_ns = r.u64();
  e.ns.net_ns = r.u64();
  e.caps = r.u32();
  return e;
}
}  // namespace

InventoryEntry decode_inventory(std::span<const std::uint8_t> img) {
  return read_inventory(unframe(ImageType::kInventory, img));
}

std::vector<std::uint8_t> encode_core(const std::vector<CoreEntry>& cores) {
  Writer w;
  w.u32(static_cast<std::uint32_t>(cores.size()));
  for (const CoreEntry& c : cores) {
    w.i32(c.tid);
    for (std::uint64_t reg : c.regs) w.u64(reg);
  }
  return frame(ImageType::kCore, std::move(w));
}

namespace {
std::vector<CoreEntry> read_core(Reader r) {
  const std::uint32_t n = r.u32();
  std::vector<CoreEntry> cores(n);
  for (CoreEntry& c : cores) {
    c.tid = r.i32();
    for (std::uint64_t& reg : c.regs) reg = r.u64();
  }
  return cores;
}
}  // namespace

std::vector<CoreEntry> decode_core(std::span<const std::uint8_t> img) {
  return read_core(unframe(ImageType::kCore, img));
}

std::vector<std::uint8_t> encode_mm(const std::vector<VmaEntry>& vmas) {
  Writer w;
  w.u32(static_cast<std::uint32_t>(vmas.size()));
  for (const VmaEntry& v : vmas) {
    w.u32(v.id);
    w.u64(v.start);
    w.u64(v.length);
    w.u8(v.prot);
    w.u8(v.kind);
    w.str(v.name);
    w.str(v.backing_path);
    w.u8(static_cast<std::uint8_t>(v.source_kind));
    w.u64(v.pattern_seed);
    w.u64(v.pattern_version);
  }
  return frame(ImageType::kMm, std::move(w));
}

namespace {
std::vector<VmaEntry> read_mm(Reader r) {
  const std::uint32_t n = r.u32();
  std::vector<VmaEntry> vmas(n);
  for (VmaEntry& v : vmas) {
    v.id = r.u32();
    v.start = r.u64();
    v.length = r.u64();
    v.prot = r.u8();
    v.kind = r.u8();
    v.name = r.str();
    v.backing_path = r.str();
    v.source_kind = static_cast<SourceKind>(r.u8());
    v.pattern_seed = r.u64();
    v.pattern_version = r.u64();
  }
  return vmas;
}
}  // namespace

std::vector<VmaEntry> decode_mm(std::span<const std::uint8_t> img) {
  return read_mm(unframe(ImageType::kMm, img));
}

std::vector<std::uint8_t> encode_pagemap(const std::vector<PagemapEntry>& es) {
  Writer w;
  w.u32(static_cast<std::uint32_t>(es.size()));
  for (const PagemapEntry& e : es) {
    w.u32(e.vma);
    w.u64(e.first_page);
    w.u64(e.pages);
    w.u8(e.zero ? 1 : 0);
  }
  return frame(ImageType::kPagemap, std::move(w));
}

namespace {
std::vector<PagemapEntry> read_pagemap(Reader r) {
  const std::uint32_t n = r.u32();
  std::vector<PagemapEntry> es(n);
  for (PagemapEntry& e : es) {
    e.vma = r.u32();
    e.first_page = r.u64();
    e.pages = r.u64();
    e.zero = r.u8() != 0;
  }
  return es;
}
}  // namespace

std::vector<PagemapEntry> decode_pagemap(std::span<const std::uint8_t> img) {
  return read_pagemap(unframe(ImageType::kPagemap, img));
}

std::vector<std::uint8_t> encode_pages(const PagesEntry& e) {
  Writer w;
  w.u8(static_cast<std::uint8_t>(e.mode));
  w.u32(static_cast<std::uint32_t>(e.digests.size()));
  // Seven zero bytes place the digest array at file offset 24 (the frame
  // header is 12 bytes), an 8-byte boundary: ImageDir::decoded() can then
  // hand out a borrowed uint64 span straight over the stored bytes.
  w.pad(7);
  for (std::uint64_t d : e.digests) w.u64(d);
  w.u64(e.raw.size());
  w.raw(e.raw);
  return frame(ImageType::kPages, std::move(w));
}

PagesEntry decode_pages(std::span<const std::uint8_t> img) {
  Reader r = unframe(ImageType::kPages, img);
  PagesEntry e;
  e.mode = static_cast<PayloadMode>(r.u8());
  const std::uint32_t n = r.u32();
  r.skip(7);
  e.digests.resize(n);
  for (std::uint64_t& d : e.digests) d = r.u64();
  const std::uint64_t raw_len = r.u64();
  e.raw = r.raw(raw_len);
  return e;
}

namespace {
// Zero-copy decode of a pages image body: the spans borrow the image bytes
// and are valid only while those bytes stay alive and unchanged.
struct PagesSpans {
  PayloadMode mode = PayloadMode::kDigest;
  std::uint32_t n_pages = 0;
  std::span<const std::uint8_t> digest_bytes;  // n_pages * 8, little-endian
  std::span<const std::uint8_t> raw;           // kFull payload bytes
};

PagesSpans read_pages_spans(Reader r) {
  PagesSpans s;
  s.mode = static_cast<PayloadMode>(r.u8());
  s.n_pages = r.u32();
  r.skip(7);
  s.digest_bytes = r.view(static_cast<std::size_t>(s.n_pages) * 8);
  const std::uint64_t raw_len = r.u64();
  s.raw = r.view(raw_len);
  return s;
}
}  // namespace

std::vector<std::uint8_t> encode_files(const std::vector<FileEntry>& es) {
  Writer w;
  w.u32(static_cast<std::uint32_t>(es.size()));
  for (const FileEntry& e : es) {
    w.i32(e.fd);
    w.u8(e.kind);
    w.str(e.path);
    w.u64(e.pipe_id);
  }
  return frame(ImageType::kFiles, std::move(w));
}

namespace {
std::vector<FileEntry> read_files(Reader r) {
  const std::uint32_t n = r.u32();
  std::vector<FileEntry> es(n);
  for (FileEntry& e : es) {
    e.fd = r.i32();
    e.kind = r.u8();
    e.path = r.str();
    e.pipe_id = r.u64();
  }
  return es;
}
}  // namespace

std::vector<FileEntry> decode_files(std::span<const std::uint8_t> img) {
  return read_files(unframe(ImageType::kFiles, img));
}

std::vector<std::uint8_t> encode_stats(const StatsEntry& e) {
  Writer w;
  w.u64(e.pages_dumped);
  w.u64(e.zero_pages);
  w.u64(e.payload_bytes);
  w.u64(e.metadata_bytes);
  w.i64(e.dump_duration_ns);
  w.u32(e.warmup_requests);
  return frame(ImageType::kStats, std::move(w));
}

namespace {
StatsEntry read_stats(Reader r) {
  StatsEntry e;
  e.pages_dumped = r.u64();
  e.zero_pages = r.u64();
  e.payload_bytes = r.u64();
  e.metadata_bytes = r.u64();
  e.dump_duration_ns = r.i64();
  e.warmup_requests = r.u32();
  return e;
}
}  // namespace

StatsEntry decode_stats(std::span<const std::uint8_t> img) {
  return read_stats(unframe(ImageType::kStats, img));
}

std::vector<std::uint8_t> encode_ws(const WorkingSetImage& ws) {
  Writer w;
  w.u32(ws.version);
  w.u32(static_cast<std::uint32_t>(ws.runs.size()));
  w.u64(ws.total_pages);
  for (const WsRun& run : ws.runs) {
    w.u32(run.vma);
    w.u64(run.first_page);
    w.u64(run.pages);
  }
  return frame(ImageType::kWs, std::move(w));
}

// Unlike the other decoders, decode_ws classifies its failures: a damaged
// working-set image must downgrade the restore to pure-lazy, not fail it, so
// the caller needs a kind() to switch on (and to surface in the warning).
WorkingSetImage decode_ws(std::span<const std::uint8_t> img) {
  if (img.size() < 16)
    throw RestoreError{RestoreErrorKind::kTruncatedImage,
                       "ws-1.img: file shorter than the image header"};
  const std::span<const std::uint8_t> without_crc{img.data(), img.size() - 4};
  Reader tail{img.subspan(img.size() - 4)};
  if (tail.u32() != crc32(without_crc))
    throw RestoreError{RestoreErrorKind::kCorruptImage,
                       "ws-1.img: CRC mismatch"};
  Reader r{without_crc};
  if (r.u32() != kImageMagic)
    throw RestoreError{RestoreErrorKind::kCorruptImage,
                       "ws-1.img: bad image magic"};
  if (static_cast<ImageType>(r.u32()) != ImageType::kWs)
    throw RestoreError{RestoreErrorKind::kCorruptImage,
                       "ws-1.img: unexpected image type"};
  if (r.u32() != kFormatVersion)
    throw RestoreError{RestoreErrorKind::kCorruptImage,
                       "ws-1.img: unsupported format version"};
  WorkingSetImage ws;
  try {
    ws.version = r.u32();
    const std::uint32_t n_runs = r.u32();
    ws.total_pages = r.u64();
    ws.runs.reserve(n_runs);
    for (std::uint32_t i = 0; i < n_runs; ++i) {
      WsRun run;
      run.vma = r.u32();
      run.first_page = r.u64();
      run.pages = r.u64();
      ws.runs.push_back(run);
    }
  } catch (const std::runtime_error&) {
    // Reader bounds failures: the CRC passed but the run table is cut short
    // relative to its own count — a truncated body.
    throw RestoreError{RestoreErrorKind::kTruncatedImage,
                       "ws-1.img: run table truncated"};
  }
  std::uint64_t sum = 0;
  for (const WsRun& run : ws.runs) {
    if (run.pages == 0)
      throw RestoreError{RestoreErrorKind::kCorruptImage,
                         "ws-1.img: empty run"};
    sum += run.pages;
  }
  if (sum != ws.total_pages)
    throw RestoreError{RestoreErrorKind::kCorruptImage,
                       "ws-1.img: run total does not match header"};
  return ws;
}

std::vector<std::uint8_t> encode_layers(const LayerManifest& m) {
  Writer w;
  w.u32(m.version);
  w.u32(static_cast<std::uint32_t>(m.layers.size()));
  w.u64(m.shared_pages);
  for (const LayerRef& l : m.layers) {
    w.str(l.id);
    w.u64(l.content_digest);
    w.u64(l.pages);
    w.u64(l.zero_pages);
  }
  return frame(ImageType::kLayers, std::move(w));
}

// Like decode_ws, failures are classified: layered restore needs a kind() to
// attribute a damaged manifest to the right chain link and error class.
LayerManifest decode_layers(std::span<const std::uint8_t> img) {
  if (img.size() < 16)
    throw RestoreError{RestoreErrorKind::kTruncatedImage,
                       "layers-1.img: file shorter than the image header"};
  const std::span<const std::uint8_t> without_crc{img.data(), img.size() - 4};
  Reader tail{img.subspan(img.size() - 4)};
  if (tail.u32() != crc32(without_crc))
    throw RestoreError{RestoreErrorKind::kCorruptImage,
                       "layers-1.img: CRC mismatch"};
  Reader r{without_crc};
  if (r.u32() != kImageMagic)
    throw RestoreError{RestoreErrorKind::kCorruptImage,
                       "layers-1.img: bad image magic"};
  if (static_cast<ImageType>(r.u32()) != ImageType::kLayers)
    throw RestoreError{RestoreErrorKind::kCorruptImage,
                       "layers-1.img: unexpected image type"};
  if (r.u32() != kFormatVersion)
    throw RestoreError{RestoreErrorKind::kCorruptImage,
                       "layers-1.img: unsupported format version"};
  LayerManifest m;
  try {
    m.version = r.u32();
    const std::uint32_t n_layers = r.u32();
    m.shared_pages = r.u64();
    m.layers.reserve(n_layers);
    for (std::uint32_t i = 0; i < n_layers; ++i) {
      LayerRef l;
      l.id = r.str();
      l.content_digest = r.u64();
      l.pages = r.u64();
      l.zero_pages = r.u64();
      m.layers.push_back(std::move(l));
    }
  } catch (const std::runtime_error&) {
    throw RestoreError{RestoreErrorKind::kTruncatedImage,
                       "layers-1.img: layer table truncated"};
  }
  if (m.layers.empty())
    throw RestoreError{RestoreErrorKind::kCorruptImage,
                       "layers-1.img: empty layer chain"};
  return m;
}

std::uint64_t layer_digest(const ImageDir& images) {
  // splitmix64-style order-sensitive fold over (pagemap runs, page digests).
  std::uint64_t h = 0x9E3779B97F4A7C15ull;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
    std::uint64_t z = h;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    h = z ^ (z >> 31);
  };
  const ImageDir::Decoded& dec = images.decoded();
  for (const PagemapEntry& e : dec.pagemap) {
    mix(e.vma);
    mix(e.first_page);
    mix(e.pages);
    mix(e.zero ? 1 : 0);
  }
  if (dec.pages.has_value())
    for (std::uint64_t d : dec.pages->digests()) mix(d);
  return h;
}

ImageDir::ImageDir(const ImageDir& o) : files_{o.files_} {
  // Fresh mutex, liveness token and (empty) decode cache: a copy re-derives
  // its caches from its own bytes and never aliases the source's buffers —
  // and two independent snapshots never serialize on one lock.
  validated_ = o.validated_;
}

ImageDir& ImageDir::operator=(const ImageDir& o) {
  if (this == &o) return *this;
  const std::lock_guard lock{*cache_mu_};
  live_gen_->store(false, std::memory_order_release);
  live_gen_ = std::make_shared<std::atomic<bool>>(true);
  decoded_.reset();
  files_ = o.files_;
  validated_ = o.validated_;
  return *this;
}

ImageDir& ImageDir::operator=(ImageDir&& o) noexcept {
  if (this == &o) return *this;
  // The overwritten directory's borrowed views die with its bytes; flip
  // their token before the buffers go away. The moved-in views stay valid:
  // their spans point into vector buffers that move wholesale.
  live_gen_->store(false, std::memory_order_release);
  files_ = std::move(o.files_);
  cache_mu_ = std::move(o.cache_mu_);
  decoded_ = std::move(o.decoded_);
  live_gen_ = std::move(o.live_gen_);
  validated_ = o.validated_;
  return *this;
}

void ImageDir::put(const std::string& name, std::vector<std::uint8_t> bytes,
                   std::optional<std::uint64_t> nominal_size) {
  {
    const std::lock_guard lock{*cache_mu_};
    // Invalidate borrowed views *before* the old bytes can go away, so a
    // stale PagesView fails loudly instead of reading freed memory.
    live_gen_->store(false, std::memory_order_release);
    live_gen_ = std::make_shared<std::atomic<bool>>(true);
    decoded_.reset();
    validated_ = false;
  }
  ImageFile f;
  f.nominal_size = nominal_size.value_or(bytes.size());
  f.bytes = std::move(bytes);
  files_[name] = std::move(f);
}

const ImageDir::ImageFile& ImageDir::get(const std::string& name) const {
  const auto it = files_.find(name);
  if (it == files_.end())
    throw std::runtime_error{"ImageDir: missing image file " + name};
  return it->second;
}

std::vector<std::string> ImageDir::names() const {
  std::vector<std::string> out;
  out.reserve(files_.size());
  for (const auto& [name, f] : files_) out.push_back(name);
  return out;
}

std::uint64_t ImageDir::nominal_total() const {
  std::uint64_t total = 0;
  for (const auto& [name, f] : files_) total += f.nominal_size;
  return total;
}

std::uint64_t ImageDir::real_total() const {
  std::uint64_t total = 0;
  for (const auto& [name, f] : files_) total += f.bytes.size();
  return total;
}

void ImageDir::validate() const {
  const std::lock_guard lock{*cache_mu_};
  check_crcs();
}

void ImageDir::check_crcs() const {
  if (validated_) return;
  for (const auto& [name, f] : files_) {
    // The working-set image is advisory: damage to it downgrades the restore
    // to pure-lazy (decode_ws throws typed errors the restore path catches),
    // so it must not fail whole-directory validation.
    if (name == kWsImageName) continue;
    if (f.bytes.size() < 16)
      throw std::runtime_error{"ImageDir: file too small: " + name};
    const std::span<const std::uint8_t> body{f.bytes.data(), f.bytes.size() - 4};
    Reader tail{std::span<const std::uint8_t>{f.bytes.data() + f.bytes.size() - 4, 4}};
    if (tail.u32() != crc32(body))
      throw std::runtime_error{"ImageDir: CRC mismatch in " + name};
  }
  validated_ = true;
}

const ImageDir::Decoded& ImageDir::decoded() const {
  const std::lock_guard lock{*cache_mu_};
  if (!decoded_) {
    // One CRC pass per file and content generation: the records below parse
    // bytes it verified, and validate() then has nothing left to check.
    check_crcs();
    const auto body = [this](const std::string& name, ImageType type) {
      return open_frame(type, get(name).bytes);
    };
    auto d = std::make_shared<Decoded>();
    if (has("inventory.img")) {
      d->inventory =
          read_inventory(body("inventory.img", ImageType::kInventory));
      const std::string core =
          "core-" + std::to_string(d->inventory->root_pid) + ".img";
      if (has(core)) d->cores = read_core(body(core, ImageType::kCore));
    }
    if (has("mm.img")) d->vmas = read_mm(body("mm.img", ImageType::kMm));
    if (has("files.img"))
      d->files = read_files(body("files.img", ImageType::kFiles));
    if (has("pagemap.img"))
      d->pagemap = read_pagemap(body("pagemap.img", ImageType::kPagemap));
    if (has("stats.img"))
      d->stats = read_stats(body("stats.img", ImageType::kStats));
    if (has("pages-1.img")) {
      // Zero-copy: the view's spans borrow the stored file bytes (v4 pads
      // the digest array to an 8-byte file offset for exactly this).
      const PagesSpans ps =
          read_pages_spans(body("pages-1.img", ImageType::kPages));
      PagesView v;
      v.mode_ = ps.mode;
      v.n_pages_ = ps.n_pages;
      v.raw_ = ps.raw;
      if constexpr (std::endian::native == std::endian::little) {
        const auto* base = ps.digest_bytes.data();
        if (reinterpret_cast<std::uintptr_t>(base) % alignof(std::uint64_t) == 0)
          v.digests_ = {reinterpret_cast<const std::uint64_t*>(base), ps.n_pages};
      }
      if (v.digests_.data() == nullptr && ps.n_pages > 0) {
        // Fallback: misaligned buffer or big-endian host — decode into
        // cache-owned storage (still one decode per content generation).
        d->digest_storage.resize(ps.n_pages);
        for (std::uint32_t i = 0; i < ps.n_pages; ++i) {
          std::uint64_t w = 0;
          for (std::size_t b = 0; b < 8; ++b)
            w |= static_cast<std::uint64_t>(ps.digest_bytes[i * 8 + b]) << (8 * b);
          d->digest_storage[i] = w;
        }
        v.digests_ = d->digest_storage;
      }
      v.live_ = live_gen_;
      d->pages = v;
    }
    decoded_ = std::move(d);
  }
  return *decoded_;
}

}  // namespace prebake::criu
