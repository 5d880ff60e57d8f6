// Page content providers for simulated address spaces.
//
// A VMA's bytes must be reproducible so the CRIU-model engine can verify that
// a restored process is byte-identical to the checkpointed one. Small test
// processes use BufferSource (real stored bytes); large simulated footprints
// (tens of MiB of JVM heap) use PatternSource, whose page contents are a pure
// function of (seed, page index, version) — regenerable and CRC-checkable
// without keeping the bytes resident.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace prebake::os {

inline constexpr std::uint64_t kPageSize = 4096;

class PageSource {
 public:
  virtual ~PageSource() = default;
  // Fill `out` (exactly kPageSize bytes) with the contents of page
  // `page_index`.
  virtual void fill(std::uint64_t page_index,
                    std::span<std::uint8_t, kPageSize> out) const = 0;
  // 64-bit digest of a page, computable without materializing it when the
  // source supports that; default materializes and hashes. The engine asks
  // for digests through os::Kernel::page_digests, which memoizes
  // PatternSource content (DESIGN.md §6g).
  virtual std::uint64_t page_digest(std::uint64_t page_index) const;
};

// Real, mutable bytes. Pages past the buffer end read as zeros.
class BufferSource final : public PageSource {
 public:
  explicit BufferSource(std::vector<std::uint8_t> bytes)
      : bytes_{std::move(bytes)} {}
  void fill(std::uint64_t page_index,
            std::span<std::uint8_t, kPageSize> out) const override;
  std::vector<std::uint8_t>& bytes() { return bytes_; }
  const std::vector<std::uint8_t>& bytes() const { return bytes_; }

 private:
  std::vector<std::uint8_t> bytes_;
};

// Deterministic pseudo-random page contents derived from a seed. `version`
// lets the owner "mutate" the whole region cheaply (e.g. JIT warm-up dirties
// pages); bumping it changes every page's contents deterministically.
class PatternSource final : public PageSource {
 public:
  explicit PatternSource(std::uint64_t seed, std::uint64_t version = 0)
      : seed_{seed}, version_{version} {}
  void fill(std::uint64_t page_index,
            std::span<std::uint8_t, kPageSize> out) const override;
  std::uint64_t page_digest(std::uint64_t page_index) const override;
  std::uint64_t seed() const { return seed_; }
  std::uint64_t version() const { return version_; }
  void bump_version() { ++version_; }

 private:
  std::uint64_t seed_;
  std::uint64_t version_;
};

std::uint64_t hash_page_bytes(std::span<const std::uint8_t, kPageSize> page);

}  // namespace prebake::os
