#include "os/page_source.hpp"

#include <algorithm>
#include <cstring>

#include "sim/rng.hpp"

namespace prebake::os {

namespace {
// FNV-1a-style 64-bit mix over 8-byte words; fast and adequate for content
// verification (not a cryptographic hash).
std::uint64_t hash_words(const std::uint64_t* words, std::size_t count) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < count; ++i) {
    h ^= words[i];
    h *= 0x100000001b3ULL;
    h ^= h >> 29;
  }
  return h;
}
}  // namespace

std::uint64_t hash_page_bytes(std::span<const std::uint8_t, kPageSize> page) {
  std::uint64_t words[kPageSize / 8];
  std::memcpy(words, page.data(), kPageSize);
  return hash_words(words, kPageSize / 8);
}

std::uint64_t PageSource::page_digest(std::uint64_t page_index) const {
  std::array<std::uint8_t, kPageSize> buf{};
  fill(page_index, std::span<std::uint8_t, kPageSize>{buf});
  return hash_page_bytes(std::span<const std::uint8_t, kPageSize>{buf});
}

void BufferSource::fill(std::uint64_t page_index,
                        std::span<std::uint8_t, kPageSize> out) const {
  std::fill(out.begin(), out.end(), std::uint8_t{0});
  const std::uint64_t offset = page_index * kPageSize;
  if (offset >= bytes_.size()) return;
  const std::size_t len =
      std::min<std::size_t>(kPageSize, bytes_.size() - offset);
  std::memcpy(out.data(), bytes_.data() + offset, len);
}

void PatternSource::fill(std::uint64_t page_index,
                         std::span<std::uint8_t, kPageSize> out) const {
  std::uint64_t state = seed_ ^ (page_index * 0x9E3779B97F4A7C15ULL) ^
                        (version_ * 0xD1B54A32D192ED03ULL);
  for (std::size_t i = 0; i < kPageSize; i += 8) {
    const std::uint64_t w = sim::splitmix64(state);
    std::memcpy(out.data() + i, &w, 8);
  }
}

std::uint64_t PatternSource::page_digest(std::uint64_t page_index) const {
  // Hash the generator's words directly instead of materializing the page
  // and re-reading it. fill() writes each word's native bytes and the hash
  // reads them back the same way, so this is bit-identical to what a
  // verifier that only sees bytes would compute — without two 4 KiB copies.
  std::uint64_t state = seed_ ^ (page_index * 0x9E3779B97F4A7C15ULL) ^
                        (version_ * 0xD1B54A32D192ED03ULL);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < kPageSize / 8; ++i) {
    h ^= sim::splitmix64(state);
    h *= 0x100000001b3ULL;
    h ^= h >> 29;
  }
  return h;
}

}  // namespace prebake::os
