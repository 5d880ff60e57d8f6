// Word-backed per-page bitmap for VMAs.
//
// Replaces std::vector<bool> in the restore hot path: the replay loop and the
// COW-clone bookkeeping operate on *runs* of pages, and a word-backed bitmap
// turns those per-page bit flips into memset-width word stores and popcounts.
// The API mirrors the subset of vector<bool> the address space used
// (operator[], size, assign) plus the bulk operations the batched kernel
// paths need (set_range, count_range, for_each_set_run).
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

namespace prebake::os {

class PageBitmap {
 public:
  PageBitmap() = default;
  explicit PageBitmap(std::uint64_t n, bool value = false) { assign(n, value); }

  void assign(std::uint64_t n, bool value) {
    size_ = n;
    words_.assign(word_count(n), value ? ~std::uint64_t{0} : 0);
    mask_tail();
  }
  void clear() {
    size_ = 0;
    words_.clear();
  }

  std::uint64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  bool operator[](std::uint64_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1;
  }
  void set(std::uint64_t i, bool value = true) {
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    if (value)
      words_[i >> 6] |= bit;
    else
      words_[i >> 6] &= ~bit;
  }

  // Set (or clear) `n` bits starting at `first`, clamped to size().
  void set_range(std::uint64_t first, std::uint64_t n, bool value = true) {
    std::uint64_t end = first + n;
    if (end > size_) end = size_;
    if (first >= end) return;
    const std::uint64_t wf = first >> 6, we = (end - 1) >> 6;
    const std::uint64_t head = ~std::uint64_t{0} << (first & 63);
    const std::uint64_t tail = ~std::uint64_t{0} >> (63 - ((end - 1) & 63));
    if (wf == we) {
      apply(wf, head & tail, value);
      return;
    }
    apply(wf, head, value);
    for (std::uint64_t w = wf + 1; w < we; ++w)
      words_[w] = value ? ~std::uint64_t{0} : 0;
    apply(we, tail, value);
  }

  // Population count over the whole bitmap / a clamped range.
  std::uint64_t count() const {
    std::uint64_t total = 0;
    for (const std::uint64_t w : words_) total += popcount(w);
    return total;
  }
  std::uint64_t count_range(std::uint64_t first, std::uint64_t n) const {
    std::uint64_t end = first + n;
    if (end > size_) end = size_;
    if (first >= end) return 0;
    const std::uint64_t wf = first >> 6, we = (end - 1) >> 6;
    const std::uint64_t head = ~std::uint64_t{0} << (first & 63);
    const std::uint64_t tail = ~std::uint64_t{0} >> (63 - ((end - 1) & 63));
    if (wf == we) return popcount(words_[wf] & head & tail);
    std::uint64_t total =
        popcount(words_[wf] & head) + popcount(words_[we] & tail);
    for (std::uint64_t w = wf + 1; w < we; ++w) total += popcount(words_[w]);
    return total;
  }
  bool any() const {
    for (const std::uint64_t w : words_)
      if (w != 0) return true;
    return false;
  }

  // Invoke fn(first_page, pages) for each maximal run of set bits within
  // [first, first + n), clamped to size().
  template <typename Fn>
  void for_each_set_run(std::uint64_t first, std::uint64_t n, Fn&& fn) const {
    std::uint64_t end = first + n;
    if (end > size_) end = size_;
    std::uint64_t i = first;
    while (i < end) {
      // Find the next set bit at or after i.
      std::uint64_t w = words_[i >> 6] >> (i & 63);
      if (w == 0) {
        i = (i >> 6 << 6) + 64;
        continue;
      }
      i += static_cast<std::uint64_t>(std::countr_zero(w));
      if (i >= end) break;
      // Find the end of the run.
      std::uint64_t run_end = i;
      while (run_end < end) {
        std::uint64_t inv = ~words_[run_end >> 6] >> (run_end & 63);
        if (inv == 0) {
          run_end = (run_end >> 6 << 6) + 64;
          continue;
        }
        run_end += static_cast<std::uint64_t>(std::countr_zero(inv));
        break;
      }
      if (run_end > end) run_end = end;
      fn(i, run_end - i);
      i = run_end;
    }
  }

  bool operator==(const PageBitmap&) const = default;

 private:
  static std::uint64_t word_count(std::uint64_t n) { return (n + 63) >> 6; }
  // Without -mpopcnt std::popcount is a libgcc call. Empty and full words (a
  // fresh VMA, a fully restored run) need none; they are ~99% of the words
  // counted on the benchmark workloads (DESIGN.md §6g).
  static std::uint64_t popcount(std::uint64_t w) {
    if (w == 0) return 0;
    if (w == ~std::uint64_t{0}) return 64;
    return static_cast<std::uint64_t>(std::popcount(w));
  }
  void apply(std::uint64_t word, std::uint64_t mask, bool value) {
    if (value)
      words_[word] |= mask;
    else
      words_[word] &= ~mask;
  }
  // Bits past size() must stay zero so count() can popcount whole words.
  void mask_tail() {
    if (size_ & 63) words_.back() &= ~std::uint64_t{0} >> (64 - (size_ & 63));
  }

  std::vector<std::uint64_t> words_;
  std::uint64_t size_ = 0;
};

}  // namespace prebake::os
