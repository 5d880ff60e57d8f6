#include "os/page_bitmap.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

namespace prebake::os {
namespace {

using BitRun = std::pair<std::uint64_t, std::uint64_t>;

std::vector<BitRun> runs_of(const PageBitmap& bm, std::uint64_t first,
                         std::uint64_t n) {
  std::vector<BitRun> out;
  bm.for_each_set_run(first, n,
                      [&out](std::uint64_t f, std::uint64_t c) {
                        out.emplace_back(f, c);
                      });
  return out;
}

TEST(PageBitmap, AssignAndIndex) {
  PageBitmap bm{100, false};
  EXPECT_EQ(bm.size(), 100u);
  EXPECT_EQ(bm.count(), 0u);
  EXPECT_FALSE(bm.any());
  bm.set(0);
  bm.set(63);
  bm.set(64);
  bm.set(99);
  EXPECT_TRUE(bm[0]);
  EXPECT_TRUE(bm[63]);
  EXPECT_TRUE(bm[64]);
  EXPECT_TRUE(bm[99]);
  EXPECT_FALSE(bm[1]);
  EXPECT_EQ(bm.count(), 4u);
  EXPECT_TRUE(bm.any());
}

TEST(PageBitmap, AssignTrueMasksTail) {
  // A 70-bit all-true bitmap must leave bits 70..127 of the last word zero,
  // or count() (whole-word popcounts) over-counts.
  const PageBitmap bm{70, true};
  EXPECT_EQ(bm.count(), 70u);
  EXPECT_EQ(bm.count_range(0, 70), 70u);
}

TEST(PageBitmap, SetRangeAcrossWords) {
  PageBitmap bm{256, false};
  bm.set_range(60, 10);  // straddles word 0/1
  EXPECT_EQ(bm.count(), 10u);
  EXPECT_FALSE(bm[59]);
  EXPECT_TRUE(bm[60]);
  EXPECT_TRUE(bm[69]);
  EXPECT_FALSE(bm[70]);
  bm.set_range(0, 256);
  EXPECT_EQ(bm.count(), 256u);
  bm.set_range(64, 128, false);  // clear whole middle words
  EXPECT_EQ(bm.count(), 128u);
  EXPECT_TRUE(bm[63]);
  EXPECT_FALSE(bm[64]);
  EXPECT_FALSE(bm[191]);
  EXPECT_TRUE(bm[192]);
}

TEST(PageBitmap, SetRangeClampsPastEnd) {
  PageBitmap bm{10, false};
  bm.set_range(6, 100);
  EXPECT_EQ(bm.count(), 4u);
  bm.set_range(10, 5);  // fully out of range: no-op
  EXPECT_EQ(bm.count(), 4u);
}

TEST(PageBitmap, CountRange) {
  PageBitmap bm{300, false};
  bm.set_range(10, 100);
  EXPECT_EQ(bm.count_range(0, 300), 100u);
  EXPECT_EQ(bm.count_range(10, 100), 100u);
  EXPECT_EQ(bm.count_range(0, 10), 0u);
  EXPECT_EQ(bm.count_range(50, 10), 10u);
  EXPECT_EQ(bm.count_range(105, 50), 5u);
  EXPECT_EQ(bm.count_range(110, 0), 0u);
  EXPECT_EQ(bm.count_range(290, 100), 0u);  // clamped
}

TEST(PageBitmap, ForEachSetRunFindsMaximalRuns) {
  PageBitmap bm{200, false};
  bm.set_range(3, 4);     // [3, 7)
  bm.set(63);             // single bit at a word boundary
  bm.set_range(64, 70);   // [64, 134) — adjacent to 63: one merged run
  bm.set(199);
  const std::vector<BitRun> rs = runs_of(bm, 0, 200);
  ASSERT_EQ(rs.size(), 3u);
  EXPECT_EQ(rs[0], BitRun(3, 4));
  EXPECT_EQ(rs[1], BitRun(63, 71));
  EXPECT_EQ(rs[2], BitRun(199, 1));
}

TEST(PageBitmap, ForEachSetRunWindowed) {
  PageBitmap bm{128, true};
  // A window in the middle of an all-set bitmap yields exactly the window.
  const std::vector<BitRun> rs = runs_of(bm, 30, 50);
  ASSERT_EQ(rs.size(), 1u);
  EXPECT_EQ(rs[0], BitRun(30, 50));
  // Empty window.
  EXPECT_TRUE(runs_of(bm, 128, 10).empty());
}

TEST(PageBitmap, MatchesReferenceOnMixedPattern) {
  // Cross-check bulk ops against a bit-at-a-time reference.
  PageBitmap bm{517, false};
  std::vector<bool> ref(517, false);
  std::uint64_t x = 0x243F6A8885A308D3ULL;
  for (int i = 0; i < 40; ++i) {
    x ^= x << 13; x ^= x >> 7; x ^= x << 17;
    const std::uint64_t first = x % 517;
    const std::uint64_t n = (x >> 32) % 90;
    const bool value = (x >> 17) & 1;
    bm.set_range(first, n, value);
    for (std::uint64_t p = first; p < std::min<std::uint64_t>(first + n, 517); ++p)
      ref[p] = value;
  }
  std::uint64_t want = 0;
  for (std::uint64_t p = 0; p < 517; ++p) {
    EXPECT_EQ(bm[p], ref[p]) << "bit " << p;
    want += ref[p] ? 1 : 0;
  }
  EXPECT_EQ(bm.count(), want);
  EXPECT_EQ(bm.count_range(100, 300),
            static_cast<std::uint64_t>(
                std::count(ref.begin() + 100, ref.begin() + 400, true)));
  // Runs reconstruct the exact bit pattern.
  PageBitmap rebuilt{517, false};
  bm.for_each_set_run(0, 517, [&rebuilt](std::uint64_t f, std::uint64_t n) {
    rebuilt.set_range(f, n);
  });
  EXPECT_EQ(rebuilt, bm);

  // Split by a second pattern: the runs a page-at-a-time walk finds.
  PageBitmap marks{517, false};
  for (int i = 0; i < 40; ++i) {
    x ^= x << 13; x ^= x >> 7; x ^= x << 17;
    marks.set_range(x % 517, (x >> 32) % 70, (x >> 17) & 1);
  }
  using MarkedRun = std::tuple<std::uint64_t, std::uint64_t, bool>;
  std::vector<MarkedRun> ref_runs;
  for (std::uint64_t p = 0; p < 517; ++p) {
    if (!bm[p]) continue;
    if (p > 0 && bm[p - 1] && marks[p - 1] == marks[p])
      ++std::get<1>(ref_runs.back());
    else
      ref_runs.emplace_back(p, 1, marks[p]);
  }
  std::vector<MarkedRun> runs;
  bm.for_each_set_run_by(marks, [&runs](std::uint64_t f, std::uint64_t n,
                                        bool marked) {
    runs.emplace_back(f, n, marked);
  });
  EXPECT_EQ(runs, ref_runs);
}

TEST(PageBitmap, Equality) {
  PageBitmap a{64, false};
  PageBitmap b{64, false};
  EXPECT_EQ(a, b);
  a.set(10);
  EXPECT_NE(a, b);
  b.set(10);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace prebake::os
