#include "funcs/image.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "sim/rng.hpp"

namespace prebake::funcs {
namespace {

// resize_box by its definition: each output pixel averages every source
// pixel of its window, one pixel and channel at a time.
Image reference_resize_box(const Image& src, double scale) {
  const auto out_w = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(std::lround(src.width * scale)));
  const auto out_h = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(std::lround(src.height * scale)));

  Image out;
  out.width = out_w;
  out.height = out_h;
  out.rgba.resize(static_cast<std::size_t>(out_w) * out_h * 4);

  const double x_ratio = static_cast<double>(src.width) / out_w;
  const double y_ratio = static_cast<double>(src.height) / out_h;
  for (std::uint32_t oy = 0; oy < out_h; ++oy) {
    const auto y0 = static_cast<std::uint32_t>(oy * y_ratio);
    const auto y1 = std::min<std::uint32_t>(
        src.height, static_cast<std::uint32_t>(std::ceil((oy + 1) * y_ratio)));
    for (std::uint32_t ox = 0; ox < out_w; ++ox) {
      const auto x0 = static_cast<std::uint32_t>(ox * x_ratio);
      const auto x1 = std::min<std::uint32_t>(
          src.width, static_cast<std::uint32_t>(std::ceil((ox + 1) * x_ratio)));
      std::uint64_t acc[4] = {0, 0, 0, 0};
      std::uint64_t count = 0;
      for (std::uint32_t sy = y0; sy < y1; ++sy) {
        for (std::uint32_t sx = x0; sx < x1; ++sx) {
          const std::uint8_t* p = src.pixel(sx, sy);
          for (int c = 0; c < 4; ++c) acc[c] += p[c];
          ++count;
        }
      }
      std::uint8_t* q = out.pixel(ox, oy);
      for (int c = 0; c < 4; ++c)
        q[c] = count == 0 ? 0 : static_cast<std::uint8_t>(acc[c] / count);
    }
  }
  return out;
}

// Uniformly random bytes, alpha included.
Image noise_image(std::uint32_t width, std::uint32_t height,
                  std::uint64_t seed) {
  Image img;
  img.width = width;
  img.height = height;
  img.rgba.resize(static_cast<std::size_t>(width) * height * 4);
  std::uint64_t state = seed;
  for (std::uint8_t& b : img.rgba)
    b = static_cast<std::uint8_t>(sim::splitmix64(state) >> 56);
  return img;
}

TEST(SyntheticImage, DimensionsAndValidity) {
  const Image img = generate_synthetic_image(64, 32, 1);
  EXPECT_EQ(img.width, 64u);
  EXPECT_EQ(img.height, 32u);
  EXPECT_TRUE(img.valid());
  EXPECT_EQ(img.rgba.size(), 64u * 32 * 4);
}

TEST(SyntheticImage, DeterministicForSeed) {
  const Image a = generate_synthetic_image(32, 32, 9);
  const Image b = generate_synthetic_image(32, 32, 9);
  EXPECT_EQ(a.rgba, b.rgba);
}

TEST(SyntheticImage, DifferentSeedsDiffer) {
  const Image a = generate_synthetic_image(32, 32, 1);
  const Image b = generate_synthetic_image(32, 32, 2);
  EXPECT_NE(a.rgba, b.rgba);
}

TEST(SyntheticImage, OpaqueAlpha) {
  const Image img = generate_synthetic_image(16, 16, 3);
  for (std::uint32_t y = 0; y < img.height; ++y)
    for (std::uint32_t x = 0; x < img.width; ++x)
      EXPECT_EQ(img.pixel(x, y)[3], 255);
}

TEST(SyntheticImage, HasSpatialVariation) {
  const Image img = generate_synthetic_image(64, 64, 4);
  bool varies = false;
  const std::uint8_t* first = img.pixel(0, 0);
  for (std::uint32_t x = 1; x < img.width && !varies; ++x)
    if (img.pixel(x, 0)[0] != first[0]) varies = true;
  EXPECT_TRUE(varies);
}

TEST(SyntheticImage, ZeroDimensionThrows) {
  EXPECT_THROW(generate_synthetic_image(0, 10, 1), std::invalid_argument);
  EXPECT_THROW(generate_synthetic_image(10, 0, 1), std::invalid_argument);
}

TEST(ResizeBox, TenPercentScale) {
  const Image src = generate_synthetic_image(344, 144, 5);
  const Image out = resize_box(src, 0.10);
  EXPECT_EQ(out.width, 34u);
  EXPECT_EQ(out.height, 14u);
  EXPECT_TRUE(out.valid());
}

TEST(ResizeBox, IdentityScale) {
  const Image src = generate_synthetic_image(20, 20, 6);
  const Image out = resize_box(src, 1.0);
  EXPECT_EQ(out.width, 20u);
  EXPECT_EQ(out.height, 20u);
  EXPECT_EQ(out.rgba, src.rgba);
}

TEST(ResizeBox, AveragesUniformRegions) {
  Image src;
  src.width = 8;
  src.height = 8;
  src.rgba.assign(8 * 8 * 4, 100);
  const Image out = resize_box(src, 0.5);
  for (std::uint32_t y = 0; y < out.height; ++y)
    for (std::uint32_t x = 0; x < out.width; ++x)
      for (int c = 0; c < 4; ++c) EXPECT_EQ(out.pixel(x, y)[c], 100);
}

TEST(ResizeBox, ReducesHighFrequencyEnergy) {
  // A checkerboard averages toward gray when box-filtered down.
  Image src;
  src.width = 64;
  src.height = 64;
  src.rgba.resize(64 * 64 * 4);
  for (std::uint32_t y = 0; y < 64; ++y)
    for (std::uint32_t x = 0; x < 64; ++x) {
      const std::uint8_t v = ((x + y) % 2 == 0) ? 0 : 255;
      auto* p = src.pixel(x, y);
      p[0] = p[1] = p[2] = v;
      p[3] = 255;
    }
  const Image out = resize_box(src, 0.25);
  for (std::uint32_t y = 0; y < out.height; ++y)
    for (std::uint32_t x = 0; x < out.width; ++x) {
      EXPECT_NEAR(out.pixel(x, y)[0], 127, 10);
    }
}

// The separable sums equal the per-pixel definition byte for byte: row
// widths whose byte count (width * 4) is no multiple of 16 or 32, so the
// vectorized loops end in a scalar tail; non-integral ratios, whose windows
// overlap (7 px at 0.5 -> [0,2), [1,4), [3,6), [5,7)); bands taller than the
// 257 rows a u16 column sum holds, over an all-255 image, the sums' worst
// case; scale 1; 1x1 images; and sources with a zero dimension, which
// valid() accepts (decode_ppm yields one from a "0 5" header).
TEST(ResizeBox, MatchesPerPixelDefinition) {
  struct Case {
    std::uint32_t width, height;
    double scale;
  };
  const Case cases[] = {
      {344, 144, 0.10}, {7, 7, 0.5},    {13, 11, 0.37}, {5, 9, 0.9},
      {29, 17, 1.0},    {1, 1, 1.0},    {1, 1, 0.5},    {3, 700, 0.001},
      {9, 1031, 0.004}, {101, 3, 0.33}, {63, 65, 0.13}, {2, 600, 0.01},
      {1, 257, 0.001},  {4, 514, 0.001}, {0, 0, 0.5},   {0, 5, 0.5},
      {5, 0, 0.5},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(std::to_string(c.width) + "x" + std::to_string(c.height) +
                 " at " + std::to_string(c.scale));
    Image white;
    white.width = c.width;
    white.height = c.height;
    white.rgba.assign(static_cast<std::size_t>(c.width) * c.height * 4, 255);
    std::vector<Image> sources = {noise_image(c.width, c.height, 22), white};
    if (c.width != 0 && c.height != 0)
      sources.push_back(generate_synthetic_image(c.width, c.height, 21));
    for (const Image& src : sources) {
      const Image got = resize_box(src, c.scale);
      const Image want = reference_resize_box(src, c.scale);
      EXPECT_EQ(got.width, want.width);
      EXPECT_EQ(got.height, want.height);
      EXPECT_EQ(got.rgba, want.rgba);
    }
  }
}

TEST(ResizeBox, BadScaleThrows) {
  const Image src = generate_synthetic_image(8, 8, 1);
  EXPECT_THROW(resize_box(src, 0.0), std::invalid_argument);
  EXPECT_THROW(resize_box(src, 1.5), std::invalid_argument);
}

TEST(Ppm, EncodeDecodeRoundTrip) {
  const Image src = generate_synthetic_image(33, 17, 11);
  const Image back = decode_ppm(encode_ppm(src));
  EXPECT_EQ(back.width, src.width);
  EXPECT_EQ(back.height, src.height);
  EXPECT_EQ(back.rgba, src.rgba);  // alpha is 255 everywhere
}

TEST(Ppm, HeaderFormat) {
  const Image src = generate_synthetic_image(5, 4, 12);
  const auto ppm = encode_ppm(src);
  const std::string head(ppm.begin(), ppm.begin() + 11);
  EXPECT_EQ(head.substr(0, 3), "P6\n");
  EXPECT_NE(head.find("5 4"), std::string::npos);
}

TEST(Ppm, DecodeRejectsGarbage) {
  EXPECT_THROW(decode_ppm("XY"), std::invalid_argument);
}

TEST(Ppm, DecodeRejectsTruncated) {
  auto ppm = encode_ppm(generate_synthetic_image(10, 10, 13));
  ppm.resize(ppm.size() / 2);
  EXPECT_THROW(decode_ppm(ppm), std::invalid_argument);
}

}  // namespace
}  // namespace prebake::funcs
