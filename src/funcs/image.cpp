#include "funcs/image.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "sim/rng.hpp"

namespace prebake::funcs {

Image generate_synthetic_image(std::uint32_t width, std::uint32_t height,
                               std::uint64_t seed) {
  if (width == 0 || height == 0)
    throw std::invalid_argument{"generate_synthetic_image: zero dimension"};
  Image img;
  img.width = width;
  img.height = height;
  img.rgba.resize(static_cast<std::size_t>(width) * height * 4);

  sim::Rng rng{seed};
  // A few random "light sources" make the gradients non-trivial.
  struct Blob {
    double x, y, radius, r, g, b;
  };
  std::vector<Blob> blobs;
  for (int i = 0; i < 5; ++i) {
    blobs.push_back(Blob{rng.uniform(0, width), rng.uniform(0, height),
                         rng.uniform(width / 8.0, width / 2.0),
                         rng.uniform(40, 255), rng.uniform(40, 255),
                         rng.uniform(40, 255)});
  }

  std::uint64_t noise_state = seed ^ 0xABCDEF;
  for (std::uint32_t y = 0; y < height; ++y) {
    for (std::uint32_t x = 0; x < width; ++x) {
      double r = 16, g = 24, b = 40;  // dark base
      for (const Blob& blob : blobs) {
        const double dx = x - blob.x, dy = y - blob.y;
        const double w = std::exp(-(dx * dx + dy * dy) / (2 * blob.radius * blob.radius));
        r += w * blob.r;
        g += w * blob.g;
        b += w * blob.b;
      }
      // High-frequency deterministic noise (+-12).
      const std::uint64_t h = sim::splitmix64(noise_state);
      r += static_cast<double>(h & 0x1F) - 16.0;
      g += static_cast<double>((h >> 5) & 0x1F) - 16.0;
      b += static_cast<double>((h >> 10) & 0x1F) - 16.0;

      std::uint8_t* p = img.pixel(x, y);
      p[0] = static_cast<std::uint8_t>(std::clamp(r, 0.0, 255.0));
      p[1] = static_cast<std::uint8_t>(std::clamp(g, 0.0, 255.0));
      p[2] = static_cast<std::uint8_t>(std::clamp(b, 0.0, 255.0));
      p[3] = 255;
    }
  }
  return img;
}

namespace {

// Rows of u8 a u16 column sum holds: 257 * 255 = 65535.
constexpr std::uint32_t kChunkRows = 257;
// Bytes (16 pixels) whose column sums stay in vector registers while the
// rows of a chunk stream past.
constexpr std::size_t kStrip = 64;

// Column sums of W bytes over `rows` rows, `stride` bytes apart from `p`,
// into col[0, W). W is fixed at compile time so the sums never leave
// registers between rows.
template <std::size_t W>
void sum_columns(const std::uint8_t* p, std::size_t stride, std::uint32_t rows,
                 std::uint16_t* col) {
  std::uint16_t acc[W] = {};
  for (std::size_t j = 0; j < W; ++j) acc[j] = p[j];
  for (std::uint32_t r = 1; r < rows; ++r) {
    p += stride;
    for (std::size_t j = 0; j < W; ++j) acc[j] += p[j];
  }
  for (std::size_t j = 0; j < W; ++j) col[j] = acc[j];
}

}  // namespace

Image resize_box(const Image& src, double scale) {
  if (!src.valid()) throw std::invalid_argument{"resize_box: invalid image"};
  if (scale <= 0.0 || scale > 1.0)
    throw std::invalid_argument{"resize_box: scale must be in (0, 1]"};
  const auto out_w = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(std::lround(src.width * scale)));
  const auto out_h = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(std::lround(src.height * scale)));

  Image out;
  out.width = out_w;
  out.height = out_h;
  out.rgba.resize(static_cast<std::size_t>(out_w) * out_h * 4);

  // Output pixel (ox, oy) averages the source pixels of columns
  // [x_begin, x_end) and rows [y0, y1); windows overlap where a ratio is not
  // integral. A window is empty only when the source has a zero dimension,
  // which valid() allows; its pixels are 0.
  const double x_ratio = static_cast<double>(src.width) / out_w;
  const double y_ratio = static_cast<double>(src.height) / out_h;
  std::vector<std::uint32_t> x_begin(out_w), x_end(out_w);
  for (std::uint32_t ox = 0; ox < out_w; ++ox) {
    x_begin[ox] = static_cast<std::uint32_t>(ox * x_ratio);
    x_end[ox] = std::min<std::uint32_t>(
        src.width, static_cast<std::uint32_t>(std::ceil((ox + 1) * x_ratio)));
  }

  // Separable: per output row, sum the rows of its band byte-wise into u16
  // column sums, kChunkRows rows at a time, then add each window of column
  // sums into the pixel's u64 sums. Integer sums do not depend on order, so
  // every byte equals the per-pixel average.
  const std::size_t row_bytes = static_cast<std::size_t>(src.width) * 4;
  std::vector<std::uint16_t> columns(row_bytes);
  std::vector<std::uint64_t> sums(static_cast<std::size_t>(out_w) * 4);
  for (std::uint32_t oy = 0; oy < out_h; ++oy) {
    const auto y0 = static_cast<std::uint32_t>(oy * y_ratio);
    const auto y1 = std::min<std::uint32_t>(
        src.height, static_cast<std::uint32_t>(std::ceil((oy + 1) * y_ratio)));
    std::fill(sums.begin(), sums.end(), 0);
    for (std::uint32_t sy = y0; sy < y1;) {
      const std::uint32_t rows = std::min(y1 - sy, kChunkRows);
      const std::uint8_t* chunk = src.pixel(0, sy);
      std::size_t i = 0;
      for (; i + kStrip <= row_bytes; i += kStrip)
        sum_columns<kStrip>(chunk + i, row_bytes, rows, &columns[i]);
      for (; i < row_bytes; i += 4)
        sum_columns<4>(chunk + i, row_bytes, rows, &columns[i]);
      for (std::uint32_t ox = 0; ox < out_w; ++ox) {
        std::uint64_t* s = &sums[static_cast<std::size_t>(ox) * 4];
        for (std::uint32_t x = x_begin[ox]; x < x_end[ox]; ++x)
          for (int c = 0; c < 4; ++c)
            s[c] += columns[static_cast<std::size_t>(x) * 4 + c];
      }
      sy += rows;
    }
    const std::uint64_t band = y1 - y0;
    std::uint8_t* q = out.pixel(0, oy);
    for (std::uint32_t ox = 0; ox < out_w; ++ox) {
      const std::uint64_t count = band * (x_end[ox] - x_begin[ox]);
      for (int c = 0; c < 4; ++c)
        *q++ = count == 0 ? 0
                          : static_cast<std::uint8_t>(
                                sums[static_cast<std::size_t>(ox) * 4 + c] / count);
    }
  }
  return out;
}

std::string encode_ppm(const Image& img) {
  if (!img.valid()) throw std::invalid_argument{"encode_ppm: invalid image"};
  char header[64];
  const int header_len =
      std::snprintf(header, sizeof header, "P6\n%u %u\n255\n", img.width, img.height);
  const std::size_t pixels = static_cast<std::size_t>(img.width) * img.height;
  std::string out(static_cast<std::size_t>(header_len) + pixels * 3, '\0');
  std::memcpy(out.data(), header, static_cast<std::size_t>(header_len));
  const std::uint8_t* p = img.rgba.data();
  auto* q = reinterpret_cast<std::uint8_t*>(out.data() + header_len);
  for (std::size_t i = 0; i < pixels; ++i, p += 4, q += 3) {
    q[0] = p[0];
    q[1] = p[1];
    q[2] = p[2];
  }
  return out;
}

Image decode_ppm(std::string_view bytes) {
  unsigned width = 0, height = 0, maxval = 0;
  int consumed = 0;
  // Bound the header scan; encode_ppm writes a short header.
  char head[64] = {};
  std::memcpy(head, bytes.data(), std::min<std::size_t>(bytes.size(), 63));
  if (std::sscanf(head, "P6\n%u %u\n%u\n%n", &width, &height, &maxval, &consumed) != 3 ||
      maxval != 255)
    throw std::invalid_argument{"decode_ppm: bad header"};
  const std::size_t need = static_cast<std::size_t>(consumed) +
                           static_cast<std::size_t>(width) * height * 3;
  if (bytes.size() < need) throw std::invalid_argument{"decode_ppm: truncated"};
  Image img;
  img.width = width;
  img.height = height;
  img.rgba.resize(static_cast<std::size_t>(width) * height * 4);
  const auto* src = reinterpret_cast<const std::uint8_t*>(bytes.data()) + consumed;
  for (std::uint32_t y = 0; y < height; ++y)
    for (std::uint32_t x = 0; x < width; ++x) {
      std::uint8_t* p = img.pixel(x, y);
      p[0] = *src++;
      p[1] = *src++;
      p[2] = *src++;
      p[3] = 255;
    }
  return img;
}

const Image& LazyImage::get() const {
  std::call_once(once_, [this] {
    image_.emplace(generate_synthetic_image(width_, height_, seed_));
  });
  return *image_;
}

}  // namespace prebake::funcs
