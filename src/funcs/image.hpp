// Raster image support for the paper's "Image Resizer" function.
//
// The paper's function loads a 1 MiB, 3440x1440 JPEG at start-up and scales
// it down to 10% per request. We have no JPEG codec (and no network to fetch
// the original), so the resizer operates on a deterministic synthetic image
// of the same dimensions; the resize math (a box filter) is real.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace prebake::funcs {

struct Image {
  std::uint32_t width = 0;
  std::uint32_t height = 0;
  std::vector<std::uint8_t> rgba;  // width * height * 4

  bool valid() const {
    return rgba.size() == static_cast<std::size_t>(width) * height * 4;
  }
  std::uint8_t* pixel(std::uint32_t x, std::uint32_t y) {
    return rgba.data() + (static_cast<std::size_t>(y) * width + x) * 4;
  }
  const std::uint8_t* pixel(std::uint32_t x, std::uint32_t y) const {
    return rgba.data() + (static_cast<std::size_t>(y) * width + x) * 4;
  }
};

// Deterministic synthetic photo-like content: smooth gradients plus seeded
// high-frequency detail (so downscaling actually averages something).
Image generate_synthetic_image(std::uint32_t width, std::uint32_t height,
                               std::uint64_t seed);

// A synthetic source image materialized on first pixel access. Start-up
// experiments construct (and checkpoint) resizer replicas without reading a
// single pixel — only a served request does — so synthesis is deferred to
// the first get(). The image content is a pure function of the constructor
// arguments, so when materialization happens never affects the pixels.
class LazyImage {
 public:
  LazyImage(std::uint32_t width, std::uint32_t height, std::uint64_t seed)
      : width_{width}, height_{height}, seed_{seed} {}

  std::uint32_t width() const { return width_; }
  std::uint32_t height() const { return height_; }

  // Thread-safe: concurrent first calls synthesize exactly once.
  const Image& get() const;

 private:
  std::uint32_t width_;
  std::uint32_t height_;
  std::uint64_t seed_;
  mutable std::once_flag once_;
  mutable std::optional<Image> image_;
};

// Box-filter downscale by an integer-free ratio: each output pixel averages
// the covered source rectangle. Requires 0 < scale <= 1.
Image resize_box(const Image& src, double scale);

// Binary PPM (P6) encoding (alpha dropped) for writing inspectable output.
// A std::string, so a handler moves it into a response body as is.
std::string encode_ppm(const Image& img);
// Decode a P6 PPM produced by encode_ppm (alpha restored as 255).
Image decode_ppm(std::string_view bytes);

}  // namespace prebake::funcs
