// Micro-benchmarks (google-benchmark) for the paper functions' request
// work: the Image Resizer's box filter over the paper's 3440x1440 source and
// the PPM encoding of its 10% response.
#include <benchmark/benchmark.h>

#include "funcs/image.hpp"

using namespace prebake;

namespace {

// One Image Resizer request's resize: the handler's source (same size and
// seed) scaled to 10%, 344x144.
void BM_ResizeBox(benchmark::State& state) {
  const funcs::Image src =
      funcs::generate_synthetic_image(3440, 1440, 0x1113440);
  for (auto _ : state) benchmark::DoNotOptimize(funcs::resize_box(src, 0.10));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(src.rgba.size()));
}
BENCHMARK(BM_ResizeBox)->Unit(benchmark::kMillisecond);

// One Image Resizer response body: a 344x144 image as binary PPM.
void BM_EncodePpm(benchmark::State& state) {
  const funcs::Image img = funcs::generate_synthetic_image(344, 144, 1);
  for (auto _ : state) benchmark::DoNotOptimize(funcs::encode_ppm(img));
}
BENCHMARK(BM_EncodePpm)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
