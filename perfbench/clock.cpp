#include <algorithm>
#include <unordered_map>

#include "bench.hpp"

namespace perfbench {

namespace {

// A slice is scaled by the median of the kWindow reference runs before it
// and the kWindow after it.
constexpr std::ptrdiff_t kWindow = 6;

// The reference task: insert 8192 seeded keys into a std::unordered_map and
// look up 16384, half of them absent; about 1 ms. Like the platform's own
// bookkeeping it allocates, hashes and chases pointers, and it runs straight
// after a slice of the program, with whatever the slice left in the caches,
// so it slows with the host's cores and memory alike. Of the tasks tried
// (sort, open addressing, pointer chasing over 4 and 32 MiB, this map run
// cold or warm), it left the least spread in the scaled rates across seeds.
std::int64_t time_reference() {
  static const std::vector<std::uint32_t> keys = [] {
    std::vector<std::uint32_t> v(16384);
    for (std::size_t i = 0; i < v.size(); ++i)
      v[i] = static_cast<std::uint32_t>(sim::splitmix64(i, 0xC10C));
    return v;
  }();
  static volatile std::uint64_t sink = 0;

  const std::int64_t t0 = now_ns();
  std::unordered_map<std::uint32_t, std::uint32_t> map;
  for (std::size_t i = 0; i < keys.size() / 2; ++i)
    map[keys[i]] = static_cast<std::uint32_t>(i);
  std::uint64_t found = 0;
  for (const std::uint32_t key : keys) {
    const auto it = map.find(key);
    if (it != map.end()) found += it->second;
  }
  sink = sink + found;
  return now_ns() - t0;
}

std::int64_t median_ns(std::vector<std::int64_t> v) {
  const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
  std::nth_element(v.begin(), mid, v.end());
  return *mid;
}

}  // namespace

void HostClock::start(std::uint64_t progress) {
  next_ = progress + slice_;
  reference_ns_.push_back(time_reference());
  slice_start_ns_ = now_ns();
}

void HostClock::lap(std::uint64_t progress) {
  slice_ns_.push_back(now_ns() - slice_start_ns_);
  start(progress);
}

void HostClock::stop() {
  slice_ns_.push_back(now_ns() - slice_start_ns_);
  reference_ns_.push_back(time_reference());
}

double HostClock::wall_s() const {
  std::int64_t ns = 0;
  for (const std::int64_t s : slice_ns_) ns += s;
  return static_cast<double>(ns) / 1e9;
}

double HostClock::reference_s() const {
  // Slice i runs between reference runs i and i + 1.
  const auto n = static_cast<std::ptrdiff_t>(reference_ns_.size());
  double ns = 0.0;
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(slice_ns_.size());
       ++i) {
    const std::vector<std::int64_t> around(
        reference_ns_.begin() + std::max<std::ptrdiff_t>(0, i + 1 - kWindow),
        reference_ns_.begin() + std::min(n, i + 1 + kWindow));
    ns += static_cast<double>(slice_ns_[static_cast<std::size_t>(i)]) *
          kReferenceNs / static_cast<double>(median_ns(around));
  }
  return ns / 1e9;
}

double HostClock::speed() const {
  return kReferenceNs / static_cast<double>(median_ns(reference_ns_));
}

}  // namespace perfbench
