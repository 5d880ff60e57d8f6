#include "criu/page_store.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>
#include <utility>

namespace prebake::criu {

namespace {
constexpr std::size_t kMinSlots = 16;
}  // namespace

std::uint64_t PageStore::slot_hash(std::uint64_t digest) {
  // MurmurHash3's 64-bit finalizer: digests like 1, 2, 3 spread over the
  // table instead of filling one run.
  digest ^= digest >> 33;
  digest *= 0xff51afd7ed558ccdULL;
  digest ^= digest >> 33;
  digest *= 0xc4ceb9fe1a85ec53ULL;
  digest ^= digest >> 33;
  return digest;
}

std::size_t PageStore::find(std::uint64_t digest) const {
  if (slots_.empty()) return kNone;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = slot_hash(digest) & mask;; i = (i + 1) & mask) {
    if (slots_[i].tick == 0) return kNone;
    if (slots_[i].digest == digest) return i;
  }
}

void PageStore::reserve(std::size_t records) {
  // At most 7/8 full. At 3/4, a fleet node's ~50k-record store lands just
  // past a doubling and sits in twice the slots, 38% full, which costs more
  // memory per record than a node-based hash map.
  if (records * 8 <= slots_.size() * 7) return;
  std::size_t n = std::max(slots_.size(), kMinSlots);
  while (records * 8 > n * 7) n *= 2;
  const std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(n));
  const std::size_t mask = n - 1;
  for (const Slot& s : old) {
    if (s.tick == 0) continue;
    std::size_t i = slot_hash(s.digest) & mask;
    while (slots_[i].tick != 0) i = (i + 1) & mask;
    slots_[i] = s;
  }
}

PageStore::Slot& PageStore::stamp(std::uint64_t digest) {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = slot_hash(digest) & mask;
  while (slots_[i].tick != 0 && slots_[i].digest != digest)
    i = (i + 1) & mask;
  Slot& s = slots_[i];
  if (s.tick == 0) {
    s.digest = digest;
    ++size_;
  }
  s.tick = tick_;
  return s;
}

void PageStore::erase_slot(std::size_t i) {
  // Backward-shift deletion: pull each later member of the probe run into
  // the hole unless the hole lies before its home slot, so no tombstones.
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t j = (i + 1) & mask; slots_[j].tick != 0;
       j = (j + 1) & mask) {
    const std::size_t home = slot_hash(slots_[j].digest) & mask;
    if (((j - home) & mask) >= ((j - i) & mask)) {
      slots_[i] = slots_[j];
      i = j;
    }
  }
  slots_[i] = Slot{};
  --size_;
}

std::uint64_t PageStore::missing_unique_pages(
    std::span<const std::uint64_t> digests) const {
  std::unordered_set<std::uint64_t> missing;
  for (const std::uint64_t d : digests)
    if (!contains(d)) missing.insert(d);
  return missing.size();
}

std::uint64_t PageStore::insert(std::span<const std::uint64_t> digests) {
  ++tick_;
  reserve(size_ + digests.size());
  const std::uint64_t before = size_;
  for (const std::uint64_t d : digests) stamp(d);
  const std::uint64_t fresh = size_ - before;
  if (fresh != 0) has_unpinned_ = true;
  evict_to_fit();
  return fresh;
}

std::uint64_t PageStore::run_key(Run run) {
  std::uint64_t key = slot_hash(run.size());
  for (const std::size_t i : {std::size_t{0}, run.size() / 2, run.size() - 1})
    key = slot_hash(key ^ run[i]);
  return key;
}

std::uint32_t PageStore::find_extent(Run run) const {
  const auto [first, last] = extent_ids_.equal_range(run_key(run));
  for (auto it = first; it != last; ++it) {
    const std::vector<std::uint64_t>& d = extents_[it->second].digests;
    if (std::equal(d.begin(), d.end(), run.begin(), run.end()))
      return it->second;
  }
  return kNoExtent;
}

std::uint32_t PageStore::pin_extent(Run run) {
  if (const std::uint32_t id = find_extent(run); id != kNoExtent) {
    Extent& e = extents_[id];
    ++e.pins;
    e.tick = tick_;
    return id;
  }
  reserve(size_ + run.size());
  for (const std::uint64_t d : run) ++stamp(d).refcount;
  std::uint32_t id;
  if (free_extents_.empty()) {
    id = static_cast<std::uint32_t>(extents_.size());
    extents_.emplace_back();
  } else {
    id = free_extents_.back();
    free_extents_.pop_back();
  }
  Extent& e = extents_[id];
  e.digests.assign(run.begin(), run.end());
  e.key = run_key(run);
  e.tick = tick_;
  e.pins = 1;
  extent_ids_.emplace(e.key, id);
  return id;
}

void PageStore::unpin_extent(std::uint32_t id) {
  Extent& e = extents_[id];
  if (--e.pins > 0) return;
  // Pages pinned here held their ticks while pinned; each takes the last
  // pin's tick now, as if every pin had stamped it.
  for (const std::uint64_t d : e.digests) {
    Slot& s = slots_[find(d)];
    s.tick = std::max(s.tick, e.tick);
    if (--s.refcount == 0) has_unpinned_ = true;
  }
  const auto [first, last] = extent_ids_.equal_range(e.key);
  for (auto it = first; it != last; ++it)
    if (it->second == id) {
      extent_ids_.erase(it);
      break;
    }
  e = Extent{};
  free_extents_.push_back(id);
}

void PageStore::pin(Run digests) {
  ++tick_;
  if (!digests.empty()) pin_extent(digests);
}

void PageStore::unpin(Run digests) {
  if (!digests.empty()) {
    const std::uint32_t id = find_extent(digests);
    if (id == kNoExtent)
      throw std::logic_error{"PageStore::unpin: refcount underflow"};
    unpin_extent(id);
  }
  evict_to_fit();
}

std::uint32_t PageStore::refcount(std::uint64_t digest) const {
  const std::size_t i = find(digest);
  if (i == kNone || slots_[i].refcount == 0) return 0;
  std::uint32_t n = 0;
  for (const Extent& e : extents_)
    n += e.pins * static_cast<std::uint32_t>(
                      std::count(e.digests.begin(), e.digests.end(), digest));
  return n;
}

void PageStore::set_capacity(std::uint64_t bytes) {
  capacity_ = bytes;
  evict_to_fit();
}

void PageStore::evict_to_fit() {
  const std::uint64_t budget_pages = capacity_ / os::kPageSize;
  if (capacity_ == 0 || size_ <= budget_pages || !has_unpinned_) return;
  // Unpinned pages only, least recently inserted/pinned first. (tick,
  // digest) is a total order, so selecting the k oldest gives the same
  // victims as sorting them all.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> victims;
  for (const Slot& s : slots_)
    if (s.tick != 0 && s.refcount == 0) victims.emplace_back(s.tick, s.digest);
  const auto k = static_cast<std::ptrdiff_t>(
      std::min<std::uint64_t>(size_ - budget_pages, victims.size()));
  std::nth_element(victims.begin(), victims.begin() + k, victims.end());
  for (auto v = victims.begin(); v != victims.begin() + k; ++v)
    erase_slot(find(v->second));
  stats_.evicted_pages += static_cast<std::uint64_t>(k);
  has_unpinned_ = victims.begin() + k != victims.end();
}

const PageStore::TemplateInfo* PageStore::find_template(
    const std::string& key) const {
  const auto it = templates_.find(key);
  return it == templates_.end() ? nullptr : &it->second;
}

void PageStore::register_template(const std::string& key, TemplateInfo info,
                                  std::span<const Run> runs) {
  if (templates_.contains(key))
    throw std::logic_error{"PageStore::register_template: duplicate key " + key};
  // Evicting only after every run is pinned keeps every page this template
  // pins.
  ++tick_;
  info.extents.clear();
  for (const Run run : runs)
    if (!run.empty()) info.extents.push_back(pin_extent(run));
  evict_to_fit();
  ++stats_.templates_materialized;
  if (!info.base_key.empty()) {
    const auto base = templates_.find(info.base_key);
    if (base != templates_.end()) ++base->second.dependents;
  }
  templates_.emplace(key, std::move(info));
}

os::Pid PageStore::drop_template(const std::string& key) {
  const auto it = templates_.find(key);
  if (it == templates_.end()) return os::kNoPid;
  const os::Pid pid = it->second.pid;
  if (!it->second.base_key.empty()) {
    const auto base = templates_.find(it->second.base_key);
    if (base != templates_.end() && base->second.dependents > 0)
      --base->second.dependents;
  }
  const std::vector<std::uint32_t> extents = std::move(it->second.extents);
  templates_.erase(it);
  for (const std::uint32_t id : extents) unpin_extent(id);
  evict_to_fit();
  return pid;
}

std::uint32_t PageStore::template_dependents(const std::string& key) const {
  const auto it = templates_.find(key);
  return it == templates_.end() ? 0 : it->second.dependents;
}

std::vector<os::Pid> PageStore::drop_all_templates() {
  std::vector<os::Pid> pids;
  while (!templates_.empty()) {
    const os::Pid pid = drop_template(templates_.begin()->first);
    if (pid != os::kNoPid) pids.push_back(pid);
  }
  return pids;
}

void PageStore::clear_pages() {
  if (!templates_.empty())
    throw std::logic_error{"PageStore::clear_pages: templates still registered"};
  std::fill(slots_.begin(), slots_.end(), Slot{});
  size_ = 0;
  has_unpinned_ = false;
  extents_.clear();
  free_extents_.clear();
  extent_ids_.clear();
}

}  // namespace prebake::criu
