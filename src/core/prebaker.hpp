// Build-time snapshot generation — the heart of the prebaking technique.
//
// As Section 3.1 argues, the Function Builder is the natural place to
// trigger the snapshot: it runs before the function is callable, so baking
// adds no latency to any invocation, and the same snapshot can seed every
// future replica because they all start from identical state.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/snapshot_policy.hpp"
#include "core/startup.hpp"
#include "criu/dump.hpp"

namespace prebake::core {

struct PrebakeConfig {
  SnapshotPolicy policy = SnapshotPolicy::no_warmup();
  criu::PayloadMode payload_mode = criu::PayloadMode::kDigest;
  // Root of the snapshot repository in the simulated filesystem.
  std::string store_root = "/var/lib/prebake/";
  // Run the dump with only CAP_CHECKPOINT_RESTORE (the unprivileged mode of
  // recent CRIU, [11] in the paper) instead of full CAP_SYS_ADMIN.
  bool unprivileged = false;
  // Layered split (DESIGN.md §6k): diff the baked process against this base
  // snapshot and store only the app delta plus a layers-1.img manifest. The
  // restore side resolves the base through the snapshot store by the
  // linkage recorded in BakedSnapshot. Null = monolithic snapshot.
  const struct BakedSnapshot* split_base = nullptr;
};

struct BakedSnapshot {
  std::string function_name;
  SnapshotPolicy policy;
  criu::ImageDir images;
  criu::StatsEntry stats;
  std::string fs_prefix;      // where the image files live
  sim::Duration build_time;   // full bake: start + warm + dump + persist
  // Layered snapshot linkage (empty base_function = monolithic): the base
  // snapshot this delta layers on, addressable in the snapshot store as
  // (base_function, base_policy), its images at base_fs_prefix.
  std::string base_function;
  SnapshotPolicy base_policy;
  std::string base_fs_prefix;
  // Split dumps: resident pages the base already carried (coverage metric).
  std::uint64_t shared_with_base = 0;
};

class Prebaker {
 public:
  explicit Prebaker(StartupService& startup) : startup_{&startup} {}

  // Start the function the Vanilla way, optionally serve `policy` warm-up
  // requests through the real handler, then checkpoint it into an image
  // directory persisted under `store_root/<name>/<policy>/`.
  BakedSnapshot bake(const rt::FunctionSpec& spec, const PrebakeConfig& config,
                     sim::Rng rng);

 private:
  StartupService* startup_;
};

// Snapshot registry keyed by (function, policy) — the Function Registry's
// snapshot side. Optionally capacity-bounded with LRU eviction: Section 7
// raises "checkpoint/restore as a service" with "even bigger function code
// sizes", where a node cannot hold every snapshot at once; a missing
// snapshot degrades to a Vanilla start (see Platform's restore fallback),
// never to an outage.
class SnapshotStore {
 public:
  void put(BakedSnapshot snapshot);
  // Throws std::out_of_range on miss (and counts it). Hits refresh LRU
  // recency.
  const BakedSnapshot& get(const std::string& function_name,
                           const SnapshotPolicy& policy) const;
  // Mutable access for administrative operations (re-bake, fault injection
  // in tests).
  BakedSnapshot& get_mutable(const std::string& function_name,
                             const SnapshotPolicy& policy);
  bool has(const std::string& function_name, const SnapshotPolicy& policy) const;
  std::size_t size() const { return snapshots_.size(); }

  // Capacity in snapshot bytes (nominal); 0 = unlimited. Shrinking evicts
  // immediately, least-recently-used first.
  void set_capacity(std::uint64_t bytes);
  std::uint64_t capacity() const { return capacity_; }
  std::uint64_t stored_bytes() const;

  struct CacheStats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
  };
  const CacheStats& cache_stats() const { return stats_; }

 private:
  // A snapshot and its recency: the smallest tick is the LRU victim.
  struct Entry {
    BakedSnapshot snapshot;
    mutable std::uint64_t tick = 0;
  };

  void evict_to_fit();
  static std::string key(const std::string& name, const SnapshotPolicy& policy) {
    return name + "/" + policy.tag();
  }

  std::map<std::string, Entry> snapshots_;
  mutable std::uint64_t tick_ = 0;
  std::uint64_t capacity_ = 0;
  mutable CacheStats stats_;
};

}  // namespace prebake::core
