#include "core/prebaker.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace prebake::core {

BakedSnapshot Prebaker::bake(const rt::FunctionSpec& spec,
                             const PrebakeConfig& config, sim::Rng rng) {
  os::Kernel& k = startup_->kernel();
  const sim::TimePoint t0 = k.sim().now();

  // 1. Start the function exactly as the Vanilla path would.
  ReplicaProcess rep = startup_->start_vanilla(spec, rng.child(1));

  // 2. Warm it up: send real requests so the runtime loads and JIT-compiles
  // the request path (PB-Warmup).
  const funcs::Request warm_req = funcs::sample_request(spec.handler_id);
  for (std::uint32_t i = 0; i < config.policy.warmup_requests; ++i) {
    const funcs::Response res = rep.runtime->handle(warm_req);
    if (!res.ok())
      throw std::runtime_error{"prebake: warm-up request failed for " +
                               spec.name};
  }

  // 3. Checkpoint. The dump kills the baked process (its purpose is served);
  // the images persist under the store root.
  BakedSnapshot out;
  out.function_name = spec.name;
  out.policy = config.policy;
  out.fs_prefix = config.store_root + spec.name + "/" + config.policy.tag() + "/";

  criu::DumpOptions dump_opts;
  dump_opts.leave_running = false;
  dump_opts.payload_mode = config.payload_mode;
  dump_opts.fs_prefix = out.fs_prefix;
  dump_opts.warmup_requests = config.policy.warmup_requests;
  dump_opts.criu_caps = config.unprivileged
                            ? os::Cap::kCheckpointRestore
                            : os::Cap::kSysAdmin | os::Cap::kSysPtrace;
  if (config.split_base != nullptr) {
    dump_opts.split_base = &config.split_base->images;
    dump_opts.split_base_id = config.split_base->function_name + "/" +
                              config.split_base->policy.tag();
    out.base_function = config.split_base->function_name;
    out.base_policy = config.split_base->policy;
    out.base_fs_prefix = config.split_base->fs_prefix;
  }

  criu::Dumper dumper{k};
  criu::DumpResult dumped = dumper.dump(rep.pid, dump_opts);
  rep.runtime.reset();
  rep.pid = os::kNoPid;

  out.images = std::move(dumped.images);
  out.stats = dumped.stats;
  out.shared_with_base = dumped.shared_with_base;
  out.build_time = k.sim().now() - t0;
  return out;
}

void SnapshotStore::put(BakedSnapshot snapshot) {
  Entry& e = snapshots_[key(snapshot.function_name, snapshot.policy)];
  e.snapshot = std::move(snapshot);
  e.tick = ++tick_;
  evict_to_fit();
}

const BakedSnapshot& SnapshotStore::get(const std::string& function_name,
                                        const SnapshotPolicy& policy) const {
  const std::string k = key(function_name, policy);
  const auto it = snapshots_.find(k);
  if (it == snapshots_.end()) {
    ++stats_.misses;
    throw std::out_of_range{"SnapshotStore: no snapshot for " + k};
  }
  ++stats_.hits;
  it->second.tick = ++tick_;
  return it->second.snapshot;
}

std::uint64_t SnapshotStore::stored_bytes() const {
  std::uint64_t total = 0;
  for (const auto& [k, e] : snapshots_)
    total += e.snapshot.images.nominal_total();
  return total;
}

void SnapshotStore::set_capacity(std::uint64_t bytes) {
  capacity_ = bytes;
  evict_to_fit();
}

void SnapshotStore::evict_to_fit() {
  if (capacity_ == 0) return;
  while (stored_bytes() > capacity_ && snapshots_.size() > 1) {
    snapshots_.erase(std::min_element(
        snapshots_.begin(), snapshots_.end(), [](const auto& a, const auto& b) {
          return a.second.tick < b.second.tick;
        }));
    ++stats_.evictions;
  }
}

BakedSnapshot& SnapshotStore::get_mutable(const std::string& function_name,
                                          const SnapshotPolicy& policy) {
  return const_cast<BakedSnapshot&>(
      std::as_const(*this).get(function_name, policy));
}

bool SnapshotStore::has(const std::string& function_name,
                        const SnapshotPolicy& policy) const {
  return snapshots_.contains(key(function_name, policy));
}

}  // namespace prebake::core
