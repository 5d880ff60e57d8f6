#include "faas/cluster.hpp"

#include <algorithm>
#include <stdexcept>

namespace prebake::faas {

const char* node_state_name(NodeState state) {
  switch (state) {
    case NodeState::kReady: return "ready";
    case NodeState::kDraining: return "draining";
    case NodeState::kFailed: return "failed";
  }
  throw std::invalid_argument{"node_state_name: bad state"};
}

const char* placement_policy_name(PlacementPolicy policy) {
  switch (policy) {
    case PlacementPolicy::kWorstFit: return "worst-fit";
    case PlacementPolicy::kRoundRobin: return "round-robin";
    case PlacementPolicy::kSnapshotLocality: return "locality";
  }
  throw std::invalid_argument{"placement_policy_name: bad policy"};
}

WorkerNode::WorkerNode(NodeId id, std::string name, std::uint64_t mem_capacity,
                       std::uint32_t cpus)
    : id_{id},
      name_{std::move(name)},
      mem_capacity_{mem_capacity},
      cpus_{cpus} {
  core_free_.resize(cpus_, sim::TimePoint::origin());
}

void WorkerNode::reserve(std::uint64_t mem_bytes) {
  if (mem_bytes > mem_free())
    throw std::logic_error{"WorkerNode::reserve: over capacity on " + name_};
  mem_used_ += mem_bytes;
  ++replicas_;
  ++stats_.replicas_placed;
}

void WorkerNode::release(std::uint64_t mem_bytes) {
  if (mem_used_ < mem_bytes || replicas_ == 0)
    throw std::logic_error{"WorkerNode::release: accounting underflow"};
  mem_used_ -= mem_bytes;
  --replicas_;
}

sim::TimePoint WorkerNode::run(sim::TimePoint now, sim::Duration work) {
  stats_.busy += work;
  if (core_free_.empty()) return now + work;  // uncapped node
  auto it = std::min_element(core_free_.begin(), core_free_.end());
  const sim::TimePoint start = std::max(now, *it);
  const sim::TimePoint done = start + work;
  *it = done;
  return done;
}

sim::TimePoint WorkerNode::next_core_free(sim::TimePoint now) const {
  if (core_free_.empty()) return now;
  return std::max(now, *std::min_element(core_free_.begin(), core_free_.end()));
}

WorkerNode* Scheduler::pick_worst_fit(std::vector<WorkerNode>& nodes,
                                      const PlacementRequest& request) {
  WorkerNode* best = nullptr;
  for (WorkerNode& n : nodes) {
    if (!n.schedulable() || n.id() == request.exclude ||
        n.mem_free() < request.mem_bytes)
      continue;
    if (best == nullptr || n.mem_free() > best->mem_free()) best = &n;
  }
  return best;
}

WorkerNode* Scheduler::pick(std::vector<WorkerNode>& nodes,
                            const PlacementRequest& request) {
  if (nodes.empty()) return nullptr;
  switch (policy_) {
    case PlacementPolicy::kWorstFit:
      return pick_worst_fit(nodes, request);

    case PlacementPolicy::kRoundRobin: {
      // Rotate a cursor over the node list; skip nodes that cannot host.
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        WorkerNode& n = nodes[(rr_cursor_ + i) % nodes.size()];
        if (!n.schedulable() || n.id() == request.exclude ||
            n.mem_free() < request.mem_bytes)
          continue;
        rr_cursor_ = (rr_cursor_ + i + 1) % nodes.size();
        return &n;
      }
      return nullptr;
    }

    case PlacementPolicy::kSnapshotLocality: {
      // Score every candidate by the unique pages its store is missing (what
      // the delta fetch would actually transfer); least missing wins, most
      // free memory breaks ties. A node missing the whole image scores like
      // any other cold node, so this subsumes worst-fit. The request's
      // digests are deduplicated once, not once per node.
      if (request.snapshot_digests.empty())
        return pick_worst_fit(nodes, request);
      std::vector<std::uint64_t> unique(request.snapshot_digests.begin(),
                                        request.snapshot_digests.end());
      std::sort(unique.begin(), unique.end());
      unique.erase(std::unique(unique.begin(), unique.end()), unique.end());
      WorkerNode* best = nullptr;
      std::size_t best_missing = 0;
      for (WorkerNode& n : nodes) {
        if (!n.schedulable() || n.id() == request.exclude ||
            n.mem_free() < request.mem_bytes)
          continue;
        const criu::PageStore& store = n.store();
        const std::size_t missing = static_cast<std::size_t>(std::count_if(
            unique.begin(), unique.end(),
            [&store](std::uint64_t d) { return !store.contains(d); }));
        if (best == nullptr || missing < best_missing ||
            (missing == best_missing && n.mem_free() > best->mem_free())) {
          best = &n;
          best_missing = missing;
        }
      }
      return best;
    }
  }
  return nullptr;
}

}  // namespace prebake::faas
