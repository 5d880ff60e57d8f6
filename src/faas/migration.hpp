// Live replica migration via pre-dump chains (DESIGN.md §6i).
//
// Moves a running replica between worker nodes without discarding its
// warmth: iterative pre-dump rounds checkpoint only the pages dirtied since
// the previous round (CRIU's --prev-images-dir layout, criu/dump.hpp) while
// the source keeps serving, each link ships to the destination as it is
// taken, and once the dirty delta converges a final freeze+dump closes the
// chain. Downtime is the final delta's transfer plus the chain restore —
// not the full footprint.
//
// The Migrator is the mechanism layer: one pre-dump round, one link
// shipment, one chain restore, each a pure simulated-cost operation plus the
// fault draws that make migration survivable under chaos. Orchestration —
// who migrates where, convergence, cutover, retry-elsewhere, abort-to-local
// — lives in faas::Platform, which owns the replica lifecycle.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>

#include "criu/dump.hpp"
#include "criu/page_store.hpp"
#include "criu/restore.hpp"
#include "os/kernel.hpp"

namespace prebake::faas {

// Why a migration could not complete. Partitioned by *where* the failure
// bit: the recovery action differs per kind (abort-to-local, retry
// elsewhere, fall back to a full dump), so callers switch on it the same
// way the restore path switches on criu::RestoreErrorKind.
enum class MigrationErrorKind : std::uint8_t {
  kSourceLost,        // source node / process died mid-pre-dump
  kDestinationLost,   // destination crashed before the replica resumed
  kCorruptChainLink,  // a shipped link failed its CRC at the destination
  kNoCapacity,        // no schedulable node can hold the replica
  kAborted,           // superseded (source reclaimed / drained under us)
};

constexpr const char* migration_error_name(MigrationErrorKind kind) {
  switch (kind) {
    case MigrationErrorKind::kSourceLost: return "source-lost";
    case MigrationErrorKind::kDestinationLost: return "destination-lost";
    case MigrationErrorKind::kCorruptChainLink: return "corrupt-chain-link";
    case MigrationErrorKind::kNoCapacity: return "no-capacity";
    case MigrationErrorKind::kAborted: return "aborted";
  }
  return "unknown";
}

class MigrationError : public std::runtime_error {
 public:
  MigrationError(MigrationErrorKind kind, const std::string& what)
      : std::runtime_error{what}, kind_{kind} {}
  MigrationError(MigrationErrorKind kind, const std::string& what,
                 int chain_link)
      : std::runtime_error{what}, kind_{kind}, chain_link_{chain_link} {}

  MigrationErrorKind kind() const { return kind_; }
  // Chain link the failure is attributable to (0 = newest), -1 otherwise;
  // mirrors criu::RestoreError::chain_link().
  int chain_link() const { return chain_link_; }

 private:
  MigrationErrorKind kind_;
  int chain_link_ = -1;
};

struct MigrationConfig {
  // Pre-dump rounds before the final freeze is forced. 1 = a single full
  // pre-copy then cutover (no incremental round); 0 disables pre-copy
  // entirely (pure stop-and-copy, the comparison baseline).
  int max_rounds = 3;
  // Converged when a round dumps at most this many pages: the remaining
  // delta is small enough that the final freeze transfer is cheap.
  std::uint64_t convergence_pages = 64;
};

class Migrator {
 public:
  Migrator(os::Kernel& kernel, MigrationConfig config)
      : kernel_{&kernel}, config_{config} {}

  const MigrationConfig& config() const { return config_; }

  struct PreDump {
    std::unique_ptr<criu::ImageDir> link;  // stable address: chains hold ptrs
    std::uint64_t dumped_pages = 0;        // this round's dirty delta
  };

  // One pre-dump round: checkpoint the pages dirtied since the chain was
  // last extended (empty chain = full base link), leave the target running,
  // reset soft-dirty so the next round is incremental. The chain passes
  // oldest link first (nested --prev-images-dir coverage). Draws
  // kMigrationDumpFault first — a fault here models the source dying
  // mid-round and throws kSourceLost.
  PreDump pre_dump(os::Pid pid, std::span<const criu::ImageDir* const> chain);

  // Final freeze+dump closing the chain. Leaves the target alive (frozen
  // semantics are handled by the caller's cutover window); the caller kills
  // the source only after the destination resumed, so a destination failure
  // can still abort back to a live local replica.
  criu::DumpResult final_dump(os::Pid pid,
                              std::span<const criu::ImageDir* const> chain,
                              std::uint32_t warmup_requests);

  struct Shipped {
    std::uint64_t bytes = 0;  // what actually crossed the wire
    bool corrupt = false;     // link failed its CRC on arrival
  };

  // Transfer one chain link to the destination node: metadata ships whole;
  // the page payload delta-negotiates against `dest_store` (when configured)
  // so pages the destination already holds never cross the wire. Draws
  // kMigrationLinkCorrupt after the transfer — a corrupt arrival is detected
  // by the link CRC and reported, not thrown; the caller decides whether to
  // fall back to a full dump.
  Shipped ship_link(const criu::ImageDir& link, criu::PageStore* dest_store);

  // Cost of replaying one shipped link's pages onto the staged standby at
  // the destination (pagemap walk + page-cache read + memcpy) — no fork,
  // no runtime attach: the standby already exists.
  sim::Duration apply_cost(const criu::ImageDir& link) const;
  // Cost of resuming the staged standby at cutover (thaw + parasite cure).
  sim::Duration resume_cost() const;

  // Restore the shipped chain at the destination. Links arrived over the
  // wire into destination memory, so reads are charged at page-cache cost
  // (fs_prefix = ""), not registry bandwidth — this is what makes live
  // migration's downtime beat a cold re-restore from the remote registry.
  criu::RestoreResult restore_at(std::span<const criu::ImageDir* const> chain,
                                 os::Cap criu_caps);

 private:
  os::Kernel* kernel_;
  MigrationConfig config_;
};

}  // namespace prebake::faas
