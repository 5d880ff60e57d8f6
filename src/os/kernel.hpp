// The simulated kernel: the syscall surface used by the runtime model, the
// FaaS platform, and the CRIU-model checkpoint/restore engine.
//
// Every operation charges calibrated time to the owning Simulation clock, so
// "how long did this process take to become ready" falls out of replaying the
// same sequence of kernel operations a real start-up performs.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "obs/tracer.hpp"
#include "os/cost_model.hpp"
#include "os/faults.hpp"
#include "os/filesystem.hpp"
#include "os/process.hpp"
#include "sim/simulation.hpp"

namespace prebake::os {

struct CloneOptions {
  bool set_child_pid = false;  // CLONE with a chosen pid (CRIU restore path);
  Pid child_pid = kNoPid;      // requires CAP_CHECKPOINT_RESTORE or root.
  bool new_pid_ns = false;
  bool new_mnt_ns = false;
  bool new_net_ns = false;
  // Track COW sharing explicitly (template-clone restore, DESIGN.md §6f):
  // the child's resident pages are marked shared with the parent and each
  // first write is charged as a page copy. Off = the legacy fork semantics
  // (shared sources, free writes) used by zygotes and the CRIU restorer.
  bool cow_tracked = false;
  // Capabilities of the calling context (used when `parent` is kNoPid or the
  // privilege does not come from the parent process, e.g. the CRIU restorer).
  Cap caller_caps = Cap::kNone;
};

// One entry of the /proc/$pid/pagemap walk: a run of resident pages.
struct PagemapRange {
  VmaId vma = 0;
  std::uint64_t first_page = 0;
  std::uint64_t pages = 0;
  bool dirty = false;
};

// Read-only counters of Kernel::page_digests and its digest memo.
struct DigestMemoStats {
  std::uint64_t keys = 0;        // PatternSource (seed, version) keys asked
  std::uint64_t kept_pages = 0;  // digest slots the memo holds, 8 B each
  std::uint64_t computed = 0;    // pages hashed
  std::uint64_t hits = 0;        // pages read back from the memo
};

class Kernel {
 public:
  Kernel(sim::Simulation& sim, CostModel costs = {})
      : sim_{&sim}, costs_{std::move(costs)}, fs_{sim, costs_, &injector_},
        tracer_{sim} {}
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  sim::Simulation& sim() { return *sim_; }
  const CostModel& costs() const { return costs_; }
  FileSystem& fs() { return fs_; }
  // The kernel-wide fault injector (disabled and zero-cost by default); the
  // chaos scenarios configure it with a FaultPlan before running traffic.
  faults::Injector& faults() { return injector_; }
  const faults::Injector& faults() const { return injector_; }
  // The kernel-wide tracer (disabled and zero-cost by default); scenario
  // runners enable it per-testbed to capture a structured timeline.
  obs::Tracer& trace() { return tracer_; }
  const obs::Tracer& trace() const { return tracer_; }

  // --- process lifecycle -------------------------------------------------
  // clone(2): duplicates `parent` (COW address space). Returns the child pid.
  Pid clone_process(Pid parent, const CloneOptions& opts = {});
  // execve(2): replaces the image of `pid` with `binary_path` (must exist in
  // the fs; its size drives the mapping cost). Clears the address space and
  // maps the binary text/data plus a small initial heap/stack.
  void exec(Pid pid, const std::string& binary_path,
            std::vector<std::string> argv);
  void exit_process(Pid pid, int code);
  // waitpid(2)-style reap; returns the exit code.
  int reap(Pid pid);
  void kill_process(Pid pid);  // SIGKILL: straight to zombie

  Process& process(Pid pid);
  const Process& process(Pid pid) const;
  bool alive(Pid pid) const;
  std::vector<Pid> pids() const;
  std::size_t process_count() const { return procs_.size(); }

  // --- memory ------------------------------------------------------------
  // mmap into a process; returns the VMA id. Faulting is charged per page.
  VmaId mmap(Pid pid, std::uint64_t length, Prot prot, VmaKind kind,
             std::string name, std::shared_ptr<PageSource> source,
             bool populate = false, std::string backing_path = {});
  // Touch pages (minor faults charged for newly resident pages).
  void fault_in(Pid pid, VmaId id, std::uint64_t first_page,
                std::uint64_t pages, bool write = false);
  void fault_in_all(Pid pid, VmaId id, bool write = false);
  // Bulk replay APIs (DESIGN.md §6g), used by the CRIU restorer's per-run
  // pagemap replay. populate_run copies a whole run's payload bytes into the
  // VMA in one memcpy and faults `touch_pages` pages in, charging exactly
  // what the equivalent fault_in would — one aggregated advance.
  void populate_run(Pid pid, VmaId id, std::uint64_t first_page,
                    std::uint64_t touch_pages,
                    std::span<const std::uint8_t> payload);
  // Verify a run of pages against expected digests: returns how many leading
  // pages match (expected.size() = the whole run verifies). Charges one page
  // read per matching page in a single advance — the total is identical to
  // the per-page verification loop this replaces.
  std::uint64_t verify_run(Pid pid, VmaId id, std::uint64_t first_page,
                           std::span<const std::uint64_t> expected);

  // Content digests (PageSource::page_digest) of pages [first_page,
  // first_page + count) of VMA `id`; charges nothing. PatternSource content
  // is a pure function of (seed, version, page), so its digests go through
  // a memo keyed by (seed, version) that lives as long as the kernel. A key
  // is kept only once a second pid asks for it: the first asker (a
  // pid-seeded stack, one function's own metaspace) computes without
  // storing, and every function that boots the same runtime then reads the
  // shared runtime pages back. BufferSource bytes are mutable and are
  // hashed on every call. The span is valid until the next call.
  std::span<const std::uint64_t> page_digests(Pid pid, VmaId id,
                                              std::uint64_t first_page,
                                              std::uint64_t count);
  const DigestMemoStats& digest_memo_stats() const { return memo_stats_; }

  // --- fault recording (REAP-style working-set capture, DESIGN.md §6j) ----
  // Arm per-page fault capture for `pid`: every page of `pid` made resident
  // through fault_in / fault_in_all / populate_run is marked in a per-VMA
  // bitmap until stop_fault_recording. Recording is pure bookkeeping — it
  // charges no simulated time, so an instrumented restore costs exactly what
  // an uninstrumented one does. Re-arming an already recording pid resets
  // its capture.
  void start_fault_recording(Pid pid);
  // Disarm and return the captured bitmaps, keyed by VMA id and sized to
  // each VMA. Returns an empty map when `pid` was not recording.
  std::map<VmaId, PageBitmap> stop_fault_recording(Pid pid);
  bool fault_recording(Pid pid) const {
    return recordings_.find(pid) != recordings_.end();
  }

  // --- freezer + ptrace (CRIU building blocks) ----------------------------
  // Stop all threads (cgroup freezer / PTRACE_INTERRUPT equivalent). Charged
  // per thread. Requires tracer_caps to include SysPtrace unless self.
  void freeze(Pid pid, Cap tracer_caps);
  void thaw(Pid pid);
  void ptrace_seize(Pid pid, Cap tracer_caps);
  // Map the parasite blob into the target and start it (the target must be
  // frozen). Models CRIU's compel infection step.
  void inject_parasite(Pid pid, std::uint64_t blob_bytes);
  void cure_parasite(Pid pid);

  // Walk /proc/$pid/pagemap: returns runs of resident pages. Charged per
  // resident page examined.
  std::vector<PagemapRange> pagemap(Pid pid);
  // Reset soft-dirty bits (pre-dump support).
  void clear_soft_dirty(Pid pid);

  // --- pipes (parasite page channel) --------------------------------------
  std::uint64_t create_pipe();
  // Transfer `pages` whole pages through a pipe at pipe bandwidth: one
  // advance of pipe_cost(kPageSize) * pages, exactly the total of that many
  // single-page writes.
  void pipe_transfer_pages(std::uint64_t pipe_id, std::uint64_t pages);

 private:
  Process& require_mut(Pid pid);
  void charge_faults(const AddressSpace::TouchResult& touched);
  void maybe_record(const Process& p, Pid pid, VmaId id,
                    std::uint64_t first_page, std::uint64_t pages);

  sim::Simulation* sim_;
  CostModel costs_;
  faults::Injector injector_;  // must precede fs_, which captures a pointer
  FileSystem fs_;
  obs::Tracer tracer_;
  std::map<Pid, std::unique_ptr<Process>> procs_;
  // Armed working-set captures; empty in every configuration that does not
  // record, so the hot-path guard is one branch on an empty map.
  std::map<Pid, std::map<VmaId, PageBitmap>> recordings_;
  // page_digests' memo. `known` marks the pages whose digest is held.
  struct DigestMemo {
    Pid first_asker = kNoPid;
    bool kept = false;  // a second pid has asked: digests are stored
    PageBitmap known;
    std::vector<std::uint64_t> digests;
  };
  std::map<std::pair<std::uint64_t, std::uint64_t>, DigestMemo> memo_;
  DigestMemoStats memo_stats_;
  std::vector<std::uint64_t> digest_scratch_;  // unkept digests' storage
  Pid next_pid_ = 100;
  std::uint64_t next_pipe_ = 1;
};

}  // namespace prebake::os
