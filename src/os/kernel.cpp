#include "os/kernel.hpp"

#include <algorithm>
#include <stdexcept>

namespace prebake::os {

Process& Kernel::require_mut(Pid pid) {
  const auto it = procs_.find(pid);
  if (it == procs_.end())
    throw std::invalid_argument{"Kernel: no such process " + std::to_string(pid)};
  return *it->second;
}

Process& Kernel::process(Pid pid) { return require_mut(pid); }

const Process& Kernel::process(Pid pid) const {
  const auto it = procs_.find(pid);
  if (it == procs_.end())
    throw std::invalid_argument{"Kernel: no such process " + std::to_string(pid)};
  return *it->second;
}

bool Kernel::alive(Pid pid) const {
  const auto it = procs_.find(pid);
  if (it == procs_.end()) return false;
  const ProcState s = it->second->state();
  return s != ProcState::kZombie && s != ProcState::kDead;
}

std::vector<Pid> Kernel::pids() const {
  std::vector<Pid> out;
  out.reserve(procs_.size());
  for (const auto& [pid, p] : procs_) out.push_back(pid);
  return out;
}

Pid Kernel::clone_process(Pid parent, const CloneOptions& opts) {
  sim_->advance(costs_.clone_call);

  Pid child_pid;
  if (opts.set_child_pid) {
    // clone_with_pid: writing /proc/sys/kernel/ns_last_pid or clone3 with
    // set_tid requires CAP_CHECKPOINT_RESTORE (or CAP_SYS_ADMIN) [11].
    const Process* par = parent == kNoPid ? nullptr : &process(parent);
    bool privileged = has_cap(opts.caller_caps, Cap::kCheckpointRestore) ||
                      has_cap(opts.caller_caps, Cap::kSysAdmin);
    if (par != nullptr)
      privileged = privileged || par->has(Cap::kCheckpointRestore) ||
                   par->has(Cap::kSysAdmin);
    if (!privileged)
      throw std::runtime_error{
          "clone: choosing a child pid requires CAP_CHECKPOINT_RESTORE"};
    if (opts.child_pid <= 0)
      throw std::invalid_argument{"clone: invalid requested pid"};
    if (procs_.contains(opts.child_pid))
      throw std::runtime_error{"clone: requested pid already in use"};
    child_pid = opts.child_pid;
  } else {
    while (procs_.contains(next_pid_)) ++next_pid_;
    child_pid = next_pid_++;
  }

  std::string name = "child";
  auto child = std::make_unique<Process>(child_pid, parent, name);
  if (parent != kNoPid) {
    Process& par = require_mut(parent);
    child->set_name(par.name() + "-child");
    child->replace_mm(opts.cow_tracked ? par.mm().clone_cow()
                                       : par.mm().clone_for_fork());
    child->ns() = par.ns();
    // File descriptors are inherited across fork.
    for (const auto& [fd, desc] : par.fds()) child->fds()[fd] = desc;
  }
  if (opts.new_pid_ns) child->ns().pid_ns = static_cast<std::uint64_t>(child_pid);
  if (opts.new_mnt_ns) child->ns().mnt_ns = static_cast<std::uint64_t>(child_pid);
  if (opts.new_net_ns) child->ns().net_ns = static_cast<std::uint64_t>(child_pid);
  child->set_state(ProcState::kRunning);
  child->set_start_time(sim_->now());
  procs_[child_pid] = std::move(child);
  return child_pid;
}

void Kernel::exec(Pid pid, const std::string& binary_path,
                  std::vector<std::string> argv) {
  Process& p = require_mut(pid);
  if (p.state() != ProcState::kRunning)
    throw std::logic_error{"exec: process not running"};
  const std::uint64_t bin_size = fs_.size_of(binary_path);  // throws if missing

  sim_->advance(costs_.exec_base);
  sim_->advance(costs_.exec_per_mib *
                (static_cast<double>(bin_size) / (1024.0 * 1024.0)));
  // Reading the binary's first pages from storage.
  fs_.charge_read(binary_path, std::min<std::uint64_t>(bin_size, 2 * 1024 * 1024));

  p.mm().clear();
  p.set_name(binary_path.substr(binary_path.find_last_of('/') + 1));
  p.set_argv(std::move(argv));
  // Text + rodata mapped file-backed; initial heap and stack anonymous.
  const auto text = p.mm().map(bin_size, Prot::kReadExec, VmaKind::kFileBacked,
                               p.name() + ".text",
                               std::make_shared<PatternSource>(bin_size ^ 0x7e57),
                               /*populate=*/false, binary_path);
  p.mm().touch(text, 0, 64);  // demand-page the entry pages
  p.mm().map(512 * 1024, Prot::kReadWrite, VmaKind::kAnon, "[stack]",
             std::make_shared<PatternSource>(0x57ac + pid), true);
  p.mm().map(1024 * 1024, Prot::kReadWrite, VmaKind::kAnon, "[heap]",
             std::make_shared<PatternSource>(0x4ea9 + pid), false);
}

void Kernel::exit_process(Pid pid, int code) {
  Process& p = require_mut(pid);
  sim_->advance(costs_.exit_call);
  p.set_exit_code(code);
  p.set_state(ProcState::kZombie);
  p.mm().clear();
}

int Kernel::reap(Pid pid) {
  Process& p = require_mut(pid);
  if (p.state() != ProcState::kZombie)
    throw std::logic_error{"reap: process is not a zombie"};
  const int code = p.exit_code();
  procs_.erase(pid);
  recordings_.erase(pid);
  return code;
}

void Kernel::kill_process(Pid pid) {
  Process& p = require_mut(pid);
  if (p.state() == ProcState::kZombie || p.state() == ProcState::kDead) return;
  p.set_exit_code(137);
  p.set_state(ProcState::kZombie);
  p.mm().clear();
}

VmaId Kernel::mmap(Pid pid, std::uint64_t length, Prot prot, VmaKind kind,
                   std::string name, std::shared_ptr<PageSource> source,
                   bool populate, std::string backing_path) {
  Process& p = require_mut(pid);
  const VmaId id = p.mm().map(length, prot, kind, std::move(name),
                              std::move(source), populate, std::move(backing_path));
  if (populate) {
    const std::uint64_t pages = (length + kPageSize - 1) / kPageSize;
    sim_->advance(costs_.minor_fault * static_cast<double>(pages));
  }
  return id;
}

void Kernel::munmap(Pid pid, VmaId id) { require_mut(pid).mm().unmap(id); }

void Kernel::fault_in(Pid pid, VmaId id, std::uint64_t first_page,
                      std::uint64_t pages, bool write) {
  Process& p = require_mut(pid);
  charge_faults(p.mm().touch(id, first_page, pages, write));
  maybe_record(p, pid, id, first_page, pages);
}

void Kernel::fault_in_all(Pid pid, VmaId id, bool write) {
  Process& p = require_mut(pid);
  charge_faults(p.mm().touch_all(id, write));
  if (const Vma* vma = p.mm().find(id))
    maybe_record(p, pid, id, 0, vma->page_count());
}

void Kernel::populate_run(Pid pid, VmaId id, std::uint64_t first_page,
                          std::uint64_t touch_pages,
                          std::span<const std::uint8_t> payload) {
  Process& p = require_mut(pid);
  charge_faults(p.mm().populate_run(id, first_page, touch_pages, payload));
  // Only the touched prefix becomes resident; the rest of the payload is
  // buffer content behind non-present pages and is not part of the WS.
  maybe_record(p, pid, id, first_page, touch_pages);
}

void Kernel::start_fault_recording(Pid pid) {
  require_mut(pid);  // validates the pid
  recordings_[pid].clear();
}

std::map<VmaId, PageBitmap> Kernel::stop_fault_recording(Pid pid) {
  auto it = recordings_.find(pid);
  if (it == recordings_.end()) return {};
  std::map<VmaId, PageBitmap> out = std::move(it->second);
  recordings_.erase(it);
  return out;
}

void Kernel::maybe_record(const Process& p, Pid pid, VmaId id,
                          std::uint64_t first_page, std::uint64_t pages) {
  if (recordings_.empty()) return;
  auto it = recordings_.find(pid);
  if (it == recordings_.end()) return;
  const Vma* vma = p.mm().find(id);
  if (vma == nullptr) return;
  PageBitmap& bm = it->second[id];
  if (bm.size() != vma->page_count()) bm.assign(vma->page_count(), false);
  bm.set_range(first_page, pages);
}

std::uint64_t Kernel::verify_run(Pid pid, VmaId id, std::uint64_t first_page,
                                 std::span<const std::uint64_t> expected) {
  const std::span<const std::uint64_t> have =
      page_digests(pid, id, first_page, expected.size());
  const std::uint64_t matched = static_cast<std::uint64_t>(
      std::mismatch(expected.begin(), expected.end(), have.begin()).first -
      expected.begin());
  // Each verified page is read once. memcpy_cost is linear with no base
  // term, so cost(page) * N aggregated here equals N per-page advances.
  if (matched > 0)
    sim_->advance(costs_.memcpy_cost(kPageSize) * static_cast<double>(matched));
  return matched;
}

std::span<const std::uint64_t> Kernel::page_digests(Pid pid, VmaId id,
                                                    std::uint64_t first_page,
                                                    std::uint64_t count) {
  const Vma* vma = require_mut(pid).mm().find(id);
  if (vma == nullptr)
    throw std::invalid_argument{"Kernel::page_digests: unknown vma"};
  const PageSource& source = *vma->source;
  const auto* pattern = dynamic_cast<const PatternSource*>(&source);
  // Pages past the VMA (only a hostile image asks for them) are never kept,
  // so the memo stays bounded by what processes map.
  const bool in_vma = first_page <= vma->page_count() &&
                      count <= vma->page_count() - first_page;
  DigestMemo* memo = nullptr;
  if (pattern != nullptr && in_vma) {
    const auto [it, fresh] =
        memo_.try_emplace({pattern->seed(), pattern->version()});
    memo = &it->second;
    if (fresh) {
      ++memo_stats_.keys;
      memo->first_asker = pid;
    } else if (memo->first_asker != pid) {
      memo->kept = true;
    }
  }
  if (memo == nullptr || !memo->kept) {
    digest_scratch_.resize(count);
    for (std::uint64_t i = 0; i < count; ++i)
      digest_scratch_[i] = source.page_digest(first_page + i);
    memo_stats_.computed += count;
    return {digest_scratch_.data(), count};
  }
  const std::uint64_t end = first_page + count;
  if (memo->digests.size() < end) {
    memo_stats_.kept_pages += end - memo->digests.size();
    memo->digests.resize(end);
    memo->known.grow(end);
  }
  std::uint64_t computed = 0;
  for (std::uint64_t p = first_page; p < end; ++p) {
    if (memo->known[p]) continue;
    memo->digests[p] = pattern->page_digest(p);
    memo->known.set(p);
    ++computed;
  }
  memo_stats_.computed += computed;
  memo_stats_.hits += count - computed;
  return {memo->digests.data() + first_page, count};
}

void Kernel::charge_faults(const AddressSpace::TouchResult& touched) {
  sim_->advance(costs_.minor_fault *
                static_cast<double>(touched.newly_resident));
  // Breaking COW sharing copies the page before the write proceeds.
  if (touched.cow_broken > 0)
    sim_->advance(costs_.memcpy_cost(kPageSize) *
                  static_cast<double>(touched.cow_broken));
}

void Kernel::freeze(Pid pid, Cap tracer_caps) {
  Process& p = require_mut(pid);
  if (p.state() != ProcState::kRunning)
    throw std::logic_error{"freeze: process not running"};
  if (!has_cap(tracer_caps, Cap::kSysPtrace) &&
      !has_cap(tracer_caps, Cap::kSysAdmin) &&
      !has_cap(tracer_caps, Cap::kCheckpointRestore))
    throw std::runtime_error{"freeze: tracer lacks CAP_SYS_PTRACE"};
  for (Thread& t : p.threads()) {
    t.state = ThreadState::kStopped;
    sim_->advance(costs_.freeze_per_thread);
  }
  p.set_state(ProcState::kFrozen);
}

void Kernel::thaw(Pid pid) {
  Process& p = require_mut(pid);
  if (p.state() != ProcState::kFrozen)
    throw std::logic_error{"thaw: process not frozen"};
  for (Thread& t : p.threads()) t.state = ThreadState::kRunning;
  p.set_state(ProcState::kRunning);
}

void Kernel::ptrace_seize(Pid pid, Cap tracer_caps) {
  Process& p = require_mut(pid);
  if (!has_cap(tracer_caps, Cap::kSysPtrace) &&
      !has_cap(tracer_caps, Cap::kSysAdmin) &&
      !has_cap(tracer_caps, Cap::kCheckpointRestore))
    throw std::runtime_error{"ptrace_seize: permission denied"};
  for (Thread& t : p.threads()) {
    sim_->advance(costs_.ptrace_attach);
    t.state = ThreadState::kTraced;
  }
}

void Kernel::inject_parasite(Pid pid, std::uint64_t blob_bytes) {
  Process& p = require_mut(pid);
  if (p.state() != ProcState::kFrozen)
    throw std::logic_error{"inject_parasite: target must be frozen"};
  if (p.parasite_present())
    throw std::logic_error{"inject_parasite: parasite already present"};
  sim_->advance(costs_.parasite_inject);
  sim_->advance(costs_.memcpy_cost(blob_bytes));
  p.mm().map(blob_bytes, Prot::kReadExec, VmaKind::kAnon, "[criu-parasite]",
             std::make_shared<PatternSource>(0x9a7a517e), true);
  p.set_parasite_present(true);
}

void Kernel::cure_parasite(Pid pid) {
  Process& p = require_mut(pid);
  if (!p.parasite_present())
    throw std::logic_error{"cure_parasite: no parasite present"};
  sim_->advance(costs_.parasite_cure);
  // Remove the parasite mapping.
  for (const Vma& vma : p.mm().vmas()) {
    if (vma.name == "[criu-parasite]") {
      p.mm().unmap(vma.id);
      break;
    }
  }
  p.set_parasite_present(false);
}

std::vector<PagemapRange> Kernel::pagemap(Pid pid) {
  Process& p = require_mut(pid);
  std::vector<PagemapRange> out;
  std::uint64_t resident = 0;
  for (const Vma& vma : p.mm().vmas()) {
    vma.present.for_each_set_run_by(
        vma.dirty, [&](std::uint64_t first, std::uint64_t pages, bool dirty) {
          out.push_back(PagemapRange{vma.id, first, pages, dirty});
        });
    resident += vma.resident_pages();
  }
  sim_->advance(costs_.pagemap_per_page * static_cast<double>(resident));
  return out;
}

void Kernel::clear_soft_dirty(Pid pid) {
  require_mut(pid).mm().clear_soft_dirty();
}

std::uint64_t Kernel::create_pipe() { return next_pipe_++; }

void Kernel::pipe_transfer_pages(std::uint64_t /*pipe_id*/,
                                 std::uint64_t pages) {
  if (pages > 0)
    sim_->advance(costs_.pipe_cost(kPageSize) * static_cast<double>(pages));
}

}  // namespace prebake::os
