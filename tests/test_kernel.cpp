#include "os/kernel.hpp"

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

namespace prebake::os {
namespace {

class KernelTest : public ::testing::Test {
 protected:
  KernelTest() : kernel_{sim_} {
    kernel_.fs().create("/bin/app", 4 * 1024 * 1024);
  }

  Pid spawn_root() {
    const Pid pid = kernel_.clone_process(kNoPid);
    return pid;
  }

  Pid spawn_exec() {
    const Pid pid = spawn_root();
    kernel_.exec(pid, "/bin/app", {"/bin/app"});
    return pid;
  }

  sim::Simulation sim_;
  Kernel kernel_;
};

TEST_F(KernelTest, CloneCreatesRunningProcess) {
  const Pid pid = spawn_root();
  EXPECT_TRUE(kernel_.alive(pid));
  EXPECT_EQ(kernel_.process(pid).state(), ProcState::kRunning);
  EXPECT_EQ(kernel_.process(pid).threads().size(), 1u);
}

TEST_F(KernelTest, ClonePidsAreUnique) {
  const Pid a = spawn_root();
  const Pid b = spawn_root();
  EXPECT_NE(a, b);
}

TEST_F(KernelTest, CloneChargesTime) {
  spawn_root();
  EXPECT_GE(sim_.now().to_millis(), 0.3);
}

TEST_F(KernelTest, CloneInheritsParentMemoryCow) {
  const Pid parent = spawn_exec();
  const std::uint64_t parent_resident = kernel_.process(parent).mm().resident_bytes();
  const Pid child = kernel_.clone_process(parent);
  EXPECT_EQ(kernel_.process(child).mm().resident_bytes(), parent_resident);
}

TEST_F(KernelTest, CloneInheritsFds) {
  const Pid parent = spawn_root();
  kernel_.process(parent).install_fd(FdDesc{-1, FdKind::kSocket, "tcp://:80", 0});
  const Pid child = kernel_.clone_process(parent);
  EXPECT_EQ(kernel_.process(child).fds().size(),
            kernel_.process(parent).fds().size());
}

TEST_F(KernelTest, CloneWithChosenPidNeedsCapability) {
  CloneOptions opts;
  opts.set_child_pid = true;
  opts.child_pid = 4242;
  EXPECT_THROW(kernel_.clone_process(kNoPid, opts), std::runtime_error);
  opts.caller_caps = Cap::kCheckpointRestore;
  const Pid pid = kernel_.clone_process(kNoPid, opts);
  EXPECT_EQ(pid, 4242);
}

TEST_F(KernelTest, CloneWithTakenPidThrows) {
  const Pid existing = spawn_root();
  CloneOptions opts;
  opts.set_child_pid = true;
  opts.child_pid = existing;
  opts.caller_caps = Cap::kSysAdmin;
  EXPECT_THROW(kernel_.clone_process(kNoPid, opts), std::runtime_error);
}

TEST_F(KernelTest, CloneNewNamespaces) {
  CloneOptions opts;
  opts.new_pid_ns = true;
  opts.new_net_ns = true;
  const Pid pid = kernel_.clone_process(kNoPid, opts);
  EXPECT_NE(kernel_.process(pid).ns().pid_ns, 0u);
  EXPECT_NE(kernel_.process(pid).ns().net_ns, 0u);
  EXPECT_EQ(kernel_.process(pid).ns().mnt_ns, 0u);
}

TEST_F(KernelTest, ExecReplacesImage) {
  const Pid pid = spawn_root();
  const Pid parent = pid;
  kernel_.exec(parent, "/bin/app", {"/bin/app", "--serve"});
  const Process& p = kernel_.process(pid);
  EXPECT_EQ(p.name(), "app");
  EXPECT_EQ(p.argv().size(), 2u);
  EXPECT_GE(p.mm().vmas().size(), 3u);  // text + stack + heap
  EXPECT_GT(p.mm().resident_bytes(), 0u);
}

TEST_F(KernelTest, ExecMissingBinaryThrows) {
  const Pid pid = spawn_root();
  EXPECT_THROW(kernel_.exec(pid, "/bin/missing", {}), std::invalid_argument);
}

TEST_F(KernelTest, ExitAndReap) {
  const Pid pid = spawn_exec();
  kernel_.exit_process(pid, 3);
  EXPECT_FALSE(kernel_.alive(pid));
  EXPECT_EQ(kernel_.process(pid).state(), ProcState::kZombie);
  EXPECT_EQ(kernel_.reap(pid), 3);
  EXPECT_THROW(kernel_.process(pid), std::invalid_argument);
}

TEST_F(KernelTest, ReapNonZombieThrows) {
  const Pid pid = spawn_root();
  EXPECT_THROW(kernel_.reap(pid), std::logic_error);
}

TEST_F(KernelTest, KillReleasesMemory) {
  const Pid pid = spawn_exec();
  EXPECT_GT(kernel_.process(pid).mm().resident_bytes(), 0u);
  kernel_.kill_process(pid);
  EXPECT_EQ(kernel_.process(pid).mm().resident_bytes(), 0u);
  EXPECT_EQ(kernel_.process(pid).exit_code(), 137);
}

TEST_F(KernelTest, MmapAndFault) {
  const Pid pid = spawn_root();
  const VmaId id = kernel_.mmap(pid, kPageSize * 8, Prot::kReadWrite,
                                VmaKind::kAnon, "x",
                                std::make_shared<PatternSource>(1));
  kernel_.fault_in(pid, id, 0, 4);
  EXPECT_EQ(kernel_.process(pid).mm().resident_pages(), 4u);
  kernel_.fault_in_all(pid, id, true);
  EXPECT_EQ(kernel_.process(pid).mm().resident_pages(), 8u);
}

TEST_F(KernelTest, FreezeRequiresCapability) {
  const Pid pid = spawn_root();
  EXPECT_THROW(kernel_.freeze(pid, Cap::kNone), std::runtime_error);
  kernel_.freeze(pid, Cap::kSysPtrace);
  EXPECT_EQ(kernel_.process(pid).state(), ProcState::kFrozen);
}

TEST_F(KernelTest, FreezeStopsAllThreads) {
  const Pid pid = spawn_root();
  kernel_.process(pid).spawn_thread(pid + 500);
  kernel_.freeze(pid, Cap::kSysAdmin);
  for (const Thread& t : kernel_.process(pid).threads())
    EXPECT_EQ(t.state, ThreadState::kStopped);
  kernel_.thaw(pid);
  for (const Thread& t : kernel_.process(pid).threads())
    EXPECT_EQ(t.state, ThreadState::kRunning);
}

TEST_F(KernelTest, DoubleFreezeThrows) {
  const Pid pid = spawn_root();
  kernel_.freeze(pid, Cap::kSysAdmin);
  EXPECT_THROW(kernel_.freeze(pid, Cap::kSysAdmin), std::logic_error);
  kernel_.thaw(pid);
  EXPECT_THROW(kernel_.thaw(pid), std::logic_error);
}

TEST_F(KernelTest, CheckpointRestoreCapabilityAllowsFreeze) {
  // The unprivileged mode of recent CRIU [11].
  const Pid pid = spawn_root();
  kernel_.freeze(pid, Cap::kCheckpointRestore);
  EXPECT_EQ(kernel_.process(pid).state(), ProcState::kFrozen);
}

TEST_F(KernelTest, ParasiteLifecycle) {
  const Pid pid = spawn_exec();
  kernel_.freeze(pid, Cap::kSysAdmin);
  kernel_.inject_parasite(pid, 64 * 1024);
  EXPECT_TRUE(kernel_.process(pid).parasite_present());
  // The parasite mapping is visible in the address space.
  bool found = false;
  for (const Vma& vma : kernel_.process(pid).mm().vmas())
    if (vma.name == "[criu-parasite]") found = true;
  EXPECT_TRUE(found);
  kernel_.cure_parasite(pid);
  EXPECT_FALSE(kernel_.process(pid).parasite_present());
  for (const Vma& vma : kernel_.process(pid).mm().vmas())
    EXPECT_NE(vma.name, "[criu-parasite]");
}

TEST_F(KernelTest, ParasiteRequiresFrozenTarget) {
  const Pid pid = spawn_exec();
  EXPECT_THROW(kernel_.inject_parasite(pid, 1024), std::logic_error);
}

TEST_F(KernelTest, DoubleInjectThrows) {
  const Pid pid = spawn_exec();
  kernel_.freeze(pid, Cap::kSysAdmin);
  kernel_.inject_parasite(pid, 1024);
  EXPECT_THROW(kernel_.inject_parasite(pid, 1024), std::logic_error);
}

TEST_F(KernelTest, PagemapReportsResidentRuns) {
  const Pid pid = spawn_root();
  const VmaId id = kernel_.mmap(pid, kPageSize * 10, Prot::kReadWrite,
                                VmaKind::kAnon, "x",
                                std::make_shared<PatternSource>(1));
  kernel_.fault_in(pid, id, 0, 2);
  kernel_.fault_in(pid, id, 5, 3);
  std::uint64_t pages = 0;
  int runs_for_vma = 0;
  for (const PagemapRange& r : kernel_.pagemap(pid)) {
    if (r.vma == id) {
      ++runs_for_vma;
      pages += r.pages;
    }
  }
  EXPECT_EQ(runs_for_vma, 2);
  EXPECT_EQ(pages, 5u);
}

TEST_F(KernelTest, PagemapSplitsDirtyRuns) {
  const Pid pid = spawn_root();
  const VmaId id = kernel_.mmap(pid, kPageSize * 4, Prot::kReadWrite,
                                VmaKind::kAnon, "x",
                                std::make_shared<PatternSource>(1));
  kernel_.fault_in(pid, id, 0, 4);
  kernel_.process(pid).mm().touch(id, 1, 2, /*write=*/true);
  int dirty_runs = 0, clean_runs = 0;
  for (const PagemapRange& r : kernel_.pagemap(pid)) {
    if (r.vma != id) continue;
    (r.dirty ? dirty_runs : clean_runs)++;
  }
  EXPECT_EQ(dirty_runs, 1);
  EXPECT_EQ(clean_runs, 2);

  // A VMA over three bitmap words with a hole, whose dirty bits flip
  // mid-word, across both word boundaries and up to its last page.
  const VmaId wide = kernel_.mmap(pid, kPageSize * 150, Prot::kReadWrite,
                                  VmaKind::kAnon, "wide",
                                  std::make_shared<PatternSource>(2));
  kernel_.fault_in(pid, wide, 0, 100);
  kernel_.fault_in(pid, wide, 110, 40);
  AddressSpace& mm = kernel_.process(pid).mm();
  mm.touch(wide, 10, 10, /*write=*/true);
  mm.touch(wide, 60, 8, /*write=*/true);
  mm.touch(wide, 127, 2, /*write=*/true);
  mm.touch(wide, 140, 10, /*write=*/true);
  using Run = std::tuple<std::uint64_t, std::uint64_t, bool>;
  std::vector<Run> runs;
  const sim::TimePoint t0 = sim_.now();
  for (const PagemapRange& r : kernel_.pagemap(pid))
    if (r.vma == wide) runs.emplace_back(r.first_page, r.pages, r.dirty);
  const std::vector<Run> want = {
      {0, 10, false},  {10, 10, true},  {20, 40, false},
      {60, 8, true},   {68, 32, false}, {110, 17, false},
      {127, 2, true},  {129, 11, false}, {140, 10, true}};
  EXPECT_EQ(runs, want);
  // Charged per resident page of every VMA.
  EXPECT_EQ((sim_.now() - t0).nanos_count(),
            (CostModel{}.pagemap_per_page *
             static_cast<double>(mm.resident_pages()))
                .nanos_count());
}

TEST_F(KernelTest, PipeTransferChargesTime) {
  const std::uint64_t pipe = kernel_.create_pipe();
  const std::uint64_t pages = 100 * 1024 * 1024 / kPageSize;
  const sim::TimePoint t0 = sim_.now();
  kernel_.pipe_transfer_pages(pipe, pages);
  const sim::Duration charged = sim_.now() - t0;
  EXPECT_GT(charged.to_millis(), 10.0);
  // One advance, the same total as `pages` single-page transfers.
  EXPECT_EQ(charged.nanos_count(),
            CostModel{}.pipe_cost(kPageSize).nanos_count() *
                static_cast<std::int64_t>(pages));
}

TEST_F(KernelTest, PidsListsProcesses) {
  spawn_root();
  spawn_root();
  EXPECT_EQ(kernel_.pids().size(), 2u);
  EXPECT_EQ(kernel_.process_count(), 2u);
}

}  // namespace
}  // namespace prebake::os
