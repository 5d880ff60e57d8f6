// Simulated processes and threads.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "os/address_space.hpp"

namespace prebake::os {

using Pid = std::int32_t;
using Tid = std::int32_t;
inline constexpr Pid kNoPid = -1;

enum class ProcState : std::uint8_t {
  kEmbryo,   // cloned, not yet running
  kRunning,
  kFrozen,   // all threads stopped (freezer / ptrace-interrupt)
  kZombie,   // exited, not reaped
  kDead,     // reaped
};

enum class ThreadState : std::uint8_t { kRunning, kStopped, kTraced };

struct Thread {
  Tid tid = 0;
  ThreadState state = ThreadState::kRunning;
  // Simulated register file: enough architectural state for the CRIU image
  // round trip to be meaningful (ip/sp + 6 GP registers).
  std::array<std::uint64_t, 8> regs{};
};

// Capability bits (subset relevant to checkpoint/restore).
enum class Cap : std::uint32_t {
  kNone = 0,
  kSysAdmin = 1u << 0,
  kSysPtrace = 1u << 1,
  kCheckpointRestore = 1u << 2,  // Linux 5.9+ CAP_CHECKPOINT_RESTORE [11]
};
constexpr Cap operator|(Cap a, Cap b) {
  return static_cast<Cap>(static_cast<std::uint32_t>(a) |
                          static_cast<std::uint32_t>(b));
}
constexpr bool has_cap(Cap set, Cap bit) {
  return (static_cast<std::uint32_t>(set) & static_cast<std::uint32_t>(bit)) != 0;
}

enum class FdKind : std::uint8_t { kFile, kPipeRead, kPipeWrite, kSocket };

struct FdDesc {
  int fd = -1;
  FdKind kind = FdKind::kFile;
  std::string path;   // file path or socket address
  std::uint64_t pipe_id = 0;
};

struct Namespaces {
  std::uint64_t pid_ns = 0;
  std::uint64_t mnt_ns = 0;
  std::uint64_t net_ns = 0;
  bool operator==(const Namespaces&) const = default;
};

class Process {
 public:
  Process(Pid pid, Pid ppid, std::string name) : pid_{pid}, ppid_{ppid}, name_{std::move(name)} {
    threads_.push_back(Thread{pid, ThreadState::kRunning, {}});
  }

  Pid pid() const { return pid_; }
  Pid ppid() const { return ppid_; }
  const std::string& name() const { return name_; }
  void set_name(std::string n) { name_ = std::move(n); }
  const std::vector<std::string>& argv() const { return argv_; }
  void set_argv(std::vector<std::string> a) { argv_ = std::move(a); }

  ProcState state() const { return state_; }
  void set_state(ProcState s) { state_ = s; }
  int exit_code() const { return exit_code_; }
  void set_exit_code(int c) { exit_code_ = c; }

  AddressSpace& mm() { return mm_; }
  const AddressSpace& mm() const { return mm_; }
  void replace_mm(AddressSpace mm) { mm_ = std::move(mm); }

  std::vector<Thread>& threads() { return threads_; }
  const std::vector<Thread>& threads() const { return threads_; }
  Thread& spawn_thread(Tid tid);

  std::map<int, FdDesc>& fds() { return fds_; }
  const std::map<int, FdDesc>& fds() const { return fds_; }
  int install_fd(FdDesc desc);  // picks the next free fd number

  Cap caps() const { return caps_; }
  void grant(Cap c) { caps_ = caps_ | c; }
  bool has(Cap c) const { return has_cap(caps_, c); }

  Namespaces& ns() { return ns_; }
  const Namespaces& ns() const { return ns_; }

  bool parasite_present() const { return parasite_present_; }
  void set_parasite_present(bool v) { parasite_present_ = v; }

 private:
  Pid pid_;
  Pid ppid_;
  std::string name_;
  std::vector<std::string> argv_;
  ProcState state_ = ProcState::kEmbryo;
  int exit_code_ = 0;
  AddressSpace mm_;
  std::vector<Thread> threads_;
  std::map<int, FdDesc> fds_;
  Cap caps_ = Cap::kNone;
  Namespaces ns_{};
  bool parasite_present_ = false;
};

}  // namespace prebake::os
