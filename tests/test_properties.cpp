// Property-style parameterized suites: invariants that must hold across
// sweeps of process shapes, function sizes and snapshot policies.
#include <gtest/gtest.h>

#include "criu/dump.hpp"
#include "criu/restore.hpp"
#include "exp/calibration.hpp"
#include "exp/scenario.hpp"
#include "rt/classfile.hpp"
#include "stats/descriptive.hpp"

namespace prebake {
namespace {

// ---------------------------------------------------------------------------
// Dump/restore round trip over process shapes.
struct ProcShape {
  int extra_threads;
  int vmas;
  std::uint64_t pages_per_vma;
  criu::PayloadMode mode;
};

class RoundTrip : public ::testing::TestWithParam<ProcShape> {};

// CTest names each case by the printed parameter; gtest's default prints
// the struct's raw bytes, padding included, which differ between builds.
void PrintTo(const ProcShape& s, std::ostream* os) {
  *os << "threads" << s.extra_threads << "_vmas" << s.vmas << "_pages"
      << s.pages_per_vma
      << (s.mode == criu::PayloadMode::kFull ? "_full" : "_digest");
}

TEST_P(RoundTrip, RestoredProcessMatchesOriginal) {
  const ProcShape shape = GetParam();
  sim::Simulation sim;
  os::Kernel kernel{sim};
  kernel.fs().create("/bin/app", 1024 * 1024);

  const os::Pid pid = kernel.clone_process(os::kNoPid);
  kernel.exec(pid, "/bin/app", {"/bin/app"});
  for (int t = 0; t < shape.extra_threads; ++t)
    kernel.process(pid).spawn_thread(pid + 100 + t);
  for (int v = 0; v < shape.vmas; ++v) {
    const os::VmaId id = kernel.mmap(
        pid, shape.pages_per_vma * os::kPageSize, os::Prot::kReadWrite,
        os::VmaKind::kAnon, "vma" + std::to_string(v),
        std::make_shared<os::PatternSource>(1000 + static_cast<std::uint64_t>(v)),
        false);
    // Fault a deterministic, non-trivial subset.
    kernel.fault_in(pid, id, 0, std::max<std::uint64_t>(1, shape.pages_per_vma / 2));
  }

  const std::uint64_t resident = kernel.process(pid).mm().resident_bytes();
  const std::size_t threads = kernel.process(pid).threads().size();
  const std::size_t vmas = kernel.process(pid).mm().vmas().size();

  criu::DumpOptions dopts;
  dopts.payload_mode = shape.mode;
  const criu::DumpResult dump = criu::Dumper{kernel}.dump(pid, dopts);

  criu::RestoreOptions ropts;
  ropts.verify_pages = true;  // digests must match the regenerated contents
  const criu::RestoreResult restored =
      criu::Restorer{kernel}.restore(dump.images, ropts);

  const os::Process& clone = kernel.process(restored.pid);
  EXPECT_EQ(clone.mm().resident_bytes(), resident);
  EXPECT_EQ(clone.threads().size(), threads);
  EXPECT_EQ(clone.mm().vmas().size(), vmas);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RoundTrip,
    ::testing::Values(ProcShape{0, 1, 1, criu::PayloadMode::kDigest},
                      ProcShape{0, 1, 64, criu::PayloadMode::kDigest},
                      ProcShape{2, 3, 16, criu::PayloadMode::kDigest},
                      ProcShape{5, 8, 32, criu::PayloadMode::kDigest},
                      ProcShape{1, 2, 128, criu::PayloadMode::kDigest},
                      ProcShape{0, 1, 8, criu::PayloadMode::kFull},
                      ProcShape{3, 4, 4, criu::PayloadMode::kFull},
                      ProcShape{7, 16, 2, criu::PayloadMode::kDigest}));

// ---------------------------------------------------------------------------
// Image corruption: flipping any byte of any image file must be detected.
class CorruptionDetection : public ::testing::TestWithParam<int> {};

TEST_P(CorruptionDetection, FlippedByteIsCaught) {
  sim::Simulation sim;
  os::Kernel kernel{sim};
  kernel.fs().create("/bin/app", 1024 * 1024);
  const os::Pid pid = kernel.clone_process(os::kNoPid);
  kernel.exec(pid, "/bin/app", {"/bin/app"});
  criu::DumpResult dump = criu::Dumper{kernel}.dump(pid);

  // Pick a file and byte position deterministically from the parameter.
  sim::Rng rng{static_cast<std::uint64_t>(GetParam())};
  const auto names = dump.images.names();
  const auto& name = names[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(names.size()) - 1))];
  criu::ImageDir corrupted;
  for (const auto& [n, f] : dump.images.files()) {
    auto bytes = f.bytes;
    if (n == name) {
      const auto pos = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(bytes.size()) - 1));
      bytes[pos] ^= 0x5A;
    }
    corrupted.put(n, std::move(bytes), f.nominal_size);
  }
  EXPECT_THROW(corrupted.validate(), std::runtime_error) << name;
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorruptionDetection, ::testing::Range(1, 13));

// ---------------------------------------------------------------------------
// Start-up invariants across synthetic function sizes (MB of request code).
class SizeSweep : public ::testing::TestWithParam<int> {
 protected:
  rt::FunctionSpec sized_spec(int mb) const {
    rt::FunctionSpec spec = exp::synthetic_spec(exp::SynthSize::kSmall);
    spec.name = "sweep-" + std::to_string(mb);
    spec.handler_id = "synthetic:" + std::to_string(mb * 40);
    spec.request_classes = rt::synth_class_set(
        "sweep", mb * 40, static_cast<std::uint64_t>(mb) * 1'000'000,
        static_cast<std::uint64_t>(mb));
    return spec;
  }

  double median_ms(const rt::FunctionSpec& spec, exp::Technique tech) const {
    exp::ScenarioConfig cfg;
    cfg.spec = spec;
    cfg.technique = tech;
    cfg.repetitions = 8;
    cfg.measure_first_response = true;
    cfg.seed = 5;
    return stats::median(exp::run_startup_scenario(cfg).startup_ms);
  }
};

TEST_P(SizeSweep, PrebakeAlwaysWins) {
  const rt::FunctionSpec spec = sized_spec(GetParam());
  const double vanilla = median_ms(spec, exp::Technique::kVanilla);
  const double nowarm = median_ms(spec, exp::Technique::kPrebakeNoWarmup);
  const double warm = median_ms(spec, exp::Technique::kPrebakeWarmup);
  EXPECT_LT(nowarm, vanilla);
  EXPECT_LT(warm, nowarm);
}

TEST_P(SizeSweep, WarmupSpeedupGrowsWithSize) {
  // The paper's central scaling claim: the PB-Warmup speed-up grows with
  // function size because snapshot loading is less size-sensitive than
  // loading + JIT-compiling source classes.
  const int mb = GetParam();
  const rt::FunctionSpec small = sized_spec(mb);
  const rt::FunctionSpec bigger = sized_spec(mb * 2);
  const double ratio_small = median_ms(small, exp::Technique::kVanilla) /
                             median_ms(small, exp::Technique::kPrebakeWarmup);
  const double ratio_big = median_ms(bigger, exp::Technique::kVanilla) /
                           median_ms(bigger, exp::Technique::kPrebakeWarmup);
  EXPECT_GT(ratio_big, ratio_small);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SizeSweep, ::testing::Values(1, 2, 4, 8, 16));

// ---------------------------------------------------------------------------
// Snapshot size invariants across warm-up depth.
class WarmupDepth : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(WarmupDepth, SnapshotSizeMonotoneInWarmupAndStartupStable) {
  exp::ScenarioConfig cfg;
  cfg.spec = exp::synthetic_spec(exp::SynthSize::kSmall);
  cfg.technique = exp::Technique::kPrebakeWarmup;
  cfg.repetitions = 5;
  cfg.measure_first_response = true;
  cfg.warmup_requests = GetParam();
  const auto result = exp::run_startup_scenario(cfg);

  exp::ScenarioConfig cold = cfg;
  cold.technique = exp::Technique::kPrebakeNoWarmup;
  const auto cold_result = exp::run_startup_scenario(cold);

  // Any warmed snapshot holds the JITed code and dwarfs the cold one...
  EXPECT_GT(result.snapshot_nominal_bytes, cold_result.snapshot_nominal_bytes);
  // ...and extra warm-up requests beyond the first change little: the state
  // is already compiled (the paper warms with exactly one request).
  EXPECT_LT(stats::median(result.startup_ms),
            stats::median(cold_result.startup_ms));
}

INSTANTIATE_TEST_SUITE_P(Depths, WarmupDepth, ::testing::Values(1, 2, 4, 8));

// ---------------------------------------------------------------------------
// Determinism: identical seeds give identical experiment outcomes.
class Determinism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Determinism, ScenarioIsPureFunctionOfSeed) {
  exp::ScenarioConfig cfg;
  cfg.spec = exp::noop_spec();
  cfg.technique = exp::Technique::kPrebakeNoWarmup;
  cfg.repetitions = 6;
  cfg.seed = GetParam();
  const auto a = exp::run_startup_scenario(cfg);
  const auto b = exp::run_startup_scenario(cfg);
  ASSERT_EQ(a.startup_ms.size(), b.startup_ms.size());
  for (std::size_t i = 0; i < a.startup_ms.size(); ++i)
    EXPECT_DOUBLE_EQ(a.startup_ms[i], b.startup_ms[i]);
  EXPECT_EQ(a.snapshot_nominal_bytes, b.snapshot_nominal_bytes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Determinism,
                         ::testing::Values(1ull, 42ull, 0xDEADBEEFull));

// ---------------------------------------------------------------------------
// Restore I/O contention: restore latency is non-decreasing in concurrency.
class Contention : public ::testing::TestWithParam<double> {};

TEST_P(Contention, RestoreMonotoneInContention) {
  sim::Simulation sim;
  os::Kernel kernel{sim, exp::testbed_costs()};
  kernel.fs().create("/bin/app", 1024 * 1024);
  const os::Pid pid = kernel.clone_process(os::kNoPid);
  kernel.exec(pid, "/bin/app", {"/bin/app"});
  const os::VmaId id = kernel.mmap(pid, 256 * os::kPageSize,
                                   os::Prot::kReadWrite, os::VmaKind::kAnon,
                                   "heap", std::make_shared<os::PatternSource>(1),
                                   false);
  kernel.fault_in_all(pid, id);
  criu::DumpOptions dopts;
  dopts.fs_prefix = "/snap/";
  const criu::DumpResult dump = criu::Dumper{kernel}.dump(pid, dopts);

  auto restore_ms = [&](double contention) {
    criu::RestoreOptions opts;
    opts.fs_prefix = "/snap/";
    opts.io_contention = contention;
    const sim::TimePoint t0 = sim.now();
    criu::Restorer{kernel}.restore(dump.images, opts);
    return (sim.now() - t0).to_millis();
  };
  const double baseline = restore_ms(1.0);
  EXPECT_GE(restore_ms(GetParam()), baseline);
}

INSTANTIATE_TEST_SUITE_P(Levels, Contention,
                         ::testing::Values(1.0, 2.0, 4.0, 8.0, 16.0));

}  // namespace
}  // namespace prebake
