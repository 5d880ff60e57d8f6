// The repository benchmark's workloads and its span recorder.
//
// Spans are recorded only here, around the public calls into faas, sim,
// core and rt; nothing inside src/ is instrumented. A span carries the
// PlatformStats / PageStore count deltas observed across its boundaries.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "faas/builder.hpp"
#include "faas/platform.hpp"
#include "sim/simulation.hpp"

namespace perfbench {

using namespace prebake;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class Layer : std::uint8_t { kBench, kSim, kFaas, kCore, kRt };
inline constexpr const char* kLayerNames[] = {"bench", "sim", "faas", "core",
                                              "rt"};

enum class Kind : std::uint8_t {
  kSetup,      // bench: one full workload set-up
  kDeploy,     // faas: Platform::deploy
  kBake,       // core: FunctionBuilder::build with a prebake config
  kWarmup,     // bench: the page-cache warm-up start of one function
  kStep,       // sim: Simulation::step
  kInvoke,     // faas: Platform::invoke
  kIteration,  // bench: one closed-loop request of paper-functions
  kStart,      // core: StartupService::start_prebaked
  kHandle,     // rt: ManagedRuntime::handle
  kReclaim,    // core: StartupService::reclaim
};
struct KindInfo {
  const char* name;
  Layer layer;
};
inline constexpr KindInfo kKinds[] = {
    {"bench.setup", Layer::kBench},   {"faas.deploy", Layer::kFaas},
    {"core.bake", Layer::kCore},      {"bench.warmup", Layer::kBench},
    {"sim.step", Layer::kSim},        {"faas.invoke", Layer::kFaas},
    {"bench.request", Layer::kBench}, {"core.start_prebaked", Layer::kCore},
    {"rt.handle", Layer::kRt},        {"core.reclaim", Layer::kCore},
};

// PlatformStats / PageStore counters read at a span boundary.
struct Counts {
  std::uint64_t replicas_started = 0;
  std::uint64_t replicas_reclaimed = 0;
  std::uint64_t template_clones = 0;
  std::uint64_t templates_materialized = 0;
};

// How far each counter moved across one span. A single step or invoke moves
// each by a handful at most; larger moves saturate at 255.
struct Delta {
  std::uint8_t replicas_started = 0;
  std::uint8_t replicas_reclaimed = 0;
  std::uint8_t template_clones = 0;
  std::uint8_t templates_materialized = 0;
};

// 32 bytes: a traced fleet replay holds millions of these.
struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t request = 0;  // 0: not tied to one request
  std::int32_t parent = -1;
  Delta delta;
  Kind kind = Kind::kSetup;
};

// In-memory span log. Disabled, every call is a branch and nothing else, so
// the untraced run pays no clock reads.
class Recorder {
 public:
  explicit Recorder(bool enabled) : enabled_{enabled} {}
  bool enabled() const { return enabled_; }

  std::int32_t begin(Kind kind, std::uint32_t request = 0) {
    if (!enabled_) return -1;
    Span s;
    s.kind = kind;
    s.request = request;
    s.parent = open_.empty() ? -1 : open_.back();
    s.start_ns = now_ns();
    spans_.push_back(s);
    open_.push_back(static_cast<std::int32_t>(spans_.size() - 1));
    return open_.back();
  }
  void end(std::int32_t id, const Delta& delta = {}) {
    if (id < 0) return;
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.end_ns = now_ns();
    s.delta = delta;
    open_.pop_back();
  }
  // Tag the innermost open span with a request id (a simulation step that
  // delivers a response belongs to that request).
  void tag_request(std::uint32_t request) {
    if (enabled_ && !open_.empty())
      spans_[static_cast<std::size_t>(open_.back())].request = request;
  }

  // Room for `n` spans up front: growing a log of millions of spans would
  // briefly hold it twice.
  void reserve(std::size_t n) {
    if (enabled_) spans_.reserve(n);
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

// --- host clock ------------------------------------------------------------

// Host time of one phase, in seconds of the reference host.
//
// On a shared VM the same code runs up to ~45% slower for seconds to minutes
// at a time while its CPU time still equals its wall time: the host's speed
// per instruction drifts, and a wall-clock rate spreads across runs by more
// than any useful bound. So a phase is cut into slices, and between slices,
// outside them, the clock times a fixed reference task that calls nothing in
// the program under test. Each slice's wall time is scaled by
// kReferenceNs over the median duration of the twelve reference runs around
// it: a slice that ran while the host was 30% slow counts 30% less.
class HostClock {
 public:
  // Duration of the reference task on the reference host: the 4-vCPU
  // x86-64 VM (Xeon, 2.1 GHz) the benchmark's constants were measured on.
  static constexpr double kReferenceNs = 1'000'000;

  // A slice ends at the first tick() whose `progress` (requests answered,
  // functions deployed, ...) lies `slice` or more past the slice's start.
  explicit HostClock(std::uint64_t slice) : slice_{slice} {}
  void start(std::uint64_t progress = 0);
  void tick(std::uint64_t progress) {
    if (progress >= next_) lap(progress);
  }
  void stop();

  double wall_s() const;       // the slices' wall time
  double reference_s() const;  // the same, scaled to the reference host
  // kReferenceNs over the median reference run: below 1 on a slower host.
  double speed() const;

 private:
  void lap(std::uint64_t progress);

  std::uint64_t slice_;
  std::uint64_t next_ = 0;
  std::int64_t slice_start_ns_ = 0;
  std::vector<std::int64_t> slice_ns_;
  std::vector<std::int64_t> reference_ns_;  // one before each slice, one after
};

// Self time of each span: its duration minus the durations of its children.
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

// Write spans as a text header line followed by the packed records.
void write_spans(const std::string& path, const std::vector<Span>& spans);

// --- fleets (fleet-prebaked, fleet-cowclone) ------------------------------

// policy_study's fleet shape (bench/policy_study.cpp, exp::run_scale_scenario):
// Zipf s = 1.0 arrivals at 20 Hz aggregate over 8 uncapped nodes.
inline constexpr double kFleetRateHz = 20.0;
inline constexpr double kFleetZipfS = 1.0;
inline constexpr std::uint32_t kFleetNodes = 8;

struct FleetConfig {
  std::uint32_t functions = 1000;
  std::uint64_t requests = 0;
  bool page_store = false;  // on: policy_study's cowclone
  std::uint64_t seed = 1;
};

struct FleetBed {
  sim::Simulation sim;
  os::Kernel kernel;
  faas::Platform platform;
  explicit FleetBed(const FleetConfig& config);
};

// Build the platform and deploy every function of the fleet, ticking
// `clock` with the number deployed.
std::unique_ptr<FleetBed> deploy_fleet(const FleetConfig& config,
                                       Recorder& rec, HostClock& clock);

// Exact simulated durations of answered requests, in nanoseconds, pooled
// across rounds.
struct Samples {
  std::vector<std::int64_t> startup_ns;  // replica start-up, cold starts only
  std::vector<std::int64_t> total_ns;    // arrival -> response
  std::vector<std::int64_t> queue_ns;
  std::vector<std::int64_t> service_ns;
  void reserve(std::size_t n) {
    for (auto* v : {&startup_ns, &total_ns, &queue_ns, &service_ns})
      v->reserve(v->size() + n);
  }
};

struct FleetReplay {
  std::uint64_t issued = 0;
  std::uint64_t answered = 0;    // distinct requests answered
  std::uint64_t duplicates = 0;  // callbacks beyond the first per request
  std::uint64_t rejected = 0;    // answered with a non-2xx status
  std::uint64_t mismatched = 0;  // 2xx with a body unlike the reference
  std::uint64_t cold_starts = 0;
  std::uint64_t steps = 0;
  std::size_t peak_pending_events = 0;
  std::size_t peak_replicas = 0;
};

// Replay config.requests Zipf arrivals, keeping one arrival scheduled ahead
// as faas::replay_trace_stream does, so each Platform::invoke can be timed.
// The durations of 2xx responses are appended to `samples`; `clock` ticks
// with the number answered.
FleetReplay replay_fleet(FleetBed& bed, const FleetConfig& config,
                         Recorder& rec, Samples& samples, HostClock& clock);

Counts fleet_counts(FleetBed& bed);

// --- paper-functions -------------------------------------------------------

struct PaperFunction {
  rt::FunctionSpec spec;
  double paper_prebake_ms;  // Fig. 3
  faas::BuildResult built;
};

struct PaperBed {
  sim::Simulation sim;
  os::Kernel kernel;
  funcs::SharedAssets assets;
  core::StartupService startup;
  faas::FunctionBuilder builder;
  std::vector<PaperFunction> functions;
  PaperBed();
};

// Bake NOOP, Markdown Render and Image Resizer (PB-Warmup) and warm the page
// cache with one throwaway start of each, as the paper's harness does.
// `clock` ticks after each bake and each warm-up.
std::unique_ptr<PaperBed> setup_paper(std::uint64_t seed, Recorder& rec,
                                      HostClock& clock);

// Seeded Markdown Render inputs: README-like documents of ~24 KiB.
std::vector<funcs::Request> markdown_requests(std::uint64_t seed,
                                              std::size_t count);

}  // namespace perfbench
