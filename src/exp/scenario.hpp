// Experiment scenario runners shared by the benchmark binaries and the
// calibration tests. Each scenario builds the function once, bakes the
// snapshot (if the technique needs one), then measures `repetitions`
// independent replica start-ups exactly as the paper's harness does
// (Section 4.1: runtime restarted before every run; 200 repetitions).
//
// Repetitions are sharded across the worker pool in fixed-size blocks whose
// layout depends only on the repetition count; every repetition draws its
// noise from Rng{splitmix64(seed, rep)}. Results are therefore bit-identical
// at any thread count — see DESIGN.md, "Parallel harness & determinism".
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/startup.hpp"
#include "exp/calibration.hpp"
#include "obs/report.hpp"
#include "rt/function_spec.hpp"

namespace prebake::exp {

enum class Technique {
  kVanilla,
  kPrebakeNoWarmup,
  kPrebakeWarmup,
  // SOCK-style zygote fork [18,19]: COW-fork a pre-booted runtime, run only
  // app init. A related-work baseline, not part of the paper's evaluation.
  kZygoteFork,
};

const char* technique_name(Technique t);

struct ScenarioConfig {
  rt::FunctionSpec spec;
  Technique technique = Technique::kVanilla;
  int repetitions = 200;
  // Measure start-up until the first response instead of until
  // ready-to-serve. The paper's synthetic functions load their classes on
  // first invocation, so their start-up is measured this way.
  bool measure_first_response = false;
  std::uint64_t seed = 42;
  std::uint32_t warmup_requests = 1;  // for kPrebakeWarmup
  // Runtime cost profile; defaults to the calibrated Java 8 testbed. The
  // cross-runtime ablation passes runtime_profile(kNode12/kPython3).
  std::optional<rt::RuntimeCosts> runtime;
  // Worker threads for the repetition shards. 0 = default (PREBAKE_THREADS
  // env var, else hardware concurrency); 1 = run inline. Any value produces
  // bit-identical results.
  int threads = 0;
};

struct ScenarioResult {
  std::vector<core::StartupBreakdown> breakdowns;
  std::vector<double> startup_ms;  // per the config's start-up definition
  std::uint64_t snapshot_nominal_bytes = 0;  // 0 for Vanilla
  double bake_time_ms = 0.0;
};

// A non-null `trace` captures a deterministic trace of the run (spans plus
// counters and histograms, finalized) without perturbing the results; see
// DESIGN.md §6e. The same holds for every runner in exp/.
ScenarioResult run_startup_scenario(const ScenarioConfig& config,
                                    obs::TraceReport* trace = nullptr);

// The seed harness's serial runner, kept as the wall-clock baseline for
// bench_harness and as an independent check of the parallel engine: one
// testbed runs build + bake + all repetitions sequentially with the legacy
// sequential RNG stream. Statistically equivalent to run_startup_scenario
// but not bit-identical (different noise stream derivation).
// `config.threads` is ignored.
ScenarioResult run_startup_scenario_reference(const ScenarioConfig& config);

// Service-time scenario (Figure 7): start one replica with the given
// technique, then apply `requests` sequential requests; returns per-request
// service times and the response bodies (for cross-technique equality
// checks).
struct ServiceScenarioResult {
  std::vector<double> service_ms;
  std::vector<std::string> response_bodies;
  double startup_ms = 0.0;
};

ServiceScenarioResult run_service_scenario(const rt::FunctionSpec& spec,
                                           Technique technique, int requests,
                                           std::uint64_t seed = 42);

// Batched form used by ParallelRunner::run_service.
struct ServiceScenarioConfig {
  rt::FunctionSpec spec;
  Technique technique = Technique::kVanilla;
  int requests = 1000;
  std::uint64_t seed = 42;
};

ServiceScenarioResult run_service_scenario(const ServiceScenarioConfig& config);

}  // namespace prebake::exp
