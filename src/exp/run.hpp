// Unified scenario entry point: every experiment the repo can run —
// startup repetitions (Figures 3-6), the multi-node cluster workload (with
// or without a fault plan), the fleet and the live-migration workloads —
// goes through exp::run(ScenarioSpec). The legacy free functions
// (run_startup_scenario, run_cluster_scenario, ...) are one-line wrappers
// over this entry point.
//
// A ScenarioSpec carries the scenario kind, the knobs shared by every kind
// (seed, repetitions, threads), and the kind-specific config. The shared
// fields are authoritative: run() copies them into the selected config, so
// sweeping seeds or repetition counts never needs to know which kind is
// being run.
//
// Setting `trace` captures a deterministic obs::TraceReport of the run
// (spans + counters/histograms) into ScenarioRun::trace — see DESIGN.md
// §6e. Tracing never perturbs simulated results.
#pragma once

#include "exp/cluster.hpp"
#include "exp/migration.hpp"
#include "exp/scale.hpp"
#include "exp/scenario.hpp"
#include "obs/report.hpp"

namespace prebake::exp {

enum class ScenarioKind { kStartup, kCluster, kScale, kMigration };

const char* scenario_kind_name(ScenarioKind kind);

struct ScenarioSpec {
  ScenarioKind kind = ScenarioKind::kStartup;

  // Shared knobs, written into the selected config by run(). repetitions
  // and threads only shape the startup kind (the open-loop kinds drive load
  // by duration x rate on one simulation); seed applies to every kind.
  std::uint64_t seed = 42;
  int repetitions = 200;
  int threads = 0;
  // Capture a trace of the run into ScenarioRun::trace.
  bool trace = false;

  // Kind-specific configs; only the one matching `kind` is consulted.
  ScenarioConfig startup;
  ClusterScenarioConfig cluster;
  ScaleScenarioConfig scale;
  MigrationScenarioConfig migration;

  // Lift a legacy config into a spec (shared fields mirrored out).
  static ScenarioSpec from(const ScenarioConfig& config);
  static ScenarioSpec from(const ClusterScenarioConfig& config);
  static ScenarioSpec from(const ScaleScenarioConfig& config);
  static ScenarioSpec from(const MigrationScenarioConfig& config);
};

struct ScenarioRun {
  ScenarioKind kind = ScenarioKind::kStartup;
  // Only the member matching `kind` is populated.
  ScenarioResult startup;
  ClusterScenarioResult cluster;
  ScaleScenarioResult scale;
  MigrationScenarioResult migration;
  // Populated (and finalized) when the spec asked for tracing.
  obs::TraceReport trace;
};

ScenarioRun run(const ScenarioSpec& spec);

namespace detail {
// The real runners. `trace` is nullptr when tracing is off; otherwise the
// impl absorbs every testbed tracer into it and finalizes.
ScenarioResult run_startup_impl(const ScenarioConfig& config,
                                obs::TraceReport* trace);
ClusterScenarioResult run_cluster_impl(const ClusterScenarioConfig& config,
                                       obs::TraceReport* trace);
ScaleScenarioResult run_scale_impl(const ScaleScenarioConfig& config,
                                   obs::TraceReport* trace);
MigrationScenarioResult run_migration_impl(const MigrationScenarioConfig& config,
                                           obs::TraceReport* trace);

// Step an open-loop run on to the end of its arrival window once the replay
// is done, then `settle` further: a crash among the last requests schedules
// its node's recovery up to node_recovery_delay past the final response,
// and end-of-run stats should reflect the healed cluster.
void finish_window(sim::Simulation& sim, sim::TimePoint end,
                   sim::Duration settle);
}  // namespace detail

}  // namespace prebake::exp
