#include "exp/scenario.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "faas/builder.hpp"
#include "sim/simulation.hpp"
#include "util/thread_pool.hpp"

namespace prebake::exp {

const char* technique_name(Technique t) {
  switch (t) {
    case Technique::kVanilla: return "Vanilla";
    case Technique::kPrebakeNoWarmup: return "PB-NOWarmup";
    case Technique::kPrebakeWarmup: return "PB-Warmup";
    case Technique::kZygoteFork: return "Zygote-Fork";
  }
  throw std::invalid_argument{"technique_name: bad technique"};
}

namespace {

// Repetitions are measured in fixed blocks of kShardSize, each block on its
// own fresh testbed. The shard layout is a function of the repetition count alone —
// never of the thread count — which is what makes results bit-identical at
// any parallelism (each shard's testbed sees the same install + warm-up +
// rep sequence no matter which worker runs it).
constexpr int kShardSize = 25;

// Reserved RNG stream ids for the shared build and the per-shard warm-up
// run, far above any plausible repetition index.
constexpr std::uint64_t kBuildStream = std::uint64_t{1} << 40;
constexpr std::uint64_t kWarmStream = (std::uint64_t{1} << 40) + 1;

// One self-contained simulated testbed. Assets are shared across testbeds
// (and threads): decoded source images are immutable and identical for every
// replica of a function, and generating one costs real host time.
struct Testbed {
  sim::Simulation sim;
  os::Kernel kernel;
  core::StartupService startup;
  faas::FunctionBuilder builder;

  Testbed(const rt::RuntimeCosts& runtime, funcs::SharedAssets& assets)
      : kernel{sim, testbed_costs()},
        startup{kernel, runtime, assets},
        builder{kernel, startup} {}
};

// Asset cache shared by every scenario in the process: the resizer's source
// image is a pure function of (width, height, seed), so each figure sweep
// needs to generate it exactly once rather than once per cell.
funcs::SharedAssets& process_assets() {
  static funcs::SharedAssets assets;
  return assets;
}

core::ReplicaProcess start_replica(Testbed& bed, const rt::FunctionSpec& spec,
                                   Technique technique,
                                   const core::BakedSnapshot* snapshot,
                                   sim::Rng rng) {
  if (technique == Technique::kVanilla)
    return bed.startup.start_vanilla(spec, std::move(rng));
  if (technique == Technique::kZygoteFork)
    return bed.startup.start_zygote_fork(spec, std::move(rng));
  core::PrebakedStartOptions options;
  options.restore.fs_prefix = snapshot->fs_prefix;
  return bed.startup.start_prebaked(spec, snapshot->images, options,
                                    std::move(rng));
}

std::optional<core::PrebakeConfig> prebake_config(Technique technique,
                                                  std::uint32_t warmups) {
  if (technique != Technique::kPrebakeNoWarmup &&
      technique != Technique::kPrebakeWarmup)
    return std::nullopt;
  core::PrebakeConfig cfg;
  cfg.policy = technique == Technique::kPrebakeWarmup
                   ? core::SnapshotPolicy::warmup(warmups)
                   : core::SnapshotPolicy::no_warmup();
  return cfg;
}

// Warm the OS page cache with one throwaway run: the paper's testbed keeps
// its page cache across the 200 repetitions (only the runtime and load
// generator are restarted), so repetition 1 must not be a cold-disk
// outlier.
void warm_testbed_replica(Testbed& bed, const rt::FunctionSpec& spec,
                          Technique technique,
                          const core::BakedSnapshot* snapshot, sim::Rng rng) {
  core::ReplicaProcess warm =
      start_replica(bed, spec, technique, snapshot, std::move(rng));
  funcs::Request req = funcs::sample_request(spec.handler_id);
  (void)warm.runtime->handle(req);
  bed.startup.reclaim(warm);
}

// Same steady state, without the run. In a fresh testbed a throwaway
// replica leaves exactly one persistent trace: the per-file page-cache bit
// on everything it reads (the runtime binary on exec, the classpath archive
// on class loading, the init-I/O file during APPINIT; snapshot images are
// created warm by FunctionBuilder::install). Setting those bits directly
// yields bit-identical measurements and skips the replica's host-side work —
// notably the warm request's real image resize. The zygote path is the
// exception: it boots a persistent per-testbed zygote on first use, which
// only a real run can create.
void warm_testbed(Testbed& bed, const rt::FunctionSpec& spec,
                  Technique technique, const core::BakedSnapshot* snapshot,
                  sim::Rng rng) {
  if (technique == Technique::kZygoteFork) {
    warm_testbed_replica(bed, spec, technique, snapshot, std::move(rng));
    return;
  }
  os::FileSystem& fs = bed.kernel.fs();
  fs.warm(spec.runtime_binary);
  fs.warm(spec.classpath_archive);
  if (spec.init_io_bytes > 0 && !spec.init_io_path.empty() &&
      fs.exists(spec.init_io_path))
    fs.warm(spec.init_io_path);
}

// Trace track layout for the parallel startup runner (a pure function of
// the config, never the thread count): track 0 carries a synthesized
// "scenario" root, track 1 the build/bake testbed, track 2+s shard s.
constexpr std::uint32_t kBuildTrack = 1;
constexpr std::uint32_t kFirstShardTrack = 2;

}  // namespace

ScenarioResult run_startup_scenario(const ScenarioConfig& config,
                                    obs::TraceReport* trace) {
  const rt::RuntimeCosts runtime = config.runtime.value_or(testbed_runtime());
  funcs::SharedAssets& assets = process_assets();
  const obs::SpanId root_id = obs::make_span_id(0, 1);

  // Build the function artifacts once in a scratch testbed; bake the
  // snapshot if the technique needs one. Every shard installs this result
  // instead of repeating the (expensive) bake.
  faas::BuildResult built = [&] {
    Testbed scratch{runtime, assets};
    if (trace != nullptr) scratch.kernel.trace().enable(kBuildTrack, root_id);
    faas::BuildResult b = scratch.builder.build(
        config.spec, prebake_config(config.technique, config.warmup_requests),
        sim::Rng{sim::splitmix64(config.seed, kBuildStream)});
    if (trace != nullptr) trace->absorb(scratch.kernel.trace());
    return b;
  }();
  const rt::FunctionSpec& spec = built.spec;
  const core::BakedSnapshot* snapshot =
      built.snapshot.has_value() ? &*built.snapshot : nullptr;

  ScenarioResult result;
  if (snapshot != nullptr) {
    result.snapshot_nominal_bytes = snapshot->images.nominal_total();
    result.bake_time_ms = snapshot->build_time.to_millis();
  }

  const int reps = config.repetitions;
  if (reps > 0) {
    result.breakdowns.resize(static_cast<std::size_t>(reps));
    result.startup_ms.resize(static_cast<std::size_t>(reps));

    const funcs::Request first_request = funcs::sample_request(spec.handler_id);
    const std::size_t n_shards =
        (static_cast<std::size_t>(reps) + kShardSize - 1) / kShardSize;

    // Per-shard trace slots, filled inside parallel_for and merged in shard
    // order afterwards so the merged report never depends on scheduling.
    std::vector<obs::TraceReport> shard_traces(trace != nullptr ? n_shards : 0);

    util::parallel_for(
        n_shards,
        [&](std::size_t shard) {
          Testbed bed{runtime, assets};
          obs::Tracer& tr = bed.kernel.trace();
          if (trace != nullptr)
            tr.enable(kFirstShardTrack + static_cast<std::uint32_t>(shard),
                      root_id);
          bed.builder.install(built);
          warm_testbed(bed, spec, config.technique, snapshot,
                       sim::Rng{sim::splitmix64(config.seed, kWarmStream)});

          const int begin = static_cast<int>(shard) * kShardSize;
          const int end = std::min(begin + kShardSize, reps);
          for (int rep = begin; rep < end; ++rep) {
            sim::Rng rng{
                sim::splitmix64(config.seed, static_cast<std::uint64_t>(rep))};
            const sim::TimePoint t0 = bed.sim.now();
            obs::Span rep_span;
            if (tr.enabled()) {
              rep_span = tr.span("replica-start", "exp");
              rep_span.attr("rep", rep);
            }
            core::ReplicaProcess replica = start_replica(
                bed, spec, config.technique, snapshot, std::move(rng));

            if (config.measure_first_response) {
              // The load generator holds the first request until the replica
              // is ready, then start-up is measured to the first response.
              const funcs::Response res =
                  replica.runtime->handle(first_request);
              if (!res.ok())
                throw std::runtime_error{"scenario: request failed"};
              replica.breakdown.total = bed.sim.now() - t0;
            }
            rep_span.end();

            const auto slot = static_cast<std::size_t>(rep);
            result.breakdowns[slot] = replica.breakdown;
            result.startup_ms[slot] = replica.breakdown.total.to_millis();
            bed.startup.reclaim(replica);
          }
          if (trace != nullptr) shard_traces[shard].absorb(tr);
        },
        config.threads);

    if (trace != nullptr)
      for (obs::TraceReport& shard_trace : shard_traces) {
        trace->spans.insert(trace->spans.end(),
                            std::make_move_iterator(shard_trace.spans.begin()),
                            std::make_move_iterator(shard_trace.spans.end()));
        trace->metrics.merge_from(shard_trace.metrics);
      }
  }

  if (trace != nullptr) {
    // Synthesize the cross-track root. Every testbed runs its own sim clock
    // from 0, so the root spans [0, max end] of the merged records.
    obs::SpanRecord root;
    root.id = root_id;
    root.track = 0;
    root.seq = 1;
    root.start_ns = 0;
    root.end_ns = 0;
    for (const obs::SpanRecord& s : trace->spans)
      root.end_ns = std::max(root.end_ns, s.end_ns);
    root.name = "scenario";
    root.category = "exp";
    root.attrs = {{"kind", "startup"},
                  {"function", spec.name},
                  {"technique", technique_name(config.technique)},
                  {"repetitions", std::to_string(reps)}};
    trace->spans.push_back(std::move(root));
    trace->finalize();
  }
  return result;
}

ScenarioResult run_startup_scenario_reference(const ScenarioConfig& config) {
  funcs::SharedAssets assets;
  Testbed bed{config.runtime.value_or(testbed_runtime()), assets};
  sim::Rng root{config.seed};

  faas::BuildResult built = bed.builder.build(
      config.spec, prebake_config(config.technique, config.warmup_requests),
      root.child(1));
  const rt::FunctionSpec& spec = built.spec;
  const core::BakedSnapshot* snapshot =
      built.snapshot.has_value() ? &*built.snapshot : nullptr;

  ScenarioResult result;
  if (snapshot != nullptr) {
    result.snapshot_nominal_bytes = snapshot->images.nominal_total();
    result.bake_time_ms = snapshot->build_time.to_millis();
  }

  warm_testbed_replica(bed, spec, config.technique, snapshot, root.child(2));

  const funcs::Request first_request = funcs::sample_request(spec.handler_id);
  result.breakdowns.reserve(static_cast<std::size_t>(config.repetitions));
  result.startup_ms.reserve(static_cast<std::size_t>(config.repetitions));

  for (int rep = 0; rep < config.repetitions; ++rep) {
    sim::Rng rng = root.child(100 + static_cast<std::uint64_t>(rep));
    const sim::TimePoint t0 = bed.sim.now();
    core::ReplicaProcess replica =
        start_replica(bed, spec, config.technique, snapshot, std::move(rng));

    if (config.measure_first_response) {
      const funcs::Response res = replica.runtime->handle(first_request);
      if (!res.ok()) throw std::runtime_error{"scenario: request failed"};
      replica.breakdown.total = bed.sim.now() - t0;
    }

    result.breakdowns.push_back(replica.breakdown);
    result.startup_ms.push_back(replica.breakdown.total.to_millis());
    bed.startup.reclaim(replica);
  }
  return result;
}

ServiceScenarioResult run_service_scenario(const rt::FunctionSpec& raw_spec,
                                           Technique technique, int requests,
                                           std::uint64_t seed) {
  funcs::SharedAssets& assets = process_assets();
  Testbed bed{testbed_runtime(), assets};
  sim::Rng root{seed};

  std::optional<core::PrebakeConfig> prebake = prebake_config(technique, 1);
  faas::BuildResult built = bed.builder.build(raw_spec, prebake, root.child(1));
  const core::BakedSnapshot* snapshot =
      built.snapshot.has_value() ? &*built.snapshot : nullptr;

  core::ReplicaProcess replica = start_replica(bed, built.spec, technique,
                                               snapshot, root.child(3));

  ServiceScenarioResult result;
  result.startup_ms = replica.breakdown.total.to_millis();
  const funcs::Request req = funcs::sample_request(built.spec.handler_id);
  result.service_ms.reserve(static_cast<std::size_t>(requests));
  for (int i = 0; i < requests; ++i) {
    const funcs::Response res = replica.runtime->handle(req);
    if (!res.ok()) throw std::runtime_error{"service scenario: request failed"};
    result.service_ms.push_back(
        replica.runtime->last_service_time().to_millis());
    result.response_bodies.push_back(res.body);
  }
  bed.startup.reclaim(replica);
  return result;
}

ServiceScenarioResult run_service_scenario(const ServiceScenarioConfig& config) {
  return run_service_scenario(config.spec, config.technique, config.requests,
                              config.seed);
}

}  // namespace prebake::exp
