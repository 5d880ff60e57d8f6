// prebakectl — command-line front end for the experiment harness.
//
//   prebakectl list
//   prebakectl startup --function markdown --technique pb-warmup
//               [--reps N] [--seed S] [--first-response] [--csv FILE]
//   prebakectl service --function image-resizer --technique vanilla --requests 100
//   prebakectl bake-info --function noop [--warmup 1]
//   prebakectl nodes [--nodes N] [--cpus N] [--policy worst-fit|round-robin|
//               locality] [--rate HZ] [--duration-s S] [--store-mib M]
//   prebakectl migrate FUNCTION [--from N] [--to N] [--nodes N] [--rounds N]
//   prebakectl faults [--rate R] [--crash-rate R] [--seed S] [--attempts N]
//               [--quarantine N] [--duration-s S]
//   prebakectl workload generate --out FILE [--functions N] [--zipf-s S]
//               [--rate HZ] [--requests N] [--seed S]
//   prebakectl workload stats --in FILE
//   prebakectl layers FUNCTION [--seed S]
//
// Functions: noop | markdown | image-resizer | synthetic-{small,medium,big}
// Techniques: vanilla | pb-nowarmup | pb-warmup
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/prebaker.hpp"
#include "criu/image.hpp"
#include "criu/page_store.hpp"
#include "criu/restore.hpp"
#include "exp/calibration.hpp"
#include "exp/cli.hpp"
#include "exp/cluster.hpp"
#include "exp/report.hpp"
#include "exp/scenario.hpp"
#include "faas/builder.hpp"
#include "faas/trace.hpp"
#include "faas/trace_source.hpp"
#include "obs/export.hpp"
#include "stats/bootstrap.hpp"
#include "stats/descriptive.hpp"

using namespace prebake;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: prebakectl "
               "<list|startup|service|bake-info|trace|nodes|migrate|store"
               "|faults|workload|ws|layers> [flags]\n"
               "  startup   --function F --technique T [--reps N] [--seed S]"
               " [--first-response]\n"
               "  service   --function F --technique T [--requests N]\n"
               "  bake-info --function F [--warmup N]\n"
               "  trace generate --out FILE [--function F] [--rate HZ]"
               " [--duration-s S] [--diurnal] [--peak HZ] [--period-s S]\n"
               "  trace replay --in FILE [--mode vanilla|prebaked]\n"
               "  trace startup|cluster|chaos [scenario flags] [--out FILE]\n"
               "            (span tree to stdout; --out writes Chrome"
               " trace_event JSON)\n"
               "  nodes     [--nodes N] [--cpus N] [--policy P] [--rate HZ]"
               " [--duration-s S]\n"
               "            [--store-mib M] [--mode vanilla|prebaked]"
               " [--seed S]\n"
               "  migrate   FUNCTION [--from N] [--to N] [--nodes N]"
               " [--rounds N] [--seed S]\n"
               "            (live-migrate a warm replica via a pre-dump"
               " chain, DESIGN.md 6i)\n"
               "  store stats [--nodes N] [--cpus N] [--policy P]"
               " [--rate HZ]\n"
               "            [--duration-s S] [--store-mib M] [--seed S]\n"
               "            (cluster run with the content-addressed page"
               " store on)\n"
               "  faults    [--rate R] [--crash-rate R] [--seed S]"
               " [--attempts N]\n"
               "            [--quarantine N] [--duration-s S]\n"
               "  workload generate --out FILE [--functions N] [--zipf-s S]"
               " [--rate HZ]\n"
               "            [--requests N] [--duration-s S] [--seed S]"
               " [--peak HZ] [--period-s S]\n"
               "            (stream a multi-function Zipf trace to CSV)\n"
               "  workload stats --in FILE [--top N]\n"
               "            (events, span, arrival rate, hottest functions"
               " of a trace)\n"
               "  ws stats FUNCTION [--requests N] [--seed S]\n"
               "            (record-and-prefetch working-set size and"
               " coverage, DESIGN.md 6j)\n"
               "  layers FUNCTION [--seed S]\n"
               "            (base/delta layer chain, shared-base coverage,"
               " per-node base-template\n"
               "            residency, DESIGN.md 6k)\n"
               "functions:  noop markdown image-resizer synthetic-small"
               " synthetic-medium synthetic-big\n"
               "techniques: vanilla pb-nowarmup pb-warmup zygote\n");
  return 2;
}

rt::FunctionSpec resolve_function(const std::string& name) {
  if (name == "noop") return exp::noop_spec();
  if (name == "markdown") return exp::markdown_spec();
  if (name == "image-resizer") return exp::image_resizer_spec();
  if (name == "synthetic-small") return exp::synthetic_spec(exp::SynthSize::kSmall);
  if (name == "synthetic-medium") return exp::synthetic_spec(exp::SynthSize::kMedium);
  if (name == "synthetic-big") return exp::synthetic_spec(exp::SynthSize::kBig);
  throw std::invalid_argument{"unknown function: " + name};
}

exp::Technique resolve_technique(const std::string& name) {
  if (name == "vanilla") return exp::Technique::kVanilla;
  if (name == "pb-nowarmup") return exp::Technique::kPrebakeNoWarmup;
  if (name == "pb-warmup") return exp::Technique::kPrebakeWarmup;
  if (name == "zygote") return exp::Technique::kZygoteFork;
  throw std::invalid_argument{"unknown technique: " + name};
}

faas::PlacementPolicy resolve_policy(const std::string& name);

// The chaos run: the cluster scenario with locality placement, the
// resilience policy under test (three restore attempts, quarantine after
// three consecutive failures, crashed nodes back after 30 s) and a fault
// plan of `rate` on the restore path's corruption, read-error and
// registry-stall sites.
exp::ClusterScenarioConfig chaos_config(std::uint64_t seed, double rate) {
  exp::ClusterScenarioConfig cfg;
  cfg.seed = seed;
  cfg.policy = faas::PlacementPolicy::kSnapshotLocality;
  cfg.restore_max_attempts = 3;
  cfg.quarantine_threshold = 3;
  cfg.node_recovery_delay = sim::Duration::seconds(30);
  cfg.faults.seed = seed;
  cfg.faults.image_corruption_rate = rate;
  cfg.faults.image_read_error_rate = rate / 2;
  cfg.faults.registry_stall_rate = rate;
  return cfg;
}

// `prebakectl trace startup|cluster|chaos`: run one scenario with the
// structured tracer on and print the span tree (or export Chrome
// trace_event JSON for about:tracing / Perfetto with --out).
int cmd_trace_scenario(const std::string& kind, const exp::CliArgs& args) {
  obs::TraceReport trace;
  const auto seed = static_cast<std::uint64_t>(args.get_int_or("seed", 42));
  if (kind == "startup") {
    exp::ScenarioConfig cfg;
    cfg.spec = resolve_function(args.get_or("function", "noop"));
    cfg.technique = resolve_technique(args.get_or("technique", "pb-nowarmup"));
    cfg.repetitions = static_cast<int>(args.get_int_or("reps", 25));
    cfg.seed = seed;
    cfg.threads = static_cast<int>(args.get_int_or("threads", 0));
    exp::run_startup_scenario(cfg, &trace);
  } else {
    exp::ClusterScenarioConfig cfg;
    if (kind == "cluster") {
      cfg.policy = resolve_policy(args.get_or("policy", "locality"));
      cfg.rate_hz = args.get_double_or("rate", 0.5);
      cfg.seed = seed;
    } else {
      cfg = chaos_config(seed, args.get_double_or("rate", 0.05));
    }
    cfg.duration =
        sim::Duration::seconds_f(args.get_double_or("duration-s", 60.0));
    exp::run_cluster_scenario(cfg, &trace);
  }

  if (const auto out = args.get("out"); out.has_value() && !out->empty()) {
    std::ofstream file{*out};
    if (!file) throw std::runtime_error{"cannot write " + *out};
    file << obs::to_chrome_json(trace);
    std::printf("wrote %zu spans to %s (load in about:tracing / Perfetto)\n",
                trace.spans.size(), out->c_str());
  } else {
    std::printf("%s", obs::to_text_tree(trace).c_str());
  }
  return 0;
}

int cmd_trace(const exp::CliArgs& args) {
  if (args.positional().size() < 2)
    throw std::invalid_argument{
        "trace: expected 'generate', 'replay', 'startup', 'cluster' or "
        "'chaos'"};
  const std::string& sub = args.positional()[1];
  if (sub == "startup" || sub == "cluster" || sub == "chaos")
    return cmd_trace_scenario(sub, args);

  if (sub == "generate") {
    const std::string out = args.get_or("out", "trace.csv");
    const std::string function = args.get_or("function", "markdown-render");
    const double rate = args.get_double_or("rate", 2.0);
    const auto duration =
        sim::Duration::seconds_f(args.get_double_or("duration-s", 300.0));
    const auto seed = static_cast<std::uint64_t>(args.get_int_or("seed", 1));
    std::vector<faas::TraceEvent> events;
    if (args.has("diurnal")) {
      faas::DiurnalTraceSource source{
          function, rate, args.get_double_or("peak", rate * 8),
          sim::Duration::seconds_f(args.get_double_or("period-s", 120.0)),
          duration, seed};
      events = faas::drain(source);
    } else {
      faas::PoissonTraceSource source{function, rate, duration,
                                      sim::Rng{seed}};
      events = faas::drain(source);
    }
    std::ofstream file{out};
    if (!file) throw std::runtime_error{"cannot write " + out};
    file << faas::format_trace_csv(events);
    std::printf("wrote %zu events to %s\n", events.size(), out.c_str());
    return 0;
  }

  if (sub == "replay") {
    const std::string in = args.get_or("in", "trace.csv");
    std::ifstream file{in};
    if (!file) throw std::runtime_error{"cannot read " + in};
    const std::string text{std::istreambuf_iterator<char>{file}, {}};
    const auto events = faas::parse_trace_csv(text);
    if (events.empty()) throw std::runtime_error{"empty trace"};

    sim::Simulation sim;
    os::Kernel kernel{sim, exp::testbed_costs()};
    faas::Platform platform{kernel, exp::testbed_runtime(),
                            faas::PlatformConfig{}, 99};
    platform.resources().add_node("n", 32ull << 30);
    const bool prebaked = args.get_or("mode", "prebaked") == "prebaked";
    // Deploy every function the trace references.
    std::set<std::string> deployed;
    for (const auto& e : events) {
      if (!deployed.insert(e.function).second) continue;
      rt::FunctionSpec spec = resolve_function(
          e.function == "markdown-render" ? "markdown" : e.function);
      spec.name = e.function;
      platform.deploy(std::move(spec),
                      prebaked ? faas::StartMode::kPrebaked
                               : faas::StartMode::kVanilla,
                      core::SnapshotPolicy::warmup(1));
    }
    faas::VectorTraceSource source{events};
    const auto result = faas::replay_trace_stream(platform, source);
    std::vector<double> totals;
    for (const auto& m : platform.request_log())
      totals.push_back(m.total.to_millis());
    std::printf("%s: %llu ok, %llu rejected, %llu cold starts\n",
                prebaked ? "prebaked" : "vanilla",
                static_cast<unsigned long long>(result.responses_ok),
                static_cast<unsigned long long>(result.responses_rejected),
                static_cast<unsigned long long>(platform.stats().cold_starts));
    std::printf("latency p50 %.2f ms, p95 %.2f ms, p99 %.2f ms, max %.2f ms\n",
                stats::percentile(totals, 0.5), stats::percentile(totals, 0.95),
                stats::percentile(totals, 0.99), stats::max(totals));
    return 0;
  }
  throw std::invalid_argument{"trace: unknown subcommand " + sub};
}

int cmd_list() {
  std::printf("functions:\n");
  for (const char* f : {"noop", "markdown", "image-resizer", "synthetic-small",
                        "synthetic-medium", "synthetic-big"}) {
    const rt::FunctionSpec spec = resolve_function(f);
    std::printf("  %-18s handler=%-15s init=%zu cls / req=%zu cls (%.1f MB)\n",
                f, spec.handler_id.c_str(), spec.init_classes.size(),
                spec.request_classes.size(),
                static_cast<double>(spec.request_class_bytes()) / 1e6);
  }
  std::printf("techniques: vanilla pb-nowarmup pb-warmup zygote\n");
  return 0;
}

int cmd_startup(const exp::CliArgs& args) {
  exp::ScenarioConfig cfg;
  cfg.spec = resolve_function(args.get_or("function", "noop"));
  cfg.technique = resolve_technique(args.get_or("technique", "vanilla"));
  cfg.repetitions = static_cast<int>(args.get_int_or("reps", 200));
  cfg.seed = static_cast<std::uint64_t>(args.get_int_or("seed", 42));
  cfg.measure_first_response =
      args.has("first-response") || cfg.spec.name.rfind("synthetic", 0) == 0;

  const exp::ScenarioResult result = exp::run_startup_scenario(cfg);
  const auto ci = stats::bootstrap_median_ci(result.startup_ms);
  const auto summary = stats::summarize(result.startup_ms);

  std::printf("%s / %s, %d repetitions (seed %llu)\n", cfg.spec.name.c_str(),
              exp::technique_name(cfg.technique), cfg.repetitions,
              static_cast<unsigned long long>(cfg.seed));
  std::printf("  median  %s  95%% CI %s\n", exp::fmt_ms(ci.point).c_str(),
              exp::fmt_interval(ci).c_str());
  std::printf("  mean %.2f ms  sd %.2f  min %.2f  p95 %.2f  max %.2f\n",
              summary.mean, summary.stddev, summary.min, summary.p95,
              summary.max);
  if (result.snapshot_nominal_bytes > 0)
    std::printf("  snapshot %s, baked in %.1f ms\n",
                exp::fmt_mib(result.snapshot_nominal_bytes).c_str(),
                result.bake_time_ms);
  const auto& b = result.breakdowns.front();
  std::printf("  phases: clone %.2f | exec %.2f | rts %.2f | appinit %.2f | "
              "restore %.2f (ms)\n",
              b.clone_time.to_millis(), b.exec_time.to_millis(),
              b.rts_time.to_millis(), b.appinit_time.to_millis(),
              b.restore_time.to_millis());

  // Raw per-repetition samples for external plotting.
  if (const auto csv = args.get("csv"); csv.has_value() && !csv->empty()) {
    std::ofstream file{*csv};
    if (!file) throw std::runtime_error{"cannot write " + *csv};
    file << "rep,startup_ms,clone_ms,exec_ms,rts_ms,appinit_ms,restore_ms\n";
    for (std::size_t i = 0; i < result.breakdowns.size(); ++i) {
      const auto& bd = result.breakdowns[i];
      char line[256];
      std::snprintf(line, sizeof line, "%zu,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f\n",
                    i, result.startup_ms[i], bd.clone_time.to_millis(),
                    bd.exec_time.to_millis(), bd.rts_time.to_millis(),
                    bd.appinit_time.to_millis(), bd.restore_time.to_millis());
      file << line;
    }
    std::printf("  wrote %zu samples to %s\n", result.startup_ms.size(),
                csv->c_str());
  }
  return 0;
}

int cmd_service(const exp::CliArgs& args) {
  const rt::FunctionSpec spec = resolve_function(args.get_or("function", "noop"));
  const exp::Technique tech =
      resolve_technique(args.get_or("technique", "vanilla"));
  const int requests = static_cast<int>(args.get_int_or("requests", 200));
  const auto result = exp::run_service_scenario(
      spec, tech, requests, static_cast<std::uint64_t>(args.get_int_or("seed", 42)));

  std::printf("%s / %s: startup %.2f ms, %d requests\n", spec.name.c_str(),
              exp::technique_name(tech), result.startup_ms, requests);
  const double quantiles[] = {0.05, 0.25, 0.5, 0.75, 0.95, 0.99};
  std::printf("%s", exp::render_ecdf(result.service_ms, quantiles).c_str());
  return 0;
}

int cmd_bake_info(const exp::CliArgs& args) {
  sim::Simulation sim;
  os::Kernel kernel{sim, exp::testbed_costs()};
  funcs::SharedAssets assets;
  core::StartupService startup{kernel, exp::testbed_runtime(), assets};
  faas::FunctionBuilder builder{kernel, startup};

  const rt::FunctionSpec spec = resolve_function(args.get_or("function", "noop"));
  core::PrebakeConfig cfg;
  const auto warmup = args.get_int_or("warmup", 0);
  cfg.policy = warmup > 0
                   ? core::SnapshotPolicy::warmup(static_cast<std::uint32_t>(warmup))
                   : core::SnapshotPolicy::no_warmup();
  faas::BuildResult built = builder.build(spec, cfg, sim::Rng{1});
  const core::BakedSnapshot& snap = *built.snapshot;

  std::printf("snapshot %s [%s]\n", snap.function_name.c_str(),
              snap.policy.tag().c_str());
  std::printf("  baked in %.2f ms; %llu pages (%s payload)\n",
              snap.build_time.to_millis(),
              static_cast<unsigned long long>(snap.stats.pages_dumped),
              exp::fmt_mib(snap.stats.payload_bytes).c_str());
  exp::TextTable table{{"image file", "bytes on disk", "real bytes held"}};
  for (const auto& name : snap.images.names()) {
    const auto& f = snap.images.get(name);
    table.add_row({name, std::to_string(f.nominal_size),
                   std::to_string(f.bytes.size())});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("total: %s (pages content-addressed by criu::PageStore)\n",
              exp::fmt_mib(snap.images.nominal_total()).c_str());
  return 0;
}

faas::PlacementPolicy resolve_policy(const std::string& name) {
  if (name == "worst-fit") return faas::PlacementPolicy::kWorstFit;
  if (name == "round-robin") return faas::PlacementPolicy::kRoundRobin;
  if (name == "locality") return faas::PlacementPolicy::kSnapshotLocality;
  throw std::invalid_argument{"unknown policy: " + name};
}

// Run the mixed-traffic cluster scenario and print the per-node view:
// where replicas landed, memory in use, and how each node's page store
// behaved (hits avoid the registry transfer entirely).
int cmd_nodes(const exp::CliArgs& args) {
  exp::ClusterScenarioConfig cfg;
  cfg.nodes = static_cast<std::uint32_t>(args.get_int_or("nodes", 4));
  cfg.cpus_per_node = static_cast<std::uint32_t>(args.get_int_or("cpus", 2));
  cfg.policy = resolve_policy(args.get_or("policy", "locality"));
  cfg.rate_hz = args.get_double_or("rate", 0.5);
  cfg.duration = sim::Duration::seconds_f(args.get_double_or("duration-s", 600.0));
  cfg.node_page_store_bytes =
      static_cast<std::uint64_t>(args.get_int_or("store-mib", 120)) << 20;
  cfg.mode = args.get_or("mode", "prebaked") == "vanilla"
                 ? faas::StartMode::kVanilla
                 : faas::StartMode::kPrebaked;
  cfg.seed = static_cast<std::uint64_t>(args.get_int_or("seed", 42));

  const exp::ClusterScenarioResult r = exp::run_cluster_scenario(cfg);

  std::printf("%u nodes x %u cpus, %s placement, %.2f Hz/function for %.0f s "
              "(seed %llu)\n",
              cfg.nodes, cfg.cpus_per_node,
              faas::placement_policy_name(cfg.policy), cfg.rate_hz,
              cfg.duration.to_seconds(),
              static_cast<unsigned long long>(cfg.seed));
  std::printf("requests %llu (%llu ok, %llu rejected), %llu cold starts, "
              "%llu replicas started\n",
              static_cast<unsigned long long>(r.requests),
              static_cast<unsigned long long>(r.responses_ok),
              static_cast<unsigned long long>(r.stats.rejected),
              static_cast<unsigned long long>(r.stats.cold_starts),
              static_cast<unsigned long long>(r.stats.replicas_started));
  std::printf("total p50/p95/p99 %s / %s / %s; cold startup p50/p95 %s / %s\n",
              exp::fmt_ms(r.total_p50_ms).c_str(),
              exp::fmt_ms(r.total_p95_ms).c_str(),
              exp::fmt_ms(r.total_p99_ms).c_str(),
              exp::fmt_ms(r.cold_startup_p50_ms).c_str(),
              exp::fmt_ms(r.cold_startup_p95_ms).c_str());
  const std::uint64_t lookups = r.snapshot_hits + r.snapshot_misses;
  std::printf("snapshot cache: %llu hits / %llu misses (%s), registry %s\n\n",
              static_cast<unsigned long long>(r.snapshot_hits),
              static_cast<unsigned long long>(r.snapshot_misses),
              exp::fmt_percent(lookups == 0 ? 0.0
                                            : static_cast<double>(r.snapshot_hits) /
                                                  static_cast<double>(lookups))
                  .c_str(),
              exp::fmt_mib(r.remote_bytes_fetched).c_str());

  exp::TextTable table{{"Node", "State", "Replicas", "Mem used", "Placed",
                        "Hits", "Misses", "Store pages", "Evicted",
                        "Registry MiB", "Migr out/in", "Warmth mig/lost",
                        "Busy"}};
  for (const exp::ClusterNodeReport& n : r.nodes)
    table.add_row({n.name, n.state, std::to_string(n.replicas),
                   exp::fmt_mib(n.mem_used),
                   std::to_string(n.stats.replicas_placed),
                   std::to_string(n.stats.snapshot_hits),
                   std::to_string(n.stats.snapshot_misses),
                   std::to_string(n.store_pages) + " (" +
                       exp::fmt_mib(n.store_pages * 4096) + ")",
                   std::to_string(n.store_evicted_pages),
                   exp::fmt_mib(n.stats.remote_bytes_fetched),
                   std::to_string(n.stats.migrations_out) + "/" +
                       std::to_string(n.stats.migrations_in),
                   std::to_string(n.stats.warmth_replicas_migrated) + "/" +
                       std::to_string(n.stats.warmth_replicas_destroyed),
                   exp::fmt_ms(n.stats.busy.to_millis(), 1)});
  std::printf("%s", table.to_string().c_str());
  return 0;
}

// Run the cluster scenario with the content-addressed page store enabled
// (DESIGN.md §6f) and print per-node store statistics: delta-transfer
// savings, template clones, resident store footprint.
int cmd_store(const exp::CliArgs& args) {
  const std::string sub =
      args.positional().size() > 1 ? args.positional()[1] : "stats";
  if (sub != "stats") {
    std::fprintf(stderr, "prebakectl store: unknown subcommand '%s'\n",
                 sub.c_str());
    return usage();
  }
  exp::ClusterScenarioConfig cfg;
  cfg.nodes = static_cast<std::uint32_t>(args.get_int_or("nodes", 4));
  cfg.cpus_per_node = static_cast<std::uint32_t>(args.get_int_or("cpus", 2));
  cfg.policy = resolve_policy(args.get_or("policy", "locality"));
  cfg.rate_hz = args.get_double_or("rate", 0.5);
  cfg.duration = sim::Duration::seconds_f(args.get_double_or("duration-s", 600.0));
  cfg.seed = static_cast<std::uint64_t>(args.get_int_or("seed", 42));
  cfg.page_store = true;
  cfg.node_page_store_bytes =
      static_cast<std::uint64_t>(args.get_int_or("store-mib", 0)) << 20;

  const exp::ClusterScenarioResult r = exp::run_cluster_scenario(cfg);

  std::printf("%u nodes x %u cpus, %s placement, page store %s (seed %llu)\n",
              cfg.nodes, cfg.cpus_per_node,
              faas::placement_policy_name(cfg.policy),
              cfg.node_page_store_bytes == 0
                  ? "unbounded"
                  : (exp::fmt_mib(cfg.node_page_store_bytes) + "/node").c_str(),
              static_cast<unsigned long long>(cfg.seed));
  std::printf("requests %llu (%llu ok), %llu cold starts, cold p50/p95 "
              "%s / %s\n",
              static_cast<unsigned long long>(r.requests),
              static_cast<unsigned long long>(r.responses_ok),
              static_cast<unsigned long long>(r.stats.cold_starts),
              exp::fmt_ms(r.cold_startup_p50_ms).c_str(),
              exp::fmt_ms(r.cold_startup_p95_ms).c_str());
  std::printf("store: %llu page hits (%s not refetched), delta traffic %s, "
              "%llu template clones\n\n",
              static_cast<unsigned long long>(r.store_hit_pages),
              exp::fmt_mib(r.store_hit_pages * 4096).c_str(),
              exp::fmt_mib(r.store_delta_bytes).c_str(),
              static_cast<unsigned long long>(r.template_clones));

  exp::TextTable table{{"Node", "State", "Hit pages", "Delta MiB", "Clones",
                        "Stored", "Templates", "Registry MiB"}};
  for (const exp::ClusterNodeReport& n : r.nodes)
    table.add_row({n.name, n.state, std::to_string(n.stats.store_hit_pages),
                   exp::fmt_mib(n.stats.store_delta_bytes),
                   std::to_string(n.stats.template_clones),
                   std::to_string(n.store_pages) + " (" +
                       exp::fmt_mib(n.store_pages * 4096) + ")",
                   std::to_string(n.store_templates),
                   exp::fmt_mib(n.stats.remote_bytes_fetched)});
  std::printf("%s", table.to_string().c_str());
  return 0;
}

// `prebakectl workload generate|stats`: the multi-function Zipf workload in
// CLI form. generate streams a ZipfTraceSource straight to CSV — one line
// per arrival, never materialized — so a 10^7-event trace costs constant
// memory; stats reads a trace back and prints its shape (span, aggregate
// rate, hottest functions).
int cmd_workload(const exp::CliArgs& args) {
  if (args.positional().size() < 2)
    throw std::invalid_argument{"workload: expected 'generate' or 'stats'"};
  const std::string& sub = args.positional()[1];

  if (sub == "generate") {
    const std::string out = args.get_or("out", "workload.csv");
    faas::ZipfTraceConfig cfg;
    cfg.functions =
        static_cast<std::uint32_t>(args.get_int_or("functions", 100));
    cfg.zipf_s = args.get_double_or("zipf-s", 1.0);
    cfg.rate_hz = args.get_double_or("rate", 100.0);
    cfg.duration =
        sim::Duration::seconds_f(args.get_double_or("duration-s", 600.0));
    cfg.max_events =
        static_cast<std::uint64_t>(args.get_int_or("requests", 0));
    cfg.peak_rate_hz = args.get_double_or("peak", 0.0);
    cfg.period =
        sim::Duration::seconds_f(args.get_double_or("period-s", 3600.0));
    cfg.seed = static_cast<std::uint64_t>(args.get_int_or("seed", 1));

    faas::ZipfTraceSource source{cfg};
    std::ofstream file{out};
    if (!file) throw std::runtime_error{"cannot write " + out};
    file << "# offset_ms,function\n";
    std::uint64_t events = 0;
    sim::Duration last{};
    while (std::optional<faas::TraceEvent> e = source.next()) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.3f", e->at.to_millis());
      file << buf << ',' << e->function << '\n';
      ++events;
      last = e->at;
    }
    std::printf("wrote %llu events / %u functions (zipf s=%.2f, %.1f Hz, "
                "span %.1f s) to %s\n",
                static_cast<unsigned long long>(events), cfg.functions,
                cfg.zipf_s, cfg.rate_hz, last.to_seconds(), out.c_str());
    return 0;
  }

  if (sub == "stats") {
    const std::string in = args.get_or("in", "workload.csv");
    std::ifstream file{in};
    if (!file) throw std::runtime_error{"cannot read " + in};
    const std::string text{std::istreambuf_iterator<char>{file}, {}};
    const auto events = faas::parse_trace_csv(text);
    if (events.empty()) throw std::runtime_error{"empty trace"};

    std::map<std::string, std::uint64_t> counts;
    for (const auto& e : events) ++counts[e.function];
    const double span_s = events.back().at.to_seconds();
    std::printf("%zu events, %zu functions, span %.1f s, aggregate rate "
                "%.2f Hz\n",
                events.size(), counts.size(), span_s,
                span_s > 0.0 ? static_cast<double>(events.size()) / span_s
                             : 0.0);

    std::vector<std::pair<std::string, std::uint64_t>> ranked{counts.begin(),
                                                              counts.end()};
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second > b.second;
      return a.first < b.first;
    });
    const std::size_t top = std::min<std::size_t>(
        ranked.size(),
        static_cast<std::size_t>(args.get_int_or("top", 10)));
    exp::TextTable table{{"Function", "Requests", "Share"}};
    for (std::size_t i = 0; i < top; ++i)
      table.add_row({ranked[i].first, std::to_string(ranked[i].second),
                     exp::fmt_percent(static_cast<double>(ranked[i].second) /
                                      static_cast<double>(events.size()))});
    std::printf("%s", table.to_string().c_str());
    return 0;
  }
  throw std::invalid_argument{"workload: unknown subcommand " + sub};
}

// Run the chaos scenario and print the fault-injector state (plan, draw
// and firing counts per site) plus the snapshot circuit-breaker table.
int cmd_faults(const exp::CliArgs& args) {
  const double rate = args.get_double_or("rate", 0.05);
  exp::ClusterScenarioConfig cfg = chaos_config(
      static_cast<std::uint64_t>(args.get_int_or("seed", 42)), rate);
  cfg.duration = sim::Duration::seconds_f(args.get_double_or("duration-s", 600.0));
  cfg.restore_max_attempts = static_cast<int>(args.get_int_or("attempts", 3));
  cfg.quarantine_threshold =
      static_cast<std::uint32_t>(args.get_int_or("quarantine", 3));
  cfg.faults.truncated_write_rate = rate / 2;
  cfg.faults.registry_disconnect_rate = rate / 2;
  cfg.faults.node_crash_rate = args.get_double_or("crash-rate", rate / 10);

  const exp::ClusterScenarioResult r = exp::run_cluster_scenario(cfg);

  std::printf("fault plan (seed %llu): corruption %s, read-error %s, "
              "truncated-write %s,\n  registry stall %s / disconnect %s, "
              "node crash %s\n",
              static_cast<unsigned long long>(cfg.faults.seed),
              exp::fmt_percent(cfg.faults.image_corruption_rate).c_str(),
              exp::fmt_percent(cfg.faults.image_read_error_rate).c_str(),
              exp::fmt_percent(cfg.faults.truncated_write_rate).c_str(),
              exp::fmt_percent(cfg.faults.registry_stall_rate).c_str(),
              exp::fmt_percent(cfg.faults.registry_disconnect_rate).c_str(),
              exp::fmt_percent(cfg.faults.node_crash_rate).c_str());
  std::printf("policy: %d restore attempts, quarantine after %u consecutive "
              "failures\n\n",
              cfg.restore_max_attempts, cfg.quarantine_threshold);

  std::printf("requests %llu, answered %llu, availability %s, fallback rate "
              "%s\n",
              static_cast<unsigned long long>(r.requests),
              static_cast<unsigned long long>(r.answered),
              exp::fmt_percent(r.availability).c_str(),
              exp::fmt_percent(r.fallback_rate).c_str());
  std::printf("retries %llu, quarantines %llu, rebakes %llu, node crashes "
              "%llu (recovered %llu)\n\n",
              static_cast<unsigned long long>(r.stats.restore_retries),
              static_cast<unsigned long long>(r.stats.snapshot_quarantines),
              static_cast<unsigned long long>(r.stats.snapshot_rebakes),
              static_cast<unsigned long long>(r.stats.node_crashes),
              static_cast<unsigned long long>(r.stats.node_recoveries));

  exp::TextTable sites{{"Fault site", "Fired"}};
  for (const auto& [site, fired] : r.fired_by_site)
    sites.add_row({site, std::to_string(fired)});
  std::printf("%s (%llu total)\n\n", sites.to_string().c_str(),
              static_cast<unsigned long long>(r.faults_injected));

  exp::TextTable health{{"Function", "Consecutive failures", "Quarantined",
                         "Rebakes"}};
  for (const auto& row : r.snapshot_health)
    health.add_row({row.function, std::to_string(row.consecutive_failures),
                    row.quarantined ? "yes" : "no",
                    std::to_string(row.rebakes)});
  if (r.snapshot_health.empty()) {
    std::printf("quarantine table: empty (no snapshot ever failed a restore)\n");
  } else {
    std::printf("%s", health.to_string().c_str());
  }
  return 0;
}

// Live-migrate one warm replica of a function between worker nodes
// (DESIGN.md §6i) and report the pre-dump chain shape and cutover blackout.
// `--from`/`--to` are node ids (-1 = any / scheduler's pick).
int cmd_migrate(const exp::CliArgs& args) {
  if (args.positional().size() < 2) {
    std::fprintf(stderr, "prebakectl migrate: missing function name\n");
    return usage();
  }
  const rt::FunctionSpec spec = resolve_function(args.positional()[1]);
  const std::uint32_t nodes =
      static_cast<std::uint32_t>(args.get_int_or("nodes", 3));

  sim::Simulation sim;
  os::Kernel kernel{sim, exp::testbed_costs()};
  faas::PlatformConfig cfg;
  cfg.remote_registry = true;
  cfg.page_store = true;
  cfg.migration.max_rounds = static_cast<int>(args.get_int_or("rounds", 3));
  faas::Platform platform{kernel, exp::testbed_runtime(), cfg,
                          static_cast<std::uint64_t>(args.get_int_or("seed", 42))};
  std::vector<faas::NodeId> ids;
  for (std::uint32_t i = 0; i < nodes; ++i) {
    std::string name = "w";
    name += std::to_string(i);
    ids.push_back(platform.resources().add_node(name, 8ull << 30, 2));
  }
  // --from / --to name nodes by index (w0..wN-1), -1 = any.
  const auto node_arg = [&args, &ids](const char* name) -> faas::NodeId {
    const int v = static_cast<int>(args.get_int_or(name, -1));
    if (v < 0) return faas::kNoNode;
    if (static_cast<std::size_t>(v) >= ids.size())
      throw std::invalid_argument{std::string{"--"} + name +
                                  " is out of range (see --nodes)"};
    return ids[static_cast<std::size_t>(v)];
  };
  const faas::NodeId from = node_arg("from");
  const faas::NodeId to = node_arg("to");
  const auto node_name = [&platform](faas::NodeId id) -> std::string {
    return id == faas::kNoNode ? "(none)" : platform.resources().node(id).name();
  };

  platform.deploy(spec, faas::StartMode::kPrebaked,
                  core::SnapshotPolicy::warmup(1));
  platform.scale_up(spec.name, 1);
  while (platform.idle_replica_count(spec.name) == 0 && sim.step()) {
  }
  const faas::NodeId source = platform.find_replica_node(spec.name);
  if (source == faas::kNoNode) {
    std::fprintf(stderr, "migrate: no warm replica of %s came up\n",
                 spec.name.c_str());
    return 1;
  }
  if (!platform.migrate_replica(spec.name, from, to)) {
    std::fprintf(stderr,
                 "migrate: no replica of %s on %s, or no destination has "
                 "room\n",
                 spec.name.c_str(),
                 from == faas::kNoNode ? "any node" : node_name(from).c_str());
    return 1;
  }
  sim.run_until(sim.now() + sim::Duration::seconds(60));

  const faas::PlatformStats& st = platform.stats();
  const faas::NodeId final_node = platform.find_replica_node(spec.name);
  std::printf("%s: %s -> %s (%llu pre-dump rounds)\n", spec.name.c_str(),
              node_name(source).c_str(), node_name(final_node).c_str(),
              static_cast<unsigned long long>(st.migration_rounds));
  std::printf(
      "migrations: %llu started, %llu completed, %llu aborted, "
      "%llu full-dump fallbacks, %llu destination retries\n",
      static_cast<unsigned long long>(st.migrations_started),
      static_cast<unsigned long long>(st.migrations_completed),
      static_cast<unsigned long long>(st.migrations_aborted),
      static_cast<unsigned long long>(st.migration_full_dumps),
      static_cast<unsigned long long>(st.migration_dest_retries));
  std::printf("pre-copy %s while serving, %s inside the blackout; "
              "downtime %s\n",
              exp::fmt_mib(st.migration_precopy_bytes).c_str(),
              exp::fmt_mib(st.migration_final_bytes).c_str(),
              exp::fmt_ms(st.migration_downtime.to_millis()).c_str());

  exp::TextTable table{
      {"Node", "State", "Replicas", "Migr out/in", "Warmth mig/lost"}};
  for (const faas::WorkerNode& n : platform.resources().nodes())
    table.add_row({n.name(), faas::node_state_name(n.state()),
                   std::to_string(n.replicas()),
                   std::to_string(n.stats().migrations_out) + "/" +
                       std::to_string(n.stats().migrations_in),
                   std::to_string(n.stats().warmth_replicas_migrated) + "/" +
                       std::to_string(n.stats().warmth_replicas_destroyed)});
  std::printf("%s", table.to_string().c_str());
  return 0;
}

// Record-and-prefetch working-set statistics (DESIGN.md §6j): run the
// function's record -> prefetch lifecycle on a one-node platform (first
// cold start records, later ones prefetch) and report the recorded working
// set's size and its coverage of the snapshot's payload.
int cmd_ws(const exp::CliArgs& args) {
  const std::string sub =
      args.positional().size() > 1 ? args.positional()[1] : "";
  if (sub != "stats" || args.positional().size() < 3) {
    std::fprintf(stderr,
                 "prebakectl ws: usage: prebakectl ws stats FUNCTION "
                 "[--requests N] [--seed S]\n");
    return usage();
  }
  const rt::FunctionSpec spec = resolve_function(args.positional()[2]);
  const int requests =
      std::max(2, static_cast<int>(args.get_int_or("requests", 2)));

  sim::Simulation sim;
  os::Kernel kernel{sim, exp::testbed_costs()};
  faas::PlatformConfig cfg;
  cfg.paging = criu::PagingPolicy::ws_prefetch();
  cfg.idle_timeout = sim::Duration::seconds(1);
  faas::Platform platform{kernel, exp::testbed_runtime(), cfg,
                          static_cast<std::uint64_t>(args.get_int_or("seed", 42))};
  platform.resources().add_node("w0", 8ull << 30, 2);
  platform.deploy(spec, faas::StartMode::kPrebaked,
                  core::SnapshotPolicy::warmup(1));
  for (int i = 0; i < requests; ++i) {
    bool done = false;
    platform.invoke(spec.name,
                    funcs::sample_request(
                        platform.registry().get(spec.name).spec.handler_id),
                    [&done](const funcs::Response&, const faas::RequestMetrics&) {
                      done = true;
                    });
    while (!done && sim.step()) {
    }
    // Let the replica idle out so every request is a fresh cold start:
    // request #1 records, every later one prefetches.
    sim.run();
  }

  const core::BakedSnapshot& snap =
      platform.snapshots().get(spec.name, core::SnapshotPolicy::warmup(1));
  if (!snap.images.has(criu::kWsImageName)) {
    std::fprintf(stderr, "ws: no working set recorded for %s\n",
                 spec.name.c_str());
    return 1;
  }
  const criu::WorkingSetImage ws =
      criu::decode_ws(snap.images.get(criu::kWsImageName).bytes);
  const std::uint64_t snap_pages = snap.stats.pages_dumped;
  const double coverage =
      snap_pages == 0 ? 0.0
                      : static_cast<double>(ws.total_pages) /
                            static_cast<double>(snap_pages);

  const faas::PlatformStats& st = platform.stats();
  std::printf("%s: snapshot %llu payload pages (%s)\n", spec.name.c_str(),
              static_cast<unsigned long long>(snap_pages),
              exp::fmt_mib(snap.stats.payload_bytes).c_str());
  std::printf("recorded working set: %llu pages (%s) in %llu runs, "
              "%s of the snapshot\n",
              static_cast<unsigned long long>(ws.total_pages),
              exp::fmt_mib(ws.total_pages * os::kPageSize).c_str(),
              static_cast<unsigned long long>(ws.runs.size()),
              exp::fmt_percent(coverage).c_str());
  std::printf("restores: %llu recorded, %llu prefetched "
              "(%llu pages bulk-mapped), %llu fallbacks to pure-lazy\n",
              static_cast<unsigned long long>(st.ws_recordings),
              static_cast<unsigned long long>(st.ws_prefetch_starts),
              static_cast<unsigned long long>(st.ws_prefetched_pages),
              static_cast<unsigned long long>(st.ws_fallbacks));
  return 0;
}

// Layered-snapshot statistics (DESIGN.md §6k): deploy the function on a
// one-node layered platform and invoke it once — the deploy bakes the shared
// base runtime and the app delta, the invoke materializes the pinned base
// template and clones the function on top of it. Report the layer chain from
// the snapshot's manifest, the shared-base coverage of the function's
// payload, and which base templates each node holds resident.
int cmd_layers(const exp::CliArgs& args) {
  if (args.positional().size() < 2) {
    std::fprintf(stderr, "prebakectl layers: missing function name\n");
    return usage();
  }
  const rt::FunctionSpec spec = resolve_function(args.positional()[1]);

  sim::Simulation sim;
  os::Kernel kernel{sim, exp::testbed_costs()};
  faas::PlatformConfig cfg;
  cfg.layered = true;
  cfg.page_store = true;
  cfg.node_page_store_bytes = 2ull << 30;
  faas::Platform platform{kernel, exp::testbed_runtime(), cfg,
                          static_cast<std::uint64_t>(args.get_int_or("seed", 42))};
  platform.resources().add_node("w0", 8ull << 30, 2);
  platform.deploy(spec, faas::StartMode::kPrebaked,
                  core::SnapshotPolicy::warmup(1));
  bool done = false;
  platform.invoke(spec.name,
                  funcs::sample_request(
                      platform.registry().get(spec.name).spec.handler_id),
                  [&done](const funcs::Response&, const faas::RequestMetrics&) {
                    done = true;
                  });
  while (!done && sim.step()) {
  }

  const core::BakedSnapshot& snap =
      platform.snapshots().get(spec.name, core::SnapshotPolicy::warmup(1));
  if (!snap.images.has(criu::kLayersImageName)) {
    std::fprintf(stderr, "layers: %s baked monolithic (no layer manifest)\n",
                 spec.name.c_str());
    return 1;
  }
  const criu::LayerManifest manifest =
      criu::decode_layers(snap.images.get(criu::kLayersImageName).bytes);

  exp::TextTable chain{{"Layer", "Role", "Pages", "Zero", "Content digest"}};
  for (std::size_t i = 0; i < manifest.layers.size(); ++i) {
    const criu::LayerRef& l = manifest.layers[i];
    char digest[32];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(l.content_digest));
    chain.add_row({l.id, i + 1 == manifest.layers.size() ? "delta" : "base",
                   std::to_string(l.pages), std::to_string(l.zero_pages),
                   l.content_digest == 0 ? "(self)" : digest});
  }
  std::printf("%s: %zu-link chain\n%s", spec.name.c_str(),
              manifest.layers.size(), chain.to_string().c_str());

  // Coverage: the function's pages whose content the base already carries at
  // the same position — exactly what the split dump skipped out of the delta.
  const std::uint64_t delta_pages = manifest.layers.back().pages;
  const std::uint64_t total_pages = manifest.shared_pages + delta_pages;
  std::printf("delta %llu pages (%s); base covers %llu of %llu function "
              "pages (%s)\n",
              static_cast<unsigned long long>(delta_pages),
              exp::fmt_mib(delta_pages * os::kPageSize).c_str(),
              static_cast<unsigned long long>(manifest.shared_pages),
              static_cast<unsigned long long>(total_pages),
              exp::fmt_percent(total_pages == 0
                                   ? 0.0
                                   : static_cast<double>(manifest.shared_pages) /
                                         static_cast<double>(total_pages))
                  .c_str());

  const faas::PlatformStats& st = platform.stats();
  std::printf("starts: %llu layered (%llu base clones, %llu bases "
              "materialized, %llu full-chain fallbacks)\n",
              static_cast<unsigned long long>(st.layered_starts),
              static_cast<unsigned long long>(st.base_template_clones),
              static_cast<unsigned long long>(st.base_templates_materialized),
              static_cast<unsigned long long>(st.layered_full_restores));

  exp::TextTable residency{
      {"Node", "Template", "Kind", "Dependents", "Pinned pages"}};
  for (const faas::WorkerNode& n : platform.resources().nodes())
    for (const auto& [key, tpl] : n.store().templates())
      residency.add_row({n.name(), key,
                         tpl.base_key.empty() ? "base" : "delta",
                         std::to_string(n.store().template_dependents(key)),
                         std::to_string(n.store().pinned_pages(tpl))});
  std::printf("%s", residency.to_string().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const exp::CliArgs args{argc, argv};
  if (args.positional().empty()) return usage();
  const std::string& command = args.positional().front();
  try {
    int rc;
    if (command == "list") {
      rc = cmd_list();
    } else if (command == "startup") {
      rc = cmd_startup(args);
    } else if (command == "service") {
      rc = cmd_service(args);
    } else if (command == "bake-info") {
      rc = cmd_bake_info(args);
    } else if (command == "trace") {
      rc = cmd_trace(args);
    } else if (command == "nodes") {
      rc = cmd_nodes(args);
    } else if (command == "migrate") {
      rc = cmd_migrate(args);
    } else if (command == "store") {
      rc = cmd_store(args);
    } else if (command == "faults") {
      rc = cmd_faults(args);
    } else if (command == "workload") {
      rc = cmd_workload(args);
    } else if (command == "ws") {
      rc = cmd_ws(args);
    } else if (command == "layers") {
      rc = cmd_layers(args);
    } else {
      return usage();
    }
    for (const std::string& flag : args.unconsumed())
      std::fprintf(stderr, "warning: unused flag --%s\n", flag.c_str());
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
