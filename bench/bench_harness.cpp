// Wall-clock harness for the experiment engine itself (not a paper figure).
//
// Times the fig3 and fig5 sweeps three ways — the seed's serial runner
// (run_startup_scenario_reference), the parallel engine pinned to one
// thread, and the parallel engine at N threads — and writes the numbers to
// BENCH_harness.json. The speedup column is serial_ms / parallel_ms, i.e.
// the end-to-end win of the new engine (shared bake + decode caches +
// sharding) over the seed harness.
//
// --check runs a reduced-repetition regression gate instead: it asserts
// that the engine is bit-identical across thread counts and that the
// reproduced paper numbers are still in range, exiting non-zero otherwise
// (wired into CTest via tools/run_benches.sh --check).
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "exp/calibration.hpp"
#include "exp/parallel_runner.hpp"
#include "exp/scenario.hpp"
#include "gate.hpp"
#include "obs/export.hpp"
#include "stats/bootstrap.hpp"
#include "stats/descriptive.hpp"
#include "util/thread_pool.hpp"

using namespace prebake;

namespace {

using Clock = std::chrono::steady_clock;

double wall_ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

std::vector<exp::ScenarioConfig> fig3_cells(int reps) {
  const rt::FunctionSpec specs[] = {exp::noop_spec(), exp::markdown_spec(),
                                    exp::image_resizer_spec()};
  std::vector<exp::ScenarioConfig> cells;
  for (const rt::FunctionSpec& spec : specs) {
    for (const exp::Technique tech :
         {exp::Technique::kVanilla, exp::Technique::kPrebakeNoWarmup}) {
      exp::ScenarioConfig cfg;
      cfg.spec = spec;
      cfg.technique = tech;
      cfg.repetitions = reps;
      cfg.seed = 42;
      cells.push_back(cfg);
    }
  }
  return cells;
}

std::vector<exp::ScenarioConfig> fig5_cells(int reps) {
  std::vector<exp::ScenarioConfig> cells;
  for (const exp::SynthSize size :
       {exp::SynthSize::kSmall, exp::SynthSize::kMedium, exp::SynthSize::kBig}) {
    exp::ScenarioConfig cfg;
    cfg.spec = exp::synthetic_spec(size);
    cfg.technique = exp::Technique::kVanilla;
    cfg.repetitions = reps;
    cfg.measure_first_response = true;
    cfg.seed = 42;
    cells.push_back(cfg);
  }
  return cells;
}

struct SweepTiming {
  std::string name;
  std::size_t cells = 0;
  int repetitions = 0;
  double serial_ms = 0.0;         // seed's serial runner
  double engine_serial_ms = 0.0;  // new engine, 1 thread
  double parallel_ms = 0.0;       // new engine, N threads
  double speedup() const { return serial_ms / parallel_ms; }
};

SweepTiming time_sweep(const std::string& name,
                       const std::vector<exp::ScenarioConfig>& cells,
                       int threads) {
  SweepTiming t;
  t.name = name;
  t.cells = cells.size();
  t.repetitions = cells.front().repetitions;

  auto t0 = Clock::now();
  for (const exp::ScenarioConfig& cfg : cells)
    (void)exp::run_startup_scenario_reference(cfg);
  t.serial_ms = wall_ms_since(t0);

  t0 = Clock::now();
  (void)exp::ParallelRunner{1}.run_startup(cells);
  t.engine_serial_ms = wall_ms_since(t0);

  t0 = Clock::now();
  (void)exp::ParallelRunner{threads}.run_startup(cells);
  t.parallel_ms = wall_ms_since(t0);
  return t;
}

bench::Json to_json(int threads, const std::vector<SweepTiming>& rows) {
  bench::Json json{"figures"};
  json.header.add("threads", "%d", threads);
  for (const SweepTiming& r : rows)
    json.row()
        .add("figure", "\"%s\"", r.name.c_str())
        .add("cells", "%zu", r.cells)
        .add("repetitions", "%d", r.repetitions)
        .add("serial_ms", "%.1f", r.serial_ms)
        .add("engine_serial_ms", "%.1f", r.engine_serial_ms)
        .add("parallel_ms", "%.1f", r.parallel_ms)
        .add("speedup", "%.2f", r.speedup());
  return json;
}

// --- --check mode ----------------------------------------------------------

int run_check(int threads) {
  const int reps = 40;
  std::printf("bench_harness --check (reps=%d, threads=%d)\n", reps, threads);
  bench::Gates g;
  const auto near = [&g](double got, double want, const char* what) {
    g.check(std::fabs(got - want) <= 0.10 * want,
            "%s: got %.2f, want %.2f +/- 10%%", what, got, want);
  };

  // 1. Determinism: the engine must be bit-identical across thread counts.
  const auto cells = fig3_cells(reps);
  const auto at1 = exp::ParallelRunner{1}.run_startup(cells);
  const auto atN = exp::ParallelRunner{threads}.run_startup(cells);
  bool identical = at1.size() == atN.size();
  for (std::size_t i = 0; identical && i < at1.size(); ++i)
    identical = at1[i].startup_ms == atN[i].startup_ms;
  g.check(identical, "startup_ms differs between 1 and %d threads", threads);

  const auto ci1 = stats::bootstrap_median_ci(at1[0].startup_ms, 0.95, 2000,
                                              0x9b0074bead5ULL, 1);
  const auto ciN = stats::bootstrap_median_ci(atN[0].startup_ms, 0.95, 2000,
                                              0x9b0074bead5ULL, threads);
  g.check(ci1.lo == ciN.lo && ci1.hi == ciN.hi && ci1.point == ciN.point,
          "bootstrap CI differs between 1 and %d threads", threads);

  // 2. Reproduction: the paper's headline numbers must still be in range
  // (Figure 3 medians; Figure 5 growth with code size).
  near(stats::median(atN[0].startup_ms), 103.3,
       "fig3 NOOP Vanilla median (ms)");
  near(stats::median(atN[1].startup_ms), 62.0,
       "fig3 NOOP Prebaking median (ms)");
  near(stats::median(atN[4].startup_ms), 310.0,
       "fig3 Resizer Vanilla median (ms)");
  near(stats::median(atN[5].startup_ms), 87.0,
       "fig3 Resizer Prebaking median (ms)");

  const auto f5 = exp::ParallelRunner{threads}.run_startup(fig5_cells(reps));
  near(stats::median(f5[0].startup_ms), 219.8,
       "fig5 small Vanilla median (ms)");
  near(stats::median(f5[2].startup_ms), 1621.0, "fig5 big Vanilla median (ms)");
  return g.verdict();
}

// --- --trace mode ----------------------------------------------------------

// Trace the fig3 NOOP prebaked cell with the structured tracer on and
// export Chrome trace_event JSON (about:tracing / Perfetto loadable). The
// interesting nesting — scenario > replica-start > start.prebaked >
// criu.restore > per-image reads — is asserted by tools/run_benches.sh
// --trace against tools/trace_schema.jq.
int run_trace(const std::string& path, int reps, int threads) {
  exp::ScenarioConfig cfg;
  cfg.spec = exp::noop_spec();
  cfg.technique = exp::Technique::kPrebakeNoWarmup;
  cfg.repetitions = reps;
  cfg.seed = 42;
  cfg.threads = threads;

  obs::TraceReport trace;
  exp::run_startup_scenario(cfg, &trace);
  std::printf("bench_harness --trace: fig3 NOOP %s, %d reps, %zu spans (load "
              "in about:tracing / Perfetto)\n",
              exp::technique_name(cfg.technique), reps, trace.spans.size());
  return bench::write_file(path, obs::to_chrome_json(trace)) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags = bench::parse_flags(
      argc, argv, "bench_harness",
      bench::kCheck | bench::kThreads | bench::kReps | bench::kTrace,
      "BENCH_harness.json");
  const int threads =
      flags.threads < 1 ? util::resolve_threads(0) : flags.threads;
  const int reps = flags.reps;

  if (!flags.trace.empty()) return run_trace(flags.trace, reps, threads);
  if (flags.check) return run_check(threads);

  std::printf("bench_harness: timing fig3 + fig5 sweeps "
              "(reps=%d, threads=%d)\n\n",
              reps, threads);
  std::vector<SweepTiming> rows;
  rows.push_back(time_sweep("fig3", fig3_cells(reps), threads));
  rows.push_back(time_sweep("fig5", fig5_cells(reps), threads));

  SweepTiming agg;
  agg.name = "fig3+fig5";
  agg.cells = rows[0].cells + rows[1].cells;
  agg.repetitions = reps;
  for (const SweepTiming& r : rows) {
    agg.serial_ms += r.serial_ms;
    agg.engine_serial_ms += r.engine_serial_ms;
    agg.parallel_ms += r.parallel_ms;
  }
  rows.push_back(agg);

  std::printf("%-10s %6s %6s %12s %16s %12s %8s\n", "figure", "cells", "reps",
              "serial_ms", "engine1_ms", "parallel_ms", "speedup");
  for (const SweepTiming& r : rows)
    std::printf("%-10s %6zu %6d %12.1f %16.1f %12.1f %7.2fx\n", r.name.c_str(),
                r.cells, r.repetitions, r.serial_ms, r.engine_serial_ms,
                r.parallel_ms, r.speedup());
  std::printf("\n");
  return bench::write_file(flags.out, to_json(threads, rows).render()) ? 0 : 1;
}
