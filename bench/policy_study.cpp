// Keep-alive policy study (EXPERIMENTS.md): four replica-lifecycle policies
// under the same streaming Zipf workload — 10^6 requests over a 1000-function
// fleet — measuring the cold-start rate, tail latency, and the provider's
// memory bill (byte-seconds of placed replicas):
//
//   prebaked  — snapshot restore on every cold start, 60 s idle reclaim
//   keepalive — Vanilla starts, fixed 10-minute keep-alive (the public-
//               platform default the paper argues against)
//   warmpool  — Vanilla starts, 60 s reclaim, min-idle pool of one replica
//               per function
//   cowclone  — prebaked + content-addressed page store (COW template
//               restores, DESIGN.md §6f)
//
// `--check` is the regression gate: it asserts the policy ordering
// (warmpool <= keepalive <= prebaked on cold-start rate; keepalive pays more
// byte-seconds than prebaked; prebaked colds are faster than Vanilla colds),
// and then drives the 10^7-request / 2000-function scenario to completion,
// asserting the engine's peak footprint stays O(active replicas + functions)
// rather than O(trace length).
#include <cinttypes>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/report.hpp"
#include "exp/scale.hpp"
#include "gate.hpp"

using namespace prebake;

namespace {

struct Cell {
  exp::KeepAlivePolicy policy;
  double zipf_s;
};

constexpr Cell kCells[] = {
    {exp::KeepAlivePolicy::kPrebaked, 0.6},
    {exp::KeepAlivePolicy::kKeepAlive, 0.6},
    {exp::KeepAlivePolicy::kWarmPool, 0.6},
    {exp::KeepAlivePolicy::kCowClone, 0.6},
    {exp::KeepAlivePolicy::kPrebaked, 1.0},
    {exp::KeepAlivePolicy::kKeepAlive, 1.0},
    {exp::KeepAlivePolicy::kWarmPool, 1.0},
    {exp::KeepAlivePolicy::kCowClone, 1.0},
};

exp::ScaleScenarioConfig study_config(const Cell& cell) {
  exp::ScaleScenarioConfig cfg;
  cfg.functions = 1000;
  cfg.requests = 1'000'000;
  // Low aggregate rate so the Zipf tail's inter-arrival gaps straddle both
  // the 60 s reclaim and the 600 s keep-alive — the regime where the
  // policies actually differ. (At high rate everything stays warm.)
  cfg.rate_hz = 20.0;
  cfg.zipf_s = cell.zipf_s;
  cfg.policy = cell.policy;
  cfg.seed = 42;
  return cfg;
}

exp::ScaleScenarioResult run_cell(const Cell& cell) {
  return exp::run_scale_scenario(study_config(cell));
}

using Outcome = bench::Outcome<Cell, exp::ScaleScenarioResult>;

void json_row(const Outcome& o, bench::Row& row) {
  const exp::ScaleScenarioResult& r = o.r;
  row.add("policy", "\"%s\"", exp::keep_alive_policy_name(o.cell.policy))
      .add("zipf_s", "%.1f", o.cell.zipf_s)
      .add("requests", "%" PRIu64, r.requests)
      .add("functions", "%u", r.functions_deployed)
      .add("responses_ok", "%" PRIu64, r.responses_ok)
      .add("rejected", "%" PRIu64, r.rejected)
      .add("fallback_served", "%" PRIu64, r.fallback_served)
      .add("cold_starts", "%" PRIu64, r.cold_starts)
      .add("cold_start_rate", "%.6f", r.cold_start_rate)
      .add("total_p50_ms", "%.3f", r.total_p50_ms)
      .add("total_p99_ms", "%.3f", r.total_p99_ms)
      .add("total_p999_ms", "%.3f", r.total_p999_ms)
      .add("cold_startup_p50_ms", "%.3f", r.cold_startup_p50_ms)
      .add("cold_startup_p99_ms", "%.3f", r.cold_startup_p99_ms)
      .add("mem_byte_seconds", "%.6e", r.mem_byte_seconds)
      .add("replicas_started", "%" PRIu64, r.replicas_started)
      .add("peak_replicas", "%zu", r.peak_replicas)
      .add("peak_pending_events", "%zu", r.peak_pending_events)
      .add("makespan_s", "%.3f", r.makespan_s);
}

std::string fmt_gb_h(double byte_seconds) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f GB·h", byte_seconds / 3.6e12);
  return buf;
}

void report(const std::vector<Outcome>& outcomes) {
  exp::TextTable table{{"Policy", "Zipf s", "Cold rate", "p50", "p99",
                        "p99.9", "Cold p50", "Memory"}};
  for (const auto& [cell, r] : outcomes) {
    char rate[32];
    std::snprintf(rate, sizeof rate, "%.2f%%", 100.0 * r.cold_start_rate);
    char s[16];
    std::snprintf(s, sizeof s, "%.1f", cell.zipf_s);
    table.add_row({exp::keep_alive_policy_name(cell.policy), s, rate,
                   exp::fmt_ms(r.total_p50_ms), exp::fmt_ms(r.total_p99_ms),
                   exp::fmt_ms(r.total_p999_ms),
                   exp::fmt_ms(r.cold_startup_p50_ms),
                   fmt_gb_h(r.mem_byte_seconds)});
  }
  std::printf("%s\n", table.to_string().c_str());
  std::printf(
      "Shape: prebaking trades a higher cold-start *frequency* (short\n"
      "reclaim) for a ~8x cheaper cold start and a fraction of the\n"
      "keep-alive policies' memory byte-seconds; the COW page store makes\n"
      "the restore itself cheaper still.\n\n");
}

const exp::ScaleScenarioResult& find(const std::vector<Outcome>& outcomes,
                                     exp::KeepAlivePolicy policy, double s) {
  for (const auto& [cell, r] : outcomes)
    if (cell.policy == policy && cell.zipf_s == s) return r;
  throw std::logic_error{"policy_study: no such cell"};
}

// Policy-ordering gates per skew value, then the 10^7-request completion
// gate: the streaming engine must sustain an order-of-magnitude larger trace
// with a footprint that tracks the active set, not the trace.
void check_gates(const std::vector<Outcome>& outcomes, bench::Gates& g) {
  for (double s : {0.6, 1.0}) {
    const auto& pre = find(outcomes, exp::KeepAlivePolicy::kPrebaked, s);
    const auto& keep = find(outcomes, exp::KeepAlivePolicy::kKeepAlive, s);
    const auto& pool = find(outcomes, exp::KeepAlivePolicy::kWarmPool, s);
    const auto& cow = find(outcomes, exp::KeepAlivePolicy::kCowClone, s);

    // Cold-start frequency: the pool never misses, the long keep-alive
    // rarely misses, short-reclaim prebaking misses on every tail gap.
    g.check(pool.cold_start_rate <= keep.cold_start_rate + 1e-3,
            "s=%.1f: warmpool cold rate %.4f > keepalive %.4f", s,
            pool.cold_start_rate, keep.cold_start_rate);
    g.check(keep.cold_start_rate <= pre.cold_start_rate + 1e-3,
            "s=%.1f: keepalive cold rate %.4f > prebaked %.4f", s,
            keep.cold_start_rate, pre.cold_start_rate);
    g.check(pre.cold_start_rate >= 0.01,
            "s=%.1f: prebaked cold rate %.4f < 1%% — the regime is not "
            "exercising cold starts",
            s, pre.cold_start_rate);
    // The provider's bill: keeping replicas warm is what costs memory.
    g.check(keep.mem_byte_seconds > pre.mem_byte_seconds,
            "s=%.1f: keepalive byte-seconds %.3e <= prebaked %.3e", s,
            keep.mem_byte_seconds, pre.mem_byte_seconds);
    // The paper's claim: a restored cold start beats a Vanilla cold start.
    g.check(pre.cold_startup_p50_ms < keep.cold_startup_p50_ms,
            "s=%.1f: prebaked cold p50 %.2f ms >= Vanilla cold p50 %.2f ms",
            s, pre.cold_startup_p50_ms, keep.cold_startup_p50_ms);
    // §6f: COW template clones undercut even the snapshot restore.
    g.check(cow.cold_startup_p50_ms <= pre.cold_startup_p50_ms,
            "s=%.1f: cowclone cold p50 %.2f ms > prebaked %.2f ms", s,
            cow.cold_startup_p50_ms, pre.cold_startup_p50_ms);
  }

  exp::ScaleScenarioConfig cfg;
  cfg.functions = 2000;
  cfg.requests = 10'000'000;
  cfg.rate_hz = 200.0;
  cfg.zipf_s = 1.0;
  cfg.policy = exp::KeepAlivePolicy::kPrebaked;
  cfg.seed = 42;
  std::printf("scale gate: %u functions, %" PRIu64 " requests...\n",
              cfg.functions, cfg.requests);
  const exp::ScaleScenarioResult r = exp::run_scale_scenario(cfg);
  g.check(r.responses_ok + r.rejected == cfg.requests,
          "%" PRIu64 " ok + %" PRIu64 " rejected != %" PRIu64 " issued",
          r.responses_ok, r.rejected, cfg.requests);
  // O(active replicas + functions), not O(requests): the pending-event and
  // replica peaks must be explained by the active set with a constant
  // factor, five orders of magnitude below the trace length.
  const std::size_t budget = 64 * (r.peak_replicas + cfg.functions);
  g.check(r.peak_pending_events <= budget,
          "peak pending events %zu > 64*(replicas+functions) = %zu",
          r.peak_pending_events, budget);
  g.check(r.peak_replicas <= 2 * cfg.functions,
          "peak replicas %zu > 2*functions", r.peak_replicas);
  std::printf("scale gate: ok=%" PRIu64
              " cold_rate=%.4f peak_events=%zu peak_replicas=%zu\n",
              r.responses_ok, r.cold_start_rate, r.peak_pending_events,
              r.peak_replicas);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags =
      bench::parse_flags(argc, argv, "policy_study", bench::kCheck,
                         "BENCH_policy_study.json");
  std::printf("== Keep-alive policy study: 10^6-request Zipf fleet "
              "(EXPERIMENTS.md) ==\n\n");
  return bench::run<Cell, exp::ScaleScenarioResult>(
      flags, {.cells = kCells, .run_cell = run_cell, .row = json_row,
              .report = report, .gates = check_gates});
}
