// One workload of the repository benchmark, in one process. Prints a single
// JSON object: host-clock and simulated-clock results, the counts behind the
// output checks, and, when traced, per-layer numbers taken from the spans.
// perfbench/run.py builds this program, runs it and applies the checks.
//
//   perfbench --workload paper-functions|fleet-prebaked|fleet-cowclone
//             --seed N --seconds S --trace 0|1 [--spans FILE]
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "exp/scale.hpp"

using namespace perfbench;

namespace {

// Work per --seconds, sized so a timed phase takes about --seconds on a
// 4-core x86-64 host at the commit that introduced the benchmark. The amount
// of work is fixed by the arguments alone, so simulated results repeat.
// The two fleets replay prefixes of one arrival stream: a cow-clone cold
// start costs ~60x the host time of an eager-restore one.
constexpr double kPaperRequestsPerSecond = 180;
constexpr double kPrebakedRequestsPerSecond = 120'000;
constexpr double kCowCloneRequestsPerSecond = 3'000;
// Rounds of (set-up, timed phase) per run, each with its own seed derived
// from --seed. setup_s and requests_per_host_s are medians over the rounds,
// which spreads the host-clock measurement over the whole run.
constexpr int kRounds = 3;
// HostClock slices: about 0.1 s of a timed phase and 0.25 s of a fleet
// set-up, so the reference task adds about 1% to either. A paper-functions
// slice is four whole cycles of its three functions.
constexpr std::uint64_t kPaperSlice = 12;
constexpr std::uint64_t kPrebakedSlice = 8192;
constexpr std::uint64_t kCowCloneSlice = 256;
constexpr std::uint64_t kDeploySlice = 50;

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile, reported only where at least ten samples lie
// beyond it (q = 0.5 always qualifies from 20 samples up). Sorts `v`.
template <typename T>
std::optional<double> percentile(std::vector<T>& v, double q) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 0) return std::nullopt;
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(n))));
  if (n - rank < 10) return std::nullopt;
  return static_cast<double>(v[rank - 1]);
}

// The same for simulated nanoseconds, in milliseconds.
std::optional<double> percentile_ms(std::vector<std::int64_t>& ns, double q) {
  const std::optional<double> p = percentile(ns, q);
  return p ? std::optional<double>{*p / 1e6} : std::nullopt;
}

// Minimal JSON object writer; doubles keep every digit so the simulated
// results of two runs can be compared exactly.
class Json {
 public:
  Json& num(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return raw(key, std::isfinite(v) ? buf : "null");
  }
  Json& opt(const std::string& key, std::optional<double> v) {
    return v ? num(key, *v) : raw(key, "null");
  }
  Json& count(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  Json& str(const std::string& key, const std::string& v) {
    return raw(key, "\"" + v + "\"");
  }
  Json& raw(const std::string& key, const std::string& v) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + key + "\": ") + v;
    return *this;
  }
  std::string done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// Everything one workload run produces, before formatting. Counts and
// timed wall time sum over the rounds; samples pool across them.
struct Result {
  std::uint64_t attempted = 0, answered = 0, duplicates = 0, rejected = 0,
                mismatched = 0, cold_starts = 0;
  // One per round, in reference seconds (HostClock) and in wall seconds.
  std::vector<double> setup_s, setup_wall_s;
  std::vector<double> round_rate, round_wall_rate;  // answered per second
  std::vector<double> host_speed;  // HostClock::speed of each timed phase
  std::vector<std::uint64_t> pages_dumped;  // one per round
  double timed_s = 0.0;  // wall time of the timed phases' slices
  Samples samples;
  double mem_byte_seconds = 0.0;
  Json sim_layers;  // simulated or counted: identical across runs of a seed
  Json paper;       // per-function start medians (paper-functions only)
};

// Run one timed phase, whose body ticks the clock with the number answered
// so far, and record its time and answer rate.
template <typename Body>
void timed_phase(Result& r, std::uint64_t slice, Body&& body) {
  const std::uint64_t answered0 = r.answered;
  HostClock clock{slice};
  clock.start();
  body(clock);
  clock.stop();
  const auto answered = static_cast<double>(r.answered - answered0);
  r.timed_s += clock.wall_s();
  r.round_rate.push_back(answered / clock.reference_s());
  r.round_wall_rate.push_back(answered / clock.wall_s());
  r.host_speed.push_back(clock.speed());
}

template <typename Bed, typename Setup>
std::unique_ptr<Bed> timed_setup(Result& r, Recorder& rec, std::uint64_t slice,
                                 Setup&& setup) {
  HostClock clock{slice};
  clock.start();
  const std::int32_t span = rec.begin(Kind::kSetup);
  std::unique_ptr<Bed> bed = setup(clock);
  rec.end(span);
  clock.stop();
  r.setup_s.push_back(clock.reference_s());
  r.setup_wall_s.push_back(clock.wall_s());
  return bed;
}

std::uint64_t per_round(double per_second, double seconds) {
  return std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(per_second * seconds / kRounds));
}

double mib(std::uint64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

Result run_paper(std::uint64_t seed, double seconds, Recorder& rec) {
  Result r;
  const std::uint64_t n = per_round(kPaperRequestsPerSecond, seconds);
  std::vector<std::vector<double>> start_by_fn;
  std::vector<std::int64_t> restore_ns, post_restore_ns;
  std::vector<double> snapshot_mib;
  r.samples.reserve(n * kRounds);
  rec.reserve(4 * n * kRounds + 64);  // four spans per request
  restore_ns.reserve(n * kRounds);
  post_restore_ns.reserve(n * kRounds);
  std::uint64_t restore_attempts = 0, processes_end = 0;
  std::uint32_t id = 0;
  for (int round = 0; round < kRounds; ++round) {
    const std::uint64_t round_seed = sim::splitmix64(seed, round);
    std::unique_ptr<PaperBed> bed =
        timed_setup<PaperBed>(r, rec, 1, [&](HostClock& clock) {
          return setup_paper(round_seed, rec, clock);
        });
    const std::size_t n_fns = bed->functions.size();
    start_by_fn.resize(n_fns);

    // Generated inputs and their references, made by the funcs handlers
    // directly (sharing the bed's immutable source image). Neither is part
    // of set-up or of the timed phase.
    struct Input {
      funcs::Request req;
      std::string reference;
    };
    std::vector<std::vector<Input>> inputs(n_fns);
    for (std::size_t f = 0; f < n_fns; ++f) {
      const std::string& handler = bed->functions[f].built.spec.handler_id;
      std::vector<funcs::Request> reqs =
          handler == "markdown"
              ? markdown_requests(round_seed, 8)
              : std::vector<funcs::Request>{funcs::sample_request(handler)};
      for (funcs::Request& req : reqs) {
        std::string body =
            funcs::make_handler(handler, bed->assets)->handle(req).body;
        inputs[f].push_back(Input{std::move(req), std::move(body)});
      }
    }

    timed_phase(r, kPaperSlice, [&](HostClock& clock) {
      for (std::uint64_t i = 0; i < n; ++i) {
        const std::size_t f = i % n_fns;
        const PaperFunction& fn = bed->functions[f];
        const Input& in = inputs[f][(i / n_fns) % inputs[f].size()];
        const std::int32_t iter = rec.begin(Kind::kIteration, ++id);
        const sim::TimePoint arrival = bed->sim.now();

        core::PrebakedStartOptions options;
        options.restore.fs_prefix = fn.built.snapshot->fs_prefix;
        std::int32_t span = rec.begin(Kind::kStart, id);
        core::ReplicaProcess replica = bed->startup.start_prebaked(
            fn.built.spec, fn.built.snapshot->images, options,
            sim::Rng{sim::splitmix64(round_seed, i)});
        rec.end(span);

        span = rec.begin(Kind::kHandle, id);
        const funcs::Response res = replica.runtime->handle(in.req);
        rec.end(span);
        const sim::TimePoint responded = bed->sim.now();
        const sim::Duration service = replica.runtime->last_service_time();
        const std::uint64_t resident =
            bed->kernel.process(replica.pid).mm().resident_bytes();

        span = rec.begin(Kind::kReclaim, id);
        bed->startup.reclaim(replica);
        rec.end(span);
        rec.end(iter);
        clock.tick(i + 1);

        ++r.attempted;
        ++r.answered;
        ++r.cold_starts;
        if (!res.ok()) {
          ++r.rejected;
          continue;
        }
        if (res.body != in.reference) ++r.mismatched;
        const core::StartupBreakdown& b = replica.breakdown;
        start_by_fn[f].push_back(b.total.to_millis());
        r.samples.startup_ns.push_back(b.total.nanos_count());
        r.samples.total_ns.push_back((responded - arrival).nanos_count());
        r.samples.service_ns.push_back(service.nanos_count());
        restore_ns.push_back(b.restore_time.nanos_count());
        post_restore_ns.push_back((b.total - b.restore_time).nanos_count());
        restore_attempts += b.restore_attempts;
        r.mem_byte_seconds += static_cast<double>(resident) *
                              (bed->sim.now() - arrival).to_seconds();
      }
    });
    processes_end = std::max<std::uint64_t>(processes_end,
                                            bed->kernel.process_count());
    std::uint64_t pages = 0;
    for (const PaperFunction& fn : bed->functions)
      pages += fn.built.snapshot->stats.pages_dumped;
    r.pages_dumped.push_back(pages);
    if (round + 1 < kRounds) continue;

    std::string paper = "[";
    for (std::size_t f = 0; f < n_fns; ++f) {
      const PaperFunction& fn = bed->functions[f];
      Json j;
      j.str("function", fn.spec.name)
          .num("start_ms_p50", median_of(start_by_fn[f]))
          .num("paper_ms", fn.paper_prebake_ms)
          .count("n", start_by_fn[f].size());
      paper += (f == 0 ? "" : ", ") + j.done();
      snapshot_mib.push_back(mib(fn.built.snapshot->images.nominal_total()));
    }
    r.paper.raw("functions", paper + "]");
  }

  r.sim_layers.opt("core.restore_ms_p50", percentile_ms(restore_ns, 0.5))
      .opt("core.post_restore_ms_p50", percentile_ms(post_restore_ns, 0.5))
      .count("core.restore_attempts", restore_attempts)
      .count("criu.pages_dumped", r.pages_dumped.back())
      .num("criu.snapshot_mib_p50", median_of(snapshot_mib))
      .num("criu.snapshot_mib_max",
           *std::max_element(snapshot_mib.begin(), snapshot_mib.end()))
      .opt("rt.service_ms_p50", percentile_ms(r.samples.service_ns, 0.5))
      .count("os.processes_end", processes_end);
  return r;
}

Result run_fleet(std::uint64_t seed, double seconds, bool page_store,
                 Recorder& rec) {
  FleetConfig config;
  config.requests = per_round(page_store ? kCowCloneRequestsPerSecond
                                         : kPrebakedRequestsPerSecond,
                              seconds);
  config.page_store = page_store;

  Result r;
  std::vector<double> snapshot_mib;
  r.samples.reserve(config.requests * kRounds);
  // A request takes one invoke and about 3.4 simulation steps.
  rec.reserve(5 * config.requests * kRounds + 2 * config.functions * kRounds);
  std::uint64_t steps = 0, clones = 0, materialized = 0;
  std::size_t peak_pending = 0, peak_replicas = 0;
  std::uint64_t store_pages = 0, template_pages = 0, processes_end = 0;
  faas::PlatformStats moved;  // summed over rounds: every count is timed
  for (int round = 0; round < kRounds; ++round) {
    config.seed = sim::splitmix64(seed, round);
    std::unique_ptr<FleetBed> bed =
        timed_setup<FleetBed>(r, rec, kDeploySlice, [&](HostClock& clock) {
          return deploy_fleet(config, rec, clock);
        });

    const faas::PlatformStats before = bed->platform.stats();
    FleetReplay rep;
    timed_phase(r, page_store ? kCowCloneSlice : kPrebakedSlice,
                [&](HostClock& clock) {
      rep = replay_fleet(*bed, config, rec, r.samples, clock);
      r.answered += rep.answered;
    });
    r.attempted += rep.issued;
    r.duplicates += rep.duplicates;
    r.rejected += rep.rejected;
    r.mismatched += rep.mismatched;
    r.cold_starts += rep.cold_starts;
    r.mem_byte_seconds += bed->platform.fleet_mem_byte_seconds();
    steps += rep.steps;
    peak_pending = std::max(peak_pending, rep.peak_pending_events);
    peak_replicas = std::max(peak_replicas, rep.peak_replicas);

    const faas::PlatformStats& stats = bed->platform.stats();
    moved.cold_starts += stats.cold_starts - before.cold_starts;
    moved.replicas_reclaimed +=
        stats.replicas_reclaimed - before.replicas_reclaimed;
    moved.rejected += stats.rejected - before.rejected;
    moved.restore_fallbacks +=
        stats.restore_fallbacks - before.restore_fallbacks;
    moved.restore_retries += stats.restore_retries - before.restore_retries;
    const Counts counts = fleet_counts(*bed);
    clones += counts.template_clones;
    materialized += counts.templates_materialized;
    std::uint64_t pages = 0, pinned = 0;
    for (const faas::WorkerNode& node : bed->platform.resources().nodes()) {
      pages += node.store().stored_pages();
      pinned += node.store().template_pages();
    }
    store_pages = std::max(store_pages, pages);
    template_pages = std::max(template_pages, pinned);
    processes_end = std::max<std::uint64_t>(processes_end,
                                            bed->kernel.process_count());
    r.pages_dumped.push_back(0);
    for (std::uint32_t rank = 0; rank < config.functions; ++rank) {
      const core::BakedSnapshot& snap = bed->platform.snapshots().get(
          exp::scale_function_spec(rank).name,
          core::SnapshotPolicy::warmup(1));
      r.pages_dumped.back() += snap.stats.pages_dumped;
      if (round + 1 == kRounds)
        snapshot_mib.push_back(mib(snap.images.nominal_total()));
    }
  }

  r.sim_layers.count("sim.events", steps)
      .count("sim.peak_pending_events", peak_pending)
      .count("faas.cold_starts", moved.cold_starts)
      .count("faas.replicas_reclaimed", moved.replicas_reclaimed)
      .opt("faas.queue_wait_ms_p99", percentile_ms(r.samples.queue_ns, 0.99))
      .count("faas.rejected", moved.rejected)
      .count("faas.restore_fallbacks", moved.restore_fallbacks)
      .count("faas.restore_retries", moved.restore_retries)
      .count("faas.peak_replicas", peak_replicas)
      .count("criu.pages_dumped", r.pages_dumped.back())
      .num("criu.snapshot_mib_p50", median_of(snapshot_mib))
      .num("criu.snapshot_mib_max",
           *std::max_element(snapshot_mib.begin(), snapshot_mib.end()))
      .count("criu.template_clones", clones)
      .count("criu.templates_materialized", materialized)
      .num("criu.template_clone_share",
           r.cold_starts == 0 ? 0.0
                              : static_cast<double>(clones) /
                                    static_cast<double>(r.cold_starts))
      .count("criu.store_pages", store_pages)
      .count("criu.template_pages", template_pages)
      .opt("rt.service_ms_p50", percentile_ms(r.samples.service_ns, 0.5))
      .count("os.processes_end", processes_end);
  return r;
}

// Host-clock per-layer numbers from the spans. Spans under a set-up span
// give the deploy/bake numbers; all others belong to the timed phases.
std::string host_layers(const Result& r, const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times(spans);
  std::vector<Kind> root(spans.size());
  std::map<Kind, std::vector<double>> dur_us, self_us;
  std::vector<double> warm_invoke_us, cold_invoke_us;
  std::map<std::int32_t, double> bake_ms, dump_ns;  // per set-up span
  double layer_self[std::size(kLayerNames)] = {};
  std::int64_t roots_ns = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::int64_t ns = s.end_ns - s.start_ns;
    const double us = static_cast<double>(ns) / 1e3;
    root[i] = s.parent < 0 ? s.kind : root[static_cast<std::size_t>(s.parent)];
    if (s.kind == Kind::kDeploy) dur_us[s.kind].push_back(us);
    if (s.kind == Kind::kBake) bake_ms[s.parent] += us / 1e3;
    if (s.kind == Kind::kDeploy || s.kind == Kind::kBake)
      dump_ns[s.parent] += static_cast<double>(ns);
    if (root[i] == Kind::kSetup) continue;
    dur_us[s.kind].push_back(us);
    self_us[s.kind].push_back(static_cast<double>(self[i]) / 1e3);
    const auto layer = static_cast<std::size_t>(
        kKinds[static_cast<std::size_t>(s.kind)].layer);
    layer_self[layer] += static_cast<double>(self[i]) / 1e9;
    if (s.parent < 0) roots_ns += ns;
    if (s.kind == Kind::kInvoke)
      (s.delta.replicas_started > 0 ? cold_invoke_us : warm_invoke_us)
          .push_back(us);
  }
  // Set-up spans come in round order, as do the rounds' page counts.
  std::vector<double> bake_ms_per_setup, dump_ns_per_page;
  for (const auto& [setup, ms] : bake_ms) bake_ms_per_setup.push_back(ms);
  for (const auto& [setup, ns] : dump_ns)
    dump_ns_per_page.push_back(
        ns / static_cast<double>(r.pages_dumped[dump_ns_per_page.size()]));

  auto pct = [](std::vector<double>& v, double q, double div) {
    const std::optional<double> p = percentile(v, q);
    return p ? std::optional<double>{*p / div} : std::nullopt;
  };
  Json j;
  j.opt("sim.step_self_host_us_p50", pct(self_us[Kind::kStep], 0.5, 1))
      .opt("faas.deploy_host_ms_p50", pct(dur_us[Kind::kDeploy], 0.5, 1e3))
      .opt("faas.deploy_host_ms_p99", pct(dur_us[Kind::kDeploy], 0.99, 1e3))
      .opt("faas.invoke_warm_host_us_p50", pct(warm_invoke_us, 0.5, 1))
      .opt("faas.invoke_warm_host_us_p99", pct(warm_invoke_us, 0.99, 1))
      .opt("faas.invoke_cold_host_us_p50", pct(cold_invoke_us, 0.5, 1))
      .opt("faas.invoke_cold_host_us_p99", pct(cold_invoke_us, 0.99, 1))
      .opt("core.bake_host_ms",
           bake_ms_per_setup.empty()
               ? std::nullopt
               : std::optional{median_of(bake_ms_per_setup)})
      .opt("core.start_host_us_p50", pct(dur_us[Kind::kStart], 0.5, 1))
      .opt("core.start_host_us_p99", pct(dur_us[Kind::kStart], 0.99, 1))
      .opt("core.reclaim_host_us_p50", pct(dur_us[Kind::kReclaim], 0.5, 1))
      .num("criu.dump_host_ns_per_page", median_of(dump_ns_per_page))
      .opt("rt.handle_host_us_p50", pct(dur_us[Kind::kHandle], 0.5, 1))
      .opt("rt.handle_host_us_p99", pct(dur_us[Kind::kHandle], 0.99, 1));
  for (std::size_t l = 0; l < std::size(kLayerNames); ++l)
    j.num(std::string{kLayerNames[l]} + ".self_share",
          layer_self[l] / r.timed_s);
  j.num("bench.uncovered_share",
        (r.timed_s - static_cast<double>(roots_ns) / 1e9) / r.timed_s);
  return j.done();
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "paper-functions|fleet-prebaked|fleet-cowclone --seed N "
               "--seconds S --trace 0|1 [--spans FILE]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, spans_path;
  std::optional<std::uint64_t> seed;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
    const char* v = argv[++i];
    if (arg == "--workload") workload = v;
    else if (arg == "--seed") seed = std::strtoull(v, nullptr, 10);
    else if (arg == "--seconds") seconds = std::strtod(v, nullptr);
    else if (arg == "--trace") trace = std::atoi(v);
    else if (arg == "--spans") spans_path = v;
    else usage(("unknown argument " + arg).c_str());
  }
  if (!seed || !(seconds > 0.0) || (trace != 0 && trace != 1))
    usage("--seed, --seconds > 0 and --trace 0|1 are required");

  // A fixed threshold gives every buffer of 4 MiB or more (the resizer's
  // source image, rebuilt each round) its own mapping, returned to the OS
  // when freed. glibc's adaptive threshold would instead let a freed one
  // linger in the heap depending on allocation order, and peak_rss_mib
  // would jump by an image between seeds.
  mallopt(M_MMAP_THRESHOLD, 4 << 20);

  Recorder rec{trace == 1};
  Result r;
  if (workload == "paper-functions")
    r = run_paper(*seed, seconds, rec);
  else if (workload == "fleet-prebaked")
    r = run_fleet(*seed, seconds, false, rec);
  else if (workload == "fleet-cowclone")
    r = run_fleet(*seed, seconds, true, rec);
  else
    usage(("unknown workload " + workload).c_str());

  rusage usage_self{};
  getrusage(RUSAGE_SELF, &usage_self);
  const std::uint64_t unanswered = r.attempted - r.answered;
  const std::uint64_t failed = r.rejected + unanswered + r.mismatched;

  auto list = [](const std::vector<double>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
      out += (i == 0 ? "" : ", ") + std::to_string(v[i]);
    return out + "]";
  };
  Json host;
  host.num("setup_s", median_of(r.setup_s))
      .num("requests_per_host_s", median_of(r.round_rate))
      .num("peak_rss_mib", static_cast<double>(usage_self.ru_maxrss) / 1024.0)
      .num("timed_s", r.timed_s)
      .raw("setup_s_each", list(r.setup_s))
      .raw("setup_wall_s_each", list(r.setup_wall_s))
      .raw("rate_each", list(r.round_rate))
      .raw("wall_rate_each", list(r.round_wall_rate))
      .raw("host_speed_each", list(r.host_speed));

  Json simj;
  simj.opt("start_ms_p50", percentile_ms(r.samples.startup_ns, 0.5))
      .opt("start_ms_p99", percentile_ms(r.samples.startup_ns, 0.99))
      .opt("request_ms_p50", percentile_ms(r.samples.total_ns, 0.5))
      .opt("request_ms_p99", percentile_ms(r.samples.total_ns, 0.99))
      .num("cold_start_share", static_cast<double>(r.cold_starts) /
                                   static_cast<double>(r.answered))
      .num("mem_gb_h", r.mem_byte_seconds / 3.6e12)
      .num("failed_share",
           static_cast<double>(failed) / static_cast<double>(r.attempted));

  Json counts;
  counts.count("attempted", r.attempted)
      .count("answered", r.answered)
      .count("duplicates", r.duplicates)
      .count("unanswered", unanswered)
      .count("rejected", r.rejected)
      .count("mismatched", r.mismatched)
      .count("failed", failed)
      .count("start_ms", r.samples.startup_ns.size())
      .count("request_ms", r.samples.total_ns.size());

  Json out;
  out.str("workload", workload)
      .count("seed", *seed)
      .raw("counts", counts.done())
      .raw("host", host.done())
      .raw("sim", simj.done())
      .raw("sim_layers", r.sim_layers.done())
      .raw("paper", r.paper.done());
  if (rec.enabled()) {
    out.raw("host_layers", host_layers(r, rec.spans()))
        .count("spans", rec.spans().size());
    if (!spans_path.empty()) write_spans(spans_path, rec.spans());
  }
  std::printf("%s\n", out.done().c_str());
  return 0;
}
