// Streaming trace sources and the memory-bounded replay (DESIGN.md §6h):
// source validation, Zipf sampler determinism, CSV round-trips, and the
// accounting of replay_trace_stream.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <optional>
#include <vector>

#include "exp/calibration.hpp"
#include "faas/platform.hpp"
#include "faas/trace.hpp"
#include "faas/trace_source.hpp"
#include "os/kernel.hpp"
#include "rt/classfile.hpp"
#include "sim/simulation.hpp"

using namespace prebake;
using faas::drain;

namespace {

rt::FunctionSpec tiny_spec(const std::string& name) {
  rt::FunctionSpec spec;
  spec.name = name;
  spec.handler_id = "noop";
  spec.init_classes = rt::synth_class_set("s", 4, 40'000, 0x11u);
  spec.appinit_compute = sim::Duration::millis(1);
  return spec;
}

}  // namespace

TEST(TraceStreamPoisson, ExhaustedSourceStaysExhausted) {
  faas::PoissonTraceSource source{"fn", 50.0, sim::Duration::seconds(1),
                                  sim::Rng{3}};
  drain(source);
  EXPECT_FALSE(source.next().has_value());
  EXPECT_FALSE(source.next().has_value());
}

TEST(TraceStreamDiurnal, ValidationNamesBothRates) {
  try {
    faas::DiurnalTraceSource bad{"fn", 5.0, 1.0, sim::Duration::seconds(60),
                                 sim::Duration::seconds(60), 1};
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("base_rate_hz=5"), std::string::npos) << msg;
    EXPECT_NE(msg.find("peak_rate_hz=1"), std::string::npos) << msg;
  }
}

TEST(TraceStreamZipf, SamplerGoldenSequence) {
  // Pinned draw sequence: any change to the CDF construction or the
  // uniform-draw protocol shows up here before it silently reshuffles
  // every seeded workload in the policy study.
  faas::ZipfSampler sampler{16, 1.0};
  sim::Rng rng{123};
  const std::uint32_t expected[] = {4, 9, 4,  2, 0, 3, 6, 11,
                                    13, 4, 7, 2, 14, 1, 5, 2};
  for (std::uint32_t want : expected) EXPECT_EQ(sampler.sample(rng), want);
}

TEST(TraceStreamZipf, ProbabilitiesFollowThePowerLaw) {
  faas::ZipfSampler sampler{16, 1.0};
  // H(16) = sum 1/k ~ 3.3807; P(0) = 1/H, and P(i) ~ 1/(i+1).
  EXPECT_NEAR(sampler.probability(0), 0.295794, 1e-5);
  EXPECT_NEAR(sampler.probability(1) / sampler.probability(0), 0.5, 1e-9);
  EXPECT_NEAR(sampler.probability(15) / sampler.probability(0), 1.0 / 16.0,
              1e-9);
}

TEST(TraceStreamZipf, ZeroSkewIsUniform) {
  faas::ZipfSampler sampler{8, 0.0};
  for (std::uint32_t i = 0; i < 8; ++i)
    EXPECT_NEAR(sampler.probability(i), 0.125, 1e-12);
}

TEST(TraceStreamZipf, SourceIsSeedDeterministic) {
  faas::ZipfTraceConfig cfg;
  cfg.functions = 20;
  cfg.rate_hz = 50.0;
  cfg.duration = sim::Duration::seconds(60);
  cfg.seed = 99;
  faas::ZipfTraceSource a{cfg};
  faas::ZipfTraceSource b{cfg};
  EXPECT_EQ(drain(a), drain(b));
}

TEST(TraceStreamZipf, MaxEventsBoundsTheStream) {
  faas::ZipfTraceConfig cfg;
  cfg.functions = 10;
  cfg.rate_hz = 100.0;
  cfg.duration = sim::Duration::seconds(3600);
  cfg.max_events = 250;
  faas::ZipfTraceSource source{cfg};
  EXPECT_EQ(drain(source).size(), 250u);
  EXPECT_FALSE(source.next().has_value());
}

TEST(TraceStreamZipf, EventsAreOrderedAndNamedByRank) {
  faas::ZipfTraceConfig cfg;
  cfg.functions = 5;
  cfg.rate_hz = 30.0;
  cfg.duration = sim::Duration::seconds(30);
  faas::ZipfTraceSource source{cfg};
  ASSERT_EQ(source.function_names().size(), 5u);
  EXPECT_EQ(source.function_names()[0], "fn-0");
  sim::Duration prev{};
  std::size_t count = 0;
  while (std::optional<faas::TraceEvent> e = source.next()) {
    EXPECT_GE(e->at, prev);
    prev = e->at;
    EXPECT_EQ(e->function.rfind("fn-", 0), 0u);
    ++count;
  }
  EXPECT_GT(count, 100u);
}

TEST(TraceStreamCsv, StreamedTraceRoundTrips) {
  faas::ZipfTraceConfig cfg;
  cfg.functions = 12;
  cfg.rate_hz = 40.0;
  cfg.duration = sim::Duration::seconds(30);
  cfg.seed = 5;
  faas::ZipfTraceSource source{cfg};
  const auto events = drain(source);
  ASSERT_GT(events.size(), 100u);

  const std::string csv = faas::format_trace_csv(events);
  const auto parsed = faas::parse_trace_csv(csv);
  ASSERT_EQ(parsed.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(parsed[i].function, events[i].function);
    // The format keeps 3 decimals of milliseconds — microsecond precision.
    EXPECT_LE(std::abs((parsed[i].at - events[i].at).to_millis()), 0.0005);
  }
  // A second round-trip is exact: the format is a fixed point.
  EXPECT_EQ(faas::format_trace_csv(parsed), csv);
}

namespace {

// Two identical single-node platforms over one simulation each; used to
// compare the streaming replay against the materialized one.
struct ReplayRig {
  sim::Simulation sim;
  os::Kernel kernel{sim, exp::testbed_costs()};
  faas::Platform platform;

  explicit ReplayRig(std::uint64_t seed, faas::PlatformConfig cfg = {})
      : platform{kernel, exp::testbed_runtime(), cfg, seed} {
    platform.resources().add_node("n1", 8ull << 30);
  }
};

faas::ZipfTraceConfig small_workload() {
  faas::ZipfTraceConfig cfg;
  cfg.functions = 8;
  cfg.rate_hz = 20.0;
  cfg.duration = sim::Duration::seconds(120);
  cfg.seed = 21;
  return cfg;
}

void deploy_fleet(faas::Platform& platform, const faas::ZipfTraceSource& src) {
  for (const std::string& name : src.function_names())
    platform.deploy(tiny_spec(name), faas::StartMode::kPrebaked,
                    core::SnapshotPolicy::warmup(1));
}

// The reference the streaming replay must match: schedule every arrival up
// front, then step until each one is answered.
struct UpFrontReplay {
  std::uint64_t answered = 0;
  std::uint64_t ok = 0;
  std::uint64_t rejected = 0;
  std::uint64_t fallback = 0;
  sim::Duration makespan;
};

UpFrontReplay replay_up_front(faas::Platform& platform,
                              const std::vector<faas::TraceEvent>& events) {
  auto out = std::make_shared<UpFrontReplay>();
  sim::Simulation& sim = platform.kernel().sim();
  const sim::TimePoint start = sim.now();
  for (const faas::TraceEvent& e : events)
    sim.schedule_at(start + e.at, [out, &platform, fn = e.function] {
      platform.invoke(
          fn,
          funcs::sample_request(platform.registry().get(fn).spec.handler_id),
          [out](const funcs::Response& res, const faas::RequestMetrics& m) {
            ++out->answered;
            if (!res.ok()) {
              ++out->rejected;
              return;
            }
            ++out->ok;
            if (m.fallback) ++out->fallback;
          });
    });
  while (out->answered < events.size() && sim.step()) {
  }
  out->makespan = sim.now() - start;
  return *out;
}

}  // namespace

TEST(TraceStreamReplay, MatchesMaterializedReplay) {
  const faas::ZipfTraceConfig wl = small_workload();

  ReplayRig a{7};
  faas::ZipfTraceSource src_a{wl};
  deploy_fleet(a.platform, src_a);
  const faas::StreamReplayResult streamed =
      faas::replay_trace_stream(a.platform, src_a);

  ReplayRig b{7};
  faas::ZipfTraceSource src_b{wl};
  deploy_fleet(b.platform, src_b);
  const auto events = drain(src_b);
  const UpFrontReplay ref = replay_up_front(b.platform, events);

  EXPECT_EQ(streamed.events, events.size());
  EXPECT_EQ(streamed.responses_ok, ref.ok);
  EXPECT_EQ(streamed.responses_rejected, ref.rejected);
  EXPECT_EQ(streamed.responses_fallback, ref.fallback);
  EXPECT_EQ(streamed.makespan, ref.makespan);
  EXPECT_EQ(a.platform.stats().cold_starts, b.platform.stats().cold_starts);
}

TEST(TraceStreamReplay, BoundedByDefaultOptInPerRequest) {
  // The replay itself keeps O(functions); the one record of the served
  // requests is the platform's — bounded under aggregate_request_log, one
  // entry per served request otherwise.
  const faas::ZipfTraceConfig wl = small_workload();

  faas::PlatformConfig aggregated;
  aggregated.aggregate_request_log = true;
  ReplayRig a{7, aggregated};
  faas::ZipfTraceSource src_a{wl};
  deploy_fleet(a.platform, src_a);
  const faas::StreamReplayResult bounded =
      faas::replay_trace_stream(a.platform, src_a);
  EXPECT_TRUE(a.platform.request_log().empty());  // no O(requests) growth
  EXPECT_EQ(a.platform.request_aggregate().count, bounded.responses_ok);
  EXPECT_LE(bounded.per_function.size(), 8u);
  EXPECT_GT(bounded.peak_pending_events, 0u);
  EXPECT_GT(bounded.peak_replicas, 0u);

  ReplayRig b{7};
  faas::ZipfTraceSource src_b{wl};
  deploy_fleet(b.platform, src_b);
  const faas::StreamReplayResult full =
      faas::replay_trace_stream(b.platform, src_b);
  EXPECT_EQ(b.platform.request_log().size(), full.responses_ok);
}

TEST(TraceStreamReplay, PerFunctionAggregatesCoverTheStream) {
  const faas::ZipfTraceConfig wl = small_workload();
  ReplayRig rig{3};
  faas::ZipfTraceSource src{wl};
  deploy_fleet(rig.platform, src);
  const faas::StreamReplayResult rep =
      faas::replay_trace_stream(rig.platform, src);

  std::uint64_t requests = 0;
  std::uint64_t ok = 0;
  std::uint64_t colds = 0;
  for (const auto& [name, fa] : rep.per_function) {
    EXPECT_EQ(fa.requests, fa.ok + fa.rejected);
    requests += fa.requests;
    ok += fa.ok;
    colds += fa.cold_starts;
    if (fa.ok > 0) {
      EXPECT_GT(fa.total_ms_sum, 0.0);
      EXPECT_GE(fa.total_ms_max * static_cast<double>(fa.ok),
                fa.total_ms_sum * 0.999);
    }
  }
  EXPECT_EQ(requests, rep.events);
  EXPECT_EQ(ok, rep.responses_ok);
  std::uint64_t logged_colds = 0;
  for (const faas::RequestMetrics& m : rig.platform.request_log())
    if (m.cold_start) ++logged_colds;
  EXPECT_EQ(colds, logged_colds);
  // Zipf head dominance: the hottest rank got the most requests.
  ASSERT_TRUE(rep.per_function.contains("fn-0"));
  for (const auto& [name, fa] : rep.per_function)
    EXPECT_LE(fa.requests, rep.per_function.at("fn-0").requests);
}

TEST(TraceStreamReplay, FallbackServesAreNotRejections) {
  // Corrupt every image read: each cold start exhausts its restore
  // attempts and falls back to Vanilla. Those requests are *served* — they
  // must land on the fallback axis, with the rejection axis untouched.
  faas::PlatformConfig cfg;
  cfg.restore_max_attempts = 2;
  cfg.aggregate_request_log = true;
  ReplayRig rig{13, cfg};
  faas::ZipfTraceConfig wl = small_workload();
  wl.duration = sim::Duration::seconds(30);
  faas::ZipfTraceSource src{wl};
  deploy_fleet(rig.platform, src);

  os::FaultPlan plan;
  plan.seed = 13;
  plan.image_corruption_rate = 1.0;
  rig.kernel.faults().configure(plan);

  const faas::StreamReplayResult rep =
      faas::replay_trace_stream(rig.platform, src);
  EXPECT_EQ(rep.responses_ok, rep.events);
  EXPECT_EQ(rep.responses_rejected, 0u);
  EXPECT_GT(rep.responses_fallback, 0u);
  EXPECT_EQ(rig.platform.request_aggregate().fallback_serves,
            rep.responses_fallback);
  EXPECT_GT(rig.platform.stats().restore_fallbacks, 0u);
  std::uint64_t per_fn_fallbacks = 0;
  for (const auto& [name, fa] : rep.per_function)
    per_fn_fallbacks += fa.fallback_serves;
  EXPECT_EQ(per_fn_fallbacks, rep.responses_fallback);
}
