#include "faas/trace.hpp"

#include <gtest/gtest.h>

#include "exp/calibration.hpp"
#include "faas/trace_source.hpp"

namespace prebake::faas {
namespace {

TEST(TraceCsv, ParseBasic) {
  const auto events = parse_trace_csv("0,noop\n12.5,markdown\n3,noop\n");
  ASSERT_EQ(events.size(), 3u);
  // Sorted by offset.
  EXPECT_EQ(events[0].at.to_millis(), 0.0);
  EXPECT_EQ(events[1].at.to_millis(), 3.0);
  EXPECT_EQ(events[2].at.to_millis(), 12.5);
  EXPECT_EQ(events[2].function, "markdown");
}

TEST(TraceCsv, CommentsAndBlanksIgnored) {
  const auto events =
      parse_trace_csv("# header\n\n  \n5,fn # trailing comment\r\n");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].function, "fn");
}

TEST(TraceCsv, WhitespaceAroundNameTrimmed) {
  const auto events = parse_trace_csv("1,  spaced-name \n");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].function, "spaced-name");
}

TEST(TraceCsv, MalformedLinesThrowWithLineNumber) {
  try {
    parse_trace_csv("0,ok\nnocomma\n");
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string{e.what()}.find("line 2"), std::string::npos);
  }
  EXPECT_THROW(parse_trace_csv("abc,fn\n"), std::invalid_argument);
  EXPECT_THROW(parse_trace_csv("-5,fn\n"), std::invalid_argument);
  EXPECT_THROW(parse_trace_csv("5,\n"), std::invalid_argument);
  EXPECT_THROW(parse_trace_csv("5x,fn\n"), std::invalid_argument);
}

TEST(TraceCsv, FormatParseRoundTrip) {
  std::vector<TraceEvent> events{
      {sim::Duration::millis_f(0.25), "a"},
      {sim::Duration::millis(100), "b"},
      {sim::Duration::seconds(2), "a"},
  };
  const auto back = parse_trace_csv(format_trace_csv(events));
  EXPECT_EQ(back, events);
}

TEST(TraceGen, PoissonCountNearExpectation) {
  PoissonTraceSource source{"fn", 50.0, sim::Duration::seconds(20),
                            sim::Rng{7}};
  const auto events = drain(source);
  // Expect ~1000 events; 4 sigma ~ 126.
  EXPECT_GT(events.size(), 870u);
  EXPECT_LT(events.size(), 1130u);
  for (std::size_t i = 1; i < events.size(); ++i)
    EXPECT_GE(events[i].at, events[i - 1].at);
}

TEST(TraceGen, PoissonDeterministicPerSeed) {
  PoissonTraceSource a{"fn", 5, sim::Duration::seconds(10), sim::Rng{3}};
  PoissonTraceSource b{"fn", 5, sim::Duration::seconds(10), sim::Rng{3}};
  EXPECT_EQ(drain(a), drain(b));
}

TEST(TraceGen, PoissonValidation) {
  EXPECT_THROW((PoissonTraceSource{"fn", 0.0, sim::Duration::seconds(1),
                                   sim::Rng{1}}),
               std::invalid_argument);
}

TEST(TraceGen, DiurnalPeaksWherePhaseSaysSo) {
  // Period 100 s, trough at t=0, peak at t=50 s.
  DiurnalTraceSource source{"fn",
                            1.0,
                            60.0,
                            sim::Duration::seconds(100),
                            sim::Duration::seconds(100),
                            11};
  std::size_t trough = 0, peak = 0;
  for (const TraceEvent& e : drain(source)) {
    const double s = e.at.to_seconds();
    if (s < 20.0 || s > 80.0) ++trough;
    if (s >= 30.0 && s <= 70.0) ++peak;
  }
  EXPECT_GT(peak, trough * 2);
}

TEST(TraceGen, DiurnalValidation) {
  // A peak below the base must be rejected, and the message must name both
  // offending values — a silent clamp would distort the generated rate.
  try {
    DiurnalTraceSource bad{"fn", 5.0, 1.0, sim::Duration::seconds(1),
                           sim::Duration::seconds(1), 1};
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("base_rate_hz=5"), std::string::npos) << msg;
    EXPECT_NE(msg.find("peak_rate_hz=1"), std::string::npos) << msg;
  }
  EXPECT_THROW((DiurnalTraceSource{"fn", 1.0, 2.0, sim::Duration{},
                                   sim::Duration::seconds(1), 1}),
               std::invalid_argument);
}

TEST(TraceReplay, RunsAgainstPlatform) {
  sim::Simulation sim;
  os::Kernel kernel{sim, exp::testbed_costs()};
  Platform platform{kernel, exp::testbed_runtime(), PlatformConfig{}, 17};
  platform.resources().add_node("n", 8ull << 30);
  platform.deploy(exp::noop_spec(), StartMode::kVanilla);
  platform.deploy(exp::markdown_spec(), StartMode::kVanilla);

  // Spacing wider than a cold start, so each function needs exactly one
  // replica (tighter spacing would legitimately scale out mid-start-up).
  std::vector<TraceEvent> events;
  for (int i = 0; i < 10; ++i)
    events.push_back({sim::Duration::millis(500 * i),
                      i % 2 == 0 ? "noop" : "markdown-render"});
  VectorTraceSource source{events};
  const StreamReplayResult result = replay_trace_stream(platform, source);
  EXPECT_EQ(result.events, 10u);
  EXPECT_EQ(result.responses_ok, 10u);
  EXPECT_EQ(result.responses_rejected, 0u);
  EXPECT_EQ(platform.request_log().size(), 10u);
  // Two functions, two cold starts.
  EXPECT_EQ(platform.stats().cold_starts, 2u);
}

TEST(TraceReplay, UndeployedFunctionThrowsAtItsArrival) {
  sim::Simulation sim;
  os::Kernel kernel{sim, exp::testbed_costs()};
  Platform platform{kernel, exp::testbed_runtime(), PlatformConfig{}, 18};
  platform.resources().add_node("n", 8ull << 30);
  platform.deploy(exp::noop_spec(), StartMode::kVanilla);
  // Nothing is checked up front: the deployed function's arrival fires,
  // then the step that fires the undeployed one throws.
  VectorTraceSource source{{{sim::Duration::millis(1), "noop"},
                            {sim::Duration::millis(5), "ghost"},
                            {sim::Duration::millis(9), "noop"}}};
  const sim::TimePoint start = sim.now();
  EXPECT_THROW(replay_trace_stream(platform, source), std::out_of_range);
  EXPECT_EQ(sim.now(), start + sim::Duration::millis(5));
  EXPECT_EQ(platform.stats().invocations, 1u);
  // The arrival already queued behind the throw is inert once the replay
  // is gone, and the aborted replay leaks nothing (the sanitizer pass runs
  // this test under LeakSanitizer).
  sim.run();
  EXPECT_EQ(platform.stats().invocations, 1u);
}

}  // namespace
}  // namespace prebake::faas
