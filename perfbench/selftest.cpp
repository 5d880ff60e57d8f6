// The benchmark's own tests.
//
// 1. Arrival-loop cross-check: the benchmark replays fleets with its own
//    arrival loop (so it can time each Platform::invoke). On a small fleet it
//    must give exactly the responses, cold starts and byte-seconds of
//    exp::run_scale_scenario under the same policy and seed.
// 2. Self times: in a traced replay no span's children outlast it, and the
//    self times add up to the wall time of the root spans.
// 3. Host clock: a phase short enough for one reference window counts its
//    wall time times the host speed.
#include <cmath>
#include <cstdio>

#include "bench.hpp"
#include "exp/scale.hpp"

using namespace perfbench;

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

void cross_check(bool page_store) {
  FleetConfig config;
  config.functions = 40;
  config.requests = 3000;
  config.page_store = page_store;
  config.seed = 7;
  Recorder rec{true};
  HostClock clock{1000};
  clock.start();
  std::unique_ptr<FleetBed> bed = deploy_fleet(config, rec, clock);
  Samples samples;
  const FleetReplay mine = replay_fleet(*bed, config, rec, samples, clock);
  clock.stop();

  exp::ScaleScenarioConfig ref_config;
  ref_config.functions = config.functions;
  ref_config.requests = config.requests;
  ref_config.rate_hz = kFleetRateHz;
  ref_config.zipf_s = kFleetZipfS;
  ref_config.nodes = kFleetNodes;
  ref_config.policy = page_store ? exp::KeepAlivePolicy::kCowClone
                                 : exp::KeepAlivePolicy::kPrebaked;
  ref_config.seed = config.seed;
  ref_config.threads = 1;
  const exp::ScaleScenarioResult ref = exp::run_scale_scenario(ref_config);

  std::printf("%s: ok %llu vs %llu, cold %llu vs %llu, byte-s %.6e vs %.6e\n",
              page_store ? "cowclone" : "prebaked",
              static_cast<unsigned long long>(mine.answered - mine.rejected),
              static_cast<unsigned long long>(ref.responses_ok),
              static_cast<unsigned long long>(
                  bed->platform.stats().cold_starts),
              static_cast<unsigned long long>(ref.cold_starts),
              bed->platform.fleet_mem_byte_seconds(), ref.mem_byte_seconds);
  expect(mine.issued == ref.requests, "same arrivals issued");
  expect(mine.answered == mine.issued && mine.duplicates == 0,
         "every arrival answered exactly once");
  expect(mine.answered - mine.rejected == ref.responses_ok, "same responses");
  expect(mine.rejected == ref.rejected, "same rejections");
  expect(bed->platform.stats().cold_starts == ref.cold_starts &&
             mine.cold_starts == ref.cold_starts,
         "same cold starts");
  expect(bed->platform.fleet_mem_byte_seconds() == ref.mem_byte_seconds,
         "same memory byte-seconds");
  expect(mine.mismatched == 0, "every body equals the handler's reference");

  const std::vector<Span>& spans = rec.spans();
  const std::vector<std::int64_t> self = self_times(spans);
  std::int64_t self_sum = 0, roots = 0;
  bool nested = true;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self_sum += self[i];
    nested = nested && self[i] >= 0;
    if (spans[i].parent < 0) roots += spans[i].end_ns - spans[i].start_ns;
  }
  expect(nested, "children fit inside their parent span");
  expect(self_sum == roots, "self times add up to the root spans");
}

// With at most 2 * 6 reference runs every slice is scaled by the same
// median, so a phase's reference time is its wall time times the speed.
void host_clock_check() {
  HostClock clock{1};
  clock.start();
  volatile std::uint64_t sink = 0;
  for (std::uint64_t slice = 1; slice <= 3; ++slice) {
    for (std::uint64_t i = 0; i < 200'000; ++i)
      sink = sink + sim::splitmix64(i, slice);
    clock.tick(slice);
  }
  clock.stop();
  std::printf("host clock: %.6f s wall, %.6f reference s, speed %.3f\n",
              clock.wall_s(), clock.reference_s(), clock.speed());
  expect(clock.wall_s() > 0.0 && clock.speed() > 0.0,
         "host clock measured the phase and the reference task");
  expect(std::abs(clock.reference_s() - clock.wall_s() * clock.speed()) <=
             1e-9 * clock.wall_s(),
         "reference time is wall time times host speed");
}

}  // namespace

int main() {
  host_clock_check();
  cross_check(false);
  cross_check(true);
  std::printf("%s\n", failures == 0 ? "selftest passed" : "selftest FAILED");
  return failures == 0 ? 0 : 1;
}
