// Differential suite for the calendar queue (DESIGN.md §6h).
//
// The calendar queue must pop events in exactly the same (time, sequence)
// order as the reference binary heap. The suites here drive both queues
// through identical workloads and assert identical pops; the Simulation
// tests cover cancels, ties and run_until on the engine itself.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/simulation.hpp"

namespace prebake::sim {
namespace {

TEST(ScaleEngineQueue, PopsInTimeThenSeqOrder) {
  CalendarQueue q;
  q.push({TimePoint::origin() + Duration::millis(30), 0, 1});
  q.push({TimePoint::origin() + Duration::millis(10), 1, 2});
  q.push({TimePoint::origin() + Duration::millis(10), 2, 3});
  q.push({TimePoint::origin() + Duration::millis(20), 3, 4});
  std::vector<std::uint64_t> ids;
  while (!q.empty()) ids.push_back(q.pop().id);
  EXPECT_EQ(ids, (std::vector<std::uint64_t>{2, 3, 4, 1}));
}

TEST(ScaleEngineQueue, PeekMatchesPop) {
  CalendarQueue q;
  Rng rng{7};
  for (std::uint64_t seq = 0; seq < 500; ++seq) {
    q.push({TimePoint::origin() + Duration::nanos(static_cast<std::int64_t>(
                                      rng.next_below(1'000'000'000))),
            seq, seq});
  }
  while (!q.empty()) {
    const QueuedEvent* top = q.peek();
    ASSERT_NE(top, nullptr);
    const std::uint64_t expect = top->id;
    EXPECT_EQ(q.pop().id, expect);
  }
  EXPECT_EQ(q.peek(), nullptr);
}

// Random interleaving of pushes and pops with a monotone "now" floor (pops
// never go back in time, pushes land at or after the last pop) — the access
// pattern the simulation produces. Both queues must agree pop-for-pop.
TEST(ScaleEngineQueue, RandomWorkloadMatchesBinaryHeap) {
  CalendarQueue cal;
  BinaryHeapQueue heap;
  Rng rng{42};
  std::uint64_t seq = 0;
  std::int64_t floor_ns = 0;
  for (int round = 0; round < 20'000; ++round) {
    const double r = rng.uniform();
    if (r < 0.55 || cal.empty()) {
      // Mix of near-future arrivals and far-future idle timers, with ties.
      std::int64_t delta;
      const double kind = rng.uniform();
      if (kind < 0.4)
        delta = static_cast<std::int64_t>(rng.next_below(1000));  // dense
      else if (kind < 0.8)
        delta = static_cast<std::int64_t>(rng.next_below(1'000'000));
      else
        delta = static_cast<std::int64_t>(
            rng.next_below(60'000'000'000ull));  // 60 s timer horizon
      if (rng.uniform() < 0.05) delta = 0;       // exact ties on the floor
      const QueuedEvent e{TimePoint::origin() + Duration::nanos(floor_ns + delta),
                          seq, seq};
      ++seq;
      cal.push(e);
      heap.push(e);
    } else {
      ASSERT_EQ(cal.size(), heap.size());
      const QueuedEvent a = cal.pop();
      const QueuedEvent b = heap.pop();
      ASSERT_EQ(a.id, b.id) << "divergence at round " << round;
      ASSERT_EQ(a.at.nanos_since_origin(), b.at.nanos_since_origin());
      ASSERT_EQ(a.seq, b.seq);
      floor_ns = a.at.nanos_since_origin();
    }
  }
  while (!cal.empty()) {
    ASSERT_FALSE(heap.empty());
    ASSERT_EQ(cal.pop().id, heap.pop().id);
  }
  EXPECT_TRUE(heap.empty());
}

// Burst-then-sparse shape: a dense burst calibrates the bucket width small,
// then only sparse far-future timers remain — the recalibration path must
// keep pops correct and ordered.
TEST(ScaleEngineQueue, BurstThenSparseTimersStayOrdered) {
  CalendarQueue cal;
  BinaryHeapQueue heap;
  Rng rng{9};
  std::uint64_t seq = 0;
  for (int i = 0; i < 4096; ++i) {
    const QueuedEvent e{TimePoint::origin() + Duration::nanos(static_cast<std::int64_t>(
                            rng.next_below(1'000'000))),
                        seq, seq};
    ++seq;
    cal.push(e);
    heap.push(e);
  }
  for (int i = 0; i < 4000; ++i) ASSERT_EQ(cal.pop().id, heap.pop().id);
  for (int i = 0; i < 64; ++i) {
    const QueuedEvent e{TimePoint::origin() + Duration::seconds(3600) +
                            Duration::nanos(static_cast<std::int64_t>(
                                rng.next_below(86'400'000'000'000ull))),
                        seq, seq};
    ++seq;
    cal.push(e);
    heap.push(e);
  }
  while (!cal.empty()) ASSERT_EQ(cal.pop().id, heap.pop().id);
  EXPECT_TRUE(heap.empty());
}

TEST(ScaleEngineQueue, SingleDistantEventAfterDrain) {
  CalendarQueue q;
  for (std::uint64_t i = 0; i < 1000; ++i)
    q.push({TimePoint::origin() + Duration::nanos(static_cast<std::int64_t>(i)),
            i, i});
  while (!q.empty()) q.pop();
  q.push({TimePoint::origin() + Duration::seconds(86'400), 5000, 77});
  const QueuedEvent* top = q.peek();
  ASSERT_NE(top, nullptr);
  EXPECT_EQ(top->id, 77u);
  EXPECT_EQ(q.pop().id, 77u);
  EXPECT_TRUE(q.empty());
}

TEST(ScaleEngineSim, PendingEventsExcludesCancelledShells) {
  Simulation sim;
  const EventId a = sim.schedule_in(Duration::millis(1), [] {});
  sim.schedule_in(Duration::millis(2), [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  EXPECT_TRUE(sim.cancel(a));
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(sim.pending_events(), 0u);
}

}  // namespace
}  // namespace prebake::sim
