// Discrete-event simulation engine.
//
// The engine owns a virtual clock and a pending-event queue. Code that
// models a *single* active actor (e.g. a process performing syscalls) charges
// time to the clock directly through `advance()`; concurrent activity (the
// FaaS platform's request arrivals, replica lifecycles, autoscaler alerts)
// schedules callbacks.
//
// The queue is a calendar queue (amortised O(1) insert/pop for the
// timer-dominated pending sets of large trace replays). It pops in the
// (time, scheduling sequence) total order; sim::BinaryHeapQueue is the
// reference the queue tests pop against.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace prebake::sim {

using EventFn = std::function<void()>;
using EventId = std::uint64_t;

class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  TimePoint now() const { return now_; }

  // Charge `d` of busy time to the current actor: the clock moves forward.
  // Negative durations are a logic error and are clamped to zero.
  void advance(Duration d) {
    if (d > Duration{}) now_ += d;
  }

  // Move the clock back to `t`, which must not be in the future. Only valid
  // when no event has fired since `t` was read from now(): the caller ran a
  // synchronous block of work to *measure* its duration and will re-emit the
  // completion as a scheduled event (e.g. a replica serving a request while
  // other traffic keeps arriving). Misuse breaks causality, hence the throw.
  void rewind_to(TimePoint t) {
    if (t > now_) throw std::logic_error{"Simulation::rewind_to: future time"};
    now_ = t;
  }

  // Schedule `fn` at absolute time `at` (must not be in the past). Events at
  // equal times fire in FIFO order of scheduling. Returns an id usable with
  // cancel(). Callbacks live in a slab of reusable slots (the id encodes
  // slot + generation), so schedule/cancel/step are O(1) on the callback
  // table — no linear scans, no per-event heap churn once the slab and the
  // queue have grown to the scenario's working set.
  EventId schedule_at(TimePoint at, EventFn fn);
  EventId schedule_in(Duration d, EventFn fn) { return schedule_at(now_ + d, fn); }

  // Cancel a pending event. Returns false if it already fired or is unknown.
  bool cancel(EventId id);

  // Run a single event; returns false when the queue is empty.
  bool step();
  // Run until the queue is empty.
  void run();
  // Run until the clock reaches `until` (events scheduled at exactly `until`
  // are executed).
  void run_until(TimePoint until);

  std::size_t pending_events() const { return queue_.size() - cancelled_live_; }

 private:
  // One slab slot: the callback plus the generation stamped into its
  // EventId. Freed slots go on an intrusive free list and are reused with a
  // bumped generation, so a stale id (already fired or cancelled) can never
  // alias a new event.
  struct Slot {
    EventFn fn;
    std::uint32_t gen = 1;
    std::uint32_t next_free = kNilSlot;
    bool live = false;
  };
  static constexpr std::uint32_t kNilSlot = 0xFFFFFFFFu;

  static EventId encode(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) | slot;
  }
  Slot* live_slot(EventId id) {
    const auto slot = static_cast<std::uint32_t>(id);
    const auto gen = static_cast<std::uint32_t>(id >> 32);
    if (slot >= slots_.size()) return nullptr;
    Slot& s = slots_[slot];
    return (s.live && s.gen == gen) ? &s : nullptr;
  }
  void release_slot(std::uint32_t slot);

  TimePoint now_ = TimePoint::origin();
  std::uint64_t next_seq_ = 0;
  CalendarQueue queue_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNilSlot;
  std::size_t cancelled_live_ = 0;
};

}  // namespace prebake::sim
