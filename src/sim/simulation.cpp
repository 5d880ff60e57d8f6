#include "sim/simulation.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace prebake::sim {

void Simulation::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn = nullptr;
  s.live = false;
  ++s.gen;  // stale ids stop matching the moment the slot is freed
  s.next_free = free_head_;
  free_head_ = slot;
}

EventId Simulation::schedule_at(TimePoint at, EventFn fn) {
  if (at < now_)
    throw std::logic_error{
        "Simulation::schedule_at: time in the past (at=" +
        std::to_string(at.nanos_since_origin()) +
        " now=" + std::to_string(now_.nanos_since_origin()) + ")"};
  std::uint32_t slot;
  if (free_head_ != kNilSlot) {
    slot = free_head_;
    free_head_ = slots_[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.live = true;
  const EventId id = encode(slot, s.gen);
  queue_.push(QueuedEvent{at, next_seq_++, id});
  return id;
}

bool Simulation::cancel(EventId id) {
  Slot* s = live_slot(id);
  if (s == nullptr) return false;
  release_slot(static_cast<std::uint32_t>(id));
  ++cancelled_live_;  // the queue still holds the event's shell
  return true;
}

bool Simulation::step() {
  while (!queue_.empty()) {
    const QueuedEvent ev = queue_.pop();
    Slot* s = live_slot(ev.id);
    if (s == nullptr) {
      // Cancelled event; skip its shell.
      --cancelled_live_;
      continue;
    }
    EventFn fn = std::move(s->fn);
    release_slot(static_cast<std::uint32_t>(ev.id));
    now_ = std::max(now_, ev.at);
    fn();
    return true;
  }
  return false;
}

void Simulation::run() {
  while (step()) {
  }
}

void Simulation::run_until(TimePoint until) {
  for (const QueuedEvent* top = queue_.peek();
       top != nullptr && top->at <= until; top = queue_.peek()) {
    if (!step()) break;
  }
  now_ = std::max(now_, until);
}

}  // namespace prebake::sim
