// Pending-event queues for the simulation engine.
//
// Two implementations of the same total order on (time, scheduling sequence):
//
//  - CalendarQueue: Brown-style calendar queue tuned for the timer-dominated
//    workloads of large trace replays (hundreds of thousands of pending idle
//    timers and arrival events). Amortised O(1) push/pop: events hash into a
//    power-of-two ring of "day" buckets by time slot, each bucket a small
//    sorted vector; the dequeue scan walks at most one "year" of buckets
//    before falling back to a direct minimum scan and recalibrating the
//    bucket width to the live event spread.
//
//  - BinaryHeapQueue: the original std::priority_queue engine, kept as the
//    reference implementation for the cross-engine determinism suite
//    (ScaleEngine* tests) and as an escape hatch.
//
// Both pop events in strictly increasing (at, seq) order; the calendar queue
// is bit-identical to the heap by construction because (at, seq) is a total
// order — the determinism suite pins this.
#pragma once

#include <cstddef>
#include <cstdint>
#include <queue>
#include <vector>

#include "sim/time.hpp"

namespace prebake::sim {

struct QueuedEvent {
  TimePoint at;
  std::uint64_t seq = 0;  // global schedule order; ties on `at` fire FIFO
  std::uint64_t id = 0;   // slab EventId, opaque to the queue
};

inline bool event_before(const QueuedEvent& a, const QueuedEvent& b) {
  if (a.at != b.at) return a.at < b.at;
  return a.seq < b.seq;
}

class CalendarQueue {
 public:
  CalendarQueue();

  void push(const QueuedEvent& e);
  // Minimum (at, seq) event, or nullptr when empty. The pointer is
  // invalidated by the next push/pop.
  const QueuedEvent* peek();
  // Pop the minimum event. Precondition: !empty().
  QueuedEvent pop();

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  std::int64_t slot_of(TimePoint at) const {
    return at.nanos_since_origin() / width_;
  }
  // Position cur_slot_ on the bucket holding the global minimum. Requires
  // size_ > 0.
  void locate_min();
  // Re-bucket every event into `nbuckets` buckets with a width derived from
  // the live events' time spread.
  void recalibrate(std::size_t nbuckets);

  std::vector<std::vector<QueuedEvent>> buckets_;
  std::size_t mask_ = 0;         // buckets_.size() - 1 (power of two)
  std::int64_t width_ = 1;       // bucket width in ns, >= 1
  std::int64_t cur_slot_ = 0;    // absolute slot (at_ns / width_) being drained
  std::size_t size_ = 0;
  std::size_t direct_scans_ = 0;  // consecutive full-scan fallbacks
};

class BinaryHeapQueue {
 public:
  void push(const QueuedEvent& e) { heap_.push(e); }
  const QueuedEvent* peek() { return heap_.empty() ? nullptr : &heap_.top(); }
  QueuedEvent pop() {
    QueuedEvent e = heap_.top();
    heap_.pop();
    return e;
  }
  std::size_t size() const { return heap_.size(); }
  bool empty() const { return heap_.empty(); }

 private:
  struct After {
    bool operator()(const QueuedEvent& a, const QueuedEvent& b) const {
      return event_before(b, a);
    }
  };
  std::priority_queue<QueuedEvent, std::vector<QueuedEvent>, After> heap_;
};

}  // namespace prebake::sim
