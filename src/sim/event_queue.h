/// \file event_queue.h
/// \brief Discrete-event simulation core: a clock plus an ordered event queue.
///
/// The simulated cluster (src/sim/cluster.h), the HDFS/HAIL upload pipelines
/// and the MapReduce job tracker all advance time through this queue. Events
/// scheduled for the same instant run in FIFO order (a monotonically
/// increasing sequence number breaks ties), which keeps every simulation
/// deterministic for a fixed input.
///
/// Sequence numbers can also be *reserved* ahead of insertion
/// (ReserveSeq/ScheduleAtReserved): the session engine's one event loop
/// reserves a completion's or a failure detection's tie-break slot when
/// the work is requested, then fills in the callback once the read joins
/// or the commit applies. The event order is therefore the same whether a
/// read ran inline or on a worker pool, even for exact timestamp
/// collisions.

#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

namespace hail {
namespace sim {

/// Simulated time in seconds since the start of the simulation.
using SimTime = double;

/// \brief Priority queue of timestamped callbacks with a simulated clock.
class EventQueue {
 public:
  using Callback = std::function<void()>;

  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Current simulated time. Starts at 0.
  SimTime Now() const { return now_; }

  /// Schedules \p fn to run at absolute time \p when. Scheduling in the past
  /// clamps to Now() (the event runs next).
  void ScheduleAt(SimTime when, Callback fn);

  /// Schedules \p fn to run \p delay seconds from now.
  void ScheduleAfter(SimTime delay, Callback fn) {
    ScheduleAt(now_ + delay, std::move(fn));
  }

  /// Reserves the next sequence number without inserting an event. The
  /// reservation must later be filled with ScheduleAtReserved (or
  /// abandoned, leaving a harmless gap in the sequence).
  uint64_t ReserveSeq() { return next_seq_++; }

  /// Inserts an event under a previously reserved sequence number, so its
  /// FIFO rank among same-time events reflects the reservation point, not
  /// the insertion point.
  void ScheduleAtReserved(uint64_t seq, SimTime when, Callback fn);

  /// (when, seq) of the earliest queued event; pending() must be > 0.
  std::pair<SimTime, uint64_t> NextKey() const {
    return {events_.top().when, events_.top().seq};
  }

  /// Pops and executes exactly one event; pending() must be > 0.
  void RunOne();

  /// Runs events until the queue is empty. Returns the final clock value.
  SimTime RunUntilEmpty();

  /// Runs every event with time <= \p deadline (including events those
  /// events schedule within the deadline); later events stay queued.
  /// Afterwards the clock is exactly max(Now(), deadline) — it lands on
  /// the deadline even when no event ran, and never rewinds — so
  /// back-to-back RunUntil calls tile time into clean scheduler quanta.
  SimTime RunUntil(SimTime deadline);

  /// Number of events waiting.
  size_t pending() const { return events_.size(); }

  /// Total events executed since construction.
  uint64_t executed() const { return executed_; }

  /// Advances the clock with no event processing (used by timeline-style
  /// components that compute completion times analytically).
  void AdvanceTo(SimTime t) {
    if (t > now_) now_ = t;
  }

 private:
  struct Event {
    SimTime when;
    uint64_t seq;
    Callback fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> events_;
  SimTime now_ = 0.0;
  uint64_t next_seq_ = 0;
  uint64_t executed_ = 0;
};

}  // namespace sim
}  // namespace hail
