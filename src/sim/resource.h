/// \file resource.h
/// \brief Queued hardware resources (disk, NIC, CPU cores) for the simulator.
///
/// A Resource models a server with `capacity` identical channels (1 for a
/// disk or NIC, #cores for a CPU). Work is placed with Schedule(ready, dur):
/// it starts at the earliest instant >= ready at which a channel is free and
/// occupies that channel for `dur` seconds. This "timeline" style lets
/// straight-line flows (the upload pipeline) compute completion times without
/// callback plumbing, while the event-driven JobTracker uses the same objects
/// for map-slot accounting. Utilisation statistics feed the bench reports.

#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <queue>
#include <string>
#include <vector>

#include "sim/event_queue.h"

namespace hail {
namespace sim {

/// Time interval [start, end) during which a piece of work held a channel.
struct Interval {
  SimTime start = 0.0;
  SimTime end = 0.0;
  double duration() const { return end - start; }
};

/// \brief FIFO multi-channel resource with utilisation tracking.
class Resource {
 public:
  /// \param name display name, e.g. "node3/disk".
  /// \param capacity number of identical channels (>= 1).
  explicit Resource(std::string name, int capacity = 1)
      : name_(std::move(name)), free_at_(static_cast<size_t>(capacity), 0.0) {
    assert(capacity >= 1);
  }

  /// Books \p duration seconds of work that becomes ready at \p ready.
  /// Returns the occupied interval on the earliest-free channel.
  Interval Schedule(SimTime ready, double duration) {
    assert(duration >= 0.0);
    // Find the channel that frees up first.
    size_t best = 0;
    for (size_t i = 1; i < free_at_.size(); ++i) {
      if (free_at_[i] < free_at_[best]) best = i;
    }
    const SimTime start = std::max(ready, free_at_[best]);
    const SimTime end = start + duration;
    free_at_[best] = end;
    busy_time_ += duration;
    ++jobs_;
    return Interval{start, end};
  }

  /// Earliest time any channel is free.
  SimTime NextFree() const {
    SimTime t = free_at_[0];
    for (SimTime f : free_at_) t = std::min(t, f);
    return t;
  }

  /// Resets all channels to free-at-zero and clears statistics.
  void Reset() {
    std::fill(free_at_.begin(), free_at_.end(), 0.0);
    busy_time_ = 0.0;
    jobs_ = 0;
  }

  const std::string& name() const { return name_; }
  int capacity() const { return static_cast<int>(free_at_.size()); }
  /// Sum of booked durations across channels.
  double busy_time() const { return busy_time_; }
  /// Number of Schedule() calls.
  uint64_t jobs() const { return jobs_; }
  /// busy_time / (capacity * horizon); 0 if horizon is 0.
  double Utilization(SimTime horizon) const {
    if (horizon <= 0.0) return 0.0;
    return busy_time_ / (static_cast<double>(capacity()) * horizon);
  }

 private:
  std::string name_;
  std::vector<SimTime> free_at_;
  double busy_time_ = 0.0;
  uint64_t jobs_ = 0;
};

}  // namespace sim
}  // namespace hail
