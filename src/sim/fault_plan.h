/// \file fault_plan.h
/// \brief Deterministic, seedable schedule of injectable faults.
///
/// A FaultPlan is plain data: a list of node kills (with optional revive),
/// per-(node, block-ordinal) replica corruptions, and slow-node factors.
/// The scheduler applies it on the simulated clock so a given plan
/// produces bit-identical histories in serial and parallel execution.
/// `FromSeed` derives a small kill/corrupt/slow mix from one integer,
/// which is what the CI fault matrix runs.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/event_queue.h"
#include "util/status.h"

namespace hail {
namespace sim {

/// \brief A schedule of faults to inject into one cluster session.
struct FaultPlan {
  /// Kill one node, either at a wall-clock time or at a fraction of a
  /// job's task completions (matching the Fig. 8 protocol). Exactly one
  /// of `at_time >= 0` or `at_progress >= 0` must be set, e.g. the
  /// paper's kill at 50% progress of the first job:
  /// `{.node = 3, .at_progress = 0.5, .progress_job = 0}`.
  struct Kill {
    int node = -1;
    /// Simulated time of the kill; < 0 means progress-triggered.
    SimTime at_time = -1.0;
    /// Fraction of `progress_job`'s tasks completed; < 0 means
    /// time-triggered.
    double at_progress = -1.0;
    /// Which job's progress drives a progress-triggered kill
    /// (index into the session's submission order).
    int progress_job = 0;
    /// Seconds after the kill at which the node comes back; < 0 means it
    /// stays dead for the rest of the session. Revives are clamped so a
    /// node never returns before its failure detection fires.
    SimTime revive_after = -1.0;
  };

  /// Corrupt one stored replica: the nth block (block-id order, modulo the
  /// node's holdings) held by `node` gets a byte flipped on disk, so the
  /// next verified read fails its CRC. `at_time <= 0` corrupts up front.
  struct Corrupt {
    int node = -1;
    int nth_block = 0;
    SimTime at_time = 0.0;
  };

  /// Multiply every task's execution cost on `node` by `factor` (>= 1).
  struct Slow {
    int node = -1;
    double factor = 1.0;
  };

  std::vector<Kill> kills;
  std::vector<Corrupt> corruptions;
  std::vector<Slow> slow_nodes;

  bool empty() const {
    return kills.empty() && corruptions.empty() && slow_nodes.empty();
  }

  /// Slowdown factor for `node`; 1.0 when the node is not slowed.
  double slow_factor(int node) const;

  /// InvalidArgument when a fault can never fire as written on a
  /// `num_nodes`-node cluster running `num_jobs` jobs: a node out of
  /// range, a kill with neither or both triggers, at_progress > 1 or of a
  /// missing job, nth_block < 0, or a slow factor below 1.
  Status Validate(int num_nodes, size_t num_jobs) const;

  /// Derives a deterministic kill/corrupt/slow mix for a cluster of
  /// `num_nodes` nodes. The same seed always yields the same plan.
  static FaultPlan FromSeed(uint64_t seed, int num_nodes);
};

}  // namespace sim
}  // namespace hail
