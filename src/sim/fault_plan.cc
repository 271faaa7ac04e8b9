#include "sim/fault_plan.h"

#include <string>

namespace hail {
namespace sim {

namespace {

/// SplitMix64: tiny, well-mixed, and stable across platforms.
uint64_t Mix(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double MixUnit(uint64_t& state) {
  return static_cast<double>(Mix(state) >> 11) * 0x1.0p-53;
}

}  // namespace

double FaultPlan::slow_factor(int node) const {
  double factor = 1.0;
  for (const Slow& s : slow_nodes) {
    if (s.node == node && s.factor > factor) factor = s.factor;
  }
  return factor;
}

Status FaultPlan::Validate(int num_nodes, size_t num_jobs) const {
  const auto off = [num_nodes](int n) { return n < 0 || n >= num_nodes; };
  const auto invalid = [](const char* fault, size_t i, const char* why) {
    return Status::InvalidArgument("fault plan: " + std::string(fault) + " " +
                                   std::to_string(i) + " " + why);
  };
  for (size_t i = 0; i < kills.size(); ++i) {
    const Kill& k = kills[i];
    const bool by_progress = k.at_progress >= 0.0;
    if (off(k.node)) return invalid("kill", i, "is off the cluster");
    if ((k.at_time >= 0.0) == by_progress) {
      return invalid("kill", i, "needs exactly one of at_time, at_progress");
    }
    if (k.at_progress > 1.0) return invalid("kill", i, "has at_progress > 1");
    if (by_progress && (k.progress_job < 0 ||
                        static_cast<size_t>(k.progress_job) >= num_jobs)) {
      return invalid("kill", i, "follows a job the session does not have");
    }
  }
  for (size_t i = 0; i < corruptions.size(); ++i) {
    const Corrupt& c = corruptions[i];
    if (off(c.node)) return invalid("corruption", i, "is off the cluster");
    if (c.nth_block < 0) return invalid("corruption", i, "has nth_block < 0");
  }
  for (size_t i = 0; i < slow_nodes.size(); ++i) {
    const Slow& sl = slow_nodes[i];
    if (off(sl.node)) return invalid("slow node", i, "is off the cluster");
    if (!(sl.factor >= 1.0)) return invalid("slow node", i, "has factor < 1");
  }
  return Status::OK();
}

FaultPlan FaultPlan::FromSeed(uint64_t seed, int num_nodes) {
  FaultPlan plan;
  if (num_nodes <= 0) return plan;
  uint64_t state = seed * 0x9e3779b97f4a7c15ULL + 0xd1b54a32d192ed03ULL;

  // One progress-triggered kill, reviving mid-session so the revive and
  // stale-replica paths are exercised too.
  Kill kill;
  kill.node = static_cast<int>(Mix(state) % static_cast<uint64_t>(num_nodes));
  kill.at_progress = 0.35 + 0.3 * MixUnit(state);
  kill.progress_job = 0;
  kill.revive_after = 60.0 + 120.0 * MixUnit(state);
  plan.kills.push_back(kill);

  // One or two pre-session corruptions on nodes other than the victim
  // when the cluster is big enough, so corrupt-replica failover has a
  // live replica to fall back to even after the kill.
  const int num_corruptions = 1 + static_cast<int>(Mix(state) % 2);
  for (int i = 0; i < num_corruptions; ++i) {
    Corrupt corrupt;
    corrupt.node =
        static_cast<int>(Mix(state) % static_cast<uint64_t>(num_nodes));
    if (num_nodes > 1 && corrupt.node == kill.node) {
      corrupt.node = (corrupt.node + 1) % num_nodes;
    }
    corrupt.nth_block = static_cast<int>(Mix(state) % 4);
    corrupt.at_time = 0.0;
    plan.corruptions.push_back(corrupt);
  }

  // One slow node (never the kill victim: a dead node is already the
  // worst case) with a 1.5x-3x cost factor to trigger speculation.
  Slow slow;
  slow.node = static_cast<int>(Mix(state) % static_cast<uint64_t>(num_nodes));
  if (num_nodes > 1 && slow.node == kill.node) {
    slow.node = (slow.node + 1) % num_nodes;
  }
  slow.factor = 1.5 + 1.5 * MixUnit(state);
  plan.slow_nodes.push_back(slow);
  return plan;
}

}  // namespace sim
}  // namespace hail
