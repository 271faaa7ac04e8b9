#include "planner/plan_cache.h"

#include <bit>

namespace hail {
namespace planner {

std::string PlanCache::KeyFor(const mapreduce::JobSpec& spec) {
  std::string key = spec.input_file;
  key += '\x1f';
  key += std::to_string(static_cast<int>(spec.system));
  key += spec.hail_splitting ? "S" : "s";
  key += spec.use_planner ? "P" : "p";
  key += '\x1f';
  // The plan's filter is compiled against the declared column types.
  key += spec.schema.ToString();
  key += '\x1f';
  if (spec.annotation.has_value()) {
    const Predicate& filter = spec.annotation->filter;
    key += filter.ToString(spec.schema);
    key += '\x1f';
    // ToString rounds a double to six digits, and the plan carries the
    // compiled literals: the key names each double literal's bits.
    for (const PredicateTerm& t : filter.terms()) {
      for (const Value* v : {&t.literal, &t.literal_hi}) {
        if (!v->is_double()) continue;
        key += std::to_string(std::bit_cast<uint64_t>(v->as_double()));
        key += ',';
      }
    }
    key += '\x1f';
    for (int c : spec.annotation->projection) {
      key += std::to_string(c);
      key += ',';
    }
  }
  return key;
}

const mapreduce::JobPlan* PlanCache::Lookup(const std::string& key,
                                            uint64_t generation) {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  if (it->second.generation != generation) {
    // The directory changed since this plan was computed: replica moves,
    // repairs or stats arrivals may alter splits or decisions.
    entries_.erase(it);
    ++stats_.invalidations;
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  return &it->second.plan;
}

void PlanCache::Insert(const std::string& key, uint64_t generation,
                       mapreduce::JobPlan plan) {
  if (entries_.size() >= max_entries_ && entries_.count(key) == 0) {
    entries_.clear();
  }
  Entry& e = entries_[key];
  e.generation = generation;
  e.plan = std::move(plan);
}

}  // namespace planner
}  // namespace hail
