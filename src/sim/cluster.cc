#include "sim/cluster.h"

#include <algorithm>

namespace hail {
namespace sim {

SimNode::SimNode(int id, NodeProfile profile, CostConstants constants)
    : id_(id),
      name_("node" + std::to_string(id)),
      cost_(profile, constants),
      cpu_(name_ + "/cpu", profile.cores),
      disk_(name_ + "/disk", 1),
      src_disk_(name_ + "/disk-src", 1),
      upload_cpu_(name_ + "/upload-cpu",
                  std::min(profile.upload_worker_threads, profile.cores)),
      nic_send_(name_ + "/nic-send", 1),
      nic_recv_(name_ + "/nic-recv", 1) {}

void SimNode::ResetResources() {
  cpu_.Reset();
  disk_.Reset();
  src_disk_.Reset();
  upload_cpu_.Reset();
  nic_send_.Reset();
  nic_recv_.Reset();
}

SimCluster::SimCluster(const ClusterConfig& config) : config_(config) {
  Random rng(config.seed);
  nodes_.reserve(static_cast<size_t>(config.num_nodes));
  for (int i = 0; i < config.num_nodes; ++i) {
    NodeProfile profile = config.profile;
    if (config.hardware_variance > 0.0) {
      // Deterministic per-node jitter models EC2 performance variance
      // (paper §6.3.4 cites Schad et al. on cloud runtime variance).
      const double jitter_disk =
          1.0 + config.hardware_variance * (rng.NextDouble() * 2.0 - 1.0);
      const double jitter_net =
          1.0 + config.hardware_variance * (rng.NextDouble() * 2.0 - 1.0);
      profile.disk_mbps *= jitter_disk;
      profile.net_mbps *= jitter_net;
    }
    nodes_.push_back(std::make_unique<SimNode>(i, profile, config.constants));
  }
}

void SimCluster::KillNode(int id, SimTime when) {
  SimNode& n = node(id);
  n.set_alive(false);
  n.set_death_time(when);
}

int SimCluster::alive_count() const {
  int count = 0;
  for (const auto& n : nodes_) {
    if (n->alive()) ++count;
  }
  return count;
}

}  // namespace sim
}  // namespace hail
