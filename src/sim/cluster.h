/// \file cluster.h
/// \brief The simulated cluster: nodes with CPU/disk/NIC resources.
///
/// A SimNode bundles the queued resources of one machine plus its cost
/// model. SimCluster owns the nodes and their failure state (used by the
/// fault-tolerance experiments, paper §6.4.3); the session engine owns
/// the one event queue and its clock.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/cost_model.h"
#include "sim/event_queue.h"
#include "sim/node_profile.h"
#include "sim/resource.h"
#include "util/random.h"

namespace hail {
namespace sim {

/// \brief One simulated machine: CPU cores, one disk, full-duplex NIC.
class SimNode {
 public:
  SimNode(int id, NodeProfile profile, CostConstants constants);

  int id() const { return id_; }
  const std::string& name() const { return name_; }
  const CostModel& cost() const { return cost_; }
  const NodeProfile& profile() const { return cost_.profile(); }

  Resource& cpu() { return cpu_; }
  Resource& disk() { return disk_; }
  /// Separate spindle for the client's source-file reads: the paper's
  /// nodes have six SATA disks, so ingestion reads do not queue behind
  /// replica flushes.
  Resource& src_disk() { return src_disk_; }
  /// Datanode-side upload worker pool (block sorting/indexing/checksums).
  /// HDFS runs a bounded number of pipeline writer threads, so upload CPU
  /// work does not fan out across every core.
  Resource& upload_cpu() { return upload_cpu_; }
  Resource& nic_send() { return nic_send_; }
  Resource& nic_recv() { return nic_recv_; }

  /// True once the fault injector killed this node.
  bool alive() const { return alive_; }
  void set_alive(bool alive) { alive_ = alive; }
  /// Simulated time at which the node died (only valid when !alive()).
  SimTime death_time() const { return death_time_; }
  void set_death_time(SimTime t) { death_time_ = t; }

  /// Clears resource bookings and statistics (keeps alive-state).
  void ResetResources();

 private:
  int id_;
  std::string name_;
  CostModel cost_;
  Resource cpu_;
  Resource disk_;
  Resource src_disk_;
  Resource upload_cpu_;
  Resource nic_send_;
  Resource nic_recv_;
  bool alive_ = true;
  SimTime death_time_ = 0.0;
};

/// \brief Configuration for building a cluster.
struct ClusterConfig {
  int num_nodes = 10;
  NodeProfile profile = NodeProfile::Physical();
  CostConstants constants;
  /// Relative disk/net speed jitter across nodes (EC2-style variance);
  /// 0.0 gives identical nodes. Applied deterministically from `seed`.
  double hardware_variance = 0.0;
  uint64_t seed = 42;
};

/// \brief A set of simulated nodes.
class SimCluster {
 public:
  explicit SimCluster(const ClusterConfig& config);

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  SimNode& node(int id) { return *nodes_[static_cast<size_t>(id)]; }
  const SimNode& node(int id) const { return *nodes_[static_cast<size_t>(id)]; }

  const ClusterConfig& config() const { return config_; }
  const CostConstants& constants() const { return config_.constants; }

  /// Marks a node dead at the given time (tasks on it stop making progress;
  /// its replicas become unreadable).
  void KillNode(int id, SimTime when);

  /// Number of nodes still alive.
  int alive_count() const;

 private:
  ClusterConfig config_;
  std::vector<std::unique_ptr<SimNode>> nodes_;
};

}  // namespace sim
}  // namespace hail
