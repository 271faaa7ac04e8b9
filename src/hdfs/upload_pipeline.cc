#include "hdfs/upload_pipeline.h"

#include <algorithm>

#include "hdfs/packet.h"

namespace hail {
namespace hdfs {

ChainTiming BillChainTransfer(sim::SimCluster* cluster, int client,
                              sim::SimTime ready, uint64_t logical_bytes,
                              const std::vector<int>& targets) {
  ChainTiming timing;
  timing.arrival_complete.reserve(targets.size());

  // One-packet lag between hops models cut-through forwarding: DN2 starts
  // receiving as soon as DN1 has the first packet, not the whole block.
  const sim::CostModel& client_cost = cluster->node(client).cost();
  const double packet_lag =
      client_cost.NetTransfer(cluster->constants().packet_bytes);

  sim::SimTime hop_ready = ready;
  int sender = client;
  for (int target : targets) {
    sim::Resource& out = cluster->node(sender).nic_send();
    sim::Resource& in = cluster->node(target).nic_recv();
    const double duration =
        cluster->node(sender).cost().NetTransfer(logical_bytes);
    // Sender and receiver sides are booked independently (socket buffers
    // decouple them); the block has fully arrived when both finish. This
    // keeps each NIC timeline densely packed instead of forcing joint
    // start times that would fragment the FIFO schedules.
    const sim::Interval out_iv = out.Schedule(hop_ready, duration);
    const sim::Interval in_iv = in.Schedule(hop_ready, duration);
    const sim::SimTime end = std::max(out_iv.end, in_iv.end);
    timing.arrival_complete.push_back(end);
    // The next hop starts one packet behind this one (cut-through).
    hop_ready = std::max(out_iv.start, in_iv.start) + packet_lag;
    sender = target;
  }
  return timing;
}

Result<BlockWriteResult> UploadPipeline::WriteBlock(
    int client, sim::SimTime ready, uint64_t block_id,
    std::string_view block_bytes, uint64_t logical_bytes,
    const std::vector<int>& targets) {
  IdentityTransformer identity;
  HAIL_RETURN_NOT_OK(identity.BeginBlock(block_bytes));
  return WriteBlock(client, ready, block_id, block_bytes, logical_bytes,
                    targets, &identity);
}

Result<BlockWriteResult> UploadPipeline::WriteBlock(
    int client, sim::SimTime ready, uint64_t block_id,
    std::string_view block_bytes, uint64_t logical_bytes,
    const std::vector<int>& targets, ReplicaTransformer* transformer) {
  if (targets.empty()) {
    return Status::InvalidArgument("pipeline requires at least one target");
  }
  for (int t : targets) {
    if (t < 0 || t >= static_cast<int>(datanodes_.size())) {
      return Status::InvalidArgument("bad pipeline target");
    }
    if (!cluster_->node(t).alive()) {
      return Status::FailedPrecondition("pipeline target " +
                                        std::to_string(t) + " is dead");
    }
  }
  const bool streaming = transformer->identity();

  // ---- functional path: packets through the chain ----
  std::vector<Packet> packets = MakePackets(
      block_id, block_bytes, config_.chunk_bytes, config_.packet_bytes);

  const int tail = targets.back();
  std::vector<Ack> acks;
  acks.reserve(packets.size());
  for (const Packet& p : packets) {
    if (streaming) {
      // Stock path: every datanode in the chain appends data + checksums
      // to its two replica files as the packet passes through (streaming
      // flush). Transforming datanodes instead hold packets in memory and
      // store their replica after the transform (step 7 in Figure 1).
      for (int dn : targets) {
        datanodes_[static_cast<size_t>(dn)]->AppendPacket(p);
      }
    }
    // Only the tail verifies (DN2 believes DN3, DN1 believes DN2, the
    // client believes DN1).
    if (!VerifyPacket(p, config_.chunk_bytes)) {
      return Status::Corruption("packet " + std::to_string(p.seq) +
                                " failed checksum verification at DN" +
                                std::to_string(tail));
    }
    // ACK travels tail -> head, IDs appended along the way.
    Ack ack;
    ack.seq = p.seq;
    ack.last_in_block = p.last_in_block;
    for (auto it = targets.rbegin(); it != targets.rend(); ++it) {
      ack.datanode_ids.push_back(*it);
    }
    acks.push_back(std::move(ack));
  }

  // Client-side ACK validation: in-order sequence numbers, full chain.
  uint32_t expected_seq = 0;
  for (const Ack& ack : acks) {
    if (ack.seq != expected_seq++) {
      return Status::Corruption("out-of-order ACK: upload failed");
    }
    if (static_cast<int>(ack.datanode_ids.size()) !=
        static_cast<int>(targets.size())) {
      return Status::Corruption("ACK chain incomplete");
    }
  }

  if (!streaming) {
    // Reassemble the block from its packets (step 6) — every datanode
    // does this in memory; one reassembly suffices functionally since the
    // bytes are identical. The transformer was begun on the client's
    // bytes, so the packets must reassemble to exactly those.
    std::string reassembled;
    reassembled.reserve(block_bytes.size());
    for (const Packet& p : packets) reassembled.append(p.data);
    if (reassembled != block_bytes) {
      return Status::Corruption("block reassembly mismatch");
    }
  }

  // ---- timing: chain transfer (cut-through) ----
  ChainTiming chain =
      BillChainTransfer(cluster_, client, ready, logical_bytes, targets);

  BlockWriteResult result;
  result.packets = static_cast<uint32_t>(packets.size());

  sim::SimTime done = 0.0;
  for (size_t i = 0; i < targets.size(); ++i) {
    const int dn_id = targets[i];
    sim::SimNode& node = cluster_->node(dn_id);
    sim::SimTime replica_done;
    if (streaming) {
      // Flush overlaps receive: the disk starts streaming as packets
      // land, so it is booked from one packet after the hop began
      // receiving. Checksum side-car: 4 bytes per 512-byte chunk.
      const uint64_t logical_meta =
          ChecksumMetaBytes(logical_bytes, cluster_->constants().chunk_bytes);
      const sim::SimTime flush_ready =
          chain.arrival_complete[i] -
          node.cost().NetTransfer(logical_bytes) +
          node.cost().NetTransfer(cluster_->constants().packet_bytes);
      const sim::Interval flush = node.disk().Schedule(
          flush_ready,
          node.cost().DiskTransfer(logical_bytes + logical_meta));
      replica_done = std::max(flush.end, chain.arrival_complete[i]);
      if (dn_id == tail) {
        // Tail verifies every chunk's CRC32C.
        const sim::Interval verify = node.cpu().Schedule(
            chain.arrival_complete[i], node.cost().Crc(logical_bytes));
        replica_done = std::max(replica_done, verify.end);
      }
      ReplicaWorkContext ctx;
      ctx.cost = &node.cost();
      ctx.is_tail = dn_id == tail;
      HAIL_ASSIGN_OR_RETURN(ReplicaBlock replica,
                            transformer->BuildReplica(i, ctx));
      HAIL_RETURN_NOT_OK(
          namenode_->RegisterReplica(block_id, dn_id, replica.info));
    } else {
      // Transforming datanode: sort/index/CRC runs on its bounded pool of
      // pipeline worker threads, in parallel across blocks (§3.5: "on
      // each data node several blocks may be indexed in parallel"); the
      // flush — and with it the block's final ACK (steps 10-15) — waits
      // for the transform.
      ReplicaWorkContext ctx;
      ctx.cost = &node.cost();
      ctx.is_tail = dn_id == tail;
      HAIL_ASSIGN_OR_RETURN(ReplicaBlock replica,
                            transformer->BuildReplica(i, ctx));
      const sim::Interval work = node.upload_cpu().Schedule(
          chain.arrival_complete[i], replica.cpu_seconds);
      const uint64_t logical_meta = ChecksumMetaBytes(
          replica.logical_bytes, cluster_->constants().chunk_bytes);
      const sim::Interval flush = node.disk().Schedule(
          work.end,
          node.cost().DiskAccess(replica.logical_bytes + logical_meta));
      result.replica_bytes_total += replica.bytes.size();
      datanodes_[static_cast<size_t>(dn_id)]->StoreBlock(
          block_id, std::move(replica.bytes), replica.chunk_crcs);
      HAIL_RETURN_NOT_OK(
          namenode_->RegisterReplica(block_id, dn_id, replica.info));
      replica_done = flush.end;
    }
    done = std::max(done, replica_done);
  }
  namenode_->SetBlockLogicalBytes(block_id, logical_bytes);
  // One stats sidecar per logical block (replicas share the same rows);
  // registered after the replicas so it records the block's final
  // mutation count and stays fresh until the next replica mutation.
  if (!transformer->stats_bytes().empty()) {
    namenode_->RegisterBlockStats(block_id,
                                  std::string(transformer->stats_bytes()));
  }

  result.completed = done;
  if (streaming) {
    result.replica_physical_bytes =
        block_bytes.size() +
        ChecksumMetaBytes(block_bytes.size(), config_.chunk_bytes);
    result.replica_bytes_total =
        block_bytes.size() * static_cast<uint64_t>(targets.size());
  }
  return result;
}

}  // namespace hdfs
}  // namespace hail
