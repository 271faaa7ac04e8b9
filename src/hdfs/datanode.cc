#include "hdfs/datanode.h"

#include "util/io.h"

namespace hail {
namespace hdfs {

void Datanode::NoteMutation(uint64_t block_id) {
  ++generations_[block_id];
  cache_->InvalidateBlock(id_, block_id);
}

void Datanode::AppendPacket(const Packet& packet) {
  store_.Append(BlockFileName(packet.block_id), packet.data);
  ByteWriter w;
  for (uint32_t crc : packet.chunk_crcs) w.PutU32(crc);
  store_.Append(BlockMetaFileName(packet.block_id), w.buffer());
  NoteMutation(packet.block_id);
}

void Datanode::StoreBlock(uint64_t block_id, std::string data,
                          const std::vector<uint32_t>& crcs) {
  // One-shot stores use the framed meta format (count-prefixed).
  store_.Put(BlockFileName(block_id), std::move(data));
  store_.Put(BlockMetaFileName(block_id), SerializeChecksums(crcs));
  NoteMutation(block_id);
}

Status Datanode::VerifyAgainstMeta(uint64_t block_id, std::string_view data,
                                   uint32_t chunk_bytes) const {
  HAIL_ASSIGN_OR_RETURN(std::string_view meta,
                        store_.Get(BlockMetaFileName(block_id)));
  // Meta files written by StoreBlock are framed; streamed ones are raw
  // CRC arrays. Distinguish by size.
  std::vector<uint32_t> crcs;
  const size_t expected = (data.size() + chunk_bytes - 1) / chunk_bytes;
  if (meta.size() == 4 + expected * 4) {
    HAIL_ASSIGN_OR_RETURN(crcs, ParseChecksums(meta));
  } else if (meta.size() == expected * 4) {
    crcs.resize(expected);
    std::memcpy(crcs.data(), meta.data(), meta.size());
  } else {
    return Status::Corruption("meta file size mismatch for block " +
                              std::to_string(block_id));
  }
  return VerifyBlockChecksums(data, crcs, chunk_bytes)
      .WithContext("block " + std::to_string(block_id));
}

Result<std::string_view> Datanode::ReadBlockVerified(
    uint64_t block_id, uint32_t chunk_bytes) const {
  // A dead datanode serves nothing: stragglers that race the failure
  // detector get Unavailable and fail over to the next live replica,
  // exactly like post-detection rescheduled tasks.
  if (!sim_->alive()) {
    return Status::Unavailable("datanode " + std::to_string(id_) + " is dead");
  }
  HAIL_ASSIGN_OR_RETURN(std::string_view data,
                        store_.Get(BlockFileName(block_id)));
  HAIL_RETURN_NOT_OK(cache_->VerifyOnce(
      id_, block_id, block_generation(block_id), data.size(),
      [&] { return VerifyAgainstMeta(block_id, data, chunk_bytes); }));
  return data;
}

Result<std::string_view> Datanode::ReadBlockRaw(uint64_t block_id) const {
  if (!sim_->alive()) {
    return Status::Unavailable("datanode " + std::to_string(id_) + " is dead");
  }
  return store_.Get(BlockFileName(block_id));
}

Status Datanode::CorruptReplica(uint64_t block_id) {
  HAIL_ASSIGN_OR_RETURN(std::string_view data,
                        store_.Get(BlockFileName(block_id)));
  if (data.empty()) {
    return Status::FailedPrecondition("cannot corrupt empty block " +
                                      std::to_string(block_id));
  }
  std::string flipped(data);
  flipped[flipped.size() / 2] ^= 0x40;
  store_.Put(BlockFileName(block_id), std::move(flipped));
  NoteMutation(block_id);
  return Status::OK();
}

Status Datanode::DeleteBlock(uint64_t block_id) {
  HAIL_RETURN_NOT_OK(store_.Delete(BlockFileName(block_id)));
  Status st = store_.Delete(BlockMetaFileName(block_id));
  NoteMutation(block_id);
  return st;
}

}  // namespace hdfs
}  // namespace hail
