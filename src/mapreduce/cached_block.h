/// \file cached_block.h
/// \brief Shared plumbing for readers' once-per-block-version artifacts.
///
/// The HAIL and trojan readers cache the same shape of state in the
/// cluster BlockCache: a parsed layout view plus lazily deserialised
/// indexes. This header holds the common protocol — DecodeOnce (decode
/// once, count once, cache the error too), and the open-or-retrieve
/// helper with the dead-node straggler bypass (a dead node's replicas
/// must never be cacheable) — so the two readers only contribute their
/// view/index types.

#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "hdfs/block_cache.h"
#include "mapreduce/record_reader.h"

namespace hail {
namespace mapreduce {

/// \brief An index decoded on its first use by any task: thread-safe,
/// decoded and counted once, its error cached too.
template <typename T>
class DecodeOnce {
 public:
  /// Runs \p decode (a `Result<T>()` callable) on the first call only,
  /// ticking \p cache's decode counter; every call returns its outcome.
  template <typename DecodeFn>
  Result<const T*> Get(hdfs::BlockCache* cache, const DecodeFn& decode) const {
    std::call_once(once_, [&] {
      cache->NoteIndexDecode();
      Result<T> decoded = decode();
      if (decoded.ok()) {
        value_.emplace(std::move(*decoded));
      } else {
        status_ = decoded.status();
      }
    });
    HAIL_RETURN_NOT_OK(status_);
    return &*value_;
  }

 private:
  mutable std::once_flag once_;
  mutable Status status_;
  mutable std::optional<T> value_;
};

/// \brief Cached artifact base: a layout view + its lazily decoded index.
///
/// \tparam ViewT layout view with `Result<IndexT> ReadIndex() const`.
template <typename ViewT, typename IndexT>
struct CachedIndexedBlock : hdfs::BlockArtifact {
  ViewT view;

  /// Deserialises the index on first use. \p cache only receives the
  /// decode-counter tick.
  Result<const IndexT*> Index(hdfs::BlockCache* cache) const {
    return index_.Get(cache, [this] { return view.ReadIndex(); });
  }

 private:
  DecodeOnce<IndexT> index_;
};

/// Opens (or retrieves) the decoded block state for one replica.
/// \p open builds a fresh artifact (invoked on miss, or directly —
/// bypassing the cache — when the replica's datanode is dead: straggler
/// reads racing the failure detector must leave no cached state).
template <typename ArtifactT, typename OpenFn>
Result<std::shared_ptr<const ArtifactT>> OpenCachedArtifact(
    const ReadContext& ctx, int dn, uint64_t block_id, const OpenFn& open) {
  const hdfs::Datanode& node = ctx.dfs->datanode(dn);
  std::shared_ptr<const hdfs::BlockArtifact> artifact;
  if (!node.sim().alive()) {
    HAIL_ASSIGN_OR_RETURN(artifact, open());
  } else {
    HAIL_ASSIGN_OR_RETURN(
        artifact, ctx.dfs->block_cache().ArtifactOnce(
                      dn, block_id, node.block_generation(block_id), open));
  }
  return std::static_pointer_cast<const ArtifactT>(artifact);
}

}  // namespace mapreduce
}  // namespace hail
