#ifndef DMRPC_APPS_BLOCK_STORAGE_H_
#define DMRPC_APPS_BLOCK_STORAGE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/dmrpc.h"
#include "msvc/cluster.h"
#include "msvc/workload.h"

namespace dmrpc::apps {

/// Knobs of the block-storage application.
struct BlockStorageConfig {
  /// Primary shards; block addresses are hashed across them.
  int num_shards = 2;
  /// Replicas per shard (chain replication behind the primary).
  int replicas_per_shard = 2;
  /// Storage-node CPU per block operation (index + journal).
  TimeNs io_path_ns = 2000;
};

/// A cloud block-storage service, the paper's motivating data-intensive
/// application (§I: "the commodity block storage service uses RPC to
/// transfer large data blocks (tens to hundreds of KBs)").
///
///   WriteBlock: client -> gateway -> primary -> replica1 -> replica2
///   ReadBlock:  client -> gateway -> primary (or a replica)
///
/// Under eRPC the block's bytes traverse the whole replication chain;
/// under DmRPC each storage node receives the Ref and *maps* it, holding
/// the pages alive in DM: the write path moves the data zero times past
/// the client. Reads mint a fresh Ref from the stored mapping
/// (create_ref on the mapped address), so read responses are also
/// pass-by-reference.
class BlockStorageApp {
 public:
  static constexpr rpc::ReqType kGatewayWrite = 80;
  static constexpr rpc::ReqType kGatewayRead = 81;
  static constexpr rpc::ReqType kStoreWrite = 82;
  static constexpr rpc::ReqType kStoreRead = 83;

  BlockStorageApp(msvc::Cluster* cluster,
                  const std::vector<net::NodeId>& nodes,
                  BlockStorageConfig cfg = BlockStorageConfig());

  /// Writes `data` to (volume, lba); returns bytes written.
  sim::Task<StatusOr<uint64_t>> WriteBlock(msvc::ServiceEndpoint* client,
                                           uint32_t volume, uint64_t lba,
                                           const std::vector<uint8_t>& data);

  /// Reads (volume, lba); returns the block contents.
  sim::Task<StatusOr<std::vector<uint8_t>>> ReadBlock(
      msvc::ServiceEndpoint* client, uint32_t volume, uint64_t lba);

  /// Mixed read/write workload over `blocks_per_volume` hot blocks.
  msvc::RequestFn MakeWorkloadFn(msvc::ServiceEndpoint* client,
                                 uint32_t block_bytes, double write_fraction);

  uint64_t blocks_stored() const { return blocks_stored_; }

 private:
  /// One stored block on one storage node.
  struct StoredBlock {
    uint64_t version = 0;
    uint64_t size = 0;
    /// DmRPC backends: a held mapping that keeps the pages alive. Shared
    /// so a read can pin it across its CreateRef: a newer write retiring
    /// the block must not free pages a Ref is being minted over. The last
    /// holder to let go closes it.
    std::shared_ptr<core::MappedRegion> region;
    /// eRPC backend: the block data as a slice chain (shares the
    /// request's slabs instead of re-staging a flat copy).
    rpc::MsgBuffer bytes;
  };
  /// Per storage-node state, keyed by (volume, lba).
  struct NodeState {
    std::map<std::pair<uint32_t, uint64_t>, StoredBlock> blocks;
  };

  void InstallGateway(msvc::ServiceEndpoint* ep);
  void InstallStorageNode(msvc::ServiceEndpoint* ep, int shard, int pos);

  std::string StoreName(int shard, int pos) const {
    return "bs-s" + std::to_string(shard) + "n" + std::to_string(pos);
  }
  int ShardOf(uint32_t volume, uint64_t lba) const {
    return static_cast<int>((volume * 1315423911u + lba * 2654435761u) %
                            cfg_.num_shards);
  }

  msvc::Cluster* cluster_;
  BlockStorageConfig cfg_;
  /// State per (shard, position-in-chain).
  std::map<std::pair<int, int>, NodeState> node_state_;
  uint64_t next_version_ = 1;
  uint64_t blocks_stored_ = 0;
  Rng workload_rng_{0xb10c, 3};
};

}  // namespace dmrpc::apps

#endif  // DMRPC_APPS_BLOCK_STORAGE_H_
