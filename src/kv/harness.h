#ifndef DMRPC_KV_HARNESS_H_
#define DMRPC_KV_HARNESS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "dsm/lock_server.h"
#include "kv/btree.h"
#include "kv/history.h"
#include "kv/node_store.h"
#include "kv/txn.h"
#include "msvc/cluster.h"
#include "sim/simulation.h"

namespace dmrpc::kv {

/// Deployment shape for one KV experiment or test.
struct KvClusterConfig {
  AccessMode mode = AccessMode::kByRef;
  CcPolicy policy = CcPolicy::kNoWait;
  uint32_t num_clients = 3;
  uint32_t value_size = 100;
  /// DM page size == tree node size. Tests use small pages (or the
  /// max_*_keys caps) to force deep trees and frequent SMOs.
  uint32_t page_size = 4096;
  uint32_t max_leaf_keys = 0;
  uint32_t max_inner_keys = 0;
  /// Frames per DM server / in the G-FAM device.
  uint32_t dm_frames = 1u << 16;
  /// When false, no HistoryRecorder is attached (benchmark runs).
  bool record_history = true;
};

/// A ready-to-use KV deployment on a simulated datacenter: N compute
/// clients (each a ServiceEndpoint with its own DsmLockClient, NodeStore,
/// BTree handle, and TxnMgr), one lock-server host, and the DM substrate
/// the configured AccessMode needs (DM servers for by-value/by-ref,
/// G-FAM + coordinator for cxl-shared). All tree handles share one tree:
/// client 0 creates it during Init, the rest attach by meta id.
class KvCluster {
 public:
  struct Client {
    msvc::ServiceEndpoint* ep = nullptr;
    std::unique_ptr<dsm::DsmLockClient> locks;
    std::unique_ptr<NodeStore> store;
    std::unique_ptr<BTree> tree;
    std::unique_ptr<TxnMgr> txns;
  };

  KvCluster(sim::Simulation* sim, KvClusterConfig cfg);
  ~KvCluster();

  /// Brings every endpoint + lock session up and creates/attaches the
  /// shared tree. Run inside the simulation.
  sim::Task<Status> Init();

  /// Loads `num_keys` keys (0-based dense key space by default --
  /// `key_stride` spreads them) with deterministic values, version 0,
  /// through client 0. Call after Init, before concurrent work.
  sim::Task<Status> Load(uint64_t num_keys, uint64_t key_stride = 1);

  /// Releases every client's cached node mappings (kByValue) so frame
  /// accounting balances; call when the workload is done.
  sim::Task<Status> CloseAll();

  size_t num_clients() const { return clients_.size(); }
  Client& client(size_t i) { return clients_[i]; }
  BTree* tree(size_t i) { return clients_[i].tree.get(); }
  TxnMgr* txns(size_t i) { return clients_[i].txns.get(); }
  HistoryRecorder* history() { return history_.get(); }
  dsm::LockServer* lock_server() { return lock_server_.get(); }
  msvc::Cluster* cluster() { return cluster_.get(); }
  const KvClusterConfig& config() const { return cfg_; }
  /// Fabric node client `i` runs on (clients occupy nodes 0..n-1).
  net::NodeId client_node(size_t i) const {
    return static_cast<net::NodeId>(i);
  }

  /// Deterministic value payload for (key, salt).
  static std::vector<uint8_t> MakeValue(uint64_t key, uint32_t value_size,
                                        uint64_t salt = 0);

 private:
  sim::Simulation* sim_;
  KvClusterConfig cfg_;
  net::NodeId lock_node_ = 0;
  std::unique_ptr<msvc::Cluster> cluster_;
  std::unique_ptr<dsm::LockServer> lock_server_;
  std::unique_ptr<HistoryRecorder> history_;
  std::vector<Client> clients_;
};

}  // namespace dmrpc::kv

#endif  // DMRPC_KV_HARNESS_H_
