#include "kv/harness.h"

#include <utility>

#include "common/logging.h"

namespace dmrpc::kv {

KvCluster::KvCluster(sim::Simulation* sim, KvClusterConfig cfg)
    : sim_(sim), cfg_(cfg) {
  DMRPC_CHECK_GE(cfg_.num_clients, 1u);
  msvc::ClusterConfig cc;
  cc.backend = cfg_.mode == AccessMode::kCxlShared ? msvc::Backend::kDmCxl
                                                   : msvc::Backend::kDmNet;
  // Clients on nodes 0..n-1, the lock server on node n, DM substrate on
  // the last two nodes (the Cluster defaults).
  cc.num_nodes = cfg_.num_clients + 3;
  lock_node_ = static_cast<net::NodeId>(cfg_.num_clients);
  cc.page_size = cfg_.page_size;
  cc.dm_frames = cfg_.dm_frames;
  cluster_ = std::make_unique<msvc::Cluster>(sim_, cc);
  lock_server_ = std::make_unique<dsm::LockServer>(cluster_->fabric(),
                                                   lock_node_);
  if (cfg_.record_history) history_ = std::make_unique<HistoryRecorder>();

  BTreeConfig tc;
  tc.page_size = cfg_.page_size;
  tc.value_size = cfg_.value_size;
  tc.max_leaf_keys = cfg_.max_leaf_keys;
  tc.max_inner_keys = cfg_.max_inner_keys;
  clients_.resize(cfg_.num_clients);
  for (uint32_t i = 0; i < cfg_.num_clients; ++i) {
    Client& c = clients_[i];
    c.ep = cluster_->AddService("kv" + std::to_string(i),
                                static_cast<net::NodeId>(i),
                                static_cast<net::Port>(900), 4);
    c.locks = std::make_unique<dsm::DsmLockClient>(c.ep->rpc(), lock_node_);
    c.store = std::make_unique<NodeStore>(c.ep->dmrpc()->dm(), cfg_.mode,
                                          cfg_.page_size);
    c.tree = std::make_unique<BTree>(c.store.get(), c.locks.get(), tc, i);
    c.txns = std::make_unique<TxnMgr>(c.tree.get(), c.locks.get(),
                                      history_.get(), cfg_.policy, i);
  }
}

KvCluster::~KvCluster() = default;

sim::Task<Status> KvCluster::Init() {
  Status st = co_await cluster_->InitAll();
  if (!st.ok()) co_return st;
  for (Client& c : clients_) {
    st = co_await c.locks->Init();
    if (!st.ok()) co_return st;
  }
  st = co_await clients_[0].tree->Create();
  if (!st.ok()) co_return st;
  for (size_t i = 1; i < clients_.size(); ++i) {
    clients_[i].tree->Attach(clients_[0].tree->meta_id());
  }
  co_return Status::OK();
}

sim::Task<Status> KvCluster::Load(uint64_t num_keys, uint64_t key_stride) {
  BTree* tree = clients_[0].tree.get();
  for (uint64_t i = 0; i < num_keys; ++i) {
    std::vector<uint8_t> value =
        MakeValue(i * key_stride, cfg_.value_size, /*salt=*/0);
    auto r = co_await tree->Upsert(i * key_stride, value.data(),
                                   /*version=*/0);
    if (!r.ok()) co_return r.status();
  }
  co_return Status::OK();
}

sim::Task<Status> KvCluster::CloseAll() {
  Status first = Status::OK();
  for (Client& c : clients_) {
    Status st = co_await c.tree->Close();
    if (!st.ok() && first.ok()) first = st;
  }
  co_return first;
}

std::vector<uint8_t> KvCluster::MakeValue(uint64_t key, uint32_t value_size,
                                          uint64_t salt) {
  std::vector<uint8_t> value(value_size);
  uint64_t h = key * 0x9e3779b97f4a7c15ull + salt * 0xda942042e4dd58b5ull +
               0x2545f4914f6cdd1dull;
  for (uint32_t i = 0; i < value_size; ++i) {
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    value[i] = static_cast<uint8_t>(h >> 24);
  }
  return value;
}

}  // namespace dmrpc::kv
