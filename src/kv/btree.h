#ifndef DMRPC_KV_BTREE_H_
#define DMRPC_KV_BTREE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "dsm/lock_server.h"
#include "kv/node.h"
#include "kv/node_store.h"
#include "sim/task.h"

namespace dmrpc::kv {

struct BTreeConfig {
  uint32_t page_size = 4096;
  uint32_t value_size = 100;
  /// Fanout caps; 0 = as many entries as fit the page. Tests set small
  /// caps to force deep trees and frequent structure modifications.
  uint32_t max_leaf_keys = 0;
  uint32_t max_inner_keys = 0;
};

struct BTreeStats {
  uint64_t gets = 0;
  uint64_t upserts = 0;
  uint64_t erases = 0;
  uint64_t scans = 0;
  uint64_t leaf_splits = 0;
  uint64_t inner_splits = 0;
  uint64_t merges = 0;
  uint64_t borrows = 0;
  uint64_t root_changes = 0;
  uint64_t smo_descents = 0;  // pessimistic (meta-X) passes
};

/// One leaf entry as returned by Get/Scan.
struct KvEntry {
  uint64_t key = 0;
  /// Id of the transaction that last wrote the entry (0 = initial load);
  /// the serializability checker's reads-from evidence.
  uint64_t version = 0;
  std::vector<uint8_t> value;
};

/// A B+-tree whose nodes are pages in disaggregated memory, shared by
/// every compute-side client. Concurrency control is two-level:
///
///  - Node LATCHES are dsm::LockServer regions (kQueue policy) acquired
///    with strict lock coupling, top-down and left-to-right -- parent
///    before child, left sibling before right -- so latch waits cannot
///    deadlock. The optimistic path S-crabs root-to-leaf and takes the
///    leaf in the caller's mode; an operation that turns out to need a
///    structure modification releases everything and retries
///    pessimistically: X on the tree's meta page (globally serializing
///    SMOs), then X latches down the whole path (plus the one sibling a
///    removal may rewire), so splits/merges/borrows run exclusively.
///  - Record LOCKS (2PL, NO_WAIT / WAIT_DIE) live a level above in
///    kv::Txn; the tree itself only guarantees structural integrity.
///
/// Removal policy is free-at-empty: a node is merged away only when its
/// last key leaves (with an inner-node borrow when the absorbing sibling
/// is full). Strict coupling makes node reclamation safe: a reader always
/// holds the parent latch until the child latch is granted, so an SMO
/// that frees a node (under X on parent AND victim) can never yank it
/// from under a descending reader.
class BTree {
 public:
  /// `latches` is this client's lock-service handle; `client_id` makes
  /// this client's latch owner ids globally unique.
  BTree(NodeStore* store, dsm::DsmLockClient* latches, BTreeConfig cfg,
        uint32_t client_id);

  BTree(const BTree&) = delete;
  BTree& operator=(const BTree&) = delete;

  /// Loader path: allocates the empty root leaf and the meta page.
  sim::Task<Status> Create();
  /// Every other client attaches to an existing tree by meta id.
  void Attach(NodeId meta_id) { meta_id_ = meta_id; }
  NodeId meta_id() const { return meta_id_; }

  const BTreeConfig& config() const { return cfg_; }
  const BTreeStats& stats() const { return stats_; }
  NodeStore* store() { return store_; }
  /// Total structure modifications so far -- tests snapshot this around
  /// operations to invoke CheckInvariants after every split/merge.
  uint64_t smo_count() const {
    return stats_.leaf_splits + stats_.inner_splits + stats_.merges +
           stats_.borrows;
  }

  /// Point read. nullopt = key absent.
  sim::Task<StatusOr<std::optional<KvEntry>>> Get(uint64_t key);
  /// Insert-or-update, stamping `version`. Returns true when the key was
  /// newly inserted, false when an existing entry was overwritten.
  sim::Task<StatusOr<bool>> Upsert(uint64_t key, const uint8_t* value,
                                   uint64_t version);
  /// Returns true when the key existed.
  sim::Task<StatusOr<bool>> Erase(uint64_t key);
  /// Up to `max_items` entries with key >= start_key, in key order.
  sim::Task<StatusOr<std::vector<KvEntry>>> Scan(uint64_t start_key,
                                                 uint32_t max_items);

  /// Full structural audit (call quiesced, it takes no latches): sorted
  /// keys, separator ranges, fanout bounds, uniform leaf depth ==
  /// meta.height, intact left-to-right sibling chain. On violation
  /// returns Internal with a description (also in *report).
  sim::Task<Status> CheckInvariants(std::string* report = nullptr);

  /// Releases this client's cached node mappings (kByValue).
  sim::Task<Status> Close() { return store_->Close(); }

 private:
  /// Tracks latches held by one operation; releases are ownership-exact.
  class LatchSet {
   public:
    LatchSet(dsm::DsmLockClient* lc, uint64_t owner)
        : lc_(lc), owner_(owner) {}
    sim::Task<Status> Acquire(NodeId id, dsm::LockMode mode);
    sim::Task<Status> Release(NodeId id);
    /// Best effort, reverse acquisition order; errors ignored (crash
    /// paths rely on LockServer::ReclaimClient).
    sim::Task<> ReleaseAll();

   private:
    dsm::DsmLockClient* lc_;
    uint64_t owner_;
    std::vector<std::pair<NodeId, dsm::LockMode>> held_;
  };

  /// The node's latch region: tag byte 0xB7 over the id hash (record
  /// locks use 0x4B -- disjoint spaces). A hash collision between two
  /// live nodes would only cause false contention-ordering, never a
  /// correctness failure, and is vanishingly unlikely.
  static uint64_t LatchRegion(const NodeId& id) {
    return (uint64_t{0xB7} << 56) | (id.Hash() & ((uint64_t{1} << 56) - 1));
  }

  uint64_t NextLatchOwner() {
    return (uint64_t{client_id_} << 24 | (latch_seq_++ & ((1 << 24) - 1)))
           << 8;
  }

  sim::Task<StatusOr<MetaPage>> ReadMeta();
  sim::Task<Status> WriteMeta(const MetaPage& meta);
  sim::Task<StatusOr<Node>> ReadNode(const NodeId& id);
  sim::Task<Status> WriteNodePage(const NodeId& id, const Node& node);
  sim::Task<StatusOr<NodeId>> AllocNodePage(const Node& node);

  struct DescentResult {
    MetaPage meta;
    NodeId leaf_id;
    Node leaf;
  };
  /// Optimistic S-crab to the leaf covering `key`, leaf taken in
  /// `leaf_mode`. On success the leaf latch (only) is held in *latches.
  sim::Task<StatusOr<DescentResult>> DescendToLeaf(uint64_t key,
                                                   dsm::LockMode leaf_mode,
                                                   LatchSet* latches);

  /// Pessimistic insert: meta-X, X path, splits as needed.
  sim::Task<StatusOr<bool>> SmoInsert(uint64_t key, const uint8_t* value,
                                      uint64_t version);
  /// Pessimistic erase: meta-X, X path + rewire sibling, free-at-empty.
  sim::Task<StatusOr<bool>> SmoErase(uint64_t key);

  sim::Task<Status> CheckSubtree(NodeId id, uint64_t level,
                                 std::optional<uint64_t> lo,
                                 std::optional<uint64_t> hi,
                                 const MetaPage& meta,
                                 std::vector<std::pair<NodeId, NodeId>>* leaves,
                                 std::string* err);

  NodeStore* store_;
  dsm::DsmLockClient* latches_;
  BTreeConfig cfg_;
  uint32_t client_id_;
  uint32_t leaf_cap_;
  uint32_t inner_cap_;
  uint32_t latch_seq_ = 0;
  NodeId meta_id_;
  BTreeStats stats_;
};

}  // namespace dmrpc::kv

#endif  // DMRPC_KV_BTREE_H_
