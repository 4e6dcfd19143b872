#ifndef DMRPC_DSM_LOCK_SERVER_H_
#define DMRPC_DSM_LOCK_SERVER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "net/fabric.h"
#include "rpc/rpc.h"
#include "sim/sync.h"

namespace dmrpc::dsm {

/// Lock-service request types.
enum LockReqType : uint8_t {
  kAcquire = 1,  // (region, mode, owner, ts, policy) -> () when granted
  kRelease = 2,  // (region, mode, owner) -> ()
};

/// Lock modes.
enum class LockMode : uint8_t { kShared = 0, kExclusive = 1 };

/// What the server does when a request conflicts with current holders.
enum class LockPolicy : uint8_t {
  /// Queue FIFO and grant when compatible (the original DSM behavior;
  /// also what B+-tree latches use -- their top-down/left-right acquire
  /// order makes queue waits deadlock-free).
  kQueue = 0,
  /// NO_WAIT 2PL: conflicts abort immediately with Status::Aborted. The
  /// transaction layer releases its locks and retries from scratch.
  kNoWait = 1,
  /// WAIT_DIE 2PL: a requester older (smaller `ts`) than every
  /// conflicting holder AND every queued waiter may wait; anyone else
  /// dies (Status::Aborted). Wait-for edges therefore only ever point
  /// old -> young, so no cycle -- and no deadlock -- can form.
  kWaitDie = 2,
};

/// Default port the lock server listens on.
inline constexpr uint16_t kLockServerPort = 7300;

/// Per-region lock state. Every holder is tracked by owner id (a
/// transaction or process identity chosen by the client) plus the fabric
/// node it came from, so releases can be ownership-verified and a crashed
/// client's grants can be swept.
struct RegionLock {
  struct Holder {
    uint64_t owner = 0;
    uint64_t ts = 0;
    LockMode mode = LockMode::kShared;
    net::NodeId client = net::kInvalidNode;
  };
  std::vector<Holder> holders;

  /// FIFO of waiters; each entry completes when the lock is granted (or
  /// the waiter is aborted/reclaimed).
  struct Waiter {
    LockMode mode;
    uint64_t owner;
    uint64_t ts;
    net::NodeId client;
    std::shared_ptr<sim::Completion<Status>> granted;
  };
  std::deque<Waiter> queue;
};

/// The synchronization service a DSM-model deployment needs (Table I):
/// readers-writer locks over shared-region ids. This is the machinery --
/// rlock/runlock in Clio, mutexes in Remote Regions, lock tables in FaRM
/// -- that DmRPC's copy-on-write design removes from application logic,
/// and that src/kv's two-phase-locking B+-tree deliberately takes back
/// on: per-key record locks (NO_WAIT / WAIT_DIE) and node latches are
/// both regions here.
///
/// Hardened against two failure modes the original implementation had:
///  - double release: only a current holder (matched by owner id) may
///    release; anyone else gets InvalidArgument and the lock state is
///    untouched.
///  - lost wakeup on crash: when a holder's host dies, ReclaimClient
///    sweeps its grants AND its queued waiters, then re-runs the grant
///    loop, so surviving waiters are woken instead of hanging forever.
class LockServer {
 public:
  LockServer(net::Fabric* fabric, net::NodeId node,
             net::Port port = kLockServerPort);

  LockServer(const LockServer&) = delete;
  LockServer& operator=(const LockServer&) = delete;

  net::NodeId node() const { return node_; }
  net::Port port() const { return port_; }
  uint64_t grants() const { return grants_; }
  uint64_t contentions() const { return contentions_; }
  uint64_t aborts() const { return aborts_; }
  uint64_t upgrades() const { return upgrades_; }
  uint64_t reclaims() const { return reclaims_; }

  /// Live regions with any holder or waiter (diagnostics).
  size_t active_regions() const { return regions_.size(); }

  /// Crash recovery: releases every lock held by `client`'s incarnation
  /// and aborts its queued waiters (completing their withheld responses,
  /// so no handler coroutine leaks), then wakes whoever became grantable.
  /// Wired to the fault layer's crash listener next to
  /// DmServer::ReclaimPeer; also the remedy for a holder whose session
  /// reset mid-critical-section.
  void ReclaimClient(net::NodeId client);

 private:
  sim::Task<rpc::MsgBuffer> HandleAcquire(rpc::ReqContext ctx,
                                          rpc::MsgBuffer req);
  sim::Task<rpc::MsgBuffer> HandleRelease(rpc::ReqContext ctx,
                                          rpc::MsgBuffer req);

  /// True when `mode` for `owner` is compatible with every holder other
  /// than `owner` itself (self-held locks never conflict: re-entry and
  /// S->X upgrade).
  static bool CompatibleWithHolders(const RegionLock& lock, LockMode mode,
                                    uint64_t owner);

  /// Installs the grant: upgrades the owner's existing holder entry or
  /// appends a new one.
  void InstallGrant(RegionLock& lock, LockMode mode, uint64_t owner,
                    uint64_t ts, net::NodeId client);

  void GrantWaiters(RegionLock& lock);
  void MaybeReap(uint64_t region);

  net::NodeId node_;
  net::Port port_;
  std::unique_ptr<rpc::Rpc> rpc_;
  std::unordered_map<uint64_t, RegionLock> regions_;
  uint64_t grants_ = 0;
  uint64_t contentions_ = 0;
  uint64_t aborts_ = 0;
  uint64_t upgrades_ = 0;
  uint64_t reclaims_ = 0;
};

/// Client-side handle: acquire/release region locks over RPC. One
/// DsmLockClient per process, multiplexed over the process's endpoint.
class DsmLockClient {
 public:
  DsmLockClient(rpc::Rpc* rpc, net::NodeId server,
                net::Port port = kLockServerPort);

  /// Connects the session. Must complete before Lock/Unlock.
  sim::Task<Status> Init();

  /// Full-control acquire: `owner` identifies the lock holder (a
  /// transaction id in src/kv), `ts` is the WAIT_DIE age (smaller =
  /// older; retries must reuse their first attempt's ts or starve), and
  /// `policy` picks the conflict behavior. Returns Aborted when the
  /// policy kills the request.
  sim::Task<Status> Acquire(uint64_t region, LockMode mode, uint64_t owner,
                            uint64_t ts, LockPolicy policy);
  /// Releases a lock held by `owner`.
  sim::Task<Status> Release(uint64_t region, LockMode mode, uint64_t owner);

  /// Process-scoped convenience API (the original DSM surface): owner is
  /// this client's node identity, conflicts queue FIFO.
  sim::Task<Status> Lock(uint64_t region, LockMode mode);
  /// Releases a held lock.
  sim::Task<Status> Unlock(uint64_t region, LockMode mode);

 private:
  /// Owner id the 2-arg Lock/Unlock surface uses: the node, offset so it
  /// can never collide with 0 (an unset owner).
  uint64_t DefaultOwner() const {
    return uint64_t{1} << 56 | static_cast<uint64_t>(rpc_->node());
  }

  rpc::Rpc* rpc_;
  net::NodeId server_;
  net::Port port_;
  rpc::SessionId session_ = 0;
  bool initialized_ = false;
};

}  // namespace dmrpc::dsm

#endif  // DMRPC_DSM_LOCK_SERVER_H_
