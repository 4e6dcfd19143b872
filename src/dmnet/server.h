#ifndef DMRPC_DMNET_SERVER_H_
#define DMRPC_DMNET_SERVER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "dm/page_pool.h"
#include "dm/va_allocator.h"
#include "mem/memory_model.h"
#include "net/fabric.h"
#include "obs/metrics.h"
#include "rpc/rpc.h"
#include "sim/sync.h"

namespace dmrpc::dmnet {

/// Tuning of a DM server (§V-A).
struct DmServerConfig {
  uint32_t page_size = 4096;
  /// Modelled capacity: 65536 frames are 256 MiB of pinned pages on the
  /// simulated server. Host RAM follows frames in use, not this figure
  /// (see dm::PagePool).
  uint32_t num_frames = 65536;
  /// Worker cores serving DM requests (Fig. 7 uses 1).
  int cores = 1;
  /// Per-request fixed CPU cost (argument parsing, dispatch).
  TimeNs op_cpu_ns = 100;
  /// Software address translation: one hash lookup per page. The paper
  /// reports translation at 0.17% of total DM access time, where "total"
  /// includes the network round trip; against server-side handler time
  /// alone the fraction is a few percent (see abl_translation_cost).
  TimeNs hash_lookup_ns = 15;
  /// Page-fault service: pop a frame from the FIFO and install the PTE.
  TimeNs fault_ns = 150;
  /// VA-tree allocate/free.
  TimeNs tree_op_ns = 120;
  /// Reference-count read/update.
  TimeNs refcount_op_ns = 15;
  /// When true, CreateRef eagerly copies the pages instead of sharing
  /// them copy-on-write -- the paper's "-copy" baseline (Fig. 7).
  bool eager_copy = false;
  /// Models the paper's proposed future-work optimization (§V-A2): the
  /// OS is modified so the MMU translates DM virtual addresses straight
  /// to physical addresses, skipping the software hash-table lookup.
  /// Bookkeeping still happens (correctness is unchanged); only the
  /// per-page lookup CPU cost disappears.
  bool mmu_direct_translation = false;
  /// VA span handed to each registered process.
  uint64_t va_span_per_proc = uint64_t{1} << 36;  // 64 GiB

  mem::MemoryConfig memory;
};

/// Operation counters of one DM server.
struct DmServerStats {
  uint64_t allocs = 0;
  uint64_t frees = 0;
  uint64_t create_refs = 0;
  uint64_t map_refs = 0;
  uint64_t release_refs = 0;
  uint64_t put_refs = 0;
  uint64_t fetch_refs = 0;
  uint64_t reads = 0;
  uint64_t writes = 0;
  uint64_t page_faults = 0;
  uint64_t cow_copies = 0;
  uint64_t eager_copied_pages = 0;
  /// Crash-recovery sweeps (ReclaimPeer calls) and the frames they
  /// returned to the free list.
  uint64_t peer_reclaims = 0;
  uint64_t frames_reclaimed = 0;
  /// Virtual ns spent in software address translation (for the 0.17%
  /// claim in §V-A2).
  TimeNs translation_ns = 0;
  /// Virtual ns spent serving DM accesses (rread/rwrite handler time).
  TimeNs access_ns = 0;
};

/// A disaggregated-memory server: pinned page pool managed by a Page
/// Manager (FIFO free list, per-page refcounts, VA allocation trees,
/// create_ref key map) fronted by an Address Translator (one global
/// in-memory hash table mapping DM virtual pages to pinned frames).
/// Serves DmReqType RPCs on `port` of host `node`.
class DmServer {
 public:
  DmServer(net::Fabric* fabric, net::NodeId node, net::Port port,
           DmServerConfig cfg = DmServerConfig(),
           /// Base of the per-process VA partitions this server hands
           /// out; lets multiple servers hand out disjoint DM VAs.
           uint64_t va_partition_base = uint64_t{1} << 44);

  DmServer(const DmServer&) = delete;
  DmServer& operator=(const DmServer&) = delete;

  net::NodeId node() const { return node_; }
  net::Port port() const { return port_; }
  const DmServerConfig& config() const { return cfg_; }
  const DmServerStats& stats() const { return stats_; }
  const mem::BandwidthMeter& memory_meter() const { return meter_; }
  mem::BandwidthMeter& memory_meter() { return meter_; }
  const dm::PagePool& pool() const { return pool_; }
  rpc::Rpc* rpc() { return rpc_.get(); }

  /// Resets traffic counters (between benchmark phases).
  void ResetStats() {
    stats_ = DmServerStats();
    meter_.Reset();
  }

  /// Crash recovery: drops every resource owned by `peer`'s current
  /// incarnation -- lease-tracked Ref shares, then each of its registered
  /// processes (PTE shares and VA trees) -- returning now-unreferenced
  /// frames to the free list, and bumps the peer's epoch so requests
  /// still in flight from the dead incarnation resolve cleanly (unknown
  /// pid / unknown ref key) instead of touching reclaimed state. Called
  /// by the fault layer's crash listener and by chaos-harness retirement
  /// (a clean process exit is the same sweep).
  void ReclaimPeer(net::NodeId peer);

  /// Test hook: when set, ReleaseRef forgets the Ref entry WITHOUT
  /// dropping its page references -- a deliberate leak the chaos
  /// harness's conservation invariant must catch (negative test).
  void set_debug_leak_on_release(bool v) { debug_leak_on_release_ = v; }

 private:
  struct ProcState {
    std::unique_ptr<dm::VaAllocator> va;
    /// Node that registered this process (crash-reclamation scope).
    net::NodeId owner = net::kInvalidNode;
  };
  struct RefEntry {
    std::vector<dm::FrameId> frames;
    uint64_t size = 0;
    /// Lease holding this entry's page shares (owner node + epoch).
    dm::LeaseId lease = 0;
  };

  // Handlers (one per DmReqType).
  sim::Task<rpc::MsgBuffer> HandleRegister(rpc::ReqContext ctx,
                                           rpc::MsgBuffer req);
  sim::Task<rpc::MsgBuffer> HandleAlloc(rpc::ReqContext ctx,
                                        rpc::MsgBuffer req);
  sim::Task<rpc::MsgBuffer> HandleFree(rpc::ReqContext ctx,
                                       rpc::MsgBuffer req);
  sim::Task<rpc::MsgBuffer> HandleCreateRef(rpc::ReqContext ctx,
                                            rpc::MsgBuffer req);
  sim::Task<rpc::MsgBuffer> HandleMapRef(rpc::ReqContext ctx,
                                         rpc::MsgBuffer req);
  sim::Task<rpc::MsgBuffer> HandleReleaseRef(rpc::ReqContext ctx,
                                             rpc::MsgBuffer req);
  sim::Task<rpc::MsgBuffer> HandleWrite(rpc::ReqContext ctx,
                                        rpc::MsgBuffer req);
  sim::Task<rpc::MsgBuffer> HandleRead(rpc::ReqContext ctx,
                                       rpc::MsgBuffer req);
  sim::Task<rpc::MsgBuffer> HandlePutRef(rpc::ReqContext ctx,
                                         rpc::MsgBuffer req);
  sim::Task<rpc::MsgBuffer> HandleWriteShared(rpc::ReqContext ctx,
                                              rpc::MsgBuffer req);
  sim::Task<rpc::MsgBuffer> HandleFetchRef(rpc::ReqContext ctx,
                                           rpc::MsgBuffer req);
  sim::Task<rpc::MsgBuffer> HandleWriteRef(rpc::ReqContext ctx,
                                           rpc::MsgBuffer req);

  /// Translation key for the global hash table: pid in the high 32 bits,
  /// virtual page number (relative to the partition base) in the low 32.
  uint64_t PteKey(uint32_t pid, dm::RemoteAddr va) const;

  /// Looks up (and charges the cost of) a translation. Returns
  /// kInvalidFrame when unmapped.
  dm::FrameId Translate(uint32_t pid, dm::RemoteAddr page_va);

  /// CPU cost of one software translation (0 under MMU-direct mode).
  TimeNs TranslateCost() const;

  /// Faults in a fresh frame (it reads as zeros) for an unmapped page.
  StatusOr<dm::FrameId> FaultIn(uint32_t pid, dm::RemoteAddr page_va);

  ProcState* FindProc(uint32_t pid);

  /// Lease id of `node`'s current incarnation.
  dm::LeaseId CurrentLease(net::NodeId node);

  sim::Simulation* sim_;
  net::NodeId node_;
  net::Port port_;
  DmServerConfig cfg_;
  uint64_t va_partition_base_;

  std::unique_ptr<rpc::Rpc> rpc_;
  dm::PagePool pool_;
  sim::Semaphore cores_;

  uint32_t next_pid_ = 1;
  uint64_t next_ref_key_ = 1;
  std::unordered_map<uint32_t, ProcState> procs_;
  /// The Address Translator's global hash table.
  std::unordered_map<uint64_t, dm::FrameId> pte_;
  /// The Page Manager's create_ref key map.
  std::unordered_map<uint64_t, RefEntry> refs_;
  /// Incarnation number per client node; bumped by ReclaimPeer.
  std::map<net::NodeId, uint32_t> peer_epochs_;
  bool debug_leak_on_release_ = false;

  mem::BandwidthMeter meter_;
  DmServerStats stats_;

  // Fleet-wide registry aggregates (all DM servers of a simulation share
  // these; per-server detail stays in stats_).
  obs::Counter* m_faults_;
  obs::Counter* m_cow_copies_;
  obs::Counter* m_eager_copies_;
  obs::Counter* m_fetch_refs_;
  obs::Counter* m_release_refs_;
  obs::Counter* m_peer_reclaims_;
};

}  // namespace dmrpc::dmnet

#endif  // DMRPC_DMNET_SERVER_H_
