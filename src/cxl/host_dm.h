#ifndef DMRPC_CXL_HOST_DM_H_
#define DMRPC_CXL_HOST_DM_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>

#include "common/status.h"
#include "cxl/coordinator.h"
#include "cxl/gfam.h"
#include "dm/client.h"
#include "dm/va_allocator.h"
#include "obs/metrics.h"
#include "rpc/rpc.h"

namespace dmrpc::cxl {

/// Tuning of a host's CXL DM layer (§V-B).
struct HostDmConfig {
  /// Kernel page-fault entry/exit CPU cost.
  TimeNs fault_ns = 300;
  /// VMA tree allocate/free CPU.
  TimeNs tree_op_ns = 120;
  /// Page-table entry install/permission-flip CPU.
  TimeNs pte_op_ns = 40;
  /// Refill from the coordinator when the local free FIFO drops below
  /// this many frames...
  uint32_t low_watermark = 16;
  /// ...requesting this many at a time; return excess above this level.
  uint32_t refill_batch = 64;
  uint32_t high_watermark = 512;
  /// Local CXL virtual address space per process.
  uint64_t va_base = uint64_t{1} << 45;
  uint64_t va_span = uint64_t{1} << 36;
  /// "-copy" baseline: CreateRef eagerly duplicates pages (Fig. 7).
  bool eager_copy = false;
};

/// Counters of one host DM layer.
struct HostDmStats {
  uint64_t allocs = 0;
  uint64_t frees = 0;
  uint64_t create_refs = 0;
  uint64_t map_refs = 0;
  uint64_t release_refs = 0;
  uint64_t page_faults = 0;
  uint64_t cow_copies = 0;
  uint64_t eager_copied_pages = 0;
  uint64_t coordinator_refills = 0;
  uint64_t coordinator_returns = 0;
};

/// The per-host (kernel-side) DM layer of DmRPC-CXL: manages the CXL
/// physical pages the host owns, allocates/frees CXL virtual memory from
/// a VMA tree, installs page-table entries, handles page faults, and
/// performs distributed copy-on-write using CXL atomics on the shared
/// reference counts (§V-B). Implements the common Table II API; Read and
/// Write model load/store instructions (there are no rread/rwrite RPCs).
class HostDmLayer : public dm::DmClient {
 public:
  /// `rpc` is this host's endpoint used to talk to the coordinator.
  HostDmLayer(rpc::Rpc* rpc, CxlPort* port, net::NodeId coordinator_node,
              net::Port coordinator_port, HostDmConfig cfg = HostDmConfig());

  /// Connects to the coordinator and reserves an initial frame batch.
  sim::Task<Status> Init();

  sim::Task<StatusOr<dm::RemoteAddr>> Alloc(uint64_t size) override;
  sim::Task<Status> Free(dm::RemoteAddr addr) override;
  sim::Task<StatusOr<dm::Ref>> CreateRef(dm::RemoteAddr addr,
                                         uint64_t size) override;
  sim::Task<StatusOr<dm::RemoteAddr>> MapRef(const dm::Ref& ref) override;
  sim::Task<Status> ReleaseRef(const dm::Ref& ref) override;
  /// Store path: may fault (case 1), trigger COW (case 2), or write
  /// straight through (case 3) -- the three cases of §V-B3.
  sim::Task<Status> Write(dm::RemoteAddr addr, const uint8_t* src,
                          uint64_t size) override;
  /// Load path: identical to regular memory plus CXL latency.
  sim::Task<Status> Read(dm::RemoteAddr addr, uint8_t* dst,
                         uint64_t size) override;
  /// Compound producer path: stores data into freshly owned pages and
  /// returns a Ref holding one share per page. No VA range or page-table
  /// entries are created, so there is nothing to clean up locally.
  sim::Task<StatusOr<dm::Ref>> PutRef(const uint8_t* data,
                                      uint64_t size) override;
  /// Compound consumer path: streams the referenced pages through the
  /// CXL port into one pooled slab without mapping them.
  sim::Task<StatusOr<rpc::MsgBuffer>> FetchRef(const dm::Ref& ref) override;
  /// DSM-mode store straight into the referenced G-FAM frames, bypassing
  /// the copy-on-write path entirely (no PTE, no refcount check). Every
  /// mapping and FetchRef of these pages observes the new bytes.
  sim::Task<Status> WriteRef(const dm::Ref& ref, uint64_t offset,
                             const uint8_t* src, uint64_t size) override;

  const HostDmStats& stats() const { return stats_; }
  CxlPort* port() { return port_; }
  size_t local_free_frames() const { return free_.size(); }

 private:
  struct Pte {
    dm::FrameId frame = dm::kInvalidFrame;
    bool writable = false;
  };

  uint64_t Vpn(dm::RemoteAddr va) const { return va / page_size_; }

  /// Pops a locally owned free frame, refilling from the coordinator when
  /// below the low watermark (blocking only when empty).
  sim::Task<StatusOr<dm::FrameId>> PopLocalFrame();
  /// Returns a frame whose last share went to the local pool, discarding
  /// its G-FAM bytes; may push a batch back to the coordinator above the
  /// high watermark.
  sim::Task<> PushLocalFrame(dm::FrameId frame);
  sim::Task<Status> RefillFromCoordinator(uint32_t count);
  sim::Task<Status> ReturnToCoordinator(uint32_t count);

  rpc::Rpc* rpc_;
  CxlPort* port_;
  sim::Simulation* sim_;
  net::NodeId coord_node_;
  net::Port coord_port_;
  HostDmConfig cfg_;
  uint32_t page_size_;

  rpc::SessionId coord_session_ = 0;
  bool initialized_ = false;

  dm::VaAllocator va_;
  std::unordered_map<uint64_t, Pte> page_table_;
  std::deque<dm::FrameId> free_;
  /// Guards against concurrent refill storms from one host.
  bool refill_in_flight_ = false;

  HostDmStats stats_;

  // Fleet-wide registry aggregates under `cxl.*` (all hosts of a
  // simulation share these; per-host detail stays in stats_).
  obs::Counter* m_faults_;
  obs::Counter* m_cow_copies_;
  obs::Counter* m_eager_copies_;
  obs::Counter* m_refills_;
  obs::Counter* m_returns_;
};

}  // namespace dmrpc::cxl

#endif  // DMRPC_CXL_HOST_DM_H_
