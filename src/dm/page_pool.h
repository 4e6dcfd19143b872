#ifndef DMRPC_DM_PAGE_POOL_H_
#define DMRPC_DM_PAGE_POOL_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

namespace dmrpc::dm {

/// Frame number within a PagePool.
using FrameId = uint32_t;
inline constexpr FrameId kInvalidFrame = 0xffffffff;

/// Identifies the owner of leased frames: a (node, epoch) pair, so a
/// node's post-restart allocations are distinguishable from the ones its
/// previous incarnation left behind.
using LeaseId = uint64_t;
constexpr LeaseId MakeLeaseId(uint32_t owner_node, uint32_t epoch) {
  return (static_cast<LeaseId>(owner_node) << 32) | epoch;
}

/// What ReclaimLease released (see PagePool::ReclaimLease).
struct LeaseReclaim {
  /// Cookies of every share the lease held, in attach order.
  std::vector<uint64_t> cookies;
  uint64_t shares_released = 0;
  uint64_t frames_freed = 0;
};

/// A pool of real page frames with per-frame reference counts and a FIFO
/// free list -- the paper's pinned-memory layout on DM servers (§V-A) and
/// the G-FAM device layout (§V-B: "the majority of the physical memory is
/// used as CXL physical pages, while the remaining memory records the
/// reference count of these pages").
///
/// Page contents are real bytes: copy-on-write physically copies them, so
/// data integrity is testable end to end.
///
/// Frame identity is decoupled from host storage. A frame is backed by a
/// block of a chunked host arena only from its first mutable FrameData()
/// until it is freed (PushFree) or discarded (Discard); released blocks
/// are reused LIFO and zeroed on reuse. An unbacked frame reads as zeros.
/// Host RAM therefore follows the peak number of frames in use, not the
/// modelled capacity, while frame ids, the FIFO order and refcounts --
/// everything the simulation observes -- are unaffected.
class PagePool {
 public:
  PagePool(uint32_t num_frames, uint32_t page_size);

  PagePool(const PagePool&) = delete;
  PagePool& operator=(const PagePool&) = delete;

  uint32_t page_size() const { return page_size_; }
  uint32_t num_frames() const { return num_frames_; }
  uint32_t free_frames() const { return static_cast<uint32_t>(fifo_.size()); }

  /// Frames currently backed by host bytes, and the high-water mark of
  /// that count. Host-side bookkeeping only: deliberately not registry
  /// metrics, so they never enter a metrics fingerprint.
  uint32_t resident_frames() const { return resident_; }
  uint32_t peak_resident_frames() const { return peak_resident_; }

  /// Registers this pool's frame-allocation and reference-count-churn
  /// counters under `<prefix>.{frames_popped,frames_pushed,ref_incs,
  /// ref_decs}` plus a `<prefix>.free_frames` gauge. The pool has no
  /// simulation pointer of its own, so the owner (DmServer, Cluster for
  /// the G-FAM device) attaches the registry. Passing nullptr detaches.
  void AttachMetrics(obs::MetricsRegistry* registry,
                     const std::string& prefix);

  /// Pops a frame from the FIFO free list; its refcount becomes 1.
  StatusOr<FrameId> PopFree();

  /// Pushes a frame back onto the free list and releases its host bytes.
  /// The refcount must be zero.
  void PushFree(FrameId frame);

  /// Releases the host bytes of a frame that stays off the free list, so
  /// it reads as zeros again. For owners that keep their own free list
  /// (the CXL hosts and coordinator over the G-FAM device). The refcount
  /// must be zero.
  void Discard(FrameId frame);

  /// Storage of a frame (page_size bytes). The mutable overload backs an
  /// unbacked frame with zeroed host bytes; the const overload of an
  /// unbacked frame returns a shared zero page. Either on a frame sitting
  /// in the free FIFO is a fatal error (a use after free in the caller).
  uint8_t* FrameData(FrameId frame);
  const uint8_t* FrameData(FrameId frame) const;

  /// Reference count accessors (stored linearly, as in the paper).
  uint32_t RefCount(FrameId frame) const;
  /// Increments and returns the new count.
  uint32_t IncRef(FrameId frame);
  /// Decrements and returns the new count; the frame is NOT pushed to the
  /// free list automatically (callers decide, mirroring the paper's
  /// "the process that frees the page lastly reclaims it").
  uint32_t DecRef(FrameId frame);

  /// Total bytes of modelled page storage.
  uint64_t capacity_bytes() const {
    return static_cast<uint64_t>(num_frames_) * page_size_;
  }

  // -- Leases (crash recovery) -----------------------------------------
  //
  // A lease records which reference-counted shares a remote node holds,
  // so that when the node crashes without releasing them the pool can
  // drop exactly those references and return now-unreferenced frames to
  // the free list (the paper's DM server must survive client failure
  // without leaking pinned memory). Each share is identified by an
  // owner-chosen cookie (DmServer uses its ref key) and pins one DecRef
  // per listed frame.

  /// Records that share `cookie` under `lease` holds one reference on
  /// each frame in `frames`. The cookie must not already be attached.
  void LeaseAttach(LeaseId lease, uint64_t cookie,
                   std::vector<FrameId> frames);

  /// Forgets a share without touching refcounts -- the normal release
  /// path does its own DecRef/PushFree. No-op if the cookie is unknown
  /// (it may have been reclaimed already).
  void LeaseDetach(LeaseId lease, uint64_t cookie);

  /// Drops every reference the lease holds: per share, per frame, one
  /// DecRef; frames reaching zero go back on the free list. Returns the
  /// reclaimed cookies so the owner can erase its own bookkeeping.
  LeaseReclaim ReclaimLease(LeaseId lease);

  /// Number of leases currently holding at least one share.
  size_t lease_count() const { return leases_.size(); }

 private:
  /// block_of_ values that are not arena blocks.
  static constexpr uint32_t kUnbacked = 0xffffffff;  // live, reads as zeros
  static constexpr uint32_t kOnFreeList = 0xfffffffe;

  uint8_t* BlockData(uint32_t block) const {
    return chunks_[block / blocks_per_chunk_].get() +
           static_cast<size_t>(block % blocks_per_chunk_) * page_size_;
  }
  /// Hands `frame`'s block (if any) back to the recycle stack and marks
  /// the frame `next` (kUnbacked or kOnFreeList).
  void Release(FrameId frame, uint32_t next);

  uint32_t num_frames_;
  uint32_t page_size_;
  uint32_t blocks_per_chunk_;
  /// Per frame: its arena block, kUnbacked, or kOnFreeList.
  std::vector<uint32_t> block_of_;
  /// The arena: fixed-size chunks of blocks, allocated on demand and
  /// never returned. Blocks [0, blocks_carved_) have been handed out at
  /// least once; released ones wait on recycled_ (LIFO, so the hottest
  /// host memory is reused first).
  std::vector<std::unique_ptr<uint8_t[]>> chunks_;
  uint32_t blocks_carved_ = 0;
  std::vector<uint32_t> recycled_;
  std::vector<uint8_t> zero_page_;
  uint32_t resident_ = 0;
  uint32_t peak_resident_ = 0;

  std::vector<uint32_t> refcounts_;
  std::deque<FrameId> fifo_;
  /// lease -> (cookie -> pinned frames). Ordered maps: reclamation order
  /// must be deterministic (it feeds the free-list FIFO).
  std::map<LeaseId, std::map<uint64_t, std::vector<FrameId>>> leases_;

  // Optional observability hooks (null until AttachMetrics).
  obs::Counter* m_popped_ = nullptr;
  obs::Counter* m_pushed_ = nullptr;
  obs::Counter* m_ref_incs_ = nullptr;
  obs::Counter* m_ref_decs_ = nullptr;
  obs::Gauge* m_free_frames_ = nullptr;
  obs::Counter* m_lease_reclaims_ = nullptr;
  obs::Counter* m_lease_frames_freed_ = nullptr;
};

}  // namespace dmrpc::dm

#endif  // DMRPC_DM_PAGE_POOL_H_
