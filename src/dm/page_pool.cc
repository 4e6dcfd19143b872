#include "dm/page_pool.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"

namespace dmrpc::dm {
namespace {

/// Host bytes per arena chunk: large enough that chunk allocation is rare,
/// small enough that the arena's slack over peak live frames stays tiny.
constexpr uint32_t kArenaChunkBytes = 1u << 20;

}  // namespace

PagePool::PagePool(uint32_t num_frames, uint32_t page_size)
    : num_frames_(num_frames),
      page_size_(page_size),
      blocks_per_chunk_(std::max(1u, kArenaChunkBytes / page_size)) {
  DMRPC_CHECK_GT(num_frames, 0u);
  DMRPC_CHECK_GT(page_size, 0u);
  block_of_.assign(num_frames, kOnFreeList);
  zero_page_.assign(page_size, 0);
  refcounts_.assign(num_frames, 0);
  for (FrameId f = 0; f < num_frames; ++f) fifo_.push_back(f);
}

void PagePool::AttachMetrics(obs::MetricsRegistry* registry,
                             const std::string& prefix) {
  if (registry == nullptr) {
    m_popped_ = nullptr;
    m_pushed_ = nullptr;
    m_ref_incs_ = nullptr;
    m_ref_decs_ = nullptr;
    m_free_frames_ = nullptr;
    return;
  }
  m_popped_ = registry->GetCounter(prefix + ".frames_popped");
  m_pushed_ = registry->GetCounter(prefix + ".frames_pushed");
  m_ref_incs_ = registry->GetCounter(prefix + ".ref_incs");
  m_ref_decs_ = registry->GetCounter(prefix + ".ref_decs");
  m_free_frames_ = registry->GetGauge(prefix + ".free_frames");
  m_free_frames_->Set(static_cast<int64_t>(fifo_.size()));
  m_lease_reclaims_ = registry->GetCounter(prefix + ".lease_reclaims");
  m_lease_frames_freed_ = registry->GetCounter(prefix + ".lease_frames_freed");
}

StatusOr<FrameId> PagePool::PopFree() {
  if (fifo_.empty()) {
    return Status::OutOfMemory("page pool exhausted");
  }
  FrameId f = fifo_.front();
  fifo_.pop_front();
  DMRPC_CHECK_EQ(refcounts_[f], 0u) << "frame on free list has references";
  refcounts_[f] = 1;
  block_of_[f] = kUnbacked;
  if (m_popped_ != nullptr) {
    m_popped_->Inc();
    m_free_frames_->Set(static_cast<int64_t>(fifo_.size()));
  }
  return f;
}

void PagePool::PushFree(FrameId frame) {
  DMRPC_CHECK_LT(frame, num_frames_);
  DMRPC_CHECK_EQ(refcounts_[frame], 0u)
      << "freeing frame " << frame << " with live references";
  DMRPC_CHECK_NE(block_of_[frame], kOnFreeList)
      << "frame " << frame << " freed twice";
  Release(frame, kOnFreeList);
  fifo_.push_back(frame);
  if (m_pushed_ != nullptr) {
    m_pushed_->Inc();
    m_free_frames_->Set(static_cast<int64_t>(fifo_.size()));
  }
}

void PagePool::Discard(FrameId frame) {
  DMRPC_CHECK_LT(frame, num_frames_);
  DMRPC_CHECK_EQ(refcounts_[frame], 0u)
      << "discarding frame " << frame << " with live references";
  DMRPC_CHECK_NE(block_of_[frame], kOnFreeList)
      << "discarding frame " << frame << " on the free list";
  Release(frame, kUnbacked);
}

void PagePool::Release(FrameId frame, uint32_t next) {
  uint32_t block = block_of_[frame];
  if (block != kUnbacked) {
    recycled_.push_back(block);
    resident_--;
  }
  block_of_[frame] = next;
}

uint8_t* PagePool::FrameData(FrameId frame) {
  DMRPC_CHECK_LT(frame, num_frames_);
  uint32_t block = block_of_[frame];
  DMRPC_CHECK_NE(block, kOnFreeList)
      << "FrameData on frame " << frame << ", which is on the free list";
  if (block != kUnbacked) return BlockData(block);
  if (!recycled_.empty()) {
    block = recycled_.back();
    recycled_.pop_back();
  } else {
    if (blocks_carved_ == chunks_.size() * blocks_per_chunk_) {
      // Uninitialised on purpose: blocks are zeroed as they are handed
      // out, so untouched tail blocks never become resident host memory.
      chunks_.emplace_back(new uint8_t[static_cast<size_t>(blocks_per_chunk_) *
                                       page_size_]);
    }
    block = blocks_carved_++;
  }
  block_of_[frame] = block;
  resident_++;
  peak_resident_ = std::max(peak_resident_, resident_);
  uint8_t* data = BlockData(block);
  std::memset(data, 0, page_size_);
  return data;
}

const uint8_t* PagePool::FrameData(FrameId frame) const {
  DMRPC_CHECK_LT(frame, num_frames_);
  uint32_t block = block_of_[frame];
  DMRPC_CHECK_NE(block, kOnFreeList)
      << "FrameData on frame " << frame << ", which is on the free list";
  return block == kUnbacked ? zero_page_.data() : BlockData(block);
}

uint32_t PagePool::RefCount(FrameId frame) const {
  DMRPC_CHECK_LT(frame, num_frames_);
  return refcounts_[frame];
}

uint32_t PagePool::IncRef(FrameId frame) {
  DMRPC_CHECK_LT(frame, num_frames_);
  if (m_ref_incs_ != nullptr) m_ref_incs_->Inc();
  return ++refcounts_[frame];
}

uint32_t PagePool::DecRef(FrameId frame) {
  DMRPC_CHECK_LT(frame, num_frames_);
  DMRPC_CHECK_GT(refcounts_[frame], 0u) << "refcount underflow";
  if (m_ref_decs_ != nullptr) m_ref_decs_->Inc();
  return --refcounts_[frame];
}

void PagePool::LeaseAttach(LeaseId lease, uint64_t cookie,
                           std::vector<FrameId> frames) {
  auto& shares = leases_[lease];
  auto [it, inserted] = shares.emplace(cookie, std::move(frames));
  DMRPC_CHECK(inserted) << "lease cookie " << cookie << " attached twice";
  (void)it;
}

void PagePool::LeaseDetach(LeaseId lease, uint64_t cookie) {
  auto lit = leases_.find(lease);
  if (lit == leases_.end()) return;
  lit->second.erase(cookie);
  if (lit->second.empty()) leases_.erase(lit);
}

LeaseReclaim PagePool::ReclaimLease(LeaseId lease) {
  LeaseReclaim out;
  auto lit = leases_.find(lease);
  if (lit == leases_.end()) return out;
  for (auto& [cookie, frames] : lit->second) {
    out.cookies.push_back(cookie);
    out.shares_released++;
    for (FrameId f : frames) {
      if (DecRef(f) == 0) {
        PushFree(f);
        out.frames_freed++;
      }
    }
  }
  leases_.erase(lit);
  if (m_lease_reclaims_ != nullptr) {
    m_lease_reclaims_->Inc();
    m_lease_frames_freed_->Inc(out.frames_freed);
  }
  return out;
}

}  // namespace dmrpc::dm
