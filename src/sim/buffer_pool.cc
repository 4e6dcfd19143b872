#include "sim/buffer_pool.h"

#include <new>

namespace dmrpc::sim {

namespace internal {

BufSlab* NewSlab(size_t capacity) {
  void* raw = ::operator new(sizeof(BufSlab) + capacity);
  BufSlab* slab = static_cast<BufSlab*>(raw);
  slab->pool = nullptr;
  slab->refcnt = 1;
  slab->size_class = 0;
  slab->capacity = static_cast<uint32_t>(capacity);
  slab->len = 0;
  return slab;
}

void ReleaseSlab(BufSlab* slab) {
  DMRPC_CHECK_GT(slab->refcnt, 0u);
  if (--slab->refcnt > 0) return;
  if (slab->pool != nullptr) {
    slab->pool->Return(slab);
  } else {
    ::operator delete(static_cast<void*>(slab));
  }
}

}  // namespace internal

// ---------------------------------------------------------------------------
// PooledBuf
// ---------------------------------------------------------------------------

void PooledBuf::Reallocate(size_t cap, size_t keep) {
  internal::BufSlab* fresh = internal::NewSlab(cap);
  if (keep > 0) std::memcpy(fresh->bytes(), slab_->bytes(), keep);
  fresh->len = static_cast<uint32_t>(keep);
  Release();
  slab_ = fresh;
}

void PooledBuf::resize(size_t n) {
  size_t old = size();
  if (n == 0) {
    // vector::clear semantics: keep the slab when we own it exclusively.
    if (slab_ != nullptr && slab_->refcnt > 1) Release();
    if (slab_ != nullptr) slab_->len = 0;
    return;
  }
  if (slab_ == nullptr || n > slab_->capacity || slab_->refcnt > 1) {
    Reallocate(n, old < n ? old : n);
  }
  if (n > old) std::memset(slab_->bytes() + old, 0, n - old);
  slab_->len = static_cast<uint32_t>(n);
}

void PooledBuf::assign(size_t n, uint8_t v) {
  if (slab_ == nullptr || n > slab_->capacity || slab_->refcnt > 1) {
    Release();
    if (n == 0) return;
    slab_ = internal::NewSlab(n);
  }
  if (n > 0) std::memset(slab_->bytes(), v, n);
  slab_->len = static_cast<uint32_t>(n);
}

void PooledBuf::AppendBytes(const void* src, size_t len) {
  if (len == 0) return;
  size_t old = size();
  if (slab_ == nullptr || old + len > slab_->capacity || slab_->refcnt > 1) {
    size_t cap = old + len;
    if (cap < 2 * capacity()) cap = 2 * capacity();
    Reallocate(cap, old);
  }
  std::memcpy(slab_->bytes() + old, src, len);
  slab_->len = static_cast<uint32_t>(old + len);
}

// ---------------------------------------------------------------------------
// BufSlice
// ---------------------------------------------------------------------------

BufSlice BufSlice::NewWritable(size_t capacity, BufferPool* pool) {
  internal::BufSlab* slab =
      pool != nullptr ? pool->AcquireSlab(capacity) : internal::NewSlab(capacity);
  return BufSlice(slab, 0, 0);
}

// ---------------------------------------------------------------------------
// BufferPool
// ---------------------------------------------------------------------------

BufferPool::~BufferPool() {
  // Every lease must have been returned: a slab outliving its pool would
  // dereference a dangling pool pointer on release. Simulation's member
  // order guarantees this for the packet path (see class comment).
  DMRPC_CHECK_EQ(stats_.outstanding, 0u)
      << "pooled buffers still live at pool destruction";
  for (auto& list : free_) {
    for (internal::BufSlab* slab : list) {
      ::operator delete(static_cast<void*>(slab));
    }
  }
}

int BufferPool::ClassForCapacity(size_t capacity) {
  size_t cls_bytes = kMinSlabBytes;
  int cls = 0;
  while (cls_bytes < capacity) {
    cls_bytes <<= 1;
    ++cls;
  }
  return cls;
}

PooledBuf BufferPool::Acquire(size_t capacity) {
  return PooledBuf(AcquireSlab(capacity));
}

internal::BufSlab* BufferPool::AcquireSlab(size_t capacity) {
  if (capacity > kMaxSlabBytes) {
    // Off the packet hot path (fragmentation caps packets at the MTU):
    // serve a plain unpooled slab.
    stats_.oversized++;
    return internal::NewSlab(capacity);
  }
  stats_.acquires++;
  stats_.outstanding++;
  int cls = ClassForCapacity(capacity);
  std::vector<internal::BufSlab*>& list = free_[cls];
  internal::BufSlab* slab;
  if (!list.empty()) {
    stats_.reuses++;
    slab = list.back();
    list.pop_back();
    slab->refcnt = 1;
    slab->len = 0;
  } else {
    stats_.slab_allocs++;
    slab = internal::NewSlab(kMinSlabBytes << cls);
    slab->pool = this;
    slab->size_class = static_cast<uint32_t>(cls);
  }
  return slab;
}

void BufferPool::Return(internal::BufSlab* slab) {
  DMRPC_CHECK_GT(stats_.outstanding, 0u);
  stats_.outstanding--;
  free_[slab->size_class].push_back(slab);
}

size_t BufferPool::free_count() const {
  size_t n = 0;
  for (const auto& list : free_) n += list.size();
  return n;
}

}  // namespace dmrpc::sim
