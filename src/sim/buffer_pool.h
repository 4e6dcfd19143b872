#ifndef DMRPC_SIM_BUFFER_POOL_H_
#define DMRPC_SIM_BUFFER_POOL_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <vector>

#include "common/logging.h"

namespace dmrpc::sim {

class BufferPool;

namespace internal {

/// Header preceding every pooled byte buffer. The payload bytes follow
/// the header in the same allocation.
struct BufSlab {
  BufferPool* pool;     // nullptr: unpooled, freed on last release
  uint32_t refcnt;
  uint32_t size_class;  // freelist index; valid only when pool != nullptr
  uint32_t capacity;
  uint32_t len;

  uint8_t* bytes() { return reinterpret_cast<uint8_t*>(this + 1); }
  const uint8_t* bytes() const {
    return reinterpret_cast<const uint8_t*>(this + 1);
  }
};

BufSlab* NewSlab(size_t capacity);
void ReleaseSlab(BufSlab* slab);

}  // namespace internal

/// A refcounted handle to a byte buffer, usually leased from a
/// BufferPool. This is the payload type of net::Packet: handing a packet
/// from NIC to switch to NIC moves (or cheaply ref-shares) the same
/// underlying slab instead of reallocating and copying a std::vector at
/// every hop, and dropping a packet on any path (loss injection, unknown
/// destination, queue teardown) returns the slab to the pool's freelist
/// automatically.
///
/// A default-constructed PooledBuf is empty; writing to it allocates an
/// unpooled heap slab, so tests and tools can build packets without a
/// pool. The vector-like surface (assign/resize/operator[]/begin/end)
/// covers those callers; hot paths use Acquire + AppendRaw/AppendBytes,
/// which never zero-fill.
///
/// Not thread-safe (the simulator is single-threaded by design); the
/// refcount is a plain integer.
class PooledBuf {
 public:
  PooledBuf() = default;
  PooledBuf(std::initializer_list<uint8_t> bytes) { Assign(bytes); }

  PooledBuf(const PooledBuf& other) : slab_(other.slab_) {
    if (slab_ != nullptr) ++slab_->refcnt;
  }
  PooledBuf& operator=(const PooledBuf& other) {
    if (this != &other) {
      Release();
      slab_ = other.slab_;
      if (slab_ != nullptr) ++slab_->refcnt;
    }
    return *this;
  }
  PooledBuf(PooledBuf&& other) noexcept : slab_(other.slab_) {
    other.slab_ = nullptr;
  }
  PooledBuf& operator=(PooledBuf&& other) noexcept {
    if (this != &other) {
      Release();
      slab_ = other.slab_;
      other.slab_ = nullptr;
    }
    return *this;
  }
  PooledBuf& operator=(std::initializer_list<uint8_t> bytes) {
    Assign(bytes);
    return *this;
  }

  ~PooledBuf() { Release(); }

  size_t size() const { return slab_ != nullptr ? slab_->len : 0; }
  bool empty() const { return size() == 0; }
  size_t capacity() const { return slab_ != nullptr ? slab_->capacity : 0; }

  uint8_t* data() { return slab_ != nullptr ? slab_->bytes() : nullptr; }
  const uint8_t* data() const {
    return slab_ != nullptr ? slab_->bytes() : nullptr;
  }
  const uint8_t* begin() const { return data(); }
  const uint8_t* end() const { return data() + size(); }

  uint8_t& operator[](size_t i) { return slab_->bytes()[i]; }
  uint8_t operator[](size_t i) const { return slab_->bytes()[i]; }

  /// Number of handles sharing the underlying slab (0 when empty).
  uint32_t ref_count() const { return slab_ != nullptr ? slab_->refcnt : 0; }

  /// Drops this handle's reference; the buffer becomes empty. Inline
  /// fast path: packet handles are moved and destroyed many times per
  /// delivery, and most of those see a null slab.
  void Release() {
    if (slab_ == nullptr) return;
    internal::BufSlab* s = slab_;
    slab_ = nullptr;
    internal::ReleaseSlab(s);
  }

  /// Sets length to `n`, zero-filling any newly exposed bytes
  /// (vector::resize semantics). Reallocates if capacity is exceeded or
  /// the slab is shared.
  void resize(size_t n);

  /// Replaces the contents with `n` copies of `v`.
  void assign(size_t n, uint8_t v);

  /// Appends `len` bytes, growing if needed.
  void AppendBytes(const void* src, size_t len);

  /// Extends the buffer by `n` uninitialized bytes and returns a pointer
  /// to the new region. Requires spare capacity (hot-path primitive: the
  /// caller just leased a right-sized slab and overwrites every byte).
  uint8_t* AppendRaw(size_t n) {
    DMRPC_CHECK(slab_ != nullptr && slab_->len + n <= slab_->capacity)
        << "AppendRaw beyond capacity";
    uint8_t* out = slab_->bytes() + slab_->len;
    slab_->len += static_cast<uint32_t>(n);
    return out;
  }

 private:
  friend class BufferPool;
  friend class BufSlice;
  explicit PooledBuf(internal::BufSlab* slab) : slab_(slab) {}

  void Assign(std::initializer_list<uint8_t> bytes) {
    assign(bytes.size(), 0);
    if (bytes.size() > 0) {
      std::memcpy(slab_->bytes(), bytes.begin(), bytes.size());
    }
  }

  /// Replaces the slab with a writable one of at least `cap` capacity,
  /// copying the first `keep` bytes of the old contents.
  void Reallocate(size_t cap, size_t keep);

  internal::BufSlab* slab_ = nullptr;
};

/// A refcounted view of a byte range inside a slab. Where PooledBuf owns
/// a whole slab (packet head buffers), BufSlice shares an arbitrary
/// sub-range of one: the scatter-gather message path (rpc::MsgBuffer
/// segment chains, net::Packet::frags) moves these 16-byte views around
/// instead of copying payload bytes, so slicing a message into MTU
/// fragments and parking received fragments for reassembly are both
/// O(1) per fragment. The slab is returned to its pool (or freed, when
/// unpooled) when the last PooledBuf or BufSlice referencing it drops.
///
/// A slice whose range ends exactly at the slab's write frontier *and*
/// that holds the only reference may be extended in place
/// (spare_capacity / ExtendTail); any shared or interior slice reports
/// zero spare capacity, so in-place growth can never scribble over bytes
/// another handle can see.
class BufSlice {
 public:
  BufSlice() = default;

  BufSlice(const BufSlice& other)
      : slab_(other.slab_), off_(other.off_), len_(other.len_) {
    if (slab_ != nullptr) ++slab_->refcnt;
  }
  BufSlice& operator=(const BufSlice& other) {
    if (this != &other) {
      if (other.slab_ != nullptr) ++other.slab_->refcnt;
      Release();
      slab_ = other.slab_;
      off_ = other.off_;
      len_ = other.len_;
    }
    return *this;
  }
  BufSlice(BufSlice&& other) noexcept
      : slab_(other.slab_), off_(other.off_), len_(other.len_) {
    other.slab_ = nullptr;
    other.off_ = other.len_ = 0;
  }
  BufSlice& operator=(BufSlice&& other) noexcept {
    if (this != &other) {
      Release();
      slab_ = other.slab_;
      off_ = other.off_;
      len_ = other.len_;
      other.slab_ = nullptr;
      other.off_ = other.len_ = 0;
    }
    return *this;
  }

  ~BufSlice() { Release(); }

  /// A view of bytes [off, off+len) of `buf` (shares a reference).
  static BufSlice Of(const PooledBuf& buf, size_t off, size_t len) {
    DMRPC_CHECK_LE(off + len, buf.size());
    if (buf.slab_ != nullptr) ++buf.slab_->refcnt;
    return BufSlice(buf.slab_, static_cast<uint32_t>(off),
                    static_cast<uint32_t>(len));
  }

  /// A view of bytes [off, off+len) of this slice (offsets relative to
  /// the slice, not the slab).
  BufSlice Sub(size_t off, size_t len) const {
    DMRPC_CHECK_LE(off + len, len_);
    if (slab_ != nullptr) ++slab_->refcnt;
    return BufSlice(slab_, off_ + static_cast<uint32_t>(off),
                    static_cast<uint32_t>(len));
  }

  /// A fresh writable slab with `capacity` spare bytes and length 0,
  /// leased from `pool` when non-null, plain heap otherwise (so message
  /// buffers can be built outside a simulation, e.g. in tests).
  static BufSlice NewWritable(size_t capacity, BufferPool* pool);

  const uint8_t* data() const { return slab_->bytes() + off_; }
  uint8_t* data() { return slab_->bytes() + off_; }
  size_t size() const { return len_; }
  bool empty() const { return len_ == 0; }

  /// Number of handles (PooledBuf or BufSlice) sharing the slab.
  uint32_t ref_count() const { return slab_ != nullptr ? slab_->refcnt : 0; }

  /// Bytes that can still be appended in place: non-zero only when this
  /// slice is the slab's sole owner and ends exactly at the slab's write
  /// frontier.
  size_t spare_capacity() const {
    if (slab_ == nullptr || slab_->refcnt != 1) return 0;
    if (off_ + len_ != slab_->len) return 0;
    return slab_->capacity - slab_->len;
  }

  /// Extends the slice by `n` uninitialized bytes at the slab's write
  /// frontier and returns a pointer to them. Requires
  /// spare_capacity() >= n.
  uint8_t* ExtendTail(size_t n) {
    DMRPC_CHECK_LE(n, spare_capacity()) << "ExtendTail beyond spare capacity";
    uint8_t* out = slab_->bytes() + slab_->len;
    slab_->len += static_cast<uint32_t>(n);
    len_ += static_cast<uint32_t>(n);
    return out;
  }

  /// Drops this handle's reference; the slice becomes empty.
  void Release() {
    if (slab_ == nullptr) return;
    internal::BufSlab* s = slab_;
    slab_ = nullptr;
    off_ = len_ = 0;
    internal::ReleaseSlab(s);
  }

 private:
  /// Adopts one already-counted reference.
  BufSlice(internal::BufSlab* slab, uint32_t off, uint32_t len)
      : slab_(slab), off_(off), len_(len) {}

  internal::BufSlab* slab_ = nullptr;
  uint32_t off_ = 0;
  uint32_t len_ = 0;
};

/// A slab allocator with per-size-class freelists for packet payload
/// buffers. One instance is owned by each Simulation: at steady state the
/// packet path recycles a handful of slabs per size class and the
/// allocator drops out of the profile entirely.
///
/// Capacities are rounded up to powers of two between kMinSlabBytes and
/// kMaxSlabBytes; larger requests fall through to plain heap slabs (they
/// are off the packet hot path by construction, since fragmentation caps
/// packets at the MTU).
///
/// Lifetime: buffers leased from a pool must be released before the pool
/// is destroyed. Simulation guarantees this for the packet path: pending
/// events and detached coroutines (which own any in-flight packets) are
/// destroyed in ~Simulation's body, while the pool member is still alive.
class BufferPool {
 public:
  struct Stats {
    uint64_t acquires = 0;     // total Acquire calls served from classes
    uint64_t slab_allocs = 0;  // freelist misses (new slab carved)
    uint64_t reuses = 0;       // freelist hits
    uint64_t oversized = 0;    // requests above kMaxSlabBytes (unpooled)
    uint64_t outstanding = 0;  // leased and not yet returned
  };

  static constexpr size_t kMinSlabBytes = 64;
  static constexpr size_t kMaxSlabBytes = 64 * 1024;

  BufferPool() = default;
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;
  ~BufferPool();

  /// Leases a buffer with at least `capacity` bytes of storage and
  /// length 0. Returned buffers come back to the freelist when the last
  /// PooledBuf handle drops.
  PooledBuf Acquire(size_t capacity);

  /// Low-level counterpart of Acquire: leases a raw slab (refcount 1,
  /// length 0) for callers that wrap it in their own handle type
  /// (BufSlice::NewWritable). The slab comes back when the last
  /// reference drops, exactly as with Acquire.
  internal::BufSlab* AcquireSlab(size_t capacity);

  const Stats& stats() const { return stats_; }

  /// Slabs currently parked on freelists (diagnostics).
  size_t free_count() const;

 private:
  friend void internal::ReleaseSlab(internal::BufSlab* slab);

  static constexpr int kNumClasses = 11;  // 64 << 0 .. 64 << 10

  static int ClassForCapacity(size_t capacity);

  void Return(internal::BufSlab* slab);

  std::vector<internal::BufSlab*> free_[kNumClasses];
  Stats stats_;
};

}  // namespace dmrpc::sim

#endif  // DMRPC_SIM_BUFFER_POOL_H_
