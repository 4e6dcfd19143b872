#ifndef DMRPC_SIM_EVENT_QUEUE_H_
#define DMRPC_SIM_EVENT_QUEUE_H_

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/units.h"

namespace dmrpc::sim {

/// A move-only type-erased callable with small-buffer optimization.
///
/// The simulator schedules millions of callbacks per wall-clock second;
/// std::function would heap-allocate (and, worse, copy-allocate on every
/// priority_queue pop). SmallFn stores callables up to kInlineBytes in
/// place -- every lambda on the simulator's hot paths fits, including the
/// packet-delivery closures that capture a whole net::Packet -- and falls
/// back to the heap only for oversized captures. Relocation (used when the
/// event heap sifts entries) move-constructs into the destination and
/// destroys the source, so non-trivial captures (refcounted buffers,
/// strings) stay correct.
class SmallFn {
 public:
  // Sized for the largest hot-path capture: a fabric hop closure holding
  // one net::Packet (80 bytes with its trace context and scatter-gather
  // frag vector), a this pointer and a 32-bit node/switch index. The
  // fabric static_asserts kFitsInline at every such scheduling site.
  static constexpr size_t kInlineBytes = 96;

  /// Whether a callable of type Fn is stored in place (no allocation).
  template <typename Fn>
  static constexpr bool kFitsInline =
      sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(std::max_align_t);

  SmallFn() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  SmallFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (kFitsInline<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      Fn* heap = new Fn(std::forward<F>(f));
      std::memcpy(storage_, &heap, sizeof(heap));
      ops_ = &kHeapOps<Fn>;
    }
  }

  SmallFn(SmallFn&& other) noexcept { MoveFrom(other); }

  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }

  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;

  ~SmallFn() { Reset(); }

  explicit operator bool() const { return ops_ != nullptr; }

  void operator()() { ops_->invoke(storage_); }

 private:
  struct Ops {
    void (*invoke)(void* storage);
    /// Move-construct `dst` from `src` storage, then destroy `src`.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void* storage);
  };

  template <typename Fn>
  static constexpr Ops kInlineOps = {
      /*invoke=*/[](void* s) { (*std::launder(reinterpret_cast<Fn*>(s)))(); },
      /*relocate=*/
      [](void* dst, void* src) {
        Fn* from = std::launder(reinterpret_cast<Fn*>(src));
        ::new (dst) Fn(std::move(*from));
        from->~Fn();
      },
      /*destroy=*/
      [](void* s) { std::launder(reinterpret_cast<Fn*>(s))->~Fn(); },
  };

  template <typename Fn>
  static constexpr Ops kHeapOps = {
      /*invoke=*/
      [](void* s) {
        Fn* heap;
        std::memcpy(&heap, s, sizeof(heap));
        (*heap)();
      },
      /*relocate=*/
      [](void* dst, void* src) { std::memcpy(dst, src, sizeof(Fn*)); },
      /*destroy=*/
      [](void* s) {
        Fn* heap;
        std::memcpy(&heap, s, sizeof(heap));
        delete heap;
      },
  };

  void MoveFrom(SmallFn& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  void Reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

/// The scheduler's pending-event store: a 4-ary min-heap ordered by
/// (time, seq).
///
/// Why not std::priority_queue of closures: (a) its pop cannot move the
/// top element out, forcing a copy of every executed event (with
/// std::function that copy heap-allocated); (b) sift operations move
/// whatever the heap stores, so storing closures means running
/// move-constructors -- for packet-delivery closures, a refcounted buffer
/// move -- O(log n) times per scheduled event.
///
/// The heap therefore stores only 24-byte POD entries: the (t, seq) key
/// plus one tagged word that is either the coroutine frame address
/// (tag bit clear; frames are new-allocated, so bit 0 is never set) or a
/// slot index into a side arena of SmallFn callbacks (tag bit set).
/// Sifting is plain POD assignment, one 4-ary level touching four
/// adjacent children per step, and a callback's captures are written once
/// at push and read once at pop no matter how much the heap churns
/// in between. The (t, seq) key is a strict total order (seq is unique),
/// so any correct heap pops events in exactly the same sequence: swapping
/// the container cannot change simulation results.
///
/// Ready ring: events scheduled *at the current instant* (coroutine
/// wake-ups from channels, completions, semaphores -- the majority of all
/// events in RPC workloads) never enter the heap at all. Because the
/// clock never runs backwards and seq only grows, same-instant pushes
/// arrive in strictly increasing (t, seq) order, so a plain FIFO ring
/// already holds them sorted: push is an O(1) append with no compares,
/// pop compares one ring key against the heap top and takes the smaller.
/// The ring drains completely before the clock can advance (its keys are
/// always <= any heap key from a later instant), so the backing vector is
/// reset to empty continually and never grows past one instant's burst.
/// Execution order is still exactly global (t, seq) order.
class EventQueue {
 public:
  /// A popped event, moved out of the queue (never copied).
  struct Event {
    TimeNs t = 0;
    std::coroutine_handle<> handle;  // resumed if set, else fn runs
    SmallFn fn;
  };

  bool empty() const { return heap_.empty() && ready_head_ == ready_.size(); }
  size_t size() const {
    return heap_.size() + (ready_.size() - ready_head_);
  }

  /// Time of the earliest event; queue must be non-empty.
  TimeNs top_time() const {
    if (ready_head_ != ready_.size() &&
        (heap_.empty() || ready_[ready_head_].key < heap_.front().key)) {
      return static_cast<TimeNs>(ready_[ready_head_].key >> 64);
    }
    return static_cast<TimeNs>(heap_.front().key >> 64);
  }

  void PushHandle(TimeNs t, uint64_t seq, std::coroutine_handle<> h) {
    Push(Entry{MakeKey(t, seq), reinterpret_cast<uintptr_t>(h.address())});
  }

  /// Appends an event known to be scheduled at the current instant (its
  /// key exceeds every key pushed to the ring before it -- the caller
  /// guarantees a non-decreasing clock and monotonic seq).
  void PushReadyHandle(TimeNs t, uint64_t seq, std::coroutine_handle<> h) {
    ready_.push_back(
        Entry{MakeKey(t, seq), reinterpret_cast<uintptr_t>(h.address())});
  }

  template <typename F>
  void PushFn(TimeNs t, uint64_t seq, F&& fn) {
    Push(Entry{MakeKey(t, seq), AllocSlot(std::forward<F>(fn))});
  }

  /// Ring counterpart of PushFn; same precondition as PushReadyHandle.
  template <typename F>
  void PushReadyFn(TimeNs t, uint64_t seq, F&& fn) {
    ready_.push_back(Entry{MakeKey(t, seq), AllocSlot(std::forward<F>(fn))});
  }

  /// Removes and returns the earliest event.
  Event PopMin() {
    if (ready_head_ != ready_.size() &&
        (heap_.empty() || ready_[ready_head_].key < heap_.front().key)) {
      Entry min = ready_[ready_head_++];
      if (ready_head_ == ready_.size()) {
        ready_.clear();
        ready_head_ = 0;
      }
      return Decode(min);
    }
    Entry min = heap_.front();
    Entry last = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) {
      // Sift the hole at the root down, then drop `last` in. Min-child
      // selection is written as conditional moves on the packed key: the
      // comparisons are data-dependent coin flips, and a mispredicted
      // branch per level costs more than the whole compare.
      size_t i = 0;
      const size_t n = heap_.size();
      const Key last_key = last.key;
      for (;;) {
        size_t first_child = 4 * i + 1;
        if (first_child >= n) break;
        size_t best;
        Key best_key;
        if (first_child + 4 <= n) {
          // Full node (the common case): tournament min, two cmov deep
          // instead of a three-long serial chain.
          const Entry* ch = &heap_[first_child];
          bool a = ch[1].key < ch[0].key;
          size_t ca = first_child + (a ? 1 : 0);
          Key ka = a ? ch[1].key : ch[0].key;
          bool b = ch[3].key < ch[2].key;
          size_t cb = first_child + (b ? 3 : 2);
          Key kb = b ? ch[3].key : ch[2].key;
          bool m = kb < ka;
          best = m ? cb : ca;
          best_key = m ? kb : ka;
        } else {
          best = first_child;
          best_key = heap_[first_child].key;
          for (size_t c = first_child + 1; c < n; ++c) {
            Key k = heap_[c].key;
            bool lt = k < best_key;
            best = lt ? c : best;
            best_key = lt ? k : best_key;
          }
        }
        if (best_key >= last_key) break;
        heap_[i] = heap_[best];
        i = best;
      }
      heap_[i] = last;
    }
    return Decode(min);
  }

 private:
  /// (t << 64) | seq: one branchless 128-bit compare replaces the
  /// two-field lexicographic compare. t is never negative (the clock
  /// starts at 0 and only moves forward), so the packing is order-
  /// preserving.
  using Key = unsigned __int128;

  static Key MakeKey(TimeNs t, uint64_t seq) {
    return (static_cast<Key>(static_cast<uint64_t>(t)) << 64) | seq;
  }

  struct Entry {
    Key key;
    /// Coroutine frame address (bit 0 clear) or (slot << 1) | 1.
    uintptr_t payload;
  };

  /// Stores `fn` in the slot arena, returning the tagged payload word.
  template <typename F>
  uintptr_t AllocSlot(F&& fn) {
    uint32_t slot;
    if (free_slots_.empty()) {
      slot = static_cast<uint32_t>(slots_.size());
      slots_.emplace_back(std::forward<F>(fn));
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
      slots_[slot] = SmallFn(std::forward<F>(fn));
    }
    return (static_cast<uintptr_t>(slot) << 1) | 1u;
  }

  Event Decode(Entry min) {
    Event ev;
    ev.t = static_cast<TimeNs>(min.key >> 64);
    if ((min.payload & 1u) != 0) {
      uint32_t slot = static_cast<uint32_t>(min.payload >> 1);
      ev.fn = std::move(slots_[slot]);
      free_slots_.push_back(slot);
    } else {
      ev.handle = std::coroutine_handle<>::from_address(
          reinterpret_cast<void*>(min.payload));
    }
    return ev;
  }

  void Push(Entry ev) {
    size_t i = heap_.size();
    heap_.push_back(ev);
    // Sift the hole up, then place `ev` once.
    while (i > 0) {
      size_t parent = (i - 1) / 4;
      if (ev.key >= heap_[parent].key) break;
      heap_[i] = heap_[parent];
      i = parent;
    }
    heap_[i] = ev;
  }

  std::vector<Entry> heap_;
  /// Same-instant FIFO: entries at indices [ready_head_, size()) are
  /// pending, in increasing key order by construction. Reset to empty
  /// whenever the last entry is popped.
  std::vector<Entry> ready_;
  size_t ready_head_ = 0;
  /// Callback arena; entries own live SmallFns, freed slots are empty and
  /// listed in free_slots_. Pending coroutine frames are owned by their
  /// tasks, not the queue, so only fn slots need storage here.
  std::vector<SmallFn> slots_;
  std::vector<uint32_t> free_slots_;
};

}  // namespace dmrpc::sim

#endif  // DMRPC_SIM_EVENT_QUEUE_H_
