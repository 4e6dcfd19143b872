#include "cxl/host_dm.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "dmnet/protocol.h"

namespace dmrpc::cxl {

using dm::FrameId;
using dm::Ref;
using dm::RemoteAddr;
using rpc::MsgBuffer;

HostDmLayer::HostDmLayer(rpc::Rpc* rpc, CxlPort* port,
                         net::NodeId coordinator_node,
                         net::Port coordinator_port, HostDmConfig cfg)
    : rpc_(rpc),
      port_(port),
      sim_(port->simulation()),
      coord_node_(coordinator_node),
      coord_port_(coordinator_port),
      cfg_(cfg),
      page_size_(port->device()->page_size()),
      va_(cfg.va_base, cfg.va_span, port->device()->page_size()) {
  m_faults_ = sim_->metrics().GetCounter("cxl.page_faults");
  m_cow_copies_ = sim_->metrics().GetCounter("cxl.cow_copies");
  m_eager_copies_ = sim_->metrics().GetCounter("cxl.eager_copied_pages");
  m_refills_ = sim_->metrics().GetCounter("cxl.coordinator_refills");
  m_returns_ = sim_->metrics().GetCounter("cxl.coordinator_returns");
}

sim::Task<Status> HostDmLayer::Init() {
  DMRPC_CHECK(!initialized_);
  auto session = co_await rpc_->Connect(coord_node_, coord_port_);
  if (!session.ok()) co_return session.status();
  coord_session_ = *session;
  initialized_ = true;
  co_return co_await RefillFromCoordinator(cfg_.refill_batch);
}

sim::Task<Status> HostDmLayer::RefillFromCoordinator(uint32_t count) {
  MsgBuffer req;
  req.Append<uint32_t>(count);
  auto resp = co_await rpc_->Call(coord_session_, kRequestFrames,
                                  std::move(req));
  if (!resp.ok()) co_return resp.status();
  Status st = dmnet::TakeStatus(&*resp);
  if (!st.ok()) co_return st;
  uint32_t n = resp->Read<uint32_t>();
  for (uint32_t i = 0; i < n; ++i) free_.push_back(resp->Read<uint32_t>());
  stats_.coordinator_refills++;
  m_refills_->Inc();
  co_return Status::OK();
}

sim::Task<Status> HostDmLayer::ReturnToCoordinator(uint32_t count) {
  MsgBuffer req;
  count = static_cast<uint32_t>(std::min<size_t>(count, free_.size()));
  req.Append<uint32_t>(count);
  for (uint32_t i = 0; i < count; ++i) {
    req.Append<uint32_t>(free_.back());
    free_.pop_back();
  }
  auto resp = co_await rpc_->Call(coord_session_, kReturnFrames,
                                  std::move(req));
  if (!resp.ok()) co_return resp.status();
  stats_.coordinator_returns++;
  m_returns_->Inc();
  co_return dmnet::TakeStatus(&*resp);
}

sim::Task<StatusOr<FrameId>> HostDmLayer::PopLocalFrame() {
  if (free_.size() < cfg_.low_watermark && !refill_in_flight_) {
    refill_in_flight_ = true;
    Status st = co_await RefillFromCoordinator(cfg_.refill_batch);
    refill_in_flight_ = false;
    if (!st.ok() && free_.empty()) co_return st;
  }
  while (free_.empty()) {
    // Another coroutine's refill may be in flight; otherwise try again.
    if (!refill_in_flight_) {
      refill_in_flight_ = true;
      Status st = co_await RefillFromCoordinator(cfg_.refill_batch);
      refill_in_flight_ = false;
      if (!st.ok() && free_.empty()) co_return st;
    } else {
      co_await sim::Delay(500);
    }
  }
  FrameId f = free_.front();
  free_.pop_front();
  co_return f;
}

sim::Task<> HostDmLayer::PushLocalFrame(FrameId frame) {
  // The device pool never sees this free (hosts and the coordinator keep
  // their own free lists), so release the frame's host bytes here.
  port_->device()->pool().Discard(frame);
  free_.push_back(frame);
  if (free_.size() > cfg_.high_watermark) {
    (void)co_await ReturnToCoordinator(cfg_.refill_batch);
  }
}

sim::Task<StatusOr<RemoteAddr>> HostDmLayer::Alloc(uint64_t size) {
  DMRPC_CHECK(initialized_);
  co_await sim::Delay(cfg_.tree_op_ns);
  auto va = va_.Alloc(size);
  if (!va.ok()) co_return va.status();
  stats_.allocs++;
  // Lazily faulted: no physical pages are mapped yet (§V-B2).
  co_return *va;
}

sim::Task<Status> HostDmLayer::Free(RemoteAddr addr) {
  DMRPC_CHECK(initialized_);
  auto range = va_.RangeSize(addr);
  if (!range.ok()) co_return range.status();
  co_await sim::Delay(cfg_.tree_op_ns);
  uint64_t pages = *range / page_size_;
  for (uint64_t i = 0; i < pages; ++i) {
    auto it = page_table_.find(Vpn(addr + i * page_size_));
    if (it == page_table_.end()) continue;
    FrameId frame = it->second.frame;
    page_table_.erase(it);
    co_await sim::Delay(cfg_.pte_op_ns);
    uint32_t rc = co_await port_->AtomicDecRef(frame);
    if (rc == 0) {
      // Last owner reclaims the page (§V-B3 "Memory release").
      co_await PushLocalFrame(frame);
    }
  }
  (void)va_.Free(addr);
  stats_.frees++;
  co_return Status::OK();
}

sim::Task<StatusOr<Ref>> HostDmLayer::CreateRef(RemoteAddr addr,
                                                uint64_t size) {
  DMRPC_CHECK(initialized_);
  if (size == 0 || !va_.Contains(addr) || !va_.Contains(addr + size - 1)) {
    co_return Status::InvalidArgument("bad create_ref range");
  }
  uint64_t pages = (size + page_size_ - 1) / page_size_;
  Ref ref;
  ref.backend = Ref::Backend::kCxl;
  ref.size = size;
  ref.pages.reserve(pages);
  for (uint64_t i = 0; i < pages; ++i) {
    uint64_t vpn = Vpn(addr + i * page_size_);
    auto it = page_table_.find(vpn);
    FrameId frame;
    if (it == page_table_.end()) {
      // Share a never-written page: fault in a zeroed frame.
      auto f = co_await PopLocalFrame();
      if (!f.ok()) co_return f.status();
      frame = *f;
      stats_.page_faults++;
      m_faults_->Inc();
      if (sim_->tracer().enabled()) {
        sim_->tracer().Instant(obs::CurrentTraceContext(), "dm", "cxl.fault",
                               sim_->Now(), rpc_->node(),
                               "{\"vpn\":" + std::to_string(vpn) + "}");
      }
      co_await sim::Delay(cfg_.fault_ns + cfg_.pte_op_ns);
      std::vector<uint8_t> zeros(page_size_, 0);
      co_await port_->WriteFrame(frame, 0, zeros.data(), page_size_);
      (void)co_await port_->AtomicIncRef(frame);  // mapping share, 0 -> 1
      page_table_[vpn] = Pte{frame, true};
      it = page_table_.find(vpn);
    }
    frame = it->second.frame;
    if (cfg_.eager_copy) {
      // "-copy" baseline: duplicate the page through the CXL link now.
      auto copy = co_await PopLocalFrame();
      if (!copy.ok()) co_return copy.status();
      co_await port_->CopyFrame(frame, *copy);
      (void)co_await port_->AtomicIncRef(*copy);  // the Ref's share
      stats_.eager_copied_pages++;
      m_eager_copies_->Inc();
      ref.pages.push_back(*copy);
    } else {
      // Copy-on-write: drop write permission so the next local store
      // faults (§V-B3 create_ref); the Ref's shares are taken in one
      // batched atomic pass below.
      it->second.writable = false;
      co_await sim::Delay(cfg_.pte_op_ns);
      ref.pages.push_back(frame);
    }
  }
  if (!cfg_.eager_copy) {
    (void)co_await port_->AtomicAddRefBatch(ref.pages, +1);
  }
  stats_.create_refs++;
  co_return ref;
}

sim::Task<StatusOr<RemoteAddr>> HostDmLayer::MapRef(const Ref& ref) {
  DMRPC_CHECK(initialized_);
  DMRPC_CHECK(ref.backend == Ref::Backend::kCxl);
  co_await sim::Delay(cfg_.tree_op_ns);
  auto va = va_.Alloc(ref.size);
  if (!va.ok()) co_return va.status();
  for (size_t i = 0; i < ref.pages.size(); ++i) {
    uint64_t vpn = Vpn(*va + i * page_size_);
    page_table_[vpn] = Pte{ref.pages[i], /*writable=*/false};
    co_await sim::Delay(cfg_.pte_op_ns);
  }
  // Each mapping holds a share; taken in one pipelined atomic pass.
  (void)co_await port_->AtomicAddRefBatch(ref.pages, +1);
  stats_.map_refs++;
  co_return *va;
}

sim::Task<Status> HostDmLayer::ReleaseRef(const Ref& ref) {
  DMRPC_CHECK(initialized_);
  DMRPC_CHECK(ref.backend == Ref::Backend::kCxl);
  std::vector<uint32_t> counts =
      co_await port_->AtomicAddRefBatch(ref.pages, -1);
  for (size_t i = 0; i < ref.pages.size(); ++i) {
    if (counts[i] == 0) co_await PushLocalFrame(ref.pages[i]);
  }
  stats_.release_refs++;
  co_return Status::OK();
}

sim::Task<Status> HostDmLayer::Write(RemoteAddr addr, const uint8_t* src,
                                     uint64_t size) {
  DMRPC_CHECK(initialized_);
  if (size == 0) co_return Status::OK();
  if (!va_.Contains(addr) || !va_.Contains(addr + size - 1)) {
    co_return Status::OutOfRange("store outside allocation");
  }
  uint64_t done = 0;
  while (done < size) {
    RemoteAddr cur = addr + done;
    uint64_t vpn = Vpn(cur);
    uint32_t in_page = static_cast<uint32_t>(cur % page_size_);
    uint32_t chunk = static_cast<uint32_t>(
        std::min<uint64_t>(size - done, page_size_ - in_page));

    auto it = page_table_.find(vpn);
    if (it == page_table_.end()) {
      // Case 1: no physical page mapped -> demand fault.
      auto f = co_await PopLocalFrame();
      if (!f.ok()) co_return f.status();
      stats_.page_faults++;
      m_faults_->Inc();
      if (sim_->tracer().enabled()) {
        sim_->tracer().Instant(obs::CurrentTraceContext(), "dm", "cxl.fault",
                               sim_->Now(), rpc_->node(),
                               "{\"vpn\":" + std::to_string(vpn) + "}");
      }
      co_await sim::Delay(cfg_.fault_ns + cfg_.pte_op_ns);
      (void)co_await port_->AtomicIncRef(*f);  // 0 -> 1
      if (chunk < page_size_) {
        std::vector<uint8_t> zeros(page_size_, 0);
        co_await port_->WriteFrame(*f, 0, zeros.data(), page_size_);
      }
      page_table_[vpn] = Pte{*f, true};
      it = page_table_.find(vpn);
    } else if (!it->second.writable) {
      // Case 2: read-only page -> permission fault; check the shared
      // reference count with an atomic read.
      stats_.page_faults++;
      m_faults_->Inc();
      co_await sim::Delay(cfg_.fault_ns);
      uint32_t rc = co_await port_->ReadRefCount(it->second.frame);
      if (rc > 1) {
        // Copy-on-write: new page, copy content, repoint the PTE,
        // atomically drop our share of the old page.
        uint64_t span = 0;
        if (sim_->tracer().enabled()) {
          span = sim_->tracer().BeginSpan(
              obs::CurrentTraceContext(), "dm", "cxl.cow_copy", sim_->Now(),
              rpc_->node(), "{\"vpn\":" + std::to_string(vpn) + "}");
        }
        auto copy = co_await PopLocalFrame();
        if (!copy.ok()) {
          sim_->tracer().EndSpan(span, sim_->Now());
          co_return copy.status();
        }
        FrameId old = it->second.frame;
        co_await port_->CopyFrame(old, *copy);
        (void)co_await port_->AtomicIncRef(*copy);  // 0 -> 1
        it->second.frame = *copy;
        it->second.writable = true;
        co_await sim::Delay(cfg_.pte_op_ns);
        uint32_t old_rc = co_await port_->AtomicDecRef(old);
        if (old_rc == 0) co_await PushLocalFrame(old);
        stats_.cow_copies++;
        m_cow_copies_->Inc();
        sim_->tracer().EndSpan(span, sim_->Now());
      } else {
        // Sole owner: just flip the permission flag.
        it->second.writable = true;
        co_await sim::Delay(cfg_.pte_op_ns);
      }
    }
    // Case 3: writable -> plain store through the CXL link.
    co_await port_->WriteFrame(it->second.frame, in_page, src + done, chunk);
    done += chunk;
  }
  co_return Status::OK();
}

sim::Task<Status> HostDmLayer::Read(RemoteAddr addr, uint8_t* dst,
                                    uint64_t size) {
  DMRPC_CHECK(initialized_);
  if (size == 0) co_return Status::OK();
  if (!va_.Contains(addr) || !va_.Contains(addr + size - 1)) {
    co_return Status::OutOfRange("load outside allocation");
  }
  uint64_t done = 0;
  while (done < size) {
    RemoteAddr cur = addr + done;
    uint64_t vpn = Vpn(cur);
    uint32_t in_page = static_cast<uint32_t>(cur % page_size_);
    uint32_t chunk = static_cast<uint32_t>(
        std::min<uint64_t>(size - done, page_size_ - in_page));
    auto it = page_table_.find(vpn);
    if (it == page_table_.end()) {
      // Never-written page loads as zeros.
      std::fill(dst + done, dst + done + chunk, 0);
    } else {
      co_await port_->ReadFrame(it->second.frame, in_page, dst + done, chunk);
    }
    done += chunk;
  }
  co_return Status::OK();
}

sim::Task<StatusOr<Ref>> HostDmLayer::PutRef(const uint8_t* data,
                                             uint64_t size) {
  DMRPC_CHECK(initialized_);
  if (size == 0) co_return Status::InvalidArgument("empty put_ref");
  uint64_t pages = (size + page_size_ - 1) / page_size_;
  Ref ref;
  ref.backend = Ref::Backend::kCxl;
  ref.size = size;
  ref.pages.reserve(pages);
  for (uint64_t i = 0; i < pages; ++i) {
    auto frame = co_await PopLocalFrame();
    if (!frame.ok()) co_return frame.status();
    ref.pages.push_back(*frame);
  }
  // One streaming store burst for the data, one pipelined atomic pass for
  // the Ref's shares (0 -> 1 each).
  co_await port_->WriteFramesBulk(ref.pages, data, size);
  (void)co_await port_->AtomicAddRefBatch(ref.pages, +1);
  stats_.create_refs++;
  co_return ref;
}

sim::Task<StatusOr<rpc::MsgBuffer>> HostDmLayer::FetchRef(const Ref& ref) {
  DMRPC_CHECK(initialized_);
  DMRPC_CHECK(ref.backend == Ref::Backend::kCxl);
  // The fetched bytes land in exactly one pooled slab; the chain hands
  // it to the consumer without a further copy.
  rpc::MsgBuffer out;
  if (ref.size > 0) {
    co_await port_->ReadFramesBulk(ref.pages, out.AppendContiguous(ref.size),
                                   ref.size);
  }
  co_return out;
}

sim::Task<Status> HostDmLayer::WriteRef(const Ref& ref, uint64_t offset,
                                        const uint8_t* src, uint64_t size) {
  DMRPC_CHECK(initialized_);
  DMRPC_CHECK(ref.backend == Ref::Backend::kCxl);
  if (offset + size > ref.size) {
    co_return Status::OutOfRange("write_ref outside region");
  }
  // Plain stores through the CXL link into the referenced frames. No COW:
  // the refcount on these frames counts sharers who all agreed (via their
  // own locking, dsm::LockServer) to see each other's writes.
  uint64_t done = 0;
  while (done < size) {
    uint64_t cur = offset + done;
    uint64_t page = cur / page_size_;
    uint32_t in_page = static_cast<uint32_t>(cur % page_size_);
    uint32_t chunk = static_cast<uint32_t>(
        std::min<uint64_t>(size - done, page_size_ - in_page));
    co_await port_->WriteFrame(ref.pages[page], in_page, src + done, chunk);
    done += chunk;
  }
  co_return Status::OK();
}

}  // namespace dmrpc::cxl
