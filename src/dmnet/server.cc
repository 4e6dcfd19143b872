#include "dmnet/server.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/logging.h"
#include "dmnet/protocol.h"
#include "sim/simulation.h"

namespace dmrpc::dmnet {

using dm::FrameId;
using dm::RemoteAddr;
using rpc::MsgBuffer;
using rpc::ReqContext;

DmServer::DmServer(net::Fabric* fabric, net::NodeId node, net::Port port,
                   DmServerConfig cfg, uint64_t va_partition_base)
    : sim_(fabric->simulation()),
      node_(node),
      port_(port),
      cfg_(cfg),
      va_partition_base_(va_partition_base),
      rpc_(std::make_unique<rpc::Rpc>(fabric, node, port)),
      pool_(cfg.num_frames, cfg.page_size),
      cores_(cfg.cores) {
  DMRPC_CHECK_LE(cfg_.va_span_per_proc / cfg_.page_size, uint64_t{1} << 32)
      << "VA span too large for 32-bit virtual page numbers";
  m_faults_ = sim_->metrics().GetCounter("dm.page_faults");
  m_cow_copies_ = sim_->metrics().GetCounter("dm.cow_copies");
  m_eager_copies_ = sim_->metrics().GetCounter("dm.eager_copied_pages");
  m_fetch_refs_ = sim_->metrics().GetCounter("dm.fetch_refs");
  m_release_refs_ = sim_->metrics().GetCounter("dm.release_refs");
  m_peer_reclaims_ = sim_->metrics().GetCounter("dm.peer_reclaims");
  pool_.AttachMetrics(&sim_->metrics(), "dm.pool");
  rpc_->RegisterHandler(kRegister, [this](ReqContext c, MsgBuffer m) {
    return HandleRegister(c, std::move(m));
  });
  rpc_->RegisterHandler(kAlloc, [this](ReqContext c, MsgBuffer m) {
    return HandleAlloc(c, std::move(m));
  });
  rpc_->RegisterHandler(kFree, [this](ReqContext c, MsgBuffer m) {
    return HandleFree(c, std::move(m));
  });
  rpc_->RegisterHandler(kCreateRef, [this](ReqContext c, MsgBuffer m) {
    return HandleCreateRef(c, std::move(m));
  });
  rpc_->RegisterHandler(kMapRef, [this](ReqContext c, MsgBuffer m) {
    return HandleMapRef(c, std::move(m));
  });
  rpc_->RegisterHandler(kReleaseRef, [this](ReqContext c, MsgBuffer m) {
    return HandleReleaseRef(c, std::move(m));
  });
  rpc_->RegisterHandler(kWrite, [this](ReqContext c, MsgBuffer m) {
    return HandleWrite(c, std::move(m));
  });
  rpc_->RegisterHandler(kRead, [this](ReqContext c, MsgBuffer m) {
    return HandleRead(c, std::move(m));
  });
  rpc_->RegisterHandler(kPutRef, [this](ReqContext c, MsgBuffer m) {
    return HandlePutRef(c, std::move(m));
  });
  rpc_->RegisterHandler(kFetchRef, [this](ReqContext c, MsgBuffer m) {
    return HandleFetchRef(c, std::move(m));
  });
  rpc_->RegisterHandler(kWriteRef, [this](ReqContext c, MsgBuffer m) {
    return HandleWriteRef(c, std::move(m));
  });
  rpc_->RegisterHandler(kWriteShared, [this](ReqContext c, MsgBuffer m) {
    return HandleWriteShared(c, std::move(m));
  });
}

uint64_t DmServer::PteKey(uint32_t pid, RemoteAddr va) const {
  DMRPC_CHECK_GE(va, va_partition_base_);
  uint64_t vpn = (va - va_partition_base_) / cfg_.page_size;
  DMRPC_CHECK_LT(vpn, uint64_t{1} << 32);
  return (static_cast<uint64_t>(pid) << 32) | vpn;
}

FrameId DmServer::Translate(uint32_t pid, RemoteAddr page_va) {
  if (!cfg_.mmu_direct_translation) {
    stats_.translation_ns += cfg_.hash_lookup_ns;
  }
  auto it = pte_.find(PteKey(pid, page_va));
  return it == pte_.end() ? dm::kInvalidFrame : it->second;
}

TimeNs DmServer::TranslateCost() const {
  return cfg_.mmu_direct_translation ? 0 : cfg_.hash_lookup_ns;
}

StatusOr<FrameId> DmServer::FaultIn(uint32_t pid, RemoteAddr page_va) {
  auto frame = pool_.PopFree();
  if (!frame.ok()) return frame.status();
  stats_.page_faults++;
  m_faults_->Inc();
  if (sim_->tracer().enabled()) {
    sim_->tracer().Instant(obs::CurrentTraceContext(), "dm", "dm.fault",
                           sim_->Now(), node_,
                           "{\"pid\":" + std::to_string(pid) + ",\"page_va\":" +
                               std::to_string(page_va) + "}");
  }
  // PopFree hands out frames that read as zeros: no host-side clearing.
  pte_[PteKey(pid, page_va)] = *frame;
  return *frame;
}

DmServer::ProcState* DmServer::FindProc(uint32_t pid) {
  auto it = procs_.find(pid);
  return it == procs_.end() ? nullptr : &it->second;
}

dm::LeaseId DmServer::CurrentLease(net::NodeId node) {
  return dm::MakeLeaseId(node, peer_epochs_[node]);
}

void DmServer::ReclaimPeer(net::NodeId peer) {
  // 1. Ref shares held under the peer's current lease.
  dm::LeaseReclaim rec = pool_.ReclaimLease(CurrentLease(peer));
  for (uint64_t cookie : rec.cookies) refs_.erase(cookie);
  uint64_t frames_freed = rec.frames_freed;

  // 2. Every process the peer registered: PTE shares and the VA tree.
  // Iteration over the hash maps would be nondeterministic, so collect
  // and sort the keys first.
  std::vector<uint32_t> pids;
  for (const auto& [pid, st] : procs_) {
    if (st.owner == peer) pids.push_back(pid);
  }
  std::sort(pids.begin(), pids.end());
  for (uint32_t pid : pids) {
    std::vector<uint64_t> keys;
    for (const auto& [k, f] : pte_) {
      if (static_cast<uint32_t>(k >> 32) == pid) keys.push_back(k);
    }
    std::sort(keys.begin(), keys.end());
    for (uint64_t k : keys) {
      dm::FrameId frame = pte_[k];
      pte_.erase(k);
      if (pool_.DecRef(frame) == 0) {
        pool_.PushFree(frame);
        frames_freed++;
      }
    }
    procs_.erase(pid);
  }

  // 3. New incarnation: stragglers from the dead one resolve cleanly.
  peer_epochs_[peer]++;
  stats_.peer_reclaims++;
  m_peer_reclaims_->Inc();
  stats_.frames_reclaimed += frames_freed;
  if (sim_->tracer().enabled()) {
    sim_->tracer().Instant(
        obs::CurrentTraceContext(), "dm", "dm.peer_reclaim", sim_->Now(),
        node_,
        "{\"peer\":" + std::to_string(peer) +
            ",\"shares\":" + std::to_string(rec.shares_released) +
            ",\"frames\":" + std::to_string(frames_freed) + "}");
  }
}

sim::Task<MsgBuffer> DmServer::HandleRegister(ReqContext ctx, MsgBuffer req) {
  co_await cores_.Acquire();
  sim::SemaphoreGuard guard(&cores_);
  co_await sim::Delay(cfg_.op_cpu_ns);
  uint32_t pid = next_pid_++;
  ProcState state;
  state.va = std::make_unique<dm::VaAllocator>(
      va_partition_base_, cfg_.va_span_per_proc, cfg_.page_size);
  state.owner = ctx.peer;
  procs_.emplace(pid, std::move(state));
  MsgBuffer resp;
  PutStatus(&resp, Status::OK());
  resp.Append<uint32_t>(pid);
  co_return resp;
}

sim::Task<MsgBuffer> DmServer::HandleAlloc(ReqContext ctx, MsgBuffer req) {
  co_await cores_.Acquire();
  sim::SemaphoreGuard guard(&cores_);
  uint32_t pid = req.Read<uint32_t>();
  uint64_t size = req.Read<uint64_t>();
  co_await sim::Delay(cfg_.op_cpu_ns + cfg_.tree_op_ns);
  MsgBuffer resp;
  ProcState* proc = FindProc(pid);
  if (proc == nullptr) {
    PutStatus(&resp, Status::NotFound("unknown pid"));
    co_return resp;
  }
  auto va = proc->va->Alloc(size);
  if (!va.ok()) {
    PutStatus(&resp, va.status());
    co_return resp;
  }
  stats_.allocs++;
  PutStatus(&resp, Status::OK());
  resp.Append<uint64_t>(*va);
  co_return resp;
}

sim::Task<MsgBuffer> DmServer::HandleFree(ReqContext ctx, MsgBuffer req) {
  co_await cores_.Acquire();
  sim::SemaphoreGuard guard(&cores_);
  uint32_t pid = req.Read<uint32_t>();
  RemoteAddr va = req.Read<uint64_t>();
  co_await sim::Delay(cfg_.op_cpu_ns + cfg_.tree_op_ns);
  MsgBuffer resp;
  ProcState* proc = FindProc(pid);
  if (proc == nullptr) {
    PutStatus(&resp, Status::NotFound("unknown pid"));
    co_return resp;
  }
  auto range = proc->va->RangeSize(va);
  if (!range.ok()) {
    PutStatus(&resp, range.status());
    co_return resp;
  }
  uint64_t pages = *range / cfg_.page_size;
  TimeNs cpu = 0;
  for (uint64_t i = 0; i < pages; ++i) {
    RemoteAddr page_va = va + i * cfg_.page_size;
    cpu += TranslateCost();
    auto it = pte_.find(PteKey(pid, page_va));
    if (it == pte_.end()) continue;  // never faulted in
    FrameId frame = it->second;
    pte_.erase(it);
    cpu += cfg_.refcount_op_ns;
    if (pool_.DecRef(frame) == 0) pool_.PushFree(frame);
  }
  stats_.translation_ns += static_cast<TimeNs>(pages) * TranslateCost();
  // Free the VA range before suspending: `proc` may be erased by
  // ReclaimPeer while this coroutine sleeps (the peer crashed mid-free).
  (void)proc->va->Free(va);
  co_await sim::Delay(cpu);
  stats_.frees++;
  PutStatus(&resp, Status::OK());
  co_return resp;
}

sim::Task<MsgBuffer> DmServer::HandleCreateRef(ReqContext ctx,
                                               MsgBuffer req) {
  co_await cores_.Acquire();
  sim::SemaphoreGuard guard(&cores_);
  uint32_t pid = req.Read<uint32_t>();
  RemoteAddr va = req.Read<uint64_t>();
  uint64_t size = req.Read<uint64_t>();
  co_await sim::Delay(cfg_.op_cpu_ns);
  MsgBuffer resp;
  ProcState* proc = FindProc(pid);
  if (proc == nullptr) {
    PutStatus(&resp, Status::NotFound("unknown pid"));
    co_return resp;
  }
  if (!proc->va->Contains(va) || size == 0) {
    PutStatus(&resp, Status::InvalidArgument("bad create_ref range"));
    co_return resp;
  }
  uint64_t pages = (size + cfg_.page_size - 1) / cfg_.page_size;

  RefEntry entry;
  entry.size = size;
  entry.frames.reserve(pages);
  // Undoes the shares already taken when a later page fails (pool
  // exhausted mid-loop): without this the partial entry's references
  // leak -- they are not yet lease-tracked.
  auto rollback = [&] {
    for (FrameId fr : entry.frames) {
      if (pool_.DecRef(fr) == 0) pool_.PushFree(fr);
    }
  };
  TimeNs cpu = 0;
  for (uint64_t i = 0; i < pages; ++i) {
    RemoteAddr page_va = va + i * cfg_.page_size;
    cpu += TranslateCost();
    FrameId frame = Translate(pid, page_va);
    if (frame == dm::kInvalidFrame) {
      // Share a never-written page: fault in a zeroed frame so the Ref
      // names real storage.
      auto f = FaultIn(pid, page_va);
      if (!f.ok()) {
        rollback();
        PutStatus(&resp, f.status());
        co_return resp;
      }
      frame = *f;
      cpu += cfg_.fault_ns;
    }
    if (cfg_.eager_copy) {
      // "-copy" baseline: unconditionally duplicate the page now.
      auto copy = pool_.PopFree();
      if (!copy.ok()) {
        rollback();
        PutStatus(&resp, copy.status());
        co_return resp;
      }
      std::memcpy(pool_.FrameData(*copy),
                  std::as_const(pool_).FrameData(frame), cfg_.page_size);
      meter_.Charge(mem::MemKind::kLocalDram, 2ull * cfg_.page_size);
      cpu += cfg_.memory.CopyNs(mem::MemKind::kLocalDram,
                                mem::MemKind::kLocalDram, cfg_.page_size);
      stats_.eager_copied_pages++;
      m_eager_copies_->Inc();
      entry.frames.push_back(*copy);
    } else {
      // Copy-on-write: the Ref takes one share of each page.
      cpu += cfg_.refcount_op_ns;
      meter_.Charge(mem::MemKind::kLocalDram, sizeof(uint32_t) * 2);
      pool_.IncRef(frame);
      entry.frames.push_back(frame);
    }
  }
  co_await sim::Delay(cpu);
  uint64_t key = next_ref_key_++;
  // Lease sampled AFTER the suspension: if the owner crashed while we
  // slept, the entry lands in its new epoch and is swept by the next
  // reclamation instead of dangling in the dead one.
  entry.lease = CurrentLease(ctx.peer);
  pool_.LeaseAttach(entry.lease, key, entry.frames);
  refs_.emplace(key, std::move(entry));
  stats_.create_refs++;
  PutStatus(&resp, Status::OK());
  resp.Append<uint64_t>(key);
  resp.Append<uint32_t>(static_cast<uint32_t>(pages));
  co_return resp;
}

sim::Task<MsgBuffer> DmServer::HandleMapRef(ReqContext ctx, MsgBuffer req) {
  co_await cores_.Acquire();
  sim::SemaphoreGuard guard(&cores_);
  uint32_t pid = req.Read<uint32_t>();
  uint64_t key = req.Read<uint64_t>();
  co_await sim::Delay(cfg_.op_cpu_ns + cfg_.tree_op_ns);
  MsgBuffer resp;
  ProcState* proc = FindProc(pid);
  if (proc == nullptr) {
    PutStatus(&resp, Status::NotFound("unknown pid"));
    co_return resp;
  }
  auto it = refs_.find(key);
  if (it == refs_.end()) {
    PutStatus(&resp, Status::NotFound("unknown ref key"));
    co_return resp;
  }
  const RefEntry& entry = it->second;
  auto va = proc->va->Alloc(entry.size);
  if (!va.ok()) {
    PutStatus(&resp, va.status());
    co_return resp;
  }
  TimeNs cpu = 0;
  for (size_t i = 0; i < entry.frames.size(); ++i) {
    RemoteAddr page_va = *va + i * cfg_.page_size;
    pte_[PteKey(pid, page_va)] = entry.frames[i];
    pool_.IncRef(entry.frames[i]);  // each mapping holds a share
    cpu += TranslateCost() + cfg_.refcount_op_ns;
  }
  stats_.translation_ns +=
      static_cast<TimeNs>(entry.frames.size()) * TranslateCost();
  co_await sim::Delay(cpu);
  stats_.map_refs++;
  PutStatus(&resp, Status::OK());
  resp.Append<uint64_t>(*va);
  resp.Append<uint64_t>(entry.size);
  co_return resp;
}

sim::Task<MsgBuffer> DmServer::HandleReleaseRef(ReqContext ctx,
                                                MsgBuffer req) {
  co_await cores_.Acquire();
  sim::SemaphoreGuard guard(&cores_);
  uint64_t key = req.Read<uint64_t>();
  co_await sim::Delay(cfg_.op_cpu_ns);
  MsgBuffer resp;
  auto it = refs_.find(key);
  if (it == refs_.end()) {
    PutStatus(&resp, Status::NotFound("unknown ref key"));
    co_return resp;
  }
  pool_.LeaseDetach(it->second.lease, key);
  TimeNs cpu = 0;
  if (!debug_leak_on_release_) {
    for (FrameId frame : it->second.frames) {
      cpu += cfg_.refcount_op_ns;
      if (pool_.DecRef(frame) == 0) pool_.PushFree(frame);
    }
  }
  refs_.erase(it);
  co_await sim::Delay(cpu);
  stats_.release_refs++;
  m_release_refs_->Inc();
  PutStatus(&resp, Status::OK());
  co_return resp;
}

sim::Task<MsgBuffer> DmServer::HandleWrite(ReqContext ctx, MsgBuffer req) {
  co_await cores_.Acquire();
  sim::SemaphoreGuard guard(&cores_);
  TimeNs start = sim_->Now();
  uint32_t pid = req.Read<uint32_t>();
  RemoteAddr va = req.Read<uint64_t>();
  uint64_t len = req.Read<uint64_t>();
  co_await sim::Delay(cfg_.op_cpu_ns);
  MsgBuffer resp;
  ProcState* proc = FindProc(pid);
  if (proc == nullptr) {
    PutStatus(&resp, Status::NotFound("unknown pid"));
    co_return resp;
  }
  if (!proc->va->Contains(va) ||
      (len > 0 && !proc->va->Contains(va + len - 1))) {
    PutStatus(&resp, Status::OutOfRange("write outside allocation"));
    co_return resp;
  }
  DMRPC_CHECK_EQ(req.remaining(), len) << "rwrite length mismatch";

  TimeNs cpu = 0;
  uint64_t written = 0;
  while (written < len) {
    RemoteAddr cur = va + written;
    RemoteAddr page_va = cur / cfg_.page_size * cfg_.page_size;
    uint64_t in_page = cur - page_va;
    uint64_t chunk = std::min<uint64_t>(len - written, cfg_.page_size - in_page);

    FrameId frame = Translate(pid, page_va);
    if (frame == dm::kInvalidFrame) {
      auto f = FaultIn(pid, page_va);
      if (!f.ok()) {
        PutStatus(&resp, f.status());
        co_return resp;
      }
      frame = *f;
      cpu += cfg_.fault_ns;
    } else {
      // Reference-count check decides between in-place write and COW.
      cpu += cfg_.refcount_op_ns;
      meter_.Charge(mem::MemKind::kLocalDram, sizeof(uint32_t));
      if (pool_.RefCount(frame) > 1) {
        auto copy = pool_.PopFree();
        if (!copy.ok()) {
          PutStatus(&resp, copy.status());
          co_return resp;
        }
        std::memcpy(pool_.FrameData(*copy),
                    std::as_const(pool_).FrameData(frame), cfg_.page_size);
        meter_.Charge(mem::MemKind::kLocalDram, 2ull * cfg_.page_size);
        cpu += cfg_.memory.CopyNs(mem::MemKind::kLocalDram,
                                  mem::MemKind::kLocalDram, cfg_.page_size);
        pool_.DecRef(frame);
        frame = *copy;
        pte_[PteKey(pid, page_va)] = frame;
        stats_.cow_copies++;
        m_cow_copies_->Inc();
        if (sim_->tracer().enabled()) {
          sim_->tracer().Instant(
              obs::CurrentTraceContext(), "dm", "dm.cow_copy", sim_->Now(),
              node_,
              "{\"pid\":" + std::to_string(pid) + ",\"page_va\":" +
                  std::to_string(page_va) + "}");
        }
      }
    }
    req.ReadBytes(pool_.FrameData(frame) + in_page, chunk);
    written += chunk;
  }
  // Streaming write of the payload into pinned memory.
  meter_.Charge(mem::MemKind::kLocalDram, len);
  cpu += cfg_.memory.AccessNs(mem::MemKind::kLocalDram, len);
  co_await sim::Delay(cpu);
  stats_.writes++;
  stats_.access_ns += sim_->Now() - start;
  PutStatus(&resp, Status::OK());
  co_return resp;
}

sim::Task<MsgBuffer> DmServer::HandleRead(ReqContext ctx, MsgBuffer req) {
  co_await cores_.Acquire();
  sim::SemaphoreGuard guard(&cores_);
  TimeNs start = sim_->Now();
  uint32_t pid = req.Read<uint32_t>();
  RemoteAddr va = req.Read<uint64_t>();
  uint64_t len = req.Read<uint64_t>();
  co_await sim::Delay(cfg_.op_cpu_ns);
  MsgBuffer resp;
  ProcState* proc = FindProc(pid);
  if (proc == nullptr) {
    PutStatus(&resp, Status::NotFound("unknown pid"));
    co_return resp;
  }
  if (!proc->va->Contains(va) ||
      (len > 0 && !proc->va->Contains(va + len - 1))) {
    PutStatus(&resp, Status::OutOfRange("read outside allocation"));
    co_return resp;
  }
  PutStatus(&resp, Status::OK());
  TimeNs cpu = 0;
  uint64_t done = 0;
  while (done < len) {
    RemoteAddr cur = va + done;
    RemoteAddr page_va = cur / cfg_.page_size * cfg_.page_size;
    uint64_t in_page = cur - page_va;
    uint64_t chunk = std::min<uint64_t>(len - done, cfg_.page_size - in_page);
    FrameId frame = Translate(pid, page_va);
    // Each page chunk lands in exactly one pooled slab (the modeled
    // frame -> wire DMA); the response chain carries the slabs to the
    // NIC without re-staging them.
    if (frame == dm::kInvalidFrame) {
      // Never-written page reads as zeros (zero-page semantics).
      std::memset(resp.AppendContiguous(chunk), 0, chunk);
    } else {
      std::memcpy(resp.AppendContiguous(chunk),
                  std::as_const(pool_).FrameData(frame) + in_page, chunk);
    }
    done += chunk;
  }
  meter_.Charge(mem::MemKind::kLocalDram, len);
  cpu += cfg_.memory.AccessNs(mem::MemKind::kLocalDram, len);
  co_await sim::Delay(cpu);
  stats_.reads++;
  stats_.access_ns += sim_->Now() - start;
  co_return resp;
}

sim::Task<MsgBuffer> DmServer::HandlePutRef(ReqContext ctx, MsgBuffer req) {
  co_await cores_.Acquire();
  sim::SemaphoreGuard guard(&cores_);
  uint64_t len = req.Read<uint64_t>();
  co_await sim::Delay(cfg_.op_cpu_ns);
  MsgBuffer resp;
  DMRPC_CHECK_EQ(req.remaining(), len) << "put_ref length mismatch";
  if (len == 0) {
    PutStatus(&resp, Status::InvalidArgument("empty put_ref"));
    co_return resp;
  }
  // The compound producer path: the payload lands directly in fresh
  // pinned pages owned by the Ref entry (refcount 1 each). No VA range or
  // translation entries are created -- semantically equivalent to
  // ralloc + rwrite + create_ref + rfree, in one round trip.
  uint64_t pages = (len + cfg_.page_size - 1) / cfg_.page_size;
  RefEntry entry;
  entry.size = len;
  entry.frames.reserve(pages);
  TimeNs cpu = 0;
  for (uint64_t i = 0; i < pages; ++i) {
    auto frame = pool_.PopFree();
    if (!frame.ok()) {
      for (dm::FrameId fr : entry.frames) {
        pool_.DecRef(fr);
        pool_.PushFree(fr);
      }
      PutStatus(&resp, frame.status());
      co_return resp;
    }
    cpu += cfg_.fault_ns;
    uint64_t off = i * cfg_.page_size;
    uint64_t chunk = std::min<uint64_t>(cfg_.page_size, len - off);
    // The tail of a short last page is already zero (fresh frame).
    req.ReadBytes(pool_.FrameData(*frame), chunk);
    entry.frames.push_back(*frame);
  }
  meter_.Charge(mem::MemKind::kLocalDram, len);
  cpu += cfg_.memory.AccessNs(mem::MemKind::kLocalDram, len);
  co_await sim::Delay(cpu);
  uint64_t key = next_ref_key_++;
  entry.lease = CurrentLease(ctx.peer);
  pool_.LeaseAttach(entry.lease, key, entry.frames);
  refs_.emplace(key, std::move(entry));
  stats_.put_refs++;
  PutStatus(&resp, Status::OK());
  resp.Append<uint64_t>(key);
  co_return resp;
}

sim::Task<MsgBuffer> DmServer::HandleWriteShared(ReqContext ctx,
                                                 MsgBuffer req) {
  co_await cores_.Acquire();
  sim::SemaphoreGuard guard(&cores_);
  uint32_t pid = req.Read<uint32_t>();
  RemoteAddr va = req.Read<uint64_t>();
  uint64_t len = req.Read<uint64_t>();
  co_await sim::Delay(cfg_.op_cpu_ns);
  MsgBuffer resp;
  ProcState* proc = FindProc(pid);
  if (proc == nullptr) {
    PutStatus(&resp, Status::NotFound("unknown pid"));
    co_return resp;
  }
  if (!proc->va->Contains(va) ||
      (len > 0 && !proc->va->Contains(va + len - 1))) {
    PutStatus(&resp, Status::OutOfRange("write outside allocation"));
    co_return resp;
  }
  // DSM-mode write: mutate shared pages IN PLACE, bypassing the
  // copy-on-write check. Every other holder of these pages observes the
  // new bytes -- the application must provide its own synchronization
  // (dsm::LockServer), which is exactly the programming model Table I
  // scores as "Complex". Never mix with create_ref'd snapshot semantics.
  TimeNs cpu = 0;
  uint64_t written = 0;
  while (written < len) {
    RemoteAddr cur = va + written;
    RemoteAddr page_va = cur / cfg_.page_size * cfg_.page_size;
    uint64_t in_page = cur - page_va;
    uint64_t chunk =
        std::min<uint64_t>(len - written, cfg_.page_size - in_page);
    FrameId frame = Translate(pid, page_va);
    if (frame == dm::kInvalidFrame) {
      auto f = FaultIn(pid, page_va);
      if (!f.ok()) {
        PutStatus(&resp, f.status());
        co_return resp;
      }
      frame = *f;
      cpu += cfg_.fault_ns;
    }
    req.ReadBytes(pool_.FrameData(frame) + in_page, chunk);
    written += chunk;
  }
  meter_.Charge(mem::MemKind::kLocalDram, len);
  cpu += cfg_.memory.AccessNs(mem::MemKind::kLocalDram, len);
  co_await sim::Delay(cpu);
  stats_.writes++;
  PutStatus(&resp, Status::OK());
  co_return resp;
}

sim::Task<MsgBuffer> DmServer::HandleWriteRef(ReqContext ctx,
                                              MsgBuffer req) {
  co_await cores_.Acquire();
  sim::SemaphoreGuard guard(&cores_);
  uint64_t key = req.Read<uint64_t>();
  uint64_t offset = req.Read<uint64_t>();
  uint64_t len = req.Read<uint64_t>();
  co_await sim::Delay(cfg_.op_cpu_ns + TranslateCost());
  stats_.translation_ns += TranslateCost();
  MsgBuffer resp;
  auto it = refs_.find(key);
  if (it == refs_.end()) {
    PutStatus(&resp, Status::NotFound("unknown ref key"));
    co_return resp;
  }
  RefEntry& entry = it->second;
  if (offset + len > entry.size) {
    PutStatus(&resp, Status::OutOfRange("write_ref outside region"));
    co_return resp;
  }
  // In-place mutation of the Ref's pinned pages, bypassing copy-on-write:
  // every mapping of these frames and every later FetchRef observes the
  // new bytes. Shared-structure (src/kv) discipline only -- callers must
  // hold their own locks. Never mix with snapshot-semantic Refs.
  uint64_t written = 0;
  while (written < len) {
    uint64_t cur = offset + written;
    uint64_t page = cur / cfg_.page_size;
    uint64_t in_page = cur % cfg_.page_size;
    uint64_t chunk =
        std::min<uint64_t>(len - written, cfg_.page_size - in_page);
    req.ReadBytes(pool_.FrameData(entry.frames[page]) + in_page, chunk);
    written += chunk;
  }
  meter_.Charge(mem::MemKind::kLocalDram, len);
  co_await sim::Delay(cfg_.memory.AccessNs(mem::MemKind::kLocalDram, len));
  stats_.writes++;
  PutStatus(&resp, Status::OK());
  co_return resp;
}

sim::Task<MsgBuffer> DmServer::HandleFetchRef(ReqContext ctx,
                                              MsgBuffer req) {
  co_await cores_.Acquire();
  sim::SemaphoreGuard guard(&cores_);
  uint64_t key = req.Read<uint64_t>();
  co_await sim::Delay(cfg_.op_cpu_ns + TranslateCost());
  stats_.translation_ns += TranslateCost();
  MsgBuffer resp;
  auto it = refs_.find(key);
  if (it == refs_.end()) {
    PutStatus(&resp, Status::NotFound("unknown ref key"));
    co_return resp;
  }
  const RefEntry& entry = it->second;
  PutStatus(&resp, Status::OK());
  resp.Append<uint64_t>(entry.size);
  uint64_t remaining = entry.size;
  for (dm::FrameId frame : entry.frames) {
    uint64_t chunk = std::min<uint64_t>(cfg_.page_size, remaining);
    // One pooled slab per page frame (the modeled frame -> wire DMA);
    // the chain hands the slabs through fragmentation untouched.
    std::memcpy(resp.AppendContiguous(chunk),
                std::as_const(pool_).FrameData(frame), chunk);
    remaining -= chunk;
  }
  meter_.Charge(mem::MemKind::kLocalDram, entry.size);
  co_await sim::Delay(
      cfg_.memory.AccessNs(mem::MemKind::kLocalDram, entry.size));
  stats_.fetch_refs++;
  m_fetch_refs_->Inc();
  co_return resp;
}

}  // namespace dmrpc::dmnet
