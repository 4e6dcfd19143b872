#include "net/fabric.h"

#include <cstring>
#include <string>
#include <type_traits>
#include <utility>

#include "common/logging.h"

namespace dmrpc::net {
namespace {

/// Passes a packet-carrying closure through unchanged, and fails the build
/// if it no longer fits sim::SmallFn's inline buffer: a spilled closure
/// costs one heap allocation per packet hop. Wrap every closure that
/// captures a Packet.
template <typename F>
F&& InlineHop(F&& fn) {
  static_assert(sim::SmallFn::kFitsInline<std::decay_t<F>>,
                "packet closure spills out of SmallFn's inline buffer");
  return std::forward<F>(fn);
}

}  // namespace

const char* TraceStageName(TraceStage stage) {
  switch (stage) {
    case TraceStage::kNicTx:
      return "nic-tx";
    case TraceStage::kOnWire:
      return "on-wire";
    case TraceStage::kForwarded:
      return "forwarded";
    case TraceStage::kDropped:
      return "dropped";
    case TraceStage::kDelivered:
      return "delivered";
  }
  return "?";
}

const char* DropReasonName(DropReason reason) {
  switch (reason) {
    case DropReason::kQueueFull:
      return "queue_full";
    case DropReason::kFcsBad:
      return "fcs_bad";
    case DropReason::kOutage:
      return "outage";
    case DropReason::kFault:
      return "fault";
    case DropReason::kLoss:
      return "loss";
    case DropReason::kUnknownDst:
      return "unknown_dst";
  }
  return "?";
}

void Fabric::TraceSlow(TraceStage stage, const Packet& pkt) {
  // Tx-side stages land on the sender's lane, the rest on the receiver's.
  uint32_t track =
      (stage == TraceStage::kNicTx || stage == TraceStage::kOnWire) ? pkt.src
                                                                     : pkt.dst;
  sim_->tracer().Instant(
      pkt.trace, "net", std::string("net.pkt.") + TraceStageName(stage),
      sim_->Now(), track,
      "{\"pkt\":" + std::to_string(pkt.id) + ",\"src\":" +
          std::to_string(pkt.src) + ",\"dst\":" + std::to_string(pkt.dst) +
          ",\"bytes\":" + std::to_string(pkt.payload_size()) + "}");
}

obs::Counter* Fabric::DropReasonCounter(DropReason reason) {
  // All six are registered eagerly by the constructor.
  return m_drop_reason_[static_cast<int>(reason)];
}

void Fabric::CountDrop(DropReason reason, const Packet& pkt) {
  DropReasonCounter(reason)->Inc();
  m_dropped_->Inc();
  Trace(TraceStage::kDropped, pkt);
}

Fabric::Fabric(sim::Simulation* sim, const NetworkConfig& cfg,
               uint32_t num_nodes)
    : Fabric(sim, cfg, TopologyConfig::SingleTor(num_nodes)) {}

Fabric::Fabric(sim::Simulation* sim, const NetworkConfig& cfg,
               const TopologyConfig& topo)
    : sim_(sim), cfg_(cfg), topo_(topo) {
  DMRPC_CHECK_GT(topo_.num_hosts, 0u);
  m_forwarded_ = sim_->metrics().GetCounter("net.switch.forwarded");
  m_dropped_ = sim_->metrics().GetCounter("net.switch.dropped");
  // Eager, in enum order (GetCounter sorts by name anyway): the full
  // drop-reason schema is present in every dump, zeros included.
  for (int i = 0; i < kNumDropReasons; ++i) {
    m_drop_reason_[i] = sim_->metrics().GetCounter(
        std::string("net.drop_reason.") +
        DropReasonName(static_cast<DropReason>(i)));
  }
  nics_.reserve(topo_.num_hosts);
  for (uint32_t i = 0; i < topo_.num_hosts; ++i) {
    nics_.push_back(std::make_unique<Nic>(sim_, this, i, cfg_));
  }
  BuildSwitches();
}

void Fabric::BuildSwitches() {
  DMRPC_CHECK_GT(topo_.num_leaves, 0u);
  DMRPC_CHECK_LE(topo_.num_leaves, topo_.num_hosts)
      << "more leaves than hosts";
  DMRPC_CHECK(topo_.num_spines > 0 || topo_.num_leaves == 1)
      << "leaves without spines have no route between them";
  if (topo_.num_spines > 0) {
    m_spine_hops_ = sim_->metrics().GetCounter("net.fabric.spine_hops");
    m_leaf_local_ = sim_->metrics().GetCounter("net.fabric.leaf_local");
    m_port_enqueued_ = sim_->metrics().GetCounter("net.fabric.port_enqueued");
    m_max_port_depth_ = sim_->metrics().GetGauge("net.fabric.max_port_depth");
  }
  hosts_per_leaf_ = topo_.HostsPerLeaf();
  uint32_t next_track = 1000;
  switches_.resize(topo_.NumSwitches());
  for (uint32_t l = 0; l < topo_.num_leaves; ++l) {
    SwitchNode& sw = switches_[l];
    sw.is_spine = false;
    sw.index = l;
    // Down-ports for every host slot (ragged tail slots exist but never
    // see traffic), then one up-port per spine.
    sw.ports.resize(hosts_per_leaf_ + topo_.num_spines);
    for (auto& p : sw.ports) {
      p = std::make_unique<PortQueue>();
      p->track = next_track++;
    }
  }
  for (uint32_t s = 0; s < topo_.num_spines; ++s) {
    SwitchNode& sw = switches_[topo_.FirstSpine() + s];
    sw.is_spine = true;
    sw.index = s;
    sw.ports.resize(topo_.num_leaves);
    for (auto& p : sw.ports) {
      p = std::make_unique<PortQueue>();
      p->track = next_track++;
    }
  }
  // Pumps spawn after the whole graph exists, in (switch, port) order, so
  // same-instant wakeups resolve in a fixed order run over run.
  for (SwitchId sw = 0; sw < switches_.size(); ++sw) {
    for (uint32_t port = 0; port < switches_[sw].ports.size(); ++port) {
      sim_->Spawn(PortPump(sw, port));
    }
  }
}

void Fabric::SetSwitchUp(SwitchId sw, bool up) {
  DMRPC_CHECK_LT(sw, num_switches());
  switches_[sw].up = up;
}

bool Fabric::switch_up(SwitchId sw) const {
  DMRPC_CHECK_LT(sw, num_switches());
  return switches_[sw].up;
}

SwitchId Fabric::SpineForFlow(NodeId src, Port src_port, NodeId dst,
                              Port dst_port) const {
  uint32_t live = 0;
  for (uint32_t s = 0; s < topo_.num_spines; ++s) {
    if (switches_[topo_.FirstSpine() + s].up) live++;
  }
  if (live == 0) return kInvalidSwitch;
  uint64_t h = EcmpFlowHash(src, src_port, dst, dst_port, topo_.ecmp_salt);
  uint32_t pick = static_cast<uint32_t>(h % live);
  for (uint32_t s = 0; s < topo_.num_spines; ++s) {
    SwitchId id = topo_.FirstSpine() + s;
    if (!switches_[id].up) continue;
    if (pick == 0) return id;
    pick--;
  }
  return kInvalidSwitch;  // unreachable
}

std::vector<PortStat> Fabric::PortStats() const {
  std::vector<PortStat> out;
  for (SwitchId sw = 0; sw < switches_.size(); ++sw) {
    const SwitchNode& node = switches_[sw];
    for (uint32_t port = 0; port < node.ports.size(); ++port) {
      const PortQueue& pq = *node.ports[port];
      PortStat stat;
      stat.switch_id = sw;
      stat.is_spine = node.is_spine;
      stat.port = port;
      stat.enqueued = pq.enqueued;
      stat.dropped_full = pq.dropped_full;
      stat.max_depth = pq.max_depth;
      out.push_back(stat);
    }
  }
  return out;
}

void Fabric::SendToSwitch(Packet pkt) {
  // Cable from host to its leaf.
  sim_->After(cfg_.link_propagation_ns,
              InlineHop([this, p = std::move(pkt)]() mutable {
                HostIngress(std::move(p));
              }));
}

Packet Fabric::ClonePacket(const Packet& pkt) {
  Packet copy;
  copy.src = pkt.src;
  copy.dst = pkt.dst;
  copy.src_port = pkt.src_port;
  copy.dst_port = pkt.dst_port;
  copy.id = NextPacketId();
  copy.fcs_bad = pkt.fcs_bad;
  copy.payload = sim_->buffer_pool().Acquire(pkt.payload.size());
  if (pkt.payload.size() > 0) {
    std::memcpy(copy.payload.AppendRaw(pkt.payload.size()),
                pkt.payload.data(), pkt.payload.size());
  }
  // The scatter-gather continuation is immutable in flight, so the
  // duplicate ref-shares it instead of copying payload bytes.
  copy.frags = pkt.frags;
  return copy;
}

void Fabric::DropFaulted(const Packet& pkt, bool link_down) {
  if (link_down) {
    switch_stats_.dropped_link_down++;
    CountDrop(DropReason::kOutage, pkt);
  } else {
    switch_stats_.dropped_fault++;
    CountDrop(DropReason::kFault, pkt);
  }
}

void Fabric::HostIngress(Packet&& pkt) {
  uint32_t leaf = pkt.src / hosts_per_leaf_;
  if (pkt.dst >= num_nodes()) {
    switch_stats_.dropped_unknown_dst++;
    CountDrop(DropReason::kUnknownDst, pkt);
    return;
  }
  if (drop_filter_ && drop_filter_(pkt)) {
    switch_stats_.dropped_loss++;
    CountDrop(DropReason::kLoss, pkt);
    return;
  }
  if (fault_hook_ != nullptr) {
    // Uplink traversal: the sender's host->leaf cable.
    if (!fault_hook_->IsLinkUp(pkt.src, LinkDir::kUplink)) {
      DropFaulted(pkt, /*link_down=*/true);
      return;
    }
    FaultAction act = fault_hook_->OnPacket(pkt.src, LinkDir::kUplink, pkt);
    if (act.drop) {
      DropFaulted(pkt, /*link_down=*/false);
      return;
    }
    if (act.duplicate) {
      switch_stats_.duplicated_fault++;
      RouteAtLeaf(leaf, ClonePacket(pkt));
    }
    if (act.extra_delay_ns > 0) {
      // Reordering: this packet reaches the leaf late, so traffic behind
      // it overtakes.
      sim_->After(act.extra_delay_ns,
                  InlineHop([this, leaf, p = std::move(pkt)]() mutable {
                    RouteAtLeaf(leaf, std::move(p));
                  }));
      return;
    }
  }
  RouteAtLeaf(leaf, std::move(pkt));
}

void Fabric::RouteAtLeaf(uint32_t leaf, Packet&& pkt) {
  if (!switches_[leaf].up) {
    switch_stats_.dropped_switch_down++;
    CountDrop(DropReason::kOutage, pkt);
    return;
  }
  uint32_t dst_leaf = pkt.dst / hosts_per_leaf_;
  if (dst_leaf == leaf) {
    if (m_leaf_local_ != nullptr) m_leaf_local_->Inc();
    Enqueue(leaf, pkt.dst % hosts_per_leaf_, std::move(pkt));
    return;
  }
  SwitchId spine = SpineForFlow(pkt.src, pkt.src_port, pkt.dst, pkt.dst_port);
  if (spine == kInvalidSwitch) {
    // Every spine is down: the leaf has no route out.
    switch_stats_.dropped_switch_down++;
    CountDrop(DropReason::kOutage, pkt);
    return;
  }
  uint32_t up_port = hosts_per_leaf_ + (spine - topo_.FirstSpine());
  Enqueue(leaf, up_port, std::move(pkt));
}

void Fabric::SpineIngress(uint32_t spine, Packet&& pkt) {
  SwitchId sw = topo_.FirstSpine() + spine;
  if (!switches_[sw].up) {
    switch_stats_.dropped_switch_down++;
    CountDrop(DropReason::kOutage, pkt);
    return;
  }
  m_spine_hops_->Inc();
  Enqueue(sw, pkt.dst / hosts_per_leaf_, std::move(pkt));
}

void Fabric::LeafFromSpine(uint32_t leaf, Packet&& pkt) {
  if (!switches_[leaf].up) {
    switch_stats_.dropped_switch_down++;
    CountDrop(DropReason::kOutage, pkt);
    return;
  }
  Enqueue(leaf, pkt.dst % hosts_per_leaf_, std::move(pkt));
}

void Fabric::Enqueue(SwitchId sw, uint32_t port, Packet&& pkt) {
  PortQueue& pq = *switches_[sw].ports[port];
  if (topo_.port_queue_packets > 0 && pq.depth >= topo_.port_queue_packets) {
    pq.dropped_full++;
    switch_stats_.dropped_queue_full++;
    CountDrop(DropReason::kQueueFull, pkt);
    return;
  }
  pq.depth++;
  pq.enqueued++;
  if (m_port_enqueued_ != nullptr) m_port_enqueued_->Inc();
  if (pq.depth > pq.max_depth) {
    pq.max_depth = pq.depth;
    if (pq.depth > max_port_depth_) {
      max_port_depth_ = pq.depth;
      if (m_max_port_depth_ != nullptr) m_max_port_depth_->Set(max_port_depth_);
    }
  }
  pq.queue.Push(std::move(pkt));
}

sim::Task<> Fabric::PortPump(SwitchId sw, uint32_t port) {
  SwitchNode* node = &switches_[sw];
  PortQueue* pq = node->ports[port].get();
  bool to_host = !node->is_spine && port < hosts_per_leaf_;
  for (;;) {
    Packet pkt = co_await pq->queue.Pop();
    if (!node->up) {
      // The switch lost power with this packet buffered.
      pq->depth--;
      switch_stats_.dropped_switch_down++;
      CountDrop(DropReason::kOutage, pkt);
      continue;
    }
    // The egress port is occupied only while the packet serializes onto
    // the cable; the forwarding-pipeline latency and propagation delay
    // are pipelined (they add delivery delay, not port occupancy).
    TimeNs serialize =
        TransferNs(cfg_.WireBytes(pkt.payload_size()), cfg_.bytes_per_ns());
    uint64_t span = 0;
    if (sim_->tracer().enabled()) {
      span = sim_->tracer().BeginSpan(
          pkt.trace, "net", "net.switch_egress", sim_->Now(), pq->track,
          "{\"pkt\":" + std::to_string(pkt.id) + "}");
    }
    co_await sim::Delay(serialize);
    sim_->tracer().EndSpan(span, sim_->Now());
    pq->depth--;
    switch_stats_.forwarded++;
    m_forwarded_->Inc();
    Trace(TraceStage::kForwarded, pkt);
    if (!to_host) {
      // Inter-switch hop: forwarding latency + cable to the next switch.
      if (node->is_spine) {
        uint32_t leaf = port;
        sim_->After(cfg_.switch_latency_ns + cfg_.link_propagation_ns,
                    InlineHop([this, leaf, p = std::move(pkt)]() mutable {
                      LeafFromSpine(leaf, std::move(p));
                    }));
      } else {
        uint32_t spine = port - hosts_per_leaf_;
        sim_->After(cfg_.switch_latency_ns + cfg_.link_propagation_ns,
                    InlineHop([this, spine, p = std::move(pkt)]() mutable {
                      SpineIngress(spine, std::move(p));
                    }));
      }
      continue;
    }
    // Final hop: the receiver's leaf->host cable.
    NodeId dst = pkt.dst;
    TimeNs extra = 0;
    if (fault_hook_ != nullptr) {
      if (!fault_hook_->IsLinkUp(dst, LinkDir::kDownlink)) {
        DropFaulted(pkt, /*link_down=*/true);
        continue;
      }
      FaultAction act = fault_hook_->OnPacket(dst, LinkDir::kDownlink, pkt);
      if (act.drop) {
        DropFaulted(pkt, /*link_down=*/false);
        continue;
      }
      if (act.duplicate) {
        switch_stats_.duplicated_fault++;
        sim_->After(cfg_.switch_latency_ns + cfg_.link_propagation_ns,
                    InlineHop([this, dst, p = ClonePacket(pkt)]() mutable {
                      Trace(TraceStage::kDelivered, p);
                      nics_[dst]->Deliver(std::move(p));
                    }));
      }
      extra = act.extra_delay_ns;
    }
    sim_->After(cfg_.switch_latency_ns + cfg_.link_propagation_ns + extra,
                InlineHop([this, dst, p = std::move(pkt)]() mutable {
                  Trace(TraceStage::kDelivered, p);
                  nics_[dst]->Deliver(std::move(p));
                }));
  }
}

}  // namespace dmrpc::net
