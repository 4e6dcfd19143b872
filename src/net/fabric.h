#ifndef DMRPC_NET_FABRIC_H_
#define DMRPC_NET_FABRIC_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "net/config.h"
#include "net/fault_hook.h"
#include "net/nic.h"
#include "net/packet.h"
#include "net/topology.h"
#include "obs/metrics.h"
#include "sim/channel.h"
#include "sim/simulation.h"

namespace dmrpc::net {

inline constexpr SwitchId kInvalidSwitch = 0xffffffff;

/// Fabric-wide counters, aggregated over every switch in the topology.
struct SwitchStats {
  uint64_t forwarded = 0;
  /// Packets discarded by the drop filter (set_drop_filter).
  uint64_t dropped_loss = 0;
  uint64_t dropped_unknown_dst = 0;
  /// Packets discarded because a fault-hook rule said drop.
  uint64_t dropped_fault = 0;
  /// Packets discarded because their uplink or downlink was down.
  uint64_t dropped_link_down = 0;
  /// Packets discarded because a finite egress port queue was full.
  uint64_t dropped_queue_full = 0;
  /// Packets discarded because a switch on their path was down.
  uint64_t dropped_switch_down = 0;
  /// Extra copies created by duplication faults.
  uint64_t duplicated_fault = 0;
};

/// Why the fabric (or the receiving NIC) discarded a packet. Each reason
/// owns a distinct `net.drop_reason.<name>` counter. The fabric
/// constructor registers all of them eagerly, so every metrics dump
/// carries the full schema, zeros included.
enum class DropReason : uint8_t {
  kQueueFull = 0,   // finite egress port queue overflowed
  kFcsBad = 1,      // corrupted frame failed the NIC FCS check
  kOutage = 2,      // link or switch administratively down
  kFault = 3,       // fault-injection rule said drop
  kLoss = 4,        // drop filter (set_drop_filter)
  kUnknownDst = 5,  // destination outside the fabric
};

inline constexpr int kNumDropReasons = 6;

const char* DropReasonName(DropReason reason);

/// Stages of a packet's life, in order, as reported to a trace sink.
enum class TraceStage : uint8_t {
  kNicTx = 0,     // accepted by the sender's NIC queue
  kOnWire = 1,    // serialized onto the cable towards the switch
  kForwarded = 2, // left a switch egress port (once per switch hop)
  kDropped = 3,   // dropped (any DropReason)
  kDelivered = 4, // handed to the receiver's NIC demux
};

const char* TraceStageName(TraceStage stage);

/// One trace event; the sink receives every stage of every packet while
/// tracing is enabled. Useful for protocol debugging and for asserting
/// latency decompositions in tests.
struct TraceEvent {
  TimeNs time = 0;
  TraceStage stage = TraceStage::kNicTx;
  uint64_t packet_id = 0;
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  Port src_port = 0;
  Port dst_port = 0;
  uint32_t bytes = 0;
};

using TraceSink = std::function<void(const TraceEvent&)>;

/// Per-port accounting of one switch egress queue.
struct PortStat {
  SwitchId switch_id = kInvalidSwitch;
  bool is_spine = false;
  uint32_t port = 0;
  uint64_t enqueued = 0;
  uint64_t dropped_full = 0;
  /// High-water mark of queued packets (including the one serializing).
  uint32_t max_depth = 0;
};

/// The simulated datacenter network: `TopologyConfig::num_hosts` hosts,
/// each with one NIC, connected through the spine/leaf switch graph the
/// topology describes. The paper's rack is the one-leaf case.
///
/// Packet path (docs/TOPOLOGY.md):
///   sender NIC TX pump (serialize at link rate + NIC overhead)
///   -> cable (propagation)
///   -> leaf ingress (drop filter, fault hook) -> egress port queue
///      (serialize at link rate, + switch forwarding latency)
///   -> cable (propagation)
///   -> receiver NIC demux (+ NIC overhead)
///
/// Same-leaf traffic crosses one switch. Inter-leaf traffic crosses
/// leaf -> ECMP-chosen spine -> leaf, each hop paying an egress queue,
/// serialization at link rate, forwarding latency and cable propagation.
class Fabric {
 public:
  /// Shorthand for TopologyConfig::SingleTor(num_nodes): the paper's rack.
  Fabric(sim::Simulation* sim, const NetworkConfig& cfg, uint32_t num_nodes);

  /// Builds the switch graph `topo` describes, one NIC per host.
  Fabric(sim::Simulation* sim, const NetworkConfig& cfg,
         const TopologyConfig& topo);

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  sim::Simulation* simulation() { return sim_; }
  const NetworkConfig& config() const { return cfg_; }
  const TopologyConfig& topology() const { return topo_; }
  uint32_t num_nodes() const { return static_cast<uint32_t>(nics_.size()); }
  uint32_t num_switches() const { return topo_.NumSwitches(); }

  Nic* nic(NodeId node) { return nics_[node].get(); }

  const SwitchStats& switch_stats() const { return switch_stats_; }

  /// Per-port egress queue accounting, one entry per switch port in
  /// SwitchId then port order (a single ToR lists one port per host).
  std::vector<PortStat> PortStats() const;

  /// Largest egress queue depth observed on any port so far.
  uint32_t max_port_depth() const { return max_port_depth_; }

  /// Administratively takes a switch down (packets arriving at it, queued
  /// on it, or routed onto it are dropped as DropReason::kOutage) or
  /// brings it back up. ECMP immediately steers inter-leaf flows away
  /// from a down spine, so traffic reroutes while at least one spine
  /// lives. The single ToR is switch 0.
  void SetSwitchUp(SwitchId sw, bool up);
  bool switch_up(SwitchId sw) const;

  /// The spine an inter-leaf flow resolves to right now (deterministic
  /// ECMP over the live spines), or kInvalidSwitch when no spine is up.
  /// Exposed for tests and the scale benches.
  SwitchId SpineForFlow(NodeId src, Port src_port, NodeId dst,
                        Port dst_port) const;

  /// Test hook: invoked per packet at first-switch ingress; return true
  /// to drop.
  void set_drop_filter(std::function<bool(const Packet&)> filter) {
    drop_filter_ = std::move(filter);
  }

  /// Installs the per-link fault seam (pass nullptr to detach). The hook
  /// is consulted for every packet on the sender-uplink and
  /// receiver-downlink cables and for link liveness; see net/fault_hook.h.
  /// The hook must outlive the fabric or be detached first.
  void set_fault_hook(FaultHook* hook) { fault_hook_ = hook; }
  FaultHook* fault_hook() { return fault_hook_; }

  /// Installs a packet-trace sink (pass nullptr to disable). The sink
  /// sees every TraceStage of every packet; keep it cheap.
  void set_trace_sink(TraceSink sink) { trace_ = std::move(sink); }

  /// Called by NICs and the switch at each packet stage. Feeds both the
  /// test sink above and, when the simulation's tracer is enabled,
  /// per-stage instant events on the "net" category. Inline early-out:
  /// this runs several times per packet and tracing is usually off.
  void Trace(TraceStage stage, const Packet& pkt) {
    if (trace_ == nullptr && !sim_->tracer().enabled()) return;
    TraceSlow(stage, pkt);
  }

  /// Fresh trace id for a packet.
  uint64_t NextPacketId() { return next_packet_id_++; }

  /// The distinct per-reason drop counter, registered by the constructor
  /// (the NIC uses this for FCS drops; the fabric's internal drop paths
  /// go through it too).
  obs::Counter* DropReasonCounter(DropReason reason);

  /// Called by a NIC TX pump after serialization: the packet is on the
  /// cable towards its first switch.
  void SendToSwitch(Packet pkt);

 private:
  /// One finite egress queue on a switch port.
  struct PortQueue {
    sim::Channel<Packet> queue;
    /// Queued packets including the one currently serializing.
    uint32_t depth = 0;
    uint32_t max_depth = 0;
    uint64_t enqueued = 0;
    uint64_t dropped_full = 0;
    /// Trace track id (1000 + construction order across the fabric).
    uint32_t track = 0;
  };

  /// One switch of the graph. Leaf ports: [0, HostsPerLeaf()) go down to
  /// hosts, [HostsPerLeaf(), HostsPerLeaf()+num_spines) go up to spines.
  /// Spine ports: one per leaf.
  struct SwitchNode {
    bool is_spine = false;
    /// Leaf ordinal or spine ordinal (not the global SwitchId).
    uint32_t index = 0;
    bool up = true;
    std::vector<std::unique_ptr<PortQueue>> ports;
  };

  // --- shared helpers ---
  void TraceSlow(TraceStage stage, const Packet& pkt);
  /// Counts a drop under its distinct reason plus the aggregate
  /// `net.switch.dropped`, and emits the kDropped trace stage.
  void CountDrop(DropReason reason, const Packet& pkt);

  /// Deep copy for duplication faults: the clone gets its own payload
  /// slab (payload slabs are refcounted, and a later corruption fault
  /// must never mutate bytes shared with the original) and a fresh id.
  Packet ClonePacket(const Packet& pkt);
  void DropFaulted(const Packet& pkt, bool link_down);

  // --- switch pipeline ---
  void BuildSwitches();
  /// Arrival at the sender's leaf, after the host->leaf cable.
  void HostIngress(Packet&& pkt);
  /// Routes a packet sitting at leaf `leaf` towards its destination
  /// (down-port when local, ECMP up-port otherwise).
  void RouteAtLeaf(uint32_t leaf, Packet&& pkt);
  /// Arrival at spine `spine`, after a leaf->spine cable.
  void SpineIngress(uint32_t spine, Packet&& pkt);
  /// Arrival at the receiver's leaf, after a spine->leaf cable.
  void LeafFromSpine(uint32_t leaf, Packet&& pkt);
  /// Enqueues onto a port queue, dropping on overflow.
  void Enqueue(SwitchId sw, uint32_t port, Packet&& pkt);
  /// Drains one port queue: serialize at link rate, then hand off to the
  /// next hop (host delivery for leaf down-ports, switch ingress
  /// otherwise).
  sim::Task<> PortPump(SwitchId sw, uint32_t port);

  sim::Simulation* sim_;
  NetworkConfig cfg_;
  TopologyConfig topo_;
  /// topo_.HostsPerLeaf(), computed once: it sits on every packet's path.
  uint32_t hosts_per_leaf_ = 0;
  std::vector<std::unique_ptr<Nic>> nics_;
  /// Leaves then spines, indexed by SwitchId.
  std::vector<SwitchNode> switches_;
  uint32_t max_port_depth_ = 0;
  SwitchStats switch_stats_;
  std::function<bool(const Packet&)> drop_filter_;
  FaultHook* fault_hook_ = nullptr;
  TraceSink trace_;
  uint64_t next_packet_id_ = 1;
  obs::Counter* m_forwarded_;
  obs::Counter* m_dropped_;
  /// Distinct drop-reason counters, registered eagerly at construction so
  /// every run's metrics dump and timeline sidecar carry the full
  /// drop-reason schema (zeros when a reason never fired) -- sidecars
  /// from different configs then line up column-for-column.
  obs::Counter* m_drop_reason_[kNumDropReasons] = {};
  // Multi-switch aggregates, registered by BuildSwitches only when the
  // fabric has spines: a single-switch dump carries no `net.fabric.*`
  // name, which keeps the hashed metrics fingerprints of the single-ToR
  // benchmarks stable. Null otherwise, and their updates are skipped.
  obs::Counter* m_spine_hops_ = nullptr;
  obs::Counter* m_leaf_local_ = nullptr;
  obs::Counter* m_port_enqueued_ = nullptr;
  obs::Gauge* m_max_port_depth_ = nullptr;
};

}  // namespace dmrpc::net

#endif  // DMRPC_NET_FABRIC_H_
