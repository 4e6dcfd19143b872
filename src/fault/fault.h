#ifndef DMRPC_FAULT_FAULT_H_
#define DMRPC_FAULT_FAULT_H_

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/random.h"
#include "common/units.h"
#include "net/fabric.h"
#include "net/fault_hook.h"
#include "obs/metrics.h"
#include "sim/simulation.h"

namespace dmrpc::fault {

/// What a packet-fault rule does to the packets it matches.
enum class FaultKind : uint8_t {
  kDrop = 0,       // discard at the link
  kCorrupt = 1,    // flip bits in flight: receiving NIC FCS-drops it
  kDuplicate = 2,  // deliver an extra copy
  kReorder = 3,    // hold the packet back so later traffic overtakes
};

/// One packet-fault rule: during the virtual-time window
/// [start_ns, end_ns) every packet traversing link (node, dir) is hit
/// with `probability` (1.0 = deterministic: every packet, no rng draw).
struct PacketFault {
  FaultKind kind = FaultKind::kDrop;
  net::NodeId node = net::kInvalidNode;
  net::LinkDir dir = net::LinkDir::kUplink;
  TimeNs start_ns = 0;
  TimeNs end_ns = 0;  // exclusive
  double probability = 1.0;
  /// kReorder only: how long a matched packet is held back.
  TimeNs reorder_delay_ns = 0;
};

/// A link-outage window [start_ns, end_ns): the link is administratively
/// down and every packet traversing it is dropped by the fabric.
struct LinkDown {
  net::NodeId node = net::kInvalidNode;
  net::LinkDir dir = net::LinkDir::kUplink;
  TimeNs start_ns = 0;
  TimeNs end_ns = 0;  // exclusive
};

/// A switch-outage window [start_ns, end_ns): the switch is down for the
/// window, every packet arriving at it (or buffered on its ports) is
/// dropped as DropReason::kOutage, and ECMP steers inter-leaf flows away
/// from it while at least one spine lives (see Fabric::SetSwitchUp). On a
/// single-ToR fabric the only valid switch_id is 0 (the whole rack goes
/// dark).
struct SwitchDown {
  net::SwitchId switch_id = net::kInvalidSwitch;
  TimeNs start_ns = 0;
  TimeNs end_ns = 0;  // exclusive
};

/// A whole-node crash+restart window: both of the node's links go down at
/// crash_ns and come back at restart_ns, and node listeners fire so upper
/// layers model volatile-state loss (RPC session reset, DM lease
/// reclamation). restart_ns may equal the horizon to model "never
/// restarts within the run".
struct NodeCrash {
  net::NodeId node = net::kInvalidNode;
  TimeNs crash_ns = 0;
  TimeNs restart_ns = 0;
};

/// Shape of a randomized fault schedule (see FaultPlan::Randomized).
/// All times are virtual ns from the start of the schedule window.
struct ChaosProfile {
  /// Faults are scheduled inside [0, horizon_ns).
  TimeNs horizon_ns = 2 * kSecond;
  /// Links (both directions) eligible for packet faults and flaps.
  std::vector<net::NodeId> packet_fault_nodes;
  /// Nodes eligible for crash+restart (keep infrastructure nodes out).
  std::vector<net::NodeId> crash_nodes;
  int max_packet_faults = 6;
  int max_link_downs = 2;
  int max_crashes = 1;
  TimeNs min_burst_ns = 50 * kMicrosecond;
  TimeNs max_burst_ns = 5 * kMillisecond;
  TimeNs min_outage_ns = 200 * kMicrosecond;
  TimeNs max_outage_ns = 20 * kMillisecond;
  double min_probability = 0.05;
  double max_probability = 0.9;
  TimeNs max_reorder_delay_ns = 50 * kMicrosecond;
};

/// A declarative fault schedule: built by hand (exact virtual times, for
/// unit tests) or drawn from a seeded rng (Randomized, for the chaos
/// harness), then handed to FaultInjector::Schedule. Builder methods
/// return *this for chaining.
struct FaultPlan {
  std::vector<PacketFault> packet_faults;
  std::vector<LinkDown> link_downs;
  std::vector<SwitchDown> switch_downs;
  std::vector<NodeCrash> crashes;

  FaultPlan& Fault(FaultKind kind, net::NodeId node, net::LinkDir dir,
                   TimeNs start_ns, TimeNs end_ns, double probability = 1.0,
                   TimeNs reorder_delay_ns = 0);
  FaultPlan& DropWindow(net::NodeId node, net::LinkDir dir, TimeNs start_ns,
                        TimeNs end_ns, double probability = 1.0);
  FaultPlan& CorruptWindow(net::NodeId node, net::LinkDir dir,
                           TimeNs start_ns, TimeNs end_ns,
                           double probability = 1.0);
  FaultPlan& DuplicateWindow(net::NodeId node, net::LinkDir dir,
                             TimeNs start_ns, TimeNs end_ns,
                             double probability = 1.0);
  FaultPlan& ReorderWindow(net::NodeId node, net::LinkDir dir,
                           TimeNs start_ns, TimeNs end_ns, TimeNs delay_ns,
                           double probability = 1.0);
  FaultPlan& LinkOutage(net::NodeId node, net::LinkDir dir, TimeNs start_ns,
                        TimeNs end_ns);
  /// Takes the whole NIC down (both link directions) for the window.
  FaultPlan& NicDown(net::NodeId node, TimeNs start_ns, TimeNs end_ns);
  /// Takes a whole switch down for the window (leaf or spine by
  /// net::SwitchId; spine outages reroute, leaf outages strand the rack).
  FaultPlan& SwitchOutage(net::SwitchId switch_id, TimeNs start_ns,
                          TimeNs end_ns);
  FaultPlan& Crash(net::NodeId node, TimeNs crash_ns, TimeNs restart_ns);

  /// Shifts every time in the plan forward by `delta_ns` (e.g. to place a
  /// schedule authored relative to 0 after a warmup phase).
  FaultPlan& ShiftBy(TimeNs delta_ns);

  /// Latest end/restart time in the plan (0 when empty); after this
  /// instant the injector is quiescent again.
  TimeNs EndTime() const;

  /// Draws a fault schedule from a private Rng(seed) -- deliberately
  /// independent of the simulation's rng so the plan is a pure function
  /// of (seed, profile) and can be reproduced without replaying the run.
  static FaultPlan Randomized(uint64_t seed, const ChaosProfile& profile);
};

/// Lifecycle notifications delivered to node listeners.
enum class NodeEvent : uint8_t {
  kCrash = 0,    // node lost power: volatile state is gone
  kRestart = 1,  // node is back up with empty state
};

/// Fired at the exact virtual instant of a crash or restart.
using NodeListener = std::function<void(net::NodeId, NodeEvent)>;

/// Injector-side counters (also exported as `fault.*` registry metrics).
struct FaultStats {
  uint64_t dropped = 0;
  uint64_t corrupted = 0;
  uint64_t duplicated = 0;
  uint64_t reordered = 0;
  uint64_t crashes = 0;
  uint64_t restarts = 0;
  uint64_t switch_outages = 0;
};

/// Deterministic fault-injection engine. Attaches to a Fabric as its
/// FaultHook and drives fault windows off the simulation's virtual clock
/// (activation/deactivation are At() events, so boundaries are exact to
/// the nanosecond and identically-seeded runs replay bit-identically).
///
/// Layering: the injector lives above net (it needs Fabric and Packet),
/// and below rpc/dm recovery logic, which subscribes via AddNodeListener.
/// Construct it after the fabric and destroy it before (it detaches
/// itself on destruction).
class FaultInjector final : public net::FaultHook {
 public:
  explicit FaultInjector(net::Fabric* fabric);
  ~FaultInjector() override;

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Installs a plan: schedules an activation and a deactivation event
  /// per rule. Every window must lie in the future (start >= Now). May be
  /// called repeatedly; plans accumulate.
  void Schedule(const FaultPlan& plan);

  /// Subscribes to crash/restart notifications. Listeners run in
  /// registration order at the crash instant, before any post-crash
  /// packet is processed.
  void AddNodeListener(NodeListener listener);

  /// False inside a crash window of `node`.
  bool IsNodeUp(net::NodeId node) const;

  /// Number of currently-active packet-fault rules (diagnostics).
  size_t active_rule_count() const { return active_.size(); }

  const FaultStats& stats() const { return stats_; }

  // net::FaultHook:
  bool IsLinkUp(net::NodeId node, net::LinkDir dir) const override;
  net::FaultAction OnPacket(net::NodeId node, net::LinkDir dir,
                            net::Packet& pkt) override;

 private:
  struct LinkState {
    int down_depth = 0;  // >0 while any outage window covers the link
  };

  LinkState& link(net::NodeId node, net::LinkDir dir);
  void SetLinkDown(net::NodeId node, net::LinkDir dir, bool down);
  void SetSwitchDown(net::SwitchId switch_id, bool down);
  void OnCrash(net::NodeId node);
  void OnRestart(net::NodeId node);

  sim::Simulation* sim_;
  net::Fabric* fabric_;
  /// Active packet-fault rules, scanned per packet. Kept as a plain
  /// vector: chaos plans hold a handful of rules and scans must be
  /// deterministic. Activation pushes in event order; deactivation
  /// removes by identity.
  std::vector<const PacketFault*> active_;
  /// Owning storage for scheduled rules (stable addresses for active_).
  std::vector<std::unique_ptr<PacketFault>> rules_;
  /// Indexed [node][dir].
  std::vector<std::array<LinkState, 2>> links_;
  /// Nested-outage depth per switch (>0 while any window covers it).
  std::vector<int> switch_down_depth_;
  std::vector<bool> node_down_;
  std::vector<NodeListener> listeners_;
  FaultStats stats_;

  obs::Counter* m_dropped_;
  obs::Counter* m_corrupted_;
  obs::Counter* m_duplicated_;
  obs::Counter* m_reordered_;
  obs::Counter* m_crashes_;
  obs::Counter* m_restarts_;
  /// Registered lazily on the first switch outage so fabric-only plans
  /// keep their pre-topology metrics dumps byte-identical.
  obs::Counter* m_switch_outages_ = nullptr;
};

}  // namespace dmrpc::fault

#endif  // DMRPC_FAULT_FAULT_H_
