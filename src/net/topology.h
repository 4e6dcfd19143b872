#ifndef DMRPC_NET_TOPOLOGY_H_
#define DMRPC_NET_TOPOLOGY_H_

#include <cstdint>
#include <string>

#include "net/packet.h"

namespace dmrpc::net {

/// Shape of the simulated fabric.
enum class TopologyKind : uint8_t {
  /// One store-and-forward ToR switch with every host attached (the
  /// paper's rack testbed). The seed topology; byte-compatible with all
  /// pre-topology experiments.
  kSingleTor = 0,
  /// Two-tier folded Clos (spine/leaf): hosts attach to leaf switches in
  /// contiguous blocks, every leaf connects to every spine, and
  /// inter-leaf flows pick a spine by deterministic ECMP hashing.
  kClos = 1,
};

const char* TopologyKindName(TopologyKind kind);

/// Identifies one switch of the fabric. In a Clos topology, indices
/// [0, num_leaves) are the leaves and [num_leaves, num_leaves+num_spines)
/// are the spines; a single-ToR fabric has exactly switch 0.
using SwitchId = uint32_t;

/// Declarative description of the switch graph. A Fabric built from one
/// of these owns `num_hosts` NICs regardless of kind; the kind decides
/// how packets travel between them.
///
/// Clos wiring (see docs/TOPOLOGY.md for the full model):
///   - hosts are striped over leaves in contiguous blocks of
///     HostsPerLeaf() (the last leaf may be ragged);
///   - every leaf has one down-port per attached host and one up-port per
///     spine; every spine has one down-port per leaf;
///   - every port owns a finite egress queue of `port_queue_packets`
///     packets (0 = unbounded); arrivals beyond capacity are dropped and
///     counted under `net.drop_reason.queue_full`.
struct TopologyConfig {
  TopologyKind kind = TopologyKind::kSingleTor;
  /// Hosts (NIC-bearing nodes) on the fabric.
  uint32_t num_hosts = 8;
  /// Clos only: spine switches (ECMP width between leaves).
  uint32_t num_spines = 2;
  /// Clos only: leaf switches (racks).
  uint32_t num_leaves = 4;
  /// Egress queue capacity per switch port, in packets, counting the
  /// packet currently serializing onto the wire. 0 = unbounded (the
  /// single-ToR fabric always behaves as unbounded, preserving the seed
  /// model exactly).
  uint32_t port_queue_packets = 0;
  /// Salt mixed into the ECMP flow hash; varying it re-rolls every
  /// flow-to-spine assignment without touching the flows themselves.
  uint64_t ecmp_salt = 0x9e3779b97f4a7c15ull;

  /// The seed topology: every host under one ToR.
  static TopologyConfig SingleTor(uint32_t hosts);

  /// A spine/leaf Clos with finite per-port queues (capacity in packets;
  /// pass 0 for unbounded ports).
  static TopologyConfig Clos(uint32_t hosts, uint32_t spines, uint32_t leaves,
                             uint32_t queue_packets = 256);

  /// Hosts attached to each leaf (ceiling division; the last leaf may
  /// hold fewer).
  uint32_t HostsPerLeaf() const {
    return (num_hosts + num_leaves - 1) / num_leaves;
  }

  /// Leaf switch index of `host`.
  uint32_t LeafOf(NodeId host) const { return host / HostsPerLeaf(); }

  /// Total switches in the graph.
  uint32_t NumSwitches() const {
    return kind == TopologyKind::kClos ? num_leaves + num_spines : 1;
  }

  /// First spine's SwitchId (Clos; spines follow the leaves).
  SwitchId FirstSpine() const { return num_leaves; }

  /// One-line human-readable form, e.g. "clos 96h 2s x 8l q256".
  std::string ToString() const;
};

/// Deterministic, symmetric ECMP flow hash: the same value for a flow and
/// its reverse ((src,sp) <-> (dst,dp) swapped), so request and response
/// traffic of one RPC pin the same spine. Pure function of its inputs --
/// no rng, no per-fabric state -- so two identically-configured fabrics
/// route identically, run after run.
uint64_t EcmpFlowHash(NodeId src, Port src_port, NodeId dst, Port dst_port,
                      uint64_t salt);

}  // namespace dmrpc::net

#endif  // DMRPC_NET_TOPOLOGY_H_
