#ifndef DMRPC_NET_TOPOLOGY_H_
#define DMRPC_NET_TOPOLOGY_H_

#include <cstdint>
#include <string>

#include "net/packet.h"

namespace dmrpc::net {

/// Identifies one switch of the fabric. Indices [0, num_leaves) are the
/// leaves and [num_leaves, num_leaves+num_spines) are the spines; the
/// single-ToR rack is switch 0 alone.
using SwitchId = uint32_t;

/// Declarative description of the switch graph: a two-tier folded Clos
/// (spine/leaf). Hosts attach to leaf switches in contiguous blocks, every
/// leaf connects to every spine, and inter-leaf flows pick a spine by
/// deterministic ECMP hashing. The paper's rack -- every host under one
/// ToR switch -- is the one-leaf, zero-spine case with unbounded ports
/// (SingleTor(), and the default).
///
/// Wiring (see docs/TOPOLOGY.md for the full model):
///   - hosts are striped over leaves in contiguous blocks of
///     HostsPerLeaf() (the last leaf may be ragged);
///   - every leaf has one down-port per attached host and one up-port per
///     spine; every spine has one down-port per leaf;
///   - every port owns an egress queue of `port_queue_packets` packets
///     (0 = unbounded); arrivals beyond capacity are dropped and counted
///     under `net.drop_reason.queue_full`.
struct TopologyConfig {
  /// Hosts (NIC-bearing nodes) on the fabric.
  uint32_t num_hosts = 8;
  /// Spine switches (ECMP width between leaves). Zero only with a single
  /// leaf, which needs no route between leaves.
  uint32_t num_spines = 0;
  /// Leaf switches (racks).
  uint32_t num_leaves = 1;
  /// Egress queue capacity per switch port, in packets, counting the
  /// packet currently serializing onto the wire. 0 = unbounded.
  uint32_t port_queue_packets = 0;
  /// Salt mixed into the ECMP flow hash; varying it re-rolls every
  /// flow-to-spine assignment without touching the flows themselves.
  uint64_t ecmp_salt = 0x9e3779b97f4a7c15ull;

  /// The paper's rack: every host under one ToR switch (one leaf, no
  /// spines, unbounded ports).
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
  uint32_t NumSwitches() const { return num_leaves + num_spines; }

  /// First spine's SwitchId (spines follow the leaves).
  SwitchId FirstSpine() const { return num_leaves; }

  /// One-line human-readable form, e.g. "96h 2s x 8l q256".
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
