#ifndef DMRPC_NET_PACKET_H_
#define DMRPC_NET_PACKET_H_

#include <cstdint>
#include <vector>

#include "obs/trace_context.h"
#include "sim/buffer_pool.h"

namespace dmrpc::net {

/// Identifies a host (compute server, DM server, ...) on the fabric.
using NodeId = uint32_t;

/// UDP-style port identifying an endpoint within a host.
using Port = uint16_t;

inline constexpr NodeId kInvalidNode = 0xffffffff;

/// A datagram on the simulated Ethernet fabric.
///
/// The payload carries real bytes: the RPC layer serializes message
/// headers and argument data into it, so pass-by-value costs are incurred
/// byte-for-byte exactly as on a real wire. The bytes live in a
/// refcounted slab leased from the owning simulation's BufferPool, so
/// moving a packet hop-by-hop (NIC -> switch -> NIC) never copies or
/// reallocates, and dropping it anywhere returns the slab to the pool.
struct Packet {
  NodeId src = kInvalidNode;
  NodeId dst = kInvalidNode;
  Port src_port = 0;
  Port dst_port = 0;
  /// Set by the fault layer to model in-flight corruption: the frame
  /// check sequence no longer matches, so the receiving NIC discards the
  /// frame (counted in NicStats::rx_fcs_errors) instead of delivering it.
  /// Kept out of the wire format on purpose -- the FCS is already part of
  /// NetworkConfig::wire_header_bytes, and real corrupted frames never
  /// reach software either. Sits in the padding after the ports: every
  /// byte of Packet is carried by the fabric's per-hop closures, which
  /// must fit sim::SmallFn's inline buffer.
  bool fcs_bad = false;
  /// Monotonic per-fabric id for tracing and loss injection hooks.
  uint64_t id = 0;
  /// The request trace this packet belongs to (copied from the RPC
  /// header at build time). The NIC and switch pumps serve packets from
  /// many requests interleaved, so the causal link for their wire-time
  /// spans must ride on the packet, not on ambient coroutine context.
  /// Simulator-side metadata only -- the wire image is unaffected.
  obs::TraceContext trace;
  /// Head buffer: always holds at least the protocol header for packets
  /// built by the RPC layer; packets built elsewhere (tests, tools) may
  /// carry their whole frame here contiguously.
  sim::PooledBuf payload;
  /// Scatter-gather continuation of the frame after `payload`: payload
  /// bytes carried as refcounted sub-slices of the sender's message
  /// chain. Empty (no allocation) for control packets and contiguous
  /// frames. Wire accounting (NIC serialization, metrics, traces) uses
  /// payload_size(), which spans both parts -- the simulated wire image
  /// is the concatenation, byte-identical to a contiguous frame.
  std::vector<sim::BufSlice> frags;

  size_t payload_size() const {
    size_t n = payload.size();
    for (const sim::BufSlice& f : frags) n += f.size();
    return n;
  }
};

}  // namespace dmrpc::net

#endif  // DMRPC_NET_PACKET_H_
