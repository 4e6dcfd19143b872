#ifndef DMRPC_NET_CONFIG_H_
#define DMRPC_NET_CONFIG_H_

#include <cstdint>

#include "common/units.h"

namespace dmrpc::net {

/// Timing and sizing model of the datacenter fabric. Defaults are
/// calibrated to the paper's testbed: 100 GbE ConnectX-5 NICs under a
/// single ToR switch (see DESIGN.md section 4).
struct NetworkConfig {
  /// Per-port link bandwidth.
  double link_gbps = 100.0;
  /// One-way propagation delay of a single cable.
  TimeNs link_propagation_ns = 200;
  /// Store-and-forward + lookup latency inside the ToR switch.
  TimeNs switch_latency_ns = 300;
  /// Per-packet NIC processing (DMA descriptor, doorbell) on each side.
  TimeNs nic_overhead_ns = 150;
  /// Maximum payload bytes per datagram (jumbo-frame class, as eRPC uses).
  uint32_t mtu_bytes = 4096;
  /// Fixed per-packet wire overhead (Ethernet + IP + UDP headers).
  uint32_t wire_header_bytes = 46;

  double bytes_per_ns() const { return GbpsToBytesPerNs(link_gbps); }

  /// Wire occupation of a packet with `payload` bytes.
  uint64_t WireBytes(uint64_t payload) const {
    return payload + wire_header_bytes;
  }
};

}  // namespace dmrpc::net

#endif  // DMRPC_NET_CONFIG_H_
