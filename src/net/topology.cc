#include "net/topology.h"

#include <algorithm>

#include "common/logging.h"

namespace dmrpc::net {

TopologyConfig TopologyConfig::SingleTor(uint32_t hosts) {
  DMRPC_CHECK_GT(hosts, 0u);
  TopologyConfig cfg;
  cfg.num_hosts = hosts;
  return cfg;
}

TopologyConfig TopologyConfig::Clos(uint32_t hosts, uint32_t spines,
                                    uint32_t leaves, uint32_t queue_packets) {
  DMRPC_CHECK_GT(hosts, 0u);
  DMRPC_CHECK_GT(spines, 0u);
  DMRPC_CHECK_GT(leaves, 0u);
  TopologyConfig cfg;
  cfg.num_hosts = hosts;
  cfg.num_spines = spines;
  cfg.num_leaves = leaves;
  cfg.port_queue_packets = queue_packets;
  return cfg;
}

std::string TopologyConfig::ToString() const {
  return std::to_string(num_hosts) + "h " + std::to_string(num_spines) +
         "s x " + std::to_string(num_leaves) + "l q" +
         std::to_string(port_queue_packets);
}

namespace {

/// SplitMix64 finalizer: a full-avalanche 64-bit mix.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

uint64_t EcmpFlowHash(NodeId src, Port src_port, NodeId dst, Port dst_port,
                      uint64_t salt) {
  // Hash each endpoint half independently, then combine order-free
  // (min/max), so the reverse flow lands on the same value.
  uint64_t a = Mix64(salt ^ ((static_cast<uint64_t>(src) << 16) | src_port));
  uint64_t b = Mix64(salt ^ ((static_cast<uint64_t>(dst) << 16) | dst_port));
  uint64_t lo = std::min(a, b);
  uint64_t hi = std::max(a, b);
  return Mix64(lo ^ (hi + 0x9e3779b97f4a7c15ull + (lo << 6) + (lo >> 2)));
}

}  // namespace dmrpc::net
