// Unit tests for the Clos/fat-tree fabric: topology math, deterministic
// symmetric ECMP, exact multi-hop latency decomposition, finite egress
// queue overflow accounting, spine/leaf outages with rerouting, the
// single-ToR rack as a one-leaf Clos, and a chaos-style RPC iteration
// across a scheduled switch outage that must replay bit-identically.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common/units.h"
#include "fault/fault.h"
#include "net/fabric.h"
#include "net/nic.h"
#include "net/packet.h"
#include "net/topology.h"
#include "packet_stages.h"
#include "rpc/rpc.h"
#include "sim/simulation.h"

namespace dmrpc::net {
namespace {

Packet MakePacket(NodeId src, NodeId dst, Port sport, Port dport,
                  size_t bytes) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.src_port = sport;
  p.dst_port = dport;
  p.payload.assign(bytes, 0xab);
  return p;
}

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 14695981039346656037ull;
  for (char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

TEST(TopologyConfigTest, LeafMath) {
  TopologyConfig topo = TopologyConfig::Clos(8, 2, 2);
  EXPECT_EQ(topo.HostsPerLeaf(), 4u);
  EXPECT_EQ(topo.LeafOf(0), 0u);
  EXPECT_EQ(topo.LeafOf(3), 0u);
  EXPECT_EQ(topo.LeafOf(4), 1u);
  EXPECT_EQ(topo.LeafOf(7), 1u);
  EXPECT_EQ(topo.NumSwitches(), 4u);
  EXPECT_EQ(topo.FirstSpine(), 2u);

  // Ragged tail: 10 hosts over 4 leaves -> ceil = 3 per leaf, last holds 1.
  TopologyConfig ragged = TopologyConfig::Clos(10, 2, 4);
  EXPECT_EQ(ragged.HostsPerLeaf(), 3u);
  EXPECT_EQ(ragged.LeafOf(8), 2u);
  EXPECT_EQ(ragged.LeafOf(9), 3u);

  TopologyConfig tor = TopologyConfig::SingleTor(8);
  EXPECT_EQ(tor.NumSwitches(), 1u);
  EXPECT_FALSE(tor.ToString().empty());
  EXPECT_FALSE(topo.ToString().empty());
}

TEST(TopologyConfigTest, SingleTorIsOneLeafWithoutSpines) {
  TopologyConfig tor = TopologyConfig::SingleTor(8);
  EXPECT_EQ(tor.num_hosts, 8u);
  EXPECT_EQ(tor.num_leaves, 1u);
  EXPECT_EQ(tor.num_spines, 0u);
  EXPECT_EQ(tor.port_queue_packets, 0u);  // unbounded
  EXPECT_EQ(tor.HostsPerLeaf(), 8u);
  EXPECT_EQ(tor.LeafOf(7), 0u);
  EXPECT_EQ(tor.NumSwitches(), 1u);
  EXPECT_EQ(tor.ToString(), "8h 0s x 1l q0");
  EXPECT_EQ(TopologyConfig::Clos(96, 2, 8).ToString(), "96h 2s x 8l q256");
  // The default topology is the same rack.
  TopologyConfig def;
  EXPECT_EQ(def.ToString(), tor.ToString());
}

TEST(TopologyConfigDeathTest, LeavesWithoutSpinesAreRejected) {
  TopologyConfig topo = TopologyConfig::SingleTor(8);
  topo.num_leaves = 2;
  sim::Simulation sim(1);
  EXPECT_DEATH(Fabric(&sim, NetworkConfig{}, topo), "no route between");
}

TEST(EcmpHashTest, SymmetricUnderEndpointSwap) {
  for (uint64_t salt : {0ull, 0x9e3779b97f4a7c15ull, 12345ull}) {
    for (uint32_t i = 0; i < 200; ++i) {
      NodeId src = i * 7 % 96, dst = (i * 13 + 5) % 96;
      Port sp = static_cast<Port>(1000 + i), dp = static_cast<Port>(80 + i);
      EXPECT_EQ(EcmpFlowHash(src, sp, dst, dp, salt),
                EcmpFlowHash(dst, dp, src, sp, salt));
    }
  }
}

TEST(EcmpHashTest, SaltRerollsAssignments) {
  int differing = 0;
  for (uint32_t i = 0; i < 200; ++i) {
    uint64_t a = EcmpFlowHash(i, 10, i + 50, 80, 1);
    uint64_t b = EcmpFlowHash(i, 10, i + 50, 80, 2);
    if (a % 4 != b % 4) differing++;
  }
  EXPECT_GT(differing, 50);  // ~3/4 of flows should move between 4 spines
}

TEST(ClosFabricTest, SpineChoiceDeterministicAcrossFabrics) {
  TopologyConfig topo = TopologyConfig::Clos(96, 4, 8);
  sim::Simulation sim_a(1), sim_b(2);  // different seeds: routing is rng-free
  Fabric a(&sim_a, NetworkConfig{}, topo);
  Fabric b(&sim_b, NetworkConfig{}, topo);
  std::set<SwitchId> seen;
  for (uint32_t i = 0; i < 500; ++i) {
    NodeId src = i % 96, dst = (i * 31 + 13) % 96;
    Port sp = static_cast<Port>(i + 1), dp = 80;
    SwitchId pick = a.SpineForFlow(src, sp, dst, dp);
    EXPECT_EQ(pick, b.SpineForFlow(src, sp, dst, dp));
    // Symmetry end to end: the response flow pins the same spine.
    EXPECT_EQ(pick, a.SpineForFlow(dst, dp, src, sp));
    seen.insert(pick);
  }
  EXPECT_EQ(seen.size(), 4u);  // every spine carries some flows
}

class ClosPathTest : public ::testing::Test {
 protected:
  // 8 hosts over 2 leaves (0-3 on leaf 0, 4-7 on leaf 1), 2 spines,
  // unbounded port queues so timing tests see no queueing.
  ClosPathTest()
      : sim_(3), fabric_(&sim_, NetworkConfig{}, TopologyConfig::Clos(8, 2, 2, 0)) {}

  TimeNs DeliveredAt(NodeId src, NodeId dst, size_t bytes) {
    sim_.tracer().set_enabled(true);
    sim::Channel<Packet> inbox;
    fabric_.nic(dst)->BindPort(80, &inbox);
    sim_.At(0, [&] { fabric_.nic(src)->Send(MakePacket(src, dst, 10, 80, bytes)); });
    sim_.Run();
    TimeNs delivered = -1;
    for (const obs::TraceRecord& ev :
         PacketStages(sim_.tracer(), TraceStage::kDelivered)) {
      delivered = ev.time;
    }
    fabric_.nic(dst)->UnbindPort(80);
    EXPECT_TRUE(inbox.TryPop().has_value());
    return delivered;
  }

  sim::Simulation sim_;
  Fabric fabric_;
};

TEST_F(ClosPathTest, LeafLocalLatencyIsTwoSerializationsOneSwitch) {
  const NetworkConfig& cfg = fabric_.config();
  TimeNs ser = TransferNs(cfg.WireBytes(500), cfg.bytes_per_ns());
  // NIC (overhead + serialize) -> cable -> leaf egress serialize ->
  // forwarding latency + cable to the host.
  EXPECT_EQ(DeliveredAt(0, 1, 500),
            cfg.nic_overhead_ns + 2 * ser + cfg.switch_latency_ns +
                2 * cfg.link_propagation_ns);
  EXPECT_EQ(sim_.metrics().CounterValue("net.fabric.leaf_local"), 1u);
  EXPECT_EQ(sim_.metrics().CounterValue("net.fabric.spine_hops"), 0u);
}

TEST_F(ClosPathTest, CrossLeafLatencyAddsTwoHops) {
  const NetworkConfig& cfg = fabric_.config();
  TimeNs ser = TransferNs(cfg.WireBytes(500), cfg.bytes_per_ns());
  // NIC + 4 serializations (NIC, leaf up, spine, leaf down), 3 switch
  // forwarding latencies, 4 cables.
  EXPECT_EQ(DeliveredAt(0, 4, 500),
            cfg.nic_overhead_ns + 4 * ser + 3 * cfg.switch_latency_ns +
                4 * cfg.link_propagation_ns);
  EXPECT_EQ(sim_.metrics().CounterValue("net.fabric.spine_hops"), 1u);
  EXPECT_EQ(fabric_.switch_stats().forwarded, 3u);  // leaf, spine, leaf
}

TEST(ClosQueueTest, OverflowDropsAreAccountedExactly) {
  sim::Simulation sim(5);
  TopologyConfig topo = TopologyConfig::Clos(8, 2, 2, 2);  // 2-packet ports
  Fabric fabric(&sim, NetworkConfig{}, topo);
  sim::Channel<Packet> inbox;
  fabric.nic(4)->BindPort(80, &inbox);
  // Three leaf-0 hosts blast jumbo packets at host 4: its leaf-1
  // down-port drains at 1/3rd of the aggregate arrival rate, so the
  // 2-packet queue must overflow.
  const int kPerSender = 8;
  for (NodeId src : {0u, 1u, 2u}) {
    sim.At(0, [&fabric, src] {
      for (int i = 0; i < kPerSender; ++i) {
        fabric.nic(src)->Send(MakePacket(src, 4, 10 + src, 80, 4000));
      }
    });
  }
  sim.Run();
  uint64_t delivered = fabric.nic(4)->stats().rx_packets;
  const SwitchStats& st = fabric.switch_stats();
  EXPECT_GT(st.dropped_queue_full, 0u);
  EXPECT_EQ(delivered + st.dropped_queue_full, 3u * kPerSender);
  // The distinct drop-reason counter matches the aggregate stat.
  EXPECT_EQ(sim.metrics().CounterValue("net.drop_reason.queue_full"),
            st.dropped_queue_full);
  // No port ever exceeded its capacity, and at least one ran full.
  uint32_t deepest = 0;
  uint64_t port_drops = 0;
  for (const PortStat& ps : fabric.PortStats()) {
    EXPECT_LE(ps.max_depth, 2u);
    deepest = std::max(deepest, ps.max_depth);
    port_drops += ps.dropped_full;
  }
  EXPECT_EQ(deepest, 2u);
  EXPECT_EQ(fabric.max_port_depth(), 2u);
  EXPECT_EQ(port_drops, st.dropped_queue_full);
}

TEST(ClosOutageTest, SpineOutageReroutesAndRestores) {
  sim::Simulation sim(7);
  TopologyConfig topo = TopologyConfig::Clos(8, 2, 2, 0);
  Fabric fabric(&sim, NetworkConfig{}, topo);
  SwitchId preferred = fabric.SpineForFlow(0, 10, 4, 80);
  SwitchId other = preferred == topo.FirstSpine() ? topo.FirstSpine() + 1
                                                  : topo.FirstSpine();
  fabric.SetSwitchUp(preferred, false);
  EXPECT_FALSE(fabric.switch_up(preferred));
  EXPECT_EQ(fabric.SpineForFlow(0, 10, 4, 80), other);

  // Traffic still flows over the surviving spine.
  sim::Channel<Packet> inbox;
  fabric.nic(4)->BindPort(80, &inbox);
  sim.At(0, [&] { fabric.nic(0)->Send(MakePacket(0, 4, 10, 80, 100)); });
  sim.Run();
  EXPECT_EQ(fabric.nic(4)->stats().rx_packets, 1u);
  EXPECT_EQ(fabric.switch_stats().dropped_switch_down, 0u);

  fabric.SetSwitchUp(preferred, true);
  EXPECT_EQ(fabric.SpineForFlow(0, 10, 4, 80), preferred);
}

TEST(ClosOutageTest, AllSpinesDownDropsInterLeafOnly) {
  sim::Simulation sim(7);
  TopologyConfig topo = TopologyConfig::Clos(8, 2, 2, 0);
  Fabric fabric(&sim, NetworkConfig{}, topo);
  fabric.SetSwitchUp(topo.FirstSpine(), false);
  fabric.SetSwitchUp(topo.FirstSpine() + 1, false);
  EXPECT_EQ(fabric.SpineForFlow(0, 10, 4, 80), kInvalidSwitch);

  sim::Channel<Packet> far, near;
  fabric.nic(4)->BindPort(80, &far);
  fabric.nic(1)->BindPort(80, &near);
  sim.At(0, [&] {
    fabric.nic(0)->Send(MakePacket(0, 4, 10, 80, 100));  // needs a spine
    fabric.nic(0)->Send(MakePacket(0, 1, 11, 80, 100));  // leaf-local
  });
  sim.Run();
  EXPECT_EQ(fabric.nic(4)->stats().rx_packets, 0u);
  EXPECT_EQ(fabric.nic(1)->stats().rx_packets, 1u);
  EXPECT_EQ(fabric.switch_stats().dropped_switch_down, 1u);
  EXPECT_EQ(sim.metrics().CounterValue("net.drop_reason.outage"), 1u);
}

TEST(ClosOutageTest, LeafOutageDropsItsRack) {
  sim::Simulation sim(7);
  TopologyConfig topo = TopologyConfig::Clos(8, 2, 2, 0);
  Fabric fabric(&sim, NetworkConfig{}, topo);
  fabric.SetSwitchUp(0, false);  // leaf 0 down
  sim::Channel<Packet> inbox;
  fabric.nic(1)->BindPort(80, &inbox);
  sim.At(0, [&] { fabric.nic(0)->Send(MakePacket(0, 1, 10, 80, 100)); });
  sim.Run();
  EXPECT_EQ(fabric.nic(1)->stats().rx_packets, 0u);
  EXPECT_EQ(fabric.switch_stats().dropped_switch_down, 1u);
}

// The paper's rack: one ToR, built as a one-leaf Clos with no spines.

uint64_t PortEnqueuedSum(const Fabric& fabric) {
  uint64_t sum = 0;
  for (const PortStat& ps : fabric.PortStats()) sum += ps.enqueued;
  return sum;
}

/// Hosts 0, 2 and 3 each send `per_sender` jumbo packets to host 1 at
/// t = 0: three NICs outpace the ToR's one port towards host 1.
void IncastToHostOne(sim::Simulation* sim, Fabric* fabric, int per_sender) {
  for (NodeId src : {0u, 2u, 3u}) {
    sim->At(0, [fabric, src, per_sender] {
      for (int i = 0; i < per_sender; ++i) {
        fabric->nic(src)->Send(MakePacket(src, 1, 10 + src, 80, 4000));
      }
    });
  }
}

TEST(SingleTorFabricTest, PortStatsListOnePortPerHost) {
  sim::Simulation sim(5);
  Fabric fabric(&sim, NetworkConfig{}, 4);
  sim::Channel<Packet> to_one, to_zero;
  fabric.nic(1)->BindPort(80, &to_one);
  fabric.nic(0)->BindPort(80, &to_zero);
  IncastToHostOne(&sim, &fabric, 8);
  sim.At(0, [&] {
    fabric.nic(1)->Send(MakePacket(1, 0, 10, 80, 100));
    fabric.nic(1)->Send(MakePacket(1, 0, 10, 80, 100));
  });
  sim.Run();
  std::vector<PortStat> ports = fabric.PortStats();
  ASSERT_EQ(ports.size(), 4u);
  uint32_t deepest = 0;
  for (uint32_t i = 0; i < ports.size(); ++i) {
    EXPECT_EQ(ports[i].switch_id, 0u);
    EXPECT_FALSE(ports[i].is_spine);
    EXPECT_EQ(ports[i].port, i);
    EXPECT_EQ(ports[i].dropped_full, 0u);  // unbounded
    deepest = std::max(deepest, ports[i].max_depth);
  }
  EXPECT_EQ(ports[0].enqueued, 2u);
  EXPECT_EQ(ports[1].enqueued, 24u);
  EXPECT_EQ(PortEnqueuedSum(fabric), fabric.switch_stats().forwarded);
  // The incast queues up behind host 1's port, and the fabric-wide
  // watermark is that port's.
  EXPECT_GT(ports[1].max_depth, 1u);
  EXPECT_EQ(ports[1].max_depth, deepest);
  EXPECT_EQ(fabric.max_port_depth(), deepest);
}

TEST(SingleTorFabricTest, MetricsDumpHasNoMultiSwitchNames) {
  sim::Simulation tor_sim(1);
  Fabric tor(&tor_sim, NetworkConfig{}, 4);
  sim::Channel<Packet> inbox;
  tor.nic(1)->BindPort(80, &inbox);
  tor_sim.At(0, [&] { tor.nic(0)->Send(MakePacket(0, 1, 10, 80, 100)); });
  tor_sim.Run();
  ASSERT_EQ(tor.nic(1)->stats().rx_packets, 1u);
  EXPECT_EQ(tor_sim.DumpMetricsJson().find("net.fabric."), std::string::npos);

  sim::Simulation clos_sim(1);
  Fabric clos(&clos_sim, NetworkConfig{}, TopologyConfig::Clos(8, 2, 2));
  std::string dump = clos_sim.DumpMetricsJson();
  for (const char* name :
       {"net.fabric.spine_hops", "net.fabric.leaf_local",
        "net.fabric.port_enqueued", "net.fabric.max_port_depth"}) {
    EXPECT_NE(dump.find(name), std::string::npos) << name;
  }
}

TEST(SingleTorFabricTest, SwitchDownDropsArrivalsAndBufferedPackets) {
  sim::Simulation sim(5);
  Fabric fabric(&sim, NetworkConfig{}, 4);
  sim::Channel<Packet> inbox;
  fabric.nic(1)->BindPort(80, &inbox);
  const int kPerSender = 8;
  const int kAfterRecovery = 5;
  const TimeNs down_at = 3 * kMicrosecond;
  const TimeNs up_at = 20 * kMicrosecond;
  IncastToHostOne(&sim, &fabric, kPerSender);
  uint64_t buffered_at_down = 0;
  sim.At(down_at, [&] {
    buffered_at_down =
        PortEnqueuedSum(fabric) - fabric.switch_stats().forwarded;
    fabric.SetSwitchUp(0, false);
    EXPECT_FALSE(fabric.switch_up(0));
  });
  sim.At(up_at, [&] {
    fabric.SetSwitchUp(0, true);
    for (int i = 0; i < kAfterRecovery; ++i) {
      fabric.nic(0)->Send(MakePacket(0, 1, 10, 80, 4000));
    }
  });
  sim.tracer().set_enabled(true);
  sim.Run();
  int delivered_after_up = 0;
  for (const obs::TraceRecord& ev :
       PacketStages(sim.tracer(), TraceStage::kDelivered)) {
    if (ev.time > up_at) delivered_after_up++;
  }
  const SwitchStats& st = fabric.switch_stats();
  uint64_t sent = 3 * kPerSender + kAfterRecovery;
  uint64_t enqueued = PortEnqueuedSum(fabric);
  ASSERT_LE(enqueued, sent);
  ASSERT_GE(enqueued, st.forwarded);
  // Arrivals while the ToR was down never reached a port queue, and the
  // packets it held when it went down never left (bar the one already
  // serializing).
  uint64_t dropped_on_arrival = sent - enqueued;
  uint64_t dropped_buffered = enqueued - st.forwarded;
  EXPECT_GT(buffered_at_down, 2u);
  EXPECT_GT(dropped_on_arrival, 0u);
  EXPECT_GT(dropped_buffered, 0u);
  EXPECT_EQ(st.dropped_switch_down, dropped_on_arrival + dropped_buffered);
  EXPECT_EQ(sim.metrics().CounterValue("net.drop_reason.outage"),
            st.dropped_switch_down);
  EXPECT_EQ(fabric.nic(1)->stats().rx_packets, st.forwarded);
  EXPECT_EQ(delivered_after_up, kAfterRecovery);  // traffic resumes
}

// Chaos-style iteration: RPC traffic runs across a scheduled spine
// outage; retransmission rides the reroute, every call completes, and the
// whole scenario replays bit-identically under the same seed.
TEST(ClosChaosTest, RpcTrafficSurvivesSpineOutageDeterministically) {
  auto run_once = [] {
    sim::Simulation sim(7);
    TopologyConfig topo = TopologyConfig::Clos(8, 2, 2, 64);
    Fabric fabric(&sim, NetworkConfig{}, topo);
    fault::FaultInjector injector(&fabric);
    fault::FaultPlan plan;
    plan.SwitchOutage(topo.FirstSpine(), 200 * kMicrosecond,
                      600 * kMicrosecond);
    injector.Schedule(plan);

    rpc::Rpc server(&fabric, 4, 100);
    rpc::Rpc client(&fabric, 0, 200);
    server.RegisterHandler(
        1, [](rpc::ReqContext, rpc::MsgBuffer req) -> sim::Task<rpc::MsgBuffer> {
          uint64_t v = req.Read<uint64_t>();
          rpc::MsgBuffer resp;
          resp.Append<uint64_t>(v * 2);
          co_return resp;
        });
    int ok = 0;
    auto driver = [&]() -> sim::Task<> {
      auto sid = co_await client.Connect(4, 100);
      if (!sid.ok()) co_return;
      for (uint64_t i = 0; i < 20; ++i) {
        rpc::MsgBuffer req;
        req.Append<uint64_t>(i);
        auto resp = co_await client.Call(*sid, 1, std::move(req));
        if (resp.ok() && resp->Read<uint64_t>() == i * 2) ok++;
        co_await sim::Delay(50 * kMicrosecond);
      }
    };
    sim.Spawn(driver());
    sim.RunFor(100 * kMillisecond);
    return std::make_tuple(ok, injector.stats().switch_outages,
                           sim.executed_events(),
                           Fnv1a(sim.DumpMetricsJson()));
  };
  auto first = run_once();
  auto second = run_once();
  EXPECT_EQ(std::get<0>(first), 20);  // every call completed
  EXPECT_EQ(std::get<1>(first), 1u);  // exactly one outage window fired
  EXPECT_EQ(first, second);           // bit-identical replay
}

}  // namespace
}  // namespace dmrpc::net
