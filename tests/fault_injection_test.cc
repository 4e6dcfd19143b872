// Unit tests for the deterministic fault-injection subsystem: every
// primitive (drop, corrupt, duplicate, reorder, link outage, NIC outage,
// node crash), exact virtual-time window activation, and bit-identical
// replay under a seed.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "net/fabric.h"
#include "net/nic.h"
#include "net/packet.h"
#include "sim/simulation.h"

namespace dmrpc::fault {
namespace {

using net::LinkDir;
using net::NodeId;
using net::Packet;

Packet MakePacket(NodeId src, NodeId dst, size_t bytes = 64) {
  Packet p;
  p.src = src;
  p.dst = dst;
  p.src_port = 10;
  p.dst_port = 80;
  p.payload.assign(bytes, 0xab);
  return p;
}

class FaultInjectionTest : public ::testing::Test {
 protected:
  FaultInjectionTest()
      : sim_(1), fabric_(&sim_, net::NetworkConfig{}, 4), injector_(&fabric_) {
    fabric_.nic(1)->BindPort(80, &inbox_);
  }

  /// Sends `n` packets 0->1, spaced `gap_ns` apart starting at `start`.
  void SendBurst(int n, TimeNs start, TimeNs gap_ns) {
    for (int i = 0; i < n; ++i) {
      sim_.At(start + i * gap_ns,
              [this] { fabric_.nic(0)->Send(MakePacket(0, 1)); });
    }
  }

  sim::Simulation sim_;
  net::Fabric fabric_;
  FaultInjector injector_;
  sim::Channel<Packet> inbox_;
};

TEST_F(FaultInjectionTest, DropWindowDropsEveryMatchingPacket) {
  FaultPlan plan;
  plan.DropWindow(0, LinkDir::kUplink, 10000, 20000);
  injector_.Schedule(plan);
  // 3 before the window, 3 inside, 3 after.
  SendBurst(3, 0, 1000);
  SendBurst(3, 12000, 1000);
  SendBurst(3, 30000, 1000);
  sim_.Run();
  EXPECT_EQ(injector_.stats().dropped, 3u);
  EXPECT_EQ(fabric_.switch_stats().dropped_fault, 3u);
  EXPECT_EQ(fabric_.nic(1)->stats().rx_packets, 6u);
}

TEST_F(FaultInjectionTest, WindowBoundariesAreExact) {
  // start is inclusive, end is exclusive: a packet entering the switch at
  // exactly start_ns is hit, one at exactly end_ns is not. Packets reach
  // switch ingress one NIC traversal + one cable after Send: NIC overhead,
  // serialization of (64+46) wire bytes, then link propagation.
  const TimeNs kToSwitch =
      fabric_.config().nic_overhead_ns +
      TransferNs(fabric_.config().WireBytes(64),
                      fabric_.config().bytes_per_ns()) +
      fabric_.config().link_propagation_ns;
  FaultPlan plan;
  plan.DropWindow(0, LinkDir::kUplink, 10000, 20000);
  injector_.Schedule(plan);
  sim_.At(10000 - kToSwitch,
          [this] { fabric_.nic(0)->Send(MakePacket(0, 1)); });  // at start
  sim_.At(20000 - kToSwitch,
          [this] { fabric_.nic(0)->Send(MakePacket(0, 1)); });  // at end
  sim_.Run();
  EXPECT_EQ(injector_.stats().dropped, 1u);
  EXPECT_EQ(fabric_.nic(1)->stats().rx_packets, 1u);
}

TEST_F(FaultInjectionTest, DirectionsAreIndependent) {
  // An uplink fault on node 1 must not touch traffic delivered TO node 1.
  FaultPlan plan;
  plan.DropWindow(1, LinkDir::kUplink, 0, 1 * kMillisecond);
  injector_.Schedule(plan);
  SendBurst(5, 1000, 1000);  // 0 -> 1 traverses 1's downlink only
  sim_.Run();
  EXPECT_EQ(injector_.stats().dropped, 0u);
  EXPECT_EQ(fabric_.nic(1)->stats().rx_packets, 5u);
}

TEST_F(FaultInjectionTest, CorruptionIsDroppedByReceivingNic) {
  FaultPlan plan;
  plan.CorruptWindow(0, LinkDir::kUplink, 0, 1 * kMillisecond);
  injector_.Schedule(plan);
  SendBurst(4, 1000, 1000);
  sim_.Run();
  EXPECT_EQ(injector_.stats().corrupted, 4u);
  // Corrupt packets still traverse the fabric (they burn bandwidth) but
  // fail the FCS check at the receiving NIC.
  EXPECT_EQ(fabric_.switch_stats().forwarded, 4u);
  EXPECT_EQ(fabric_.nic(1)->stats().rx_fcs_errors, 4u);
  EXPECT_EQ(fabric_.nic(1)->stats().rx_packets, 0u);
  EXPECT_FALSE(inbox_.TryPop().has_value());
}

TEST_F(FaultInjectionTest, DuplicateDeliversAnExtraCopy) {
  FaultPlan plan;
  plan.DuplicateWindow(0, LinkDir::kUplink, 0, 1 * kMillisecond);
  injector_.Schedule(plan);
  SendBurst(3, 1000, 1000);
  sim_.Run();
  EXPECT_EQ(injector_.stats().duplicated, 3u);
  EXPECT_EQ(fabric_.switch_stats().duplicated_fault, 3u);
  EXPECT_EQ(fabric_.nic(1)->stats().rx_packets, 6u);
  // Clones carry a copy of the payload under a fresh packet id.
  auto a = inbox_.TryPop();
  auto b = inbox_.TryPop();
  ASSERT_TRUE(a.has_value() && b.has_value());
  ASSERT_EQ(a->payload.size(), b->payload.size());
  EXPECT_TRUE(std::equal(a->payload.begin(), a->payload.end(),
                         b->payload.begin()));
  EXPECT_NE(a->id, b->id);
}

TEST_F(FaultInjectionTest, ReorderHoldsPacketBackSoLaterTrafficOvertakes) {
  FaultPlan plan;
  // Only the first packet is in the window; it is held 30 us, long past
  // the second packet's whole journey.
  plan.ReorderWindow(0, LinkDir::kUplink, 0, 1200, 30 * kMicrosecond);
  injector_.Schedule(plan);
  Packet first = MakePacket(0, 1, 100);
  Packet second = MakePacket(0, 1, 200);
  sim_.At(0, [&] { fabric_.nic(0)->Send(first); });
  sim_.At(5000, [&] { fabric_.nic(0)->Send(second); });
  sim_.Run();
  EXPECT_EQ(injector_.stats().reordered, 1u);
  auto got1 = inbox_.TryPop();
  auto got2 = inbox_.TryPop();
  ASSERT_TRUE(got1.has_value() && got2.has_value());
  EXPECT_EQ(got1->payload.size(), 200u);  // second sent, first delivered
  EXPECT_EQ(got2->payload.size(), 100u);
}

TEST_F(FaultInjectionTest, ProbabilisticFaultHitsRoughlyTheConfiguredShare) {
  FaultPlan plan;
  plan.DropWindow(0, LinkDir::kUplink, 0, 100 * kMillisecond, 0.3);
  injector_.Schedule(plan);
  SendBurst(2000, 1000, 1000);
  sim_.Run();
  double rate = static_cast<double>(injector_.stats().dropped) / 2000.0;
  EXPECT_NEAR(rate, 0.3, 0.04);
}

TEST_F(FaultInjectionTest, LinkOutageDropsAndLiftsOnSchedule) {
  FaultPlan plan;
  plan.LinkOutage(1, LinkDir::kDownlink, 5000, 50000);
  injector_.Schedule(plan);
  EXPECT_TRUE(injector_.IsLinkUp(1, LinkDir::kDownlink));
  SendBurst(3, 10000, 1000);   // during the outage
  SendBurst(3, 60000, 1000);   // after it lifts
  sim_.Run();
  EXPECT_EQ(fabric_.switch_stats().dropped_link_down, 3u);
  EXPECT_EQ(fabric_.nic(1)->stats().rx_packets, 3u);
  EXPECT_TRUE(injector_.IsLinkUp(1, LinkDir::kDownlink));
}

TEST_F(FaultInjectionTest, OverlappingOutagesNestCorrectly) {
  // Two overlapping windows on the same link: it must stay down until the
  // LAST one lifts, not flap up when the first ends.
  FaultPlan plan;
  plan.LinkOutage(1, LinkDir::kDownlink, 1000, 20000);
  plan.LinkOutage(1, LinkDir::kDownlink, 10000, 40000);
  injector_.Schedule(plan);
  SendBurst(1, 25000, 0);  // first window over, second still active
  SendBurst(1, 50000, 0);  // both over
  sim_.Run();
  EXPECT_EQ(fabric_.switch_stats().dropped_link_down, 1u);
  EXPECT_EQ(fabric_.nic(1)->stats().rx_packets, 1u);
}

TEST_F(FaultInjectionTest, NicDownKillsBothDirections) {
  FaultPlan plan;
  plan.NicDown(0, 0, 1 * kMillisecond);
  injector_.Schedule(plan);
  sim::Channel<Packet> inbox0;
  fabric_.nic(0)->BindPort(80, &inbox0);
  SendBurst(2, 1000, 1000);  // 0 -> 1: dead uplink
  sim_.At(1000, [this] { fabric_.nic(2)->Send(MakePacket(2, 0)); });  // to 0
  sim_.Run();
  EXPECT_EQ(fabric_.switch_stats().dropped_link_down, 3u);
  EXPECT_EQ(fabric_.nic(1)->stats().rx_packets, 0u);
  EXPECT_FALSE(inbox0.TryPop().has_value());
}

TEST_F(FaultInjectionTest, CrashNotifiesListenersAndIsolatesTheNode) {
  std::vector<std::pair<NodeId, NodeEvent>> events;
  std::vector<TimeNs> when;
  injector_.AddNodeListener([&](NodeId node, NodeEvent ev) {
    events.emplace_back(node, ev);
    when.push_back(sim_.Now());
  });
  FaultPlan plan;
  plan.Crash(1, 10000, 50000);
  injector_.Schedule(plan);
  EXPECT_TRUE(injector_.IsNodeUp(1));
  SendBurst(2, 20000, 1000);  // while crashed
  SendBurst(2, 60000, 1000);  // after restart
  sim_.At(20000, [this] { EXPECT_FALSE(injector_.IsNodeUp(1)); });
  sim_.Run();
  EXPECT_TRUE(injector_.IsNodeUp(1));
  EXPECT_EQ(injector_.stats().crashes, 1u);
  EXPECT_EQ(injector_.stats().restarts, 1u);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0], (std::pair<NodeId, NodeEvent>{1, NodeEvent::kCrash}));
  EXPECT_EQ(events[1], (std::pair<NodeId, NodeEvent>{1, NodeEvent::kRestart}));
  EXPECT_EQ(when[0], 10000);  // exact virtual instants
  EXPECT_EQ(when[1], 50000);
  EXPECT_EQ(fabric_.switch_stats().dropped_link_down, 2u);
  EXPECT_EQ(fabric_.nic(1)->stats().rx_packets, 2u);
}

TEST_F(FaultInjectionTest, RulesDeactivateAndLeaveNoResidue) {
  FaultPlan plan;
  plan.DropWindow(0, LinkDir::kUplink, 1000, 2000)
      .CorruptWindow(0, LinkDir::kUplink, 1500, 2500)
      .LinkOutage(1, LinkDir::kDownlink, 1000, 3000)
      .Crash(2, 1000, 4000);
  injector_.Schedule(plan);
  sim_.At(1700, [this] { EXPECT_EQ(injector_.active_rule_count(), 2u); });
  sim_.Run();
  EXPECT_EQ(injector_.active_rule_count(), 0u);
  EXPECT_TRUE(injector_.IsLinkUp(1, LinkDir::kDownlink));
  EXPECT_TRUE(injector_.IsNodeUp(2));
  // Traffic after EndTime flows untouched.
  SendBurst(3, plan.EndTime() + 1000, 1000);
  sim_.Run();
  EXPECT_EQ(fabric_.nic(1)->stats().rx_packets, 3u);
}

TEST(FaultPlanTest, ShiftByMovesEveryWindow) {
  FaultPlan plan;
  plan.DropWindow(0, LinkDir::kUplink, 100, 200)
      .LinkOutage(1, LinkDir::kDownlink, 300, 400)
      .Crash(2, 500, 600);
  plan.ShiftBy(10000);
  EXPECT_EQ(plan.packet_faults[0].start_ns, 10100);
  EXPECT_EQ(plan.packet_faults[0].end_ns, 10200);
  EXPECT_EQ(plan.link_downs[0].start_ns, 10300);
  EXPECT_EQ(plan.crashes[0].crash_ns, 10500);
  EXPECT_EQ(plan.EndTime(), 10600);
}

TEST(FaultPlanTest, RandomizedIsAPureFunctionOfSeedAndProfile) {
  ChaosProfile prof;
  prof.packet_fault_nodes = {0, 1, 2};
  prof.crash_nodes = {0, 1};
  prof.max_crashes = 2;
  auto fingerprint = [&](uint64_t seed) {
    FaultPlan p = FaultPlan::Randomized(seed, prof);
    uint64_t h = 14695981039346656037ull;
    auto mix = [&h](uint64_t v) { h = (h ^ v) * 1099511628211ull; };
    for (const PacketFault& f : p.packet_faults) {
      mix(static_cast<uint64_t>(f.kind));
      mix(f.node);
      mix(static_cast<uint64_t>(f.dir));
      mix(static_cast<uint64_t>(f.start_ns));
      mix(static_cast<uint64_t>(f.end_ns));
      mix(static_cast<uint64_t>(f.probability * 1e9));
      mix(static_cast<uint64_t>(f.reorder_delay_ns));
    }
    for (const LinkDown& d : p.link_downs) {
      mix(d.node);
      mix(static_cast<uint64_t>(d.dir));
      mix(static_cast<uint64_t>(d.start_ns));
      mix(static_cast<uint64_t>(d.end_ns));
    }
    for (const NodeCrash& c : p.crashes) {
      mix(c.node);
      mix(static_cast<uint64_t>(c.crash_ns));
      mix(static_cast<uint64_t>(c.restart_ns));
    }
    return h;
  };
  EXPECT_EQ(fingerprint(42), fingerprint(42));
  EXPECT_NE(fingerprint(42), fingerprint(43));
}

TEST(FaultPlanTest, RandomizedRespectsProfileBounds) {
  ChaosProfile prof;
  prof.packet_fault_nodes = {3, 4};
  prof.crash_nodes = {3};
  prof.max_crashes = 1;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    FaultPlan p = FaultPlan::Randomized(seed, prof);
    EXPECT_LE(p.packet_faults.size(),
              static_cast<size_t>(prof.max_packet_faults));
    EXPECT_LE(p.link_downs.size(), static_cast<size_t>(prof.max_link_downs));
    EXPECT_LE(p.crashes.size(), static_cast<size_t>(prof.max_crashes));
    for (const PacketFault& f : p.packet_faults) {
      EXPECT_TRUE(f.node == 3 || f.node == 4);
      EXPECT_LT(f.start_ns, f.end_ns);
      EXPECT_LE(f.end_ns, prof.horizon_ns);
      EXPECT_GE(f.probability, prof.min_probability);
      EXPECT_LE(f.probability, prof.max_probability);
    }
    for (const NodeCrash& c : p.crashes) {
      EXPECT_EQ(c.node, 3u);
      EXPECT_LT(c.crash_ns, c.restart_ns);
      EXPECT_LE(c.restart_ns, prof.horizon_ns);
    }
  }
}

TEST(FaultDeterminismTest, SeededFaultRunsReplayBitIdentically) {
  auto run = []() {
    sim::Simulation sim(99);
    net::Fabric fabric(&sim, net::NetworkConfig{}, 3);
    FaultInjector injector(&fabric);
    ChaosProfile prof;
    prof.horizon_ns = 5 * kMillisecond;
    prof.packet_fault_nodes = {0, 1, 2};
    prof.crash_nodes = {2};
    injector.Schedule(FaultPlan::Randomized(99, prof));
    sim::Channel<Packet> inbox;
    fabric.nic(1)->BindPort(80, &inbox);
    sim.At(0, [&] {
      for (int i = 0; i < 500; ++i) {
        fabric.nic(0)->Send(MakePacket(0, 1, 64 + (i % 7) * 100));
      }
    });
    sim.Run();
    const FaultStats& st = injector.stats();
    return std::make_tuple(sim.Now(), sim.executed_events(), st.dropped,
                           st.corrupted, st.duplicated, st.reordered,
                           fabric.nic(1)->stats().rx_packets,
                           sim.DumpMetricsJson());
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace dmrpc::fault
