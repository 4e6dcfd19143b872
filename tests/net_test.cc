#include <gtest/gtest.h>

#include <vector>

#include "net/fabric.h"
#include "net/nic.h"
#include "net/packet.h"
#include "obs/trace_analysis.h"
#include "packet_stages.h"
#include "sim/simulation.h"
#include "uniform_loss.h"

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

class FabricTest : public ::testing::Test {
 protected:
  FabricTest() : sim_(1), fabric_(&sim_, NetworkConfig{}, 4) {}

  sim::Simulation sim_;
  Fabric fabric_;
};

TEST_F(FabricTest, DeliversToBoundPort) {
  sim::Channel<Packet> inbox;
  fabric_.nic(1)->BindPort(80, &inbox);
  sim_.At(0, [&] { fabric_.nic(0)->Send(MakePacket(0, 1, 10, 80, 100)); });
  sim_.Run();
  auto pkt = inbox.TryPop();
  ASSERT_TRUE(pkt.has_value());
  EXPECT_EQ(pkt->src, 0u);
  EXPECT_EQ(pkt->payload.size(), 100u);
}

TEST_F(FabricTest, UnboundPortCountsDrop) {
  sim_.At(0, [&] { fabric_.nic(0)->Send(MakePacket(0, 1, 10, 81, 50)); });
  sim_.Run();
  EXPECT_EQ(fabric_.nic(1)->stats().rx_dropped_no_listener, 1u);
}

TEST_F(FabricTest, OneWayLatencyMatchesModel) {
  // 100B packet at 100 Gbps: two serializations of (100+46)B ≈ 12 ns each,
  // 150 ns NIC, 300 ns switch, 2x200 ns propagation.
  sim::Channel<Packet> inbox;
  fabric_.nic(1)->BindPort(80, &inbox);
  TimeNs sent = 0, got = -1;
  sim_.At(0, [&] {
    sent = sim_.Now();
    fabric_.nic(0)->Send(MakePacket(0, 1, 10, 80, 100));
  });
  auto waiter = [](sim::Channel<Packet>* inbox, TimeNs* got) -> sim::Task<> {
    (void)co_await inbox->Pop();
    *got = sim::Simulation::Current()->Now();
  };
  sim_.Spawn(waiter(&inbox, &got));
  sim_.Run();
  TimeNs expect = 150 + 12 + 200 + 300 + 12 + 200;
  EXPECT_NEAR(static_cast<double>(got - sent), expect, 3.0);
}

TEST_F(FabricTest, BandwidthBoundsThroughput) {
  // 1000 x 4 KiB packets over one 100 Gbps link: wire time alone is
  // 1000 * (4096+46)/12.5 = ~331 us; delivery must take at least that.
  sim::Channel<Packet> inbox;
  fabric_.nic(1)->BindPort(80, &inbox);
  sim_.At(0, [&] {
    for (int i = 0; i < 1000; ++i) {
      fabric_.nic(0)->Send(MakePacket(0, 1, 10, 80, 4096));
    }
  });
  sim_.Run();
  EXPECT_EQ(fabric_.nic(1)->stats().rx_packets, 1000u);
  EXPECT_GE(sim_.Now(), 331000);
  EXPECT_LT(sim_.Now(), 500000);
}

TEST_F(FabricTest, FlowsShareEgressPort) {
  // Two senders to one receiver: the receiver's switch port serializes
  // both flows, so the total time doubles vs. a single sender.
  sim::Channel<Packet> inbox;
  fabric_.nic(2)->BindPort(80, &inbox);
  sim_.At(0, [&] {
    for (int i = 0; i < 500; ++i) {
      fabric_.nic(0)->Send(MakePacket(0, 2, 10, 80, 4096));
      fabric_.nic(1)->Send(MakePacket(1, 2, 11, 80, 4096));
    }
  });
  sim_.Run();
  EXPECT_EQ(fabric_.nic(2)->stats().rx_packets, 1000u);
  EXPECT_GE(sim_.Now(), 331000);
}

TEST_F(FabricTest, StatsCountBytes) {
  sim::Channel<Packet> inbox;
  fabric_.nic(1)->BindPort(80, &inbox);
  sim_.At(0, [&] {
    fabric_.nic(0)->Send(MakePacket(0, 1, 10, 80, 300));
    fabric_.nic(0)->Send(MakePacket(0, 1, 10, 80, 200));
  });
  sim_.Run();
  EXPECT_EQ(fabric_.nic(0)->stats().tx_packets, 2u);
  EXPECT_EQ(fabric_.nic(0)->stats().tx_bytes, 500u);
  EXPECT_EQ(fabric_.nic(1)->stats().rx_bytes, 500u);
  EXPECT_EQ(fabric_.switch_stats().forwarded, 2u);
}

TEST_F(FabricTest, DropFilterDropsSelectedPackets) {
  sim::Channel<Packet> inbox;
  fabric_.nic(1)->BindPort(80, &inbox);
  int seen = 0;
  fabric_.set_drop_filter([&seen](const Packet&) { return ++seen <= 2; });
  sim_.At(0, [&] {
    for (int i = 0; i < 5; ++i) {
      fabric_.nic(0)->Send(MakePacket(0, 1, 10, 80, 64));
    }
  });
  sim_.Run();
  EXPECT_EQ(fabric_.switch_stats().dropped_loss, 2u);
  EXPECT_EQ(fabric_.nic(1)->stats().rx_packets, 3u);
}

TEST(FabricLossTest, RandomLossMatchesProbability) {
  sim::Simulation sim(7);
  Fabric fabric(&sim, NetworkConfig{}, 2);
  fault::FaultInjector loss(&fabric);
  loss.Schedule(UniformLoss(&fabric, 0.1, 1 * kSecond));
  sim::Channel<Packet> inbox;
  fabric.nic(1)->BindPort(80, &inbox);
  sim.At(0, [&] {
    for (int i = 0; i < 5000; ++i) {
      fabric.nic(0)->Send(MakePacket(0, 1, 10, 80, 64));
    }
  });
  sim.Run();
  double loss_rate =
      static_cast<double>(fabric.switch_stats().dropped_fault) / 5000.0;
  EXPECT_NEAR(loss_rate, 0.1, 0.02);
}

TEST(FabricDeterminismTest, IdenticalRunsProduceIdenticalTimelines) {
  auto run = []() {
    sim::Simulation sim(1234);
    Fabric fabric(&sim, NetworkConfig{}, 3);
    fault::FaultInjector loss(&fabric);
    loss.Schedule(UniformLoss(&fabric, 0.05, 1 * kSecond));
    sim::Channel<Packet> inbox;
    fabric.nic(2)->BindPort(9, &inbox);
    sim.tracer().set_enabled(true);
    sim.At(0, [&] {
      for (int i = 0; i < 200; ++i) {
        fabric.nic(0)->Send(MakePacket(0, 2, 1, 9, 128));
        fabric.nic(1)->Send(MakePacket(1, 2, 1, 9, 256));
      }
    });
    sim.Run();
    // The loss window's end keeps the clock running past the traffic, so
    // compare the last delivery instant rather than the final clock.
    TimeNs last_delivery = 0;
    for (const obs::TraceRecord& ev :
         PacketStages(sim.tracer(), TraceStage::kDelivered)) {
      last_delivery = ev.time;
    }
    return std::make_tuple(last_delivery, sim.executed_events(),
                           fabric.switch_stats().dropped_fault);
  };
  EXPECT_EQ(run(), run());
}

TEST_F(FabricTest, TraceSeesEveryStageInOrder) {
  using obs::TraceAnalysis;
  sim_.tracer().set_enabled(true);
  sim::Channel<Packet> inbox;
  fabric_.nic(1)->BindPort(80, &inbox);
  sim_.At(0, [&] { fabric_.nic(0)->Send(MakePacket(0, 1, 10, 80, 500)); });
  sim_.Run();
  std::vector<obs::TraceRecord> events = PacketStages(sim_.tracer());
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].name, PacketStageName(TraceStage::kNicTx));
  EXPECT_EQ(events[1].name, PacketStageName(TraceStage::kOnWire));
  EXPECT_EQ(events[2].name, PacketStageName(TraceStage::kForwarded));
  EXPECT_EQ(events[3].name, PacketStageName(TraceStage::kDelivered));
  uint64_t packet_id = TraceAnalysis::ArgValue(events[0].args, "pkt");
  EXPECT_NE(packet_id, 0u);  // ids start at 1
  for (const obs::TraceRecord& ev : events) {
    EXPECT_EQ(TraceAnalysis::ArgValue(ev.args, "pkt"), packet_id);
    // A missing arg reads as the fallback, so node 0 needs a nonzero one.
    EXPECT_EQ(TraceAnalysis::ArgValue(ev.args, "src", 99), 0u);
    EXPECT_EQ(TraceAnalysis::ArgValue(ev.args, "dst"), 1u);
    EXPECT_EQ(TraceAnalysis::ArgValue(ev.args, "bytes"), 500u);
  }
  // Latency decomposition: NIC overhead + serialization to the wire,
  // propagation + egress serialization to forwarding, switch latency +
  // propagation to delivery.
  TimeNs ser = TransferNs(fabric_.config().WireBytes(500),
                          fabric_.config().bytes_per_ns());
  EXPECT_EQ(events[1].time - events[0].time, 150 + ser);
  EXPECT_EQ(events[2].time - events[1].time, 200 + ser);
  EXPECT_EQ(events[3].time - events[2].time, 300 + 200);
}

TEST_F(FabricTest, TraceReportsDrops) {
  sim_.tracer().set_enabled(true);
  fabric_.set_drop_filter([](const Packet&) { return true; });
  sim::Channel<Packet> inbox;
  fabric_.nic(1)->BindPort(80, &inbox);
  sim_.At(0, [&] { fabric_.nic(0)->Send(MakePacket(0, 1, 10, 80, 64)); });
  sim_.Run();
  std::vector<obs::TraceRecord> events = PacketStages(sim_.tracer());
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events.back().name, PacketStageName(TraceStage::kDropped));
}

TEST_F(FabricTest, TraceStageNamesAreStable) {
  EXPECT_STREQ(TraceStageName(TraceStage::kNicTx), "nic-tx");
  EXPECT_STREQ(TraceStageName(TraceStage::kDropped), "dropped");
  EXPECT_STREQ(TraceStageName(TraceStage::kDelivered), "delivered");
}

TEST(FabricConfigTest, WireBytesAddsHeader) {
  NetworkConfig cfg;
  EXPECT_EQ(cfg.WireBytes(100), 146u);
  EXPECT_DOUBLE_EQ(cfg.bytes_per_ns(), 12.5);
}

}  // namespace
}  // namespace dmrpc::net
