#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "net/fabric.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rpc/rpc.h"
#include "sim/simulation.h"

namespace dmrpc::obs {
namespace {

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

TEST(MetricsRegistryTest, CreateOnFirstUseAndStablePointers) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("net.tx_packets");
  ASSERT_NE(c, nullptr);
  c->Inc();
  c->Inc(4);
  // Same name returns the same object; registering more metrics does not
  // move it.
  for (int i = 0; i < 100; ++i) {
    reg.GetCounter("filler." + std::to_string(i));
  }
  EXPECT_EQ(reg.GetCounter("net.tx_packets"), c);
  EXPECT_EQ(c->value(), 5u);
  EXPECT_EQ(reg.CounterValue("net.tx_packets"), 5u);
}

TEST(MetricsRegistryTest, ReadSideLookupsDoNotRegister) {
  MetricsRegistry reg;
  EXPECT_EQ(reg.CounterValue("no.such"), 0u);
  EXPECT_EQ(reg.GaugeValue("no.such"), 0);
  EXPECT_EQ(reg.FindTimer("no.such"), nullptr);
  EXPECT_EQ(reg.size(), 0u);
}

TEST(MetricsRegistryTest, ResetValuesKeepsRegistrations) {
  MetricsRegistry reg;
  Counter* c = reg.GetCounter("rpc.retransmits");
  Gauge* g = reg.GetGauge("dm.pool.free_frames");
  Timer* t = reg.GetTimer("rpc.call");
  c->Inc(7);
  g->Set(-3);
  t->Record(1000);
  reg.ResetValues();
  EXPECT_EQ(reg.size(), 3u);
  EXPECT_EQ(reg.GetCounter("rpc.retransmits"), c);  // pointer survives
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(g->value(), 0);
  EXPECT_EQ(t->count(), 0u);
}

TEST(MetricsRegistryTest, DumpJsonSortedAndIntegerOnly) {
  MetricsRegistry reg;
  reg.GetCounter("b.second")->Inc(2);
  reg.GetCounter("a.first")->Inc(1);
  reg.GetGauge("z.gauge")->Set(-7);
  reg.GetTimer("m.timer")->Record(123);
  std::string json = reg.DumpJson();
  // Sorted keys: "a.first" precedes "b.second".
  EXPECT_LT(json.find("a.first"), json.find("b.second"));
  // Gauges dump level + high-watermark (a negative-only gauge never
  // raised the watermark above its initial 0).
  EXPECT_NE(json.find("\"z.gauge\":{\"value\":-7,\"max\":0}"),
            std::string::npos);
  EXPECT_NE(json.find("\"m.timer\""), std::string::npos);
  // All-integer output: no decimal points anywhere.
  EXPECT_EQ(json.find('.'), json.find("a.first") + 1);  // only inside names
  EXPECT_EQ(json.find("e+"), std::string::npos);
}

TEST(MetricsRegistryTest, GaugeTracksHighWatermark) {
  Gauge g;
  g.Set(5);
  g.Add(7);   // 12: new peak
  g.Add(-9);  // 3
  g.Set(4);
  EXPECT_EQ(g.value(), 4);
  EXPECT_EQ(g.max(), 12);
  g.Reset();
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(g.max(), 0);
}

// Runs a small RPC workload on a fresh simulation with the given seed and
// returns the metrics dump. Exercises net + rpc instrumentation end to
// end, including timers.
std::string RunSeededWorkload(uint64_t seed) {
  sim::Simulation sim(seed);
  net::Fabric fabric(&sim, net::NetworkConfig{}, 2);
  rpc::Rpc server(&fabric, 1, 100);
  rpc::Rpc client(&fabric, 0, 200);
  server.RegisterHandler(
      1, [](rpc::ReqContext, rpc::MsgBuffer req) -> sim::Task<rpc::MsgBuffer> {
        rpc::MsgBuffer resp(req.size());
        co_return resp;
      });
  auto driver = [&]() -> sim::Task<> {
    auto sid = co_await client.Connect(1, 100);
    if (!sid.ok()) co_return;
    for (int i = 0; i < 20; ++i) {
      rpc::MsgBuffer req(1000 + 500 * i);  // mixes 1- and multi-packet
      (void)co_await client.Call(*sid, 1, std::move(req));
    }
  };
  sim.Spawn(driver());
  sim.RunFor(5 * kSecond);
  return sim.DumpMetricsJson();
}

TEST(MetricsRegistryTest, IdenticallySeededRunsDumpByteIdenticalJson) {
  std::string a = RunSeededWorkload(77);
  std::string b = RunSeededWorkload(77);
  EXPECT_EQ(a, b);
  // The dump is non-trivial: real rpc/net counters and timers appear.
  EXPECT_NE(a.find("\"rpc.requests_sent\":20"), std::string::npos);
  EXPECT_NE(a.find("net.tx_packets"), std::string::npos);
  EXPECT_NE(a.find("\"rpc.call\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

TEST(TracerTest, DisabledRecordsNothing) {
  Tracer t;
  EXPECT_FALSE(t.enabled());
  uint64_t id = t.BeginSpan("rpc", "rpc.call", 100);
  EXPECT_EQ(id, 0u);
  t.EndSpan(id, 200);
  t.Instant("net", "net.pkt.drop", 150);
  EXPECT_TRUE(t.records().empty());
}

TEST(TracerTest, SpanNestingDepths) {
  Tracer t;
  t.set_enabled(true);
  uint64_t outer = t.BeginSpan("rpc", "rpc.call", 100, /*track=*/3);
  uint64_t mid = t.BeginSpan("rpc", "rpc.handler", 110, 3);
  uint64_t inner = t.BeginSpan("net", "net.nic_tx", 120, 3);
  // A span on another track, opened inside the others and closed last.
  uint64_t other = t.BeginSpan("net", "net.nic_tx", 125, 9);
  t.EndSpan(inner, 130);
  t.EndSpan(mid, 140);
  t.EndSpan(outer, 150);
  t.EndSpan(other, 155);
  EXPECT_EQ(t.open_span_count(), 0u);

  ASSERT_EQ(t.records().size(), 8u);
  // Ends pair by id, not order, and land on their begin's track.
  EXPECT_EQ(t.records()[4].phase, TracePhase::kSpanEnd);
  EXPECT_EQ(t.records()[4].id, inner);
  EXPECT_EQ(t.records()[7].id, other);
  EXPECT_EQ(t.records()[7].track, 9u);
}

TEST(TracerTest, LimitDropsAndCounts) {
  Tracer t;
  t.set_enabled(true);
  t.set_limit(4);
  for (int i = 0; i < 10; ++i) {
    t.Instant("net", "net.pkt.rx", 10 * i);
  }
  EXPECT_EQ(t.records().size(), 4u);
  EXPECT_EQ(t.dropped(), 6u);
  t.Clear();
  EXPECT_TRUE(t.records().empty());
  EXPECT_EQ(t.dropped(), 0u);
}

TEST(TracerTest, ChromeTraceExportsCompleteEvents) {
  Tracer t;
  t.set_enabled(true);
  uint64_t a = t.BeginSpan("rpc", "rpc.call", 1000, /*track=*/1);
  uint64_t b = t.BeginSpan("rpc", "rpc.handler", 1200, 1);
  t.EndSpan(b, 1700);
  t.EndSpan(a, 2000);
  t.Instant("net", "net.pkt.drop", 1500, 4);
  std::ostringstream os;
  t.WriteChromeTrace(os);
  std::string out = os.str();
  EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"X\""), std::string::npos);  // complete spans
  EXPECT_NE(out.find("\"ph\":\"i\""), std::string::npos);  // instants
  EXPECT_NE(out.find("\"rpc.handler\""), std::string::npos);
  // Balanced JSON braces (cheap structural sanity without a parser).
  int depth = 0;
  bool negative = false;
  for (char c : out) {
    if (c == '{' || c == '[') depth++;
    if (c == '}' || c == ']') depth--;
    negative |= depth < 0;
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(negative);
}

TEST(TracerTest, SimulationOwnsDisabledTracerByDefault) {
  sim::Simulation sim(1);
  EXPECT_FALSE(sim.tracer().enabled());
  // Metrics registry is live from the start.
  sim.metrics().GetCounter("sim.test")->Inc();
  EXPECT_EQ(sim.metrics().CounterValue("sim.test"), 1u);
}

}  // namespace
}  // namespace dmrpc::obs
