#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "net/config.h"
#include "net/fabric.h"
#include "net/topology.h"
#include "obs/slo.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "rpc/rpc.h"
#include "sim/simulation.h"
#include "sim/task.h"

namespace dmrpc {
namespace {

// ---------------------------------------------------------------------------
// Histogram::Diff / CountAtOrBelow -- the sketch arithmetic the timeline
// sampler builds per-window quantiles from.
// ---------------------------------------------------------------------------

TEST(HistogramDiffTest, RoundTripRecoversSecondBatch) {
  Histogram cumulative;
  for (int i = 0; i < 100; ++i) cumulative.Record(1000 + 13 * i);
  Histogram snapshot = cumulative;  // boundary snapshot

  // Second batch: a disjoint, higher range so quantiles clearly differ.
  Histogram second_only;
  for (int i = 0; i < 50; ++i) {
    cumulative.Record(50000 + 997 * i);
    second_only.Record(50000 + 997 * i);
  }

  Histogram diff = cumulative.Diff(snapshot);
  EXPECT_EQ(diff.count(), second_only.count());
  EXPECT_EQ(diff.sum(), second_only.sum());
  // Quantiles come from identical bucket populations, so they agree
  // exactly (not merely within sketch error).
  EXPECT_EQ(diff.p50(), second_only.p50());
  EXPECT_EQ(diff.p99(), second_only.p99());
  EXPECT_EQ(diff.p999(), second_only.p999());
  // min/max are reconstructed from bucket bounds: correct bucket, so
  // within one sub-bucket (~3%) of the true extremes.
  EXPECT_GE(diff.min(), second_only.min() * 31 / 32 - 1);
  EXPECT_LE(diff.min(), second_only.min() * 33 / 32 + 1);
  EXPECT_GE(diff.max(), second_only.max() * 31 / 32 - 1);
  EXPECT_LE(diff.max(), second_only.max() * 33 / 32 + 1);
}

TEST(HistogramDiffTest, EmptyWindowIsAllZeros) {
  Histogram h;
  for (int i = 0; i < 10; ++i) h.Record(500 + i);
  Histogram diff = h.Diff(h);  // no samples between the two boundaries
  EXPECT_EQ(diff.count(), 0u);
  EXPECT_EQ(diff.sum(), 0);
  EXPECT_EQ(diff.min(), 0);
  EXPECT_EQ(diff.max(), 0);
  EXPECT_EQ(diff.p50(), 0);
  EXPECT_EQ(diff.p99(), 0);
}

TEST(HistogramDiffTest, CountAtOrBelowBoundsTheThreshold) {
  Histogram h;
  for (int64_t v = 0; v < 64; ++v) h.Record(v);  // small values are exact
  EXPECT_EQ(h.CountAtOrBelow(-1), 0u);
  EXPECT_EQ(h.CountAtOrBelow(0), 1u);
  EXPECT_EQ(h.CountAtOrBelow(31), 32u);
  EXPECT_EQ(h.CountAtOrBelow(63), 64u);
  EXPECT_EQ(h.CountAtOrBelow(1 << 20), 64u);  // above max: everything

  // Large values: never over-counts, and misses at most the population
  // of the threshold's own bucket.
  Histogram big;
  for (int i = 0; i < 1000; ++i) big.Record(100000 + 100 * i);
  uint64_t at_mid = big.CountAtOrBelow(150000);
  EXPECT_LE(at_mid, 501u);  // true count of samples <= 150000
  EXPECT_GE(at_mid, 450u);  // within one bucket (~3%) of it
  EXPECT_EQ(big.CountAtOrBelow(big.max()), big.count());
}

// ---------------------------------------------------------------------------
// TimelineRecorder on a live simulation.
// ---------------------------------------------------------------------------

sim::Task<rpc::MsgBuffer> EchoHandler(rpc::ReqContext, rpc::MsgBuffer req) {
  co_await sim::Delay(500);
  co_return req;
}

sim::Task<> ClientWorker(rpc::Rpc* client, net::NodeId server, int calls,
                         uint64_t* ok_count) {
  auto sid = co_await client->Connect(server, 100);
  if (!sid.ok()) co_return;
  for (int i = 0; i < calls; ++i) {
    rpc::MsgBuffer req;
    req.AppendString("payload-" + std::to_string(i));
    auto resp = co_await client->Call(*sid, 1, std::move(req));
    if (resp.ok()) ++*ok_count;
    co_await sim::Delay(1000 + 100 * (i % 7));
  }
}

/// Two-node echo workload driven for a fixed virtual duration, sampled at
/// `interval`. Returns the simulation for inspection.
struct EchoRun {
  std::unique_ptr<sim::Simulation> sim;
  uint64_t ok_calls = 0;
};

EchoRun RunEchoWorkload(uint64_t seed, TimeNs interval, TimeNs duration,
                        bool sample) {
  EchoRun out;
  out.sim = std::make_unique<sim::Simulation>(seed);
  sim::Simulation& sim = *out.sim;
  if (sample) {
    obs::TimelineConfig cfg;
    cfg.interval_ns = interval;
    sim.EnableTimeline(cfg);
  }
  net::Fabric fabric(&sim, net::NetworkConfig{}, 2);
  rpc::Rpc server(&fabric, 0, 100);
  rpc::Rpc client(&fabric, 1, 200);
  server.RegisterHandler(1, EchoHandler);
  sim.Spawn(ClientWorker(&client, 0, 40, &out.ok_calls));
  sim.RunFor(duration);
  return out;
}

TEST(TimelineRecorderTest, WindowsTileTheRunAndDeltasSumToTotals) {
  const TimeNs interval = 100 * kMicrosecond;
  const TimeNs duration = 2 * kMillisecond;
  EchoRun run = RunEchoWorkload(42, interval, duration, /*sample=*/true);
  EXPECT_GT(run.ok_calls, 0u);

  const auto& windows = run.sim->timeline().windows();
  // RunFor(d) flushes every boundary <= d: exactly d / interval windows.
  ASSERT_EQ(windows.size(), static_cast<size_t>(duration / interval));
  EXPECT_EQ(run.sim->timeline().dropped_windows(), 0u);

  // Windows tile virtual time: contiguous, monotone, on the grid.
  for (size_t i = 0; i < windows.size(); ++i) {
    EXPECT_EQ(windows[i].start_ns, static_cast<TimeNs>(i) * interval);
    EXPECT_EQ(windows[i].end_ns, static_cast<TimeNs>(i + 1) * interval);
    if (i > 0) {
      EXPECT_GE(windows[i].events_executed, windows[i - 1].events_executed);
    }
  }

  // Counter deltas reassemble the cumulative totals, window by window
  // and over the whole run.
  uint64_t delta_sum = 0;
  uint64_t prev_total = 0;
  for (const auto& w : windows) {
    auto it = w.counters.find("rpc.requests_sent");
    ASSERT_NE(it, w.counters.end());
    EXPECT_EQ(it->second.total, prev_total + it->second.delta);
    prev_total = it->second.total;
    delta_sum += it->second.delta;
  }
  EXPECT_EQ(delta_sum, run.sim->metrics().CounterValue("rpc.requests_sent"));
  EXPECT_EQ(delta_sum, 40u);

  // Timer windows: per-window counts reassemble the cumulative count,
  // and a busy window carries a plausible per-window p99.
  uint64_t timer_count = 0;
  bool saw_busy_window = false;
  for (const auto& w : windows) {
    auto it = w.timers.find("rpc.call");
    ASSERT_NE(it, w.timers.end());
    timer_count += it->second.count;
    if (it->second.count > 0) {
      saw_busy_window = true;
      EXPECT_GT(it->second.p99, 0);
      EXPECT_GE(it->second.max, it->second.p50);
    } else {
      EXPECT_EQ(it->second.p99, 0);  // empty windows are all-zero
    }
  }
  EXPECT_TRUE(saw_busy_window);
  EXPECT_EQ(timer_count, run.ok_calls);

  // The sidecar serialization round-trips the window count and stays
  // integer-only.
  std::string jsonl = run.sim->timeline().ToJsonLines();
  EXPECT_NE(jsonl.find("\"windows\":" + std::to_string(windows.size())),
            std::string::npos);
  EXPECT_EQ(jsonl.find("e+"), std::string::npos);
}

TEST(TimelineRecorderTest, SamplingDoesNotPerturbTheRun) {
  // Sampling is read-only: with no SLOs armed, the same seeded run with
  // sampling on and off must execute the same events and dump
  // byte-identical metrics.
  EchoRun off = RunEchoWorkload(7, 0, 2 * kMillisecond, /*sample=*/false);
  EchoRun on = RunEchoWorkload(7, 50 * kMicrosecond, 2 * kMillisecond,
                               /*sample=*/true);
  EXPECT_FALSE(on.sim->timeline().windows().empty());
  EXPECT_EQ(on.sim->executed_events(), off.sim->executed_events());
  EXPECT_EQ(on.ok_calls, off.ok_calls);
  EXPECT_EQ(on.sim->DumpMetricsJson(), off.sim->DumpMetricsJson());
}

// ---------------------------------------------------------------------------
// Sampler determinism on the Clos fabric: the timeline sidecar of a
// deadline-driven cross-leaf RPC run must be byte-identical across
// same-seed reruns. Every client calls the next leaf's server, so the
// fabric counters move in every window.
// ---------------------------------------------------------------------------

std::string RunClosTimeline(uint64_t seed) {
  sim::Simulation sim(seed);
  obs::TimelineConfig cfg;
  cfg.interval_ns = 20 * kMicrosecond;
  sim.EnableTimeline(cfg);
  net::NetworkConfig ncfg;
  net::TopologyConfig topo = net::TopologyConfig::Clos(24, 2, 4, 64);
  rpc::RpcConfig rcfg;
  std::string out;
  {
    net::Fabric fabric(&sim, ncfg, topo);
    const uint32_t hpl = topo.HostsPerLeaf();
    uint64_t ok = 0;
    std::vector<std::unique_ptr<rpc::Rpc>> servers;
    std::vector<std::unique_ptr<rpc::Rpc>> clients;
    for (uint32_t leaf = 0; leaf < topo.num_leaves; ++leaf) {
      servers.push_back(
          std::make_unique<rpc::Rpc>(&fabric, leaf * hpl, 100, rcfg));
      servers.back()->RegisterHandler(1, EchoHandler);
    }
    for (uint32_t leaf = 0; leaf < topo.num_leaves; ++leaf) {
      net::NodeId target = ((leaf + 1) % topo.num_leaves) * hpl;
      for (uint32_t c = 1; c <= 3; ++c) {
        clients.push_back(
            std::make_unique<rpc::Rpc>(&fabric, leaf * hpl + c, 50, rcfg));
        sim.Spawn(ClientWorker(clients.back().get(), target, 15, &ok));
      }
    }
    sim.RunFor(1 * kMillisecond);
    EXPECT_GT(ok, 0u);
    out = sim.timeline().ToJsonLines();
  }
  return out;
}

TEST(TimelineRecorderTest, ClosSidecarsByteIdenticalAcrossReruns) {
  std::string first = RunClosTimeline(99);
  // Sanity: the run produced a real time series with live counters.
  EXPECT_NE(first.find("\"windows\":50"), std::string::npos);
  EXPECT_NE(first.find("rpc.requests_sent"), std::string::npos);
  EXPECT_NE(first.find("net.fabric.port_enqueued"), std::string::npos);
  EXPECT_EQ(RunClosTimeline(99), first);
}

// ---------------------------------------------------------------------------
// SloMonitor
// ---------------------------------------------------------------------------

TEST(SloMonitorTest, RatioObjectiveBurnAndClamp) {
  obs::SloMonitor mon;
  mon.AddObjective(obs::SloObjective::Ratio("drops", "net.dropped",
                                            "net.forwarded",
                                            /*budget=*/0.01));
  // 2 drops out of 1000: bad fraction 0.002, burn 0.2 -> 200 milli, no
  // breach at the default threshold of 1.0.
  obs::TimelineWindow w;
  w.counters["net.dropped"] = obs::WindowCounter{2, 2};
  w.counters["net.forwarded"] = obs::WindowCounter{1000, 1000};
  mon.Evaluate(&w, {}, nullptr, nullptr);
  ASSERT_EQ(w.slo.size(), 1u);
  EXPECT_EQ(w.slo[0].bad, 2u);
  EXPECT_EQ(w.slo[0].total, 1000u);
  EXPECT_EQ(w.slo[0].burn_milli, 200);
  EXPECT_FALSE(w.slo[0].breached);
  EXPECT_TRUE(mon.breaches().empty());
  EXPECT_EQ(mon.evaluations(), 1u);

  // Drops with zero forwarded traffic clamp total up to bad: all-bad
  // traffic, burn 1/budget = 100x -> breach.
  obs::TimelineWindow w2;
  w2.counters["net.dropped"] = obs::WindowCounter{5, 3};
  w2.counters["net.forwarded"] = obs::WindowCounter{1000, 0};
  mon.Evaluate(&w2, {}, nullptr, nullptr);
  ASSERT_EQ(w2.slo.size(), 1u);
  EXPECT_EQ(w2.slo[0].total, 3u);
  EXPECT_EQ(w2.slo[0].burn_milli, 100000);
  EXPECT_TRUE(w2.slo[0].breached);
  ASSERT_EQ(mon.breaches().size(), 1u);
  EXPECT_EQ(mon.breaches()[0].name, "drops");
}

TEST(SloMonitorTest, LatencyBreachEmitsCounterAndTraceInstant) {
  sim::Simulation sim(5);
  obs::TimelineConfig cfg;
  cfg.interval_ns = 100 * kMicrosecond;
  sim.EnableTimeline(cfg);
  // Every echo call takes far longer than 1 ns, so every window with
  // traffic burns its entire (tiny) budget and breaches.
  sim.slo().AddObjective(
      obs::SloObjective::Latency("echo_1ns", "rpc.call", 1, /*budget=*/0.01));
  sim.tracer().set_enabled(true);

  net::Fabric fabric(&sim, net::NetworkConfig{}, 2);
  rpc::Rpc server(&fabric, 0, 100);
  rpc::Rpc client(&fabric, 1, 200);
  server.RegisterHandler(1, EchoHandler);
  uint64_t ok = 0;
  sim.Spawn(ClientWorker(&client, 0, 20, &ok));
  sim.RunFor(2 * kMillisecond);

  EXPECT_GT(ok, 0u);
  EXPECT_GT(sim.slo().evaluations(), 0u);
  ASSERT_FALSE(sim.slo().breaches().empty());
  const obs::SloBreach& b = sim.slo().breaches().front();
  EXPECT_EQ(b.name, "echo_1ns");
  EXPECT_GT(b.bad, 0u);
  EXPECT_GE(b.burn_milli, 1000);  // burning at >= 1.0

  // Breaches surface in the registry (lazily registered counter) and as
  // instant records on the "slo" trace category.
  EXPECT_EQ(sim.metrics().CounterValue("slo.echo_1ns.breaches"),
            sim.slo().breaches().size());
  bool saw_instant = false;
  for (const auto& r : sim.tracer().records()) {
    if (r.cat == "slo") saw_instant = true;
  }
  EXPECT_TRUE(saw_instant);

  // The verdicts land in the sidecar too.
  std::string jsonl = sim.timeline().ToJsonLines();
  EXPECT_NE(jsonl.find("\"name\":\"echo_1ns\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"breached\":1"), std::string::npos);
}

}  // namespace
}  // namespace dmrpc
