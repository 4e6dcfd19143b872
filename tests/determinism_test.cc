#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "net/config.h"
#include "net/fabric.h"
#include "net/topology.h"
#include "rpc/rpc.h"
#include "rpc/wire.h"
#include "sim/simulation.h"
#include "sim/task.h"
#include "uniform_loss.h"

namespace dmrpc {
namespace {

// A mixed workload exercising every scheduling path at once: plain
// callbacks (At/After), coroutine timers (Delay), and lossy RPC traffic
// with retransmissions (Channels, Completions, Semaphores, the buffer
// pool, and the seeded Rng). Used to pin down the determinism contract:
// two identically-seeded runs must execute the exact same event sequence
// and produce byte-identical metrics dumps.

sim::Task<rpc::MsgBuffer> EchoHandler(rpc::ReqContext, rpc::MsgBuffer req) {
  co_await sim::Delay(500);  // simulated handler CPU time
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

sim::Task<> TickerTask(sim::Simulation* sim, int* ticks) {
  for (int i = 0; i < 200; ++i) {
    co_await sim::Delay(730);
    ++*ticks;
    // Consume randomness on the coroutine path too.
    (void)sim->rng().Uniform(100);
  }
}

struct RunOutcome {
  uint64_t executed_events = 0;
  std::string metrics_json;
  uint64_t ok_calls = 0;
  int ticks = 0;
};

RunOutcome RunMixedWorkload(uint64_t seed) {
  RunOutcome out;
  sim::Simulation sim(seed);
  net::NetworkConfig cfg;
  rpc::RpcConfig rcfg;
  rcfg.rto_ns = 100 * kMicrosecond;
  rcfg.max_retries = 20;
  {
    net::Fabric fabric(&sim, cfg, 4);
    fault::FaultInjector loss(&fabric);
    // 5% loss engages the retransmission paths.
    loss.Schedule(UniformLoss(&fabric, 0.05, 10 * kSecond));
    rpc::Rpc server(&fabric, 0, 100, rcfg);
    server.RegisterHandler(1, EchoHandler);
    std::vector<std::unique_ptr<rpc::Rpc>> clients;
    for (net::NodeId n = 1; n < 4; ++n) {
      clients.push_back(std::make_unique<rpc::Rpc>(&fabric, n, 50, rcfg));
      sim.Spawn(ClientWorker(clients.back().get(), 0, 20, &out.ok_calls));
    }
    sim.Spawn(TickerTask(&sim, &out.ticks));
    // Plain-callback load: self-rescheduling After() chains plus one-shot
    // At() events, interleaved with the coroutine traffic above.
    int chain_left = 300;
    std::function<void()> chain = [&] {
      if (--chain_left > 0) sim.After(311, chain);
    };
    sim.After(97, chain);
    for (int i = 0; i < 50; ++i) {
      sim.At(1000 + 977 * i, [] {});
    }
    sim.Run();
  }
  out.executed_events = sim.executed_events();
  out.metrics_json = sim.DumpMetricsJson();
  return out;
}

TEST(DeterminismTest, IdenticallySeededRunsAreByteIdentical) {
  RunOutcome a = RunMixedWorkload(20240814);
  RunOutcome b = RunMixedWorkload(20240814);
  // Sanity: the workload actually did real work on both runs.
  EXPECT_GT(a.ok_calls, 0u);
  EXPECT_EQ(a.ticks, 200);
  EXPECT_GT(a.executed_events, 1000u);
  // The contract: same seed => same event count, same byte-for-byte
  // metrics dump (counters, timers, histogram buckets -- everything).
  EXPECT_EQ(a.executed_events, b.executed_events);
  EXPECT_EQ(a.ok_calls, b.ok_calls);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
}

// ---------------------------------------------------------------------------
// Clos fabric: every switch-side counter (forwarded, drops by reason,
// spine hops, leaf-local hops, port enqueues, the port-depth watermark)
// lands in the metrics dump, so a same-seed rerun of a cross-leaf RPC
// workload pins the whole multi-switch path. Each client calls the next
// leaf's server, so every RPC crosses a spine.
// ---------------------------------------------------------------------------

struct ClosOutcome {
  uint64_t executed_events = 0;
  std::string metrics_json;
  uint64_t ok_calls = 0;
  std::string trace_jsonl;
};

ClosOutcome RunClosWorkload(uint64_t seed, bool traced) {
  ClosOutcome out;
  sim::Simulation sim(seed);
  if (traced) sim.tracer().set_enabled(true);
  net::NetworkConfig cfg;
  net::TopologyConfig topo = net::TopologyConfig::Clos(24, 2, 4, 64);
  rpc::RpcConfig rcfg;
  {
    net::Fabric fabric(&sim, cfg, topo);
    // One echo server per leaf on the leaf's first host; three clients
    // per leaf, each calling the *next* leaf's server.
    const uint32_t hpl = topo.HostsPerLeaf();
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
        sim.Spawn(
            ClientWorker(clients.back().get(), target, 15, &out.ok_calls));
      }
    }
    sim.Run();
    // The registry agrees with the fabric's own per-port accounting.
    uint64_t enqueued = 0;
    for (const net::PortStat& ps : fabric.PortStats()) enqueued += ps.enqueued;
    EXPECT_EQ(sim.metrics().CounterValue("net.fabric.port_enqueued"), enqueued);
    EXPECT_EQ(sim.metrics().CounterValue("net.switch.forwarded"),
              fabric.switch_stats().forwarded);
  }
  out.executed_events = sim.executed_events();
  out.metrics_json = sim.DumpMetricsJson();
  if (traced) {
    std::ostringstream os;
    sim.tracer().WriteJsonLines(os);
    out.trace_jsonl = os.str();
  }
  return out;
}

TEST(DeterminismTest, ClosRerunsAreByteIdentical) {
  ClosOutcome a = RunClosWorkload(99, /*traced=*/false);
  ClosOutcome b = RunClosWorkload(99, /*traced=*/false);
  // Sanity: all 12 clients finished all 15 calls through the spines.
  EXPECT_EQ(a.ok_calls, 12u * 15u);
  EXPECT_GT(a.executed_events, 1000u);
  EXPECT_NE(a.metrics_json.find("\"net.fabric.spine_hops\""),
            std::string::npos);
  EXPECT_EQ(a.executed_events, b.executed_events);
  EXPECT_EQ(a.ok_calls, b.ok_calls);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
}

TEST(DeterminismTest, TracedClosRerunsAreByteIdentical) {
  // The span stream is part of the contract too.
  ClosOutcome ta = RunClosWorkload(7, /*traced=*/true);
  ClosOutcome tb = RunClosWorkload(7, /*traced=*/true);
  EXPECT_FALSE(ta.trace_jsonl.empty());
  EXPECT_EQ(ta.executed_events, tb.executed_events);
  EXPECT_EQ(ta.ok_calls, tb.ok_calls);
  EXPECT_EQ(ta.metrics_json, tb.metrics_json);
  EXPECT_EQ(ta.trace_jsonl, tb.trace_jsonl);
}

TEST(DeterminismTest, DifferentSeedsDiverge) {
  // Loss draws differ, so the retransmission schedule (and thus the
  // executed-event count) should differ. Guards against the Rng being
  // accidentally ignored on the packet path.
  RunOutcome a = RunMixedWorkload(1);
  RunOutcome b = RunMixedWorkload(2);
  EXPECT_NE(a.metrics_json, b.metrics_json);
}

}  // namespace
}  // namespace dmrpc
