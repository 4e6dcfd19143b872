#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "msvc/cluster.h"
#include "msvc/workload.h"
#include "workload/openloop.h"

namespace dmrpc::msvc {
namespace {

TEST(ClusterTest, BackendNames) {
  EXPECT_STREQ(BackendName(Backend::kErpc), "eRPC");
  EXPECT_STREQ(BackendName(Backend::kDmNet), "DmRPC-net");
  EXPECT_STREQ(BackendName(Backend::kDmCxl), "DmRPC-CXL");
}

TEST(ClusterTest, ErpcClusterHasNoDm) {
  sim::Simulation sim(1);
  ClusterConfig cfg;
  cfg.backend = Backend::kErpc;
  cfg.num_nodes = 4;
  Cluster cluster(&sim, cfg);
  ServiceEndpoint* svc = cluster.AddService("s", 0, 900);
  EXPECT_FALSE(svc->dmrpc()->dm_enabled());
  EXPECT_EQ(cluster.num_dm_servers(), 0u);
  EXPECT_EQ(cluster.gfam(), nullptr);
  EXPECT_TRUE(RunToCompletion(&sim, cluster.InitAll()).ok());
}

TEST(ClusterTest, DmNetClusterDefaultsToTwoServersOnLastNodes) {
  sim::Simulation sim(2);
  ClusterConfig cfg;
  cfg.backend = Backend::kDmNet;
  cfg.num_nodes = 8;
  Cluster cluster(&sim, cfg);
  ASSERT_EQ(cluster.num_dm_servers(), 2u);
  EXPECT_EQ(cluster.dm_server(0)->node(), 6u);
  EXPECT_EQ(cluster.dm_server(1)->node(), 7u);
  ServiceEndpoint* svc = cluster.AddService("s", 0, 900);
  EXPECT_TRUE(svc->dmrpc()->dm_enabled());
  EXPECT_TRUE(RunToCompletion(&sim, cluster.InitAll()).ok());
}

TEST(ClusterTest, DmCxlClusterBuildsGfamAndCoordinator) {
  sim::Simulation sim(3);
  ClusterConfig cfg;
  cfg.backend = Backend::kDmCxl;
  cfg.num_nodes = 4;
  cfg.dm_frames = 512;
  Cluster cluster(&sim, cfg);
  ASSERT_NE(cluster.gfam(), nullptr);
  ASSERT_NE(cluster.coordinator(), nullptr);
  EXPECT_EQ(cluster.coordinator()->node(), 3u);
  ServiceEndpoint* svc = cluster.AddService("s", 0, 900);
  EXPECT_TRUE(svc->dmrpc()->dm_enabled());
  EXPECT_TRUE(RunToCompletion(&sim, cluster.InitAll()).ok());
}

TEST(ClusterTest, ServiceLookupByName) {
  sim::Simulation sim(4);
  ClusterConfig cfg;
  cfg.num_nodes = 2;
  Cluster cluster(&sim, cfg);
  ServiceEndpoint* a = cluster.AddService("alpha", 0, 900);
  EXPECT_EQ(cluster.service("alpha"), a);
  EXPECT_EQ(cluster.service("beta"), nullptr);
}

TEST(ClusterTest, CallServiceRoutesByName) {
  sim::Simulation sim(5);
  ClusterConfig cfg;
  cfg.num_nodes = 2;
  Cluster cluster(&sim, cfg);
  ServiceEndpoint* a = cluster.AddService("a", 0, 900);
  ServiceEndpoint* b = cluster.AddService("b", 1, 900);
  b->RegisterHandler(
      1, [](rpc::ReqContext, rpc::MsgBuffer req) -> sim::Task<rpc::MsgBuffer> {
        rpc::MsgBuffer resp;
        resp.Append<uint32_t>(req.Read<uint32_t>() * 2);
        co_return resp;
      });
  std::optional<uint32_t> got;
  auto driver = [&]() -> sim::Task<> {
    rpc::MsgBuffer req;
    req.Append<uint32_t>(21);
    auto resp = co_await a->CallService("b", 1, std::move(req));
    if (resp.ok()) got = resp->Read<uint32_t>();
    // Second call reuses the session.
    rpc::MsgBuffer req2;
    req2.Append<uint32_t>(1);
    (void)co_await a->CallService("b", 1, std::move(req2));
  };
  sim.Spawn(driver());
  sim.RunFor(1 * kSecond);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, 42u);
}

TEST(ClusterTest, ComputeSerializesOnWorkers) {
  sim::Simulation sim(6);
  ClusterConfig cfg;
  cfg.num_nodes = 1;
  Cluster cluster(&sim, cfg);
  ServiceEndpoint* svc = cluster.AddService("s", 0, 900, /*workers=*/1);
  std::vector<TimeNs> done_at;
  auto burst = [&](TimeNs ns) -> sim::Task<> {
    co_await svc->Compute(ns);
    done_at.push_back(sim.Now());
  };
  sim.Spawn(burst(100));
  sim.Spawn(burst(100));
  sim.Spawn(burst(100));
  sim.Run();
  ASSERT_EQ(done_at.size(), 3u);
  EXPECT_EQ(done_at[0], 100);
  EXPECT_EQ(done_at[1], 200);
  EXPECT_EQ(done_at[2], 300);
}

TEST(ClusterTest, ForwardCostScalesWithBytes) {
  sim::Simulation sim(12);
  ClusterConfig cfg;
  cfg.num_nodes = 1;
  Cluster cluster(&sim, cfg);
  ServiceEndpoint* svc = cluster.AddService("s", 0, 900);
  TimeNs small_ns = 0, big_ns = 0;
  auto probe = [&](uint64_t bytes, TimeNs* out) -> sim::Task<> {
    TimeNs start = sim.Now();
    co_await svc->ForwardCost(bytes);
    *out = sim.Now() - start;
  };
  sim.Spawn(probe(64, &small_ns));
  sim.Run();
  sim.Spawn(probe(65536, &big_ns));
  sim.Run();
  EXPECT_LT(small_ns, 100);
  // 64 KiB at ~0.5 ns/B: ~32 us of mover CPU.
  EXPECT_NEAR(static_cast<double>(big_ns), 32000.0, 1000.0);
}

TEST(ClusterTest, DetachRunsToCompletionInBackground) {
  sim::Simulation sim(13);
  ClusterConfig cfg;
  cfg.num_nodes = 1;
  Cluster cluster(&sim, cfg);
  ServiceEndpoint* svc = cluster.AddService("s", 0, 900);
  bool side_effect = false;
  auto task = [&]() -> sim::Task<Status> {
    co_await sim::Delay(500);
    side_effect = true;
    co_return Status::OK();
  };
  // Infrastructure pumps (NIC TX, dispatchers) are live forever; the
  // detached task must come and go without changing the baseline.
  sim.RunFor(1 * kMillisecond);
  int64_t baseline = sim.live_task_count();
  sim.At(sim.Now(), [&] { svc->Detach(task()); });
  sim.RunFor(1 * kMillisecond);
  EXPECT_TRUE(side_effect);
  EXPECT_EQ(sim.live_task_count(), baseline);
}

// ---------------------------------------------------------------------------
// Workload runners
// ---------------------------------------------------------------------------

TEST(WorkloadTest, ClosedLoopThroughputMatchesServiceTime) {
  sim::Simulation sim(7);
  // Each request takes exactly 1 ms of virtual time; 4 workers -> 4k rps.
  RequestFn fn = []() -> sim::Task<StatusOr<uint64_t>> {
    co_await sim::Delay(1 * kMillisecond);
    co_return uint64_t{1000};
  };
  WorkloadResult res =
      RunClosedLoop(&sim, fn, 4, 100 * kMillisecond, 1 * kSecond);
  EXPECT_NEAR(res.throughput_rps(), 4000.0, 10.0);
  EXPECT_NEAR(static_cast<double>(res.latency.mean()), 1e6, 1e4);
  EXPECT_EQ(res.failed, 0u);
  EXPECT_GT(res.bytes, 0u);
}

TEST(WorkloadTest, OpenLoopOffersRequestedRate) {
  sim::Simulation sim(8);
  RequestFn fn = []() -> sim::Task<StatusOr<uint64_t>> {
    co_await sim::Delay(10 * kMicrosecond);
    co_return uint64_t{1};
  };
  workload::OpenLoopConfig wcfg;
  wcfg.rate_rps = 50000.0;
  wcfg.max_outstanding = 20000;
  WorkloadResult res = workload::RunOpenLoopMulti(
      &sim, {fn}, wcfg, 100 * kMillisecond, 1 * kSecond);
  EXPECT_NEAR(res.throughput_rps(), 50000.0, 2500.0);
}

TEST(WorkloadTest, OpenLoopOverloadShowsQueueing) {
  sim::Simulation sim(9);
  // A single 100 us server can sustain 10k rps; offer 20k.
  auto sem = std::make_shared<sim::Semaphore>(1);
  RequestFn fn = [sem]() -> sim::Task<StatusOr<uint64_t>> {
    co_await sem->Acquire();
    co_await sim::Delay(100 * kMicrosecond);
    sem->Release();
    co_return uint64_t{1};
  };
  workload::OpenLoopConfig wcfg;
  wcfg.rate_rps = 20000.0;
  wcfg.max_outstanding = 100000;
  WorkloadResult res = workload::RunOpenLoopMulti(
      &sim, {fn}, wcfg, 50 * kMillisecond, 500 * kMillisecond);
  // Saturated at ~10k rps with exploding latency.
  EXPECT_LT(res.throughput_rps(), 11000.0);
  EXPECT_GT(res.latency.p99(), 10 * kMillisecond);
}

TEST(WorkloadTest, FailuresAreCounted) {
  sim::Simulation sim(10);
  int n = 0;
  RequestFn fn = [&n]() -> sim::Task<StatusOr<uint64_t>> {
    co_await sim::Delay(1000);
    if (++n % 2 == 0) co_return Status::Internal("boom");
    co_return uint64_t{1};
  };
  WorkloadResult res = RunClosedLoop(&sim, fn, 1, 0, 10 * kMillisecond);
  EXPECT_GT(res.failed, 0u);
  EXPECT_NEAR(static_cast<double>(res.failed),
              static_cast<double>(res.completed), 5.0);
}

TEST(WorkloadTest, RunToCompletionTimesOut) {
  sim::Simulation sim(11);
  auto never = []() -> sim::Task<Status> {
    co_await sim::Delay(100 * kSecond);
    co_return Status::OK();
  };
  Status st = RunToCompletion(&sim, never(), 1 * kSecond);
  EXPECT_TRUE(st.IsTimedOut());
}

}  // namespace
}  // namespace dmrpc::msvc
