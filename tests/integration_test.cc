#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "apps/load_balancer.h"
#include "apps/nested_chain.h"
#include "msvc/cluster.h"
#include "msvc/workload.h"
#include "uniform_loss.h"

namespace dmrpc {
namespace {

using apps::LoadBalancerApp;
using apps::NestedChainApp;
using msvc::Backend;
using msvc::Cluster;
using msvc::ClusterConfig;
using msvc::ServiceEndpoint;
using msvc::WorkloadResult;

/// Runs the nested-chain workload on a fresh cluster and returns the
/// measured result. Used for cross-backend comparisons below.
WorkloadResult RunChain(Backend backend, int chain_len, uint32_t arg_bytes,
                        uint64_t seed = 7) {
  sim::Simulation sim(seed);
  ClusterConfig cfg;
  cfg.backend = backend;
  cfg.num_nodes = 10;
  cfg.dm_frames = 1u << 15;
  Cluster cluster(&sim, cfg);
  NestedChainApp app(&cluster, chain_len, {1, 2, 3, 4, 5, 6, 7});
  ServiceEndpoint* client = cluster.AddService("client", 0, 950);
  Status st = msvc::RunToCompletion(&sim, cluster.InitAll());
  EXPECT_TRUE(st.ok()) << st.ToString();
  // 8 concurrent outstanding requests: one client thread driving a full
  // eRPC session-slot window, as the paper's single-threaded client does.
  return msvc::RunClosedLoop(&sim, app.MakeRequestFn(client, arg_bytes),
                             /*workers=*/8, 20 * kMillisecond,
                             300 * kMillisecond);
}

TEST(IntegrationShape, DmNetBeatsErpcOnDeepChains) {
  // Fig. 5a's headline: with 7 nested calls and 4 KiB arguments,
  // pass-by-reference clearly beats pass-by-value.
  WorkloadResult erpc = RunChain(Backend::kErpc, 7, 4096);
  WorkloadResult dmnet = RunChain(Backend::kDmNet, 7, 4096);
  ASSERT_GT(erpc.completed, 0u);
  ASSERT_GT(dmnet.completed, 0u);
  EXPECT_GT(dmnet.throughput_rps(), erpc.throughput_rps() * 1.3)
      << "eRPC " << erpc.throughput_rps() << " vs DmRPC-net "
      << dmnet.throughput_rps();
  EXPECT_LT(dmnet.latency.mean(), erpc.latency.mean());
}

TEST(IntegrationShape, CxlBeatsNetOnDeepChains) {
  WorkloadResult dmnet = RunChain(Backend::kDmNet, 7, 4096);
  WorkloadResult cxl = RunChain(Backend::kDmCxl, 7, 4096);
  EXPECT_GT(cxl.throughput_rps(), dmnet.throughput_rps())
      << "DmRPC-net " << dmnet.throughput_rps() << " vs DmRPC-CXL "
      << cxl.throughput_rps();
  EXPECT_LT(cxl.latency.mean(), dmnet.latency.mean());
}

TEST(IntegrationShape, ErpcDegradesWithChainLengthDmRpcFlat) {
  // Fig. 5a's slopes: eRPC decays with hop count, DmRPC stays flat.
  WorkloadResult erpc1 = RunChain(Backend::kErpc, 1, 4096);
  WorkloadResult erpc7 = RunChain(Backend::kErpc, 7, 4096);
  WorkloadResult net2 = RunChain(Backend::kDmNet, 2, 4096);
  WorkloadResult net7 = RunChain(Backend::kDmNet, 7, 4096);
  double erpc_decay = erpc7.throughput_rps() / erpc1.throughput_rps();
  double net_decay = net7.throughput_rps() / net2.throughput_rps();
  EXPECT_LT(erpc_decay, 0.35);
  EXPECT_GT(net_decay, 0.45);
  EXPECT_GT(net_decay, erpc_decay * 1.7);
  // Paper: at a single RPC call, eRPC still wins (no redundant hops to
  // save, and DmRPC pays the DM indirection).
  WorkloadResult net1 = RunChain(Backend::kDmNet, 1, 4096);
  EXPECT_GT(erpc1.throughput_rps(), net1.throughput_rps());
}

TEST(IntegrationShape, LbServerMemoryTrafficNearZeroUnderDmRpc) {
  // Fig. 6b: the LB host's per-request memory traffic is ~2x the request
  // size under eRPC and tens of bytes under DmRPC.
  auto run_lb = [](Backend backend) {
    sim::Simulation sim(13);
    ClusterConfig cfg;
    cfg.backend = backend;
    cfg.num_nodes = 10;
    cfg.dm_frames = 1u << 15;
    Cluster cluster(&sim, cfg);
    LoadBalancerApp app(&cluster, /*lb_node=*/1, {2, 3, 4});
    ServiceEndpoint* client = cluster.AddService("client", 0, 950);
    EXPECT_TRUE(msvc::RunToCompletion(&sim, cluster.InitAll()).ok());
    WorkloadResult res = msvc::RunClosedLoop(
        &sim, app.MakeRequestFn(client, 32768), 4, 20 * kMillisecond,
        200 * kMillisecond);
    uint64_t lb_bytes = cluster.node_meter(1)->dram_bytes();
    return std::make_pair(res.completed,
                          static_cast<double>(lb_bytes) /
                              static_cast<double>(res.completed));
  };
  auto [erpc_n, erpc_per_req] = run_lb(Backend::kErpc);
  auto [net_n, net_per_req] = run_lb(Backend::kDmNet);
  ASSERT_GT(erpc_n, 0u);
  ASSERT_GT(net_n, 0u);
  EXPECT_GT(erpc_per_req, 60000.0);  // ~2 x 32 KiB
  EXPECT_LT(net_per_req, 4000.0);
  EXPECT_GT(erpc_per_req / net_per_req, 20.0);
}

TEST(IntegrationShape, WholeClusterRunIsDeterministic) {
  WorkloadResult a = RunChain(Backend::kDmNet, 4, 8192, /*seed=*/99);
  WorkloadResult b = RunChain(Backend::kDmNet, 4, 8192, /*seed=*/99);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.latency.mean(), b.latency.mean());
  EXPECT_EQ(a.latency.p999(), b.latency.p999());
}

TEST(IntegrationShape, SeedChangesArrivalsButNotCorrectness) {
  WorkloadResult a = RunChain(Backend::kDmCxl, 3, 4096, 1);
  WorkloadResult b = RunChain(Backend::kDmCxl, 3, 4096, 2);
  EXPECT_EQ(a.failed, 0u);
  EXPECT_EQ(b.failed, 0u);
  EXPECT_GT(a.completed, 0u);
  EXPECT_GT(b.completed, 0u);
}

TEST(IntegrationRobustness, ChainSurvivesPacketLoss) {
  sim::Simulation sim(21);
  ClusterConfig cfg;
  cfg.backend = Backend::kDmNet;
  cfg.num_nodes = 10;
  cfg.dm_frames = 1u << 14;
  Cluster cluster(&sim, cfg);
  fault::FaultInjector loss(cluster.fabric());
  loss.Schedule(UniformLoss(cluster.fabric(), 0.01, 10 * kSecond));
  NestedChainApp app(&cluster, 5, {1, 2, 3, 4, 5});
  ServiceEndpoint* client = cluster.AddService("client", 0, 950);
  ASSERT_TRUE(msvc::RunToCompletion(&sim, cluster.InitAll()).ok());
  WorkloadResult res =
      msvc::RunClosedLoop(&sim, app.MakeRequestFn(client, 4096), 2,
                          20 * kMillisecond, 300 * kMillisecond);
  EXPECT_GT(res.completed, 100u);
  EXPECT_EQ(res.failed, 0u);  // retransmission hides the loss
}

}  // namespace
}  // namespace dmrpc
