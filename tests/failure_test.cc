// Failure-injection tests: exhausted pools, unreachable substrates, and
// application-level rejections must surface as clean Status errors, not
// hangs or corruption.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "apps/image_pipeline.h"
#include "core/dmrpc.h"
#include "dmnet/client.h"
#include "dmnet/protocol.h"
#include "dmnet/server.h"
#include "msvc/cluster.h"
#include "msvc/workload.h"
#include "net/fabric.h"
#include "sim/simulation.h"
#include "uniform_loss.h"

namespace dmrpc {
namespace {

using msvc::Backend;
using msvc::Cluster;
using msvc::ClusterConfig;
using msvc::ServiceEndpoint;

TEST(FailureTest, DmServerPoolExhaustionSurfacesAsOutOfMemory) {
  sim::Simulation sim(31);
  ClusterConfig cfg;
  cfg.backend = Backend::kDmNet;
  cfg.num_nodes = 4;
  cfg.dm_frames = 8;  // tiny pool: 32 KiB total per server
  Cluster cluster(&sim, cfg);
  ServiceEndpoint* svc = cluster.AddService("svc", 0, 900);
  ASSERT_TRUE(msvc::RunToCompletion(&sim, cluster.InitAll()).ok());

  std::optional<Status> final;
  auto driver = [&]() -> sim::Task<> {
    std::vector<core::Payload> held;
    std::vector<uint8_t> block(16384, 1);
    for (int i = 0; i < 10; ++i) {
      auto p = co_await svc->dmrpc()->MakePayload(block);
      if (!p.ok()) {
        final = p.status();
        co_return;
      }
      held.push_back(std::move(*p));  // never released: leak on purpose
    }
    final = Status::OK();
  };
  sim.Spawn(driver());
  sim.RunFor(10 * kSecond);
  ASSERT_TRUE(final.has_value());
  EXPECT_TRUE(final->IsOutOfMemory()) << final->ToString();
}

TEST(FailureTest, FetchAfterReleaseFailsCleanlyOnNet) {
  sim::Simulation sim(32);
  ClusterConfig cfg;
  cfg.backend = Backend::kDmNet;
  cfg.num_nodes = 4;
  Cluster cluster(&sim, cfg);
  ServiceEndpoint* svc = cluster.AddService("svc", 0, 900);
  ASSERT_TRUE(msvc::RunToCompletion(&sim, cluster.InitAll()).ok());

  std::optional<Status> final;
  auto driver = [&]() -> sim::Task<> {
    std::vector<uint8_t> block(8192, 1);
    auto p = co_await svc->dmrpc()->MakePayload(block);
    if (!p.ok()) {
      final = p.status();
      co_return;
    }
    (void)co_await svc->dmrpc()->Release(*p);
    auto again = co_await svc->dmrpc()->Fetch(*p);
    final = again.ok() ? Status::Internal("fetched a dead ref")
                       : again.status();
  };
  sim.Spawn(driver());
  sim.RunFor(10 * kSecond);
  ASSERT_TRUE(final.has_value());
  EXPECT_TRUE(final->IsNotFound()) << final->ToString();
}

TEST(FailureTest, DoubleReleaseFailsCleanlyOnNet) {
  sim::Simulation sim(33);
  ClusterConfig cfg;
  cfg.backend = Backend::kDmNet;
  cfg.num_nodes = 4;
  Cluster cluster(&sim, cfg);
  ServiceEndpoint* svc = cluster.AddService("svc", 0, 900);
  ASSERT_TRUE(msvc::RunToCompletion(&sim, cluster.InitAll()).ok());
  std::optional<Status> final;
  auto driver = [&]() -> sim::Task<> {
    auto p = co_await svc->dmrpc()->MakePayload(
        std::vector<uint8_t>(8192, 1));
    (void)co_await svc->dmrpc()->Release(*p);
    Status second = co_await svc->dmrpc()->Release(*p);
    final = second;
  };
  sim.Spawn(driver());
  sim.RunFor(10 * kSecond);
  ASSERT_TRUE(final.has_value());
  EXPECT_TRUE(final->IsNotFound()) << final->ToString();
}

TEST(FailureTest, UnreachableDmServerTimesOut) {
  // Client configured against a host that runs no DM server.
  sim::Simulation sim(34);
  net::Fabric fabric(&sim, net::NetworkConfig{}, 2);
  rpc::RpcConfig rcfg;
  rcfg.rto_ns = 200 * kMicrosecond;
  rcfg.max_retries = 3;
  rpc::Rpc rpc(&fabric, 0, 900, rcfg);
  dmnet::DmNetClient client(
      &rpc, {{1, dmnet::kDmServerPort, uint64_t{1} << 44, uint64_t{1} << 44}});
  std::optional<Status> final;
  auto driver = [&]() -> sim::Task<> { final = co_await client.Init(); };
  sim.Spawn(driver());
  sim.RunFor(30 * kSecond);
  ASSERT_TRUE(final.has_value());
  EXPECT_TRUE(final->IsTimedOut()) << final->ToString();
}

TEST(FailureTest, CallToUnknownServiceNameFails) {
  sim::Simulation sim(35);
  ClusterConfig cfg;
  cfg.num_nodes = 2;
  Cluster cluster(&sim, cfg);
  ServiceEndpoint* svc = cluster.AddService("svc", 0, 900);
  std::optional<Status> final;
  auto driver = [&]() -> sim::Task<> {
    auto resp = co_await svc->CallService("nonexistent", 1,
                                          rpc::MsgBuffer());
    final = resp.ok() ? Status::Internal("reached a ghost") : resp.status();
  };
  sim.Spawn(driver());
  sim.RunFor(1 * kSecond);
  ASSERT_TRUE(final.has_value());
  EXPECT_TRUE(final->IsNotFound());
}

TEST(FailureTest, FirewallRejectsBadAuthWithoutTouchingPipeline) {
  sim::Simulation sim(36);
  ClusterConfig cfg;
  cfg.backend = Backend::kErpc;
  cfg.num_nodes = 10;
  Cluster cluster(&sim, cfg);
  apps::ImagePipelineApp app(&cluster, {1, 2, 3, 4, 5, 6});
  ServiceEndpoint* client = cluster.AddService("client", 0, 950);
  ASSERT_TRUE(msvc::RunToCompletion(&sim, cluster.InitAll()).ok());

  std::optional<uint8_t> code;
  auto driver = [&]() -> sim::Task<> {
    rpc::MsgBuffer req;
    req.Append<uint32_t>(0xbadbad);  // wrong token
    req.Append<uint8_t>(0);
    core::Payload::MakeInline(std::vector<uint8_t>(64, 1)).EncodeTo(&req);
    auto resp = co_await client->CallService(
        "firewall", apps::ImagePipelineApp::kFirewallReq, std::move(req));
    if (resp.ok()) code = resp->Read<uint8_t>();
  };
  sim.Spawn(driver());
  sim.RunFor(5 * kSecond);
  ASSERT_TRUE(code.has_value());
  EXPECT_EQ(*code, 2);  // permission denied
  // The request never reached the LB or codecs.
  EXPECT_EQ(cluster.service("imglb")->rpc()->stats().requests_handled, 0u);
  EXPECT_EQ(cluster.service("transcoding")->rpc()->stats().requests_handled,
            0u);
}

TEST(FailureTest, PacketLossDuringDmOpsRecovers) {
  sim::Simulation sim(37);
  ClusterConfig cfg;
  cfg.backend = Backend::kDmNet;
  cfg.num_nodes = 4;
  cfg.rpc.rto_ns = 300 * kMicrosecond;
  Cluster cluster(&sim, cfg);
  fault::FaultInjector loss(cluster.fabric());
  loss.Schedule(UniformLoss(cluster.fabric(), 0.05, 120 * kSecond));
  ServiceEndpoint* a = cluster.AddService("a", 0, 900);
  ServiceEndpoint* b = cluster.AddService("b", 1, 900);
  ASSERT_TRUE(msvc::RunToCompletion(&sim, cluster.InitAll()).ok());

  std::optional<Status> final;
  auto driver = [&]() -> sim::Task<> {
    for (int i = 0; i < 25; ++i) {
      std::vector<uint8_t> data(20000, static_cast<uint8_t>(i));
      auto p = co_await a->dmrpc()->MakePayload(data);
      if (!p.ok()) {
        final = p.status();
        co_return;
      }
      rpc::MsgBuffer wire;
      p->EncodeTo(&wire);
      core::Payload delivered = core::Payload::DecodeFrom(&wire);
      auto back = co_await b->dmrpc()->Fetch(delivered);
      if (!back.ok()) {
        final = back.status();
        co_return;
      }
      if (*back != data) {
        final = Status::Internal("corrupted under loss");
        co_return;
      }
      (void)co_await b->dmrpc()->Release(delivered);
    }
    final = Status::OK();
  };
  sim.Spawn(driver());
  sim.RunFor(60 * kSecond);
  ASSERT_TRUE(final.has_value());
  EXPECT_TRUE(final->ok()) << final->ToString();
}

TEST(FailureTest, OversizedAllocationRejected) {
  sim::Simulation sim(38);
  ClusterConfig cfg;
  cfg.backend = Backend::kDmNet;
  cfg.num_nodes = 4;
  Cluster cluster(&sim, cfg);
  ServiceEndpoint* svc = cluster.AddService("svc", 0, 900);
  ASSERT_TRUE(msvc::RunToCompletion(&sim, cluster.InitAll()).ok());
  std::optional<Status> final;
  auto driver = [&]() -> sim::Task<> {
    // Larger than the per-process VA span.
    auto va = co_await svc->dmrpc()->dm()->Alloc(uint64_t{1} << 60);
    final = va.ok() ? Status::Internal("absurd alloc worked") : va.status();
  };
  sim.Spawn(driver());
  sim.RunFor(5 * kSecond);
  ASSERT_TRUE(final.has_value());
  EXPECT_FALSE(final->ok());
}

}  // namespace
}  // namespace dmrpc
