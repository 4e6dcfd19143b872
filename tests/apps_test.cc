#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/block_storage.h"
#include "apps/bytes.h"
#include "apps/image_pipeline.h"
#include "apps/load_balancer.h"
#include "apps/nested_chain.h"
#include "apps/socialnet.h"
#include "msvc/cluster.h"
#include "msvc/workload.h"

namespace dmrpc::apps {
namespace {

using msvc::Backend;
using msvc::Cluster;
using msvc::ClusterConfig;
using msvc::ServiceEndpoint;

std::string BackendTestName(const ::testing::TestParamInfo<Backend>& info) {
  switch (info.param) {
    case Backend::kErpc:
      return "Erpc";
    case Backend::kDmNet:
      return "DmNet";
    case Backend::kDmCxl:
      return "DmCxl";
  }
  return "Unknown";
}

class AppsBackendTest : public ::testing::TestWithParam<Backend> {
 protected:
  std::unique_ptr<Cluster> MakeCluster(sim::Simulation* sim,
                                       uint32_t num_nodes = 10) {
    ClusterConfig cfg;
    cfg.backend = GetParam();
    cfg.num_nodes = num_nodes;
    cfg.dm_frames = 1u << 14;
    return std::make_unique<Cluster>(sim, cfg);
  }
};

TEST_P(AppsBackendTest, NestedChainDeliversCorrectSum) {
  sim::Simulation sim(71);
  auto cluster = MakeCluster(&sim);
  NestedChainApp app(cluster.get(), /*chain_len=*/5, {1, 2, 3, 4, 5});
  ServiceEndpoint* client = cluster->AddService("client", 0, 950);
  ASSERT_TRUE(msvc::RunToCompletion(&sim, cluster->InitAll()).ok());

  std::optional<Status> result;
  auto driver = [&]() -> sim::Task<> {
    for (int i = 0; i < 10; ++i) {
      auto r = co_await app.DoRequest(client, 4096);
      if (!r.ok()) {
        result = r.status();
        co_return;
      }
      if (*r != 4096) {
        result = Status::Internal("wrong byte count");
        co_return;
      }
    }
    result = Status::OK();
  };
  sim.Spawn(driver());
  sim.RunFor(5 * kSecond);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok()) << result->ToString();
}

TEST_P(AppsBackendTest, NestedChainLengthOneWorks) {
  sim::Simulation sim(72);
  auto cluster = MakeCluster(&sim);
  NestedChainApp app(cluster.get(), 1, {1});
  ServiceEndpoint* client = cluster->AddService("client", 0, 950);
  ASSERT_TRUE(msvc::RunToCompletion(&sim, cluster->InitAll()).ok());
  std::optional<bool> ok;
  auto driver = [&]() -> sim::Task<> {
    auto r = co_await app.DoRequest(client, 16384);
    ok = r.ok();
  };
  sim.Spawn(driver());
  sim.RunFor(5 * kSecond);
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(*ok);
}

TEST_P(AppsBackendTest, LoadBalancerSpreadsAndAcks) {
  sim::Simulation sim(73);
  auto cluster = MakeCluster(&sim);
  LoadBalancerApp app(cluster.get(), /*lb_node=*/1, {2, 3, 4});
  ServiceEndpoint* client = cluster->AddService("client", 0, 950);
  ASSERT_TRUE(msvc::RunToCompletion(&sim, cluster->InitAll()).ok());
  std::optional<Status> result;
  auto driver = [&]() -> sim::Task<> {
    for (int i = 0; i < 12; ++i) {
      auto r = co_await app.DoRequest(client, 8192);
      if (!r.ok()) {
        result = r.status();
        co_return;
      }
    }
    result = Status::OK();
  };
  sim.Spawn(driver());
  sim.RunFor(5 * kSecond);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok()) << result->ToString();
  // All three workers saw traffic.
  for (int i = 0; i < 3; ++i) {
    EXPECT_GT(cluster->service("lbworker" + std::to_string(i))
                  ->rpc()
                  ->stats()
                  .requests_handled,
              0u);
  }
}

TEST_P(AppsBackendTest, ImagePipelineTransformsCorrectly) {
  sim::Simulation sim(74);
  auto cluster = MakeCluster(&sim);
  ImagePipelineApp app(cluster.get(), {1, 2, 3, 4, 5, 6});
  ServiceEndpoint* client = cluster->AddService("client", 0, 950);
  ASSERT_TRUE(msvc::RunToCompletion(&sim, cluster->InitAll()).ok());
  std::optional<Status> result;
  auto driver = [&]() -> sim::Task<> {
    // Both ops (alternating), several sizes.
    for (uint32_t size : {1024u, 4096u, 32768u, 4096u}) {
      auto r = co_await app.DoRequest(client, size);
      if (!r.ok()) {
        result = r.status();
        co_return;
      }
    }
    result = Status::OK();
  };
  sim.Spawn(driver());
  sim.RunFor(10 * kSecond);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok()) << result->ToString();
  // Both codecs ran.
  EXPECT_GT(cluster->service("transcoding")->rpc()->stats().requests_handled,
            0u);
  EXPECT_GT(cluster->service("compressing")->rpc()->stats().requests_handled,
            0u);
}

TEST_P(AppsBackendTest, SocialNetComposeThenRead) {
  sim::Simulation sim(75);
  auto cluster = MakeCluster(&sim);
  SocialNetConfig scfg;
  scfg.num_users = 10;
  scfg.followers_per_user = 3;
  scfg.media_bytes = 4096;
  SocialNetApp app(cluster.get(), {1, 2, 3}, scfg);
  ServiceEndpoint* client = cluster->AddService("client", 0, 950);
  ASSERT_TRUE(msvc::RunToCompletion(&sim, cluster->InitAll()).ok());

  std::optional<Status> result;
  auto driver = [&]() -> sim::Task<> {
    // Compose posts from every user, then read timelines.
    for (uint32_t u = 0; u < 10; ++u) {
      auto r = co_await app.DoRequest(client, SocialNetApp::ReqKind::kComposePost, u);
      if (!r.ok()) {
        result = r.status();
        co_return;
      }
    }
    // The author's own user-timeline always has a post.
    auto ut = co_await app.DoRequest(client, SocialNetApp::ReqKind::kReadUser, 3);
    if (!ut.ok()) {
      result = ut.status();
      co_return;
    }
    if (*ut == 0) {
      result = Status::Internal("user timeline empty after compose");
      co_return;
    }
    result = Status::OK();
  };
  sim.Spawn(driver());
  sim.RunFor(10 * kSecond);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok()) << result->ToString();
  EXPECT_EQ(app.posts_stored(), 10u);
}

TEST_P(AppsBackendTest, SocialNetMixedWorkloadRuns) {
  sim::Simulation sim(76);
  auto cluster = MakeCluster(&sim);
  SocialNetConfig scfg;
  scfg.num_users = 20;
  scfg.media_bytes = 4096;
  SocialNetApp app(cluster.get(), {1, 2, 3}, scfg);
  ServiceEndpoint* client = cluster->AddService("client", 0, 950);
  ASSERT_TRUE(msvc::RunToCompletion(&sim, cluster->InitAll()).ok());

  msvc::RequestFn fn = app.MakeMixedRequestFn(client);
  msvc::WorkloadResult res =
      msvc::RunClosedLoop(&sim, fn, 4, 50 * kMillisecond, 500 * kMillisecond);
  EXPECT_GT(res.completed, 50u);
  EXPECT_EQ(res.failed, 0u);
  EXPECT_GT(app.posts_stored(), 0u);
}

TEST_P(AppsBackendTest, SocialNetEvictionReleasesPosts) {
  sim::Simulation sim(77);
  auto cluster = MakeCluster(&sim);
  SocialNetConfig scfg;
  scfg.num_users = 5;
  scfg.followers_per_user = 1;
  scfg.media_bytes = 4096;
  scfg.max_stored_posts = 8;
  SocialNetApp app(cluster.get(), {1, 2, 3}, scfg);
  ServiceEndpoint* client = cluster->AddService("client", 0, 950);
  ASSERT_TRUE(msvc::RunToCompletion(&sim, cluster->InitAll()).ok());
  std::optional<Status> result;
  auto driver = [&]() -> sim::Task<> {
    for (int i = 0; i < 20; ++i) {
      auto r = co_await app.DoRequest(
          client, SocialNetApp::ReqKind::kComposePost, i % 5);
      if (!r.ok()) {
        result = r.status();
        co_return;
      }
    }
    result = Status::OK();
  };
  sim.Spawn(driver());
  sim.RunFor(10 * kSecond);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok()) << result->ToString();
  EXPECT_EQ(app.posts_evicted(), 12u);
}

TEST_P(AppsBackendTest, BlockStorageWriteReadRoundTrip) {
  sim::Simulation sim(78);
  auto cluster = MakeCluster(&sim);
  BlockStorageApp app(cluster.get(), {1, 2, 3, 4, 5, 6, 7});
  ServiceEndpoint* client = cluster->AddService("client", 0, 950);
  ASSERT_TRUE(msvc::RunToCompletion(&sim, cluster->InitAll()).ok());

  std::optional<Status> result;
  auto driver = [&]() -> sim::Task<> {
    std::vector<uint8_t> block(65536);
    for (size_t i = 0; i < block.size(); ++i) {
      block[i] = static_cast<uint8_t>(i * 17);
    }
    auto w = co_await app.WriteBlock(client, 1, 42, block);
    if (!w.ok()) {
      result = w.status();
      co_return;
    }
    auto r = co_await app.ReadBlock(client, 1, 42);
    if (!r.ok()) {
      result = r.status();
      co_return;
    }
    if (*r != block) {
      result = Status::Internal("block corrupted through the chain");
      co_return;
    }
    result = Status::OK();
  };
  sim.Spawn(driver());
  sim.RunFor(10 * kSecond);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok()) << result->ToString();
  // Chain of 3 (primary + 2 replicas) each stored the block once.
  EXPECT_EQ(app.blocks_stored(), 3u);
}

TEST_P(AppsBackendTest, BlockStorageOverwriteReturnsLatest) {
  sim::Simulation sim(79);
  auto cluster = MakeCluster(&sim);
  BlockStorageApp app(cluster.get(), {1, 2, 3, 4, 5, 6, 7});
  ServiceEndpoint* client = cluster->AddService("client", 0, 950);
  ASSERT_TRUE(msvc::RunToCompletion(&sim, cluster->InitAll()).ok());

  std::optional<Status> result;
  auto driver = [&]() -> sim::Task<> {
    for (int round = 1; round <= 5; ++round) {
      std::vector<uint8_t> block(16384, static_cast<uint8_t>(round));
      auto w = co_await app.WriteBlock(client, 2, 7, block);
      if (!w.ok()) {
        result = w.status();
        co_return;
      }
      auto r = co_await app.ReadBlock(client, 2, 7);
      if (!r.ok()) {
        result = r.status();
        co_return;
      }
      if ((*r)[0] != static_cast<uint8_t>(round) || r->size() != 16384) {
        result = Status::Internal("stale read after overwrite");
        co_return;
      }
    }
    result = Status::OK();
  };
  sim.Spawn(driver());
  sim.RunFor(10 * kSecond);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok()) << result->ToString();
}

TEST_P(AppsBackendTest, BlockStorageMissingBlockIsNotFound) {
  sim::Simulation sim(80);
  auto cluster = MakeCluster(&sim);
  BlockStorageApp app(cluster.get(), {1, 2, 3, 4, 5, 6, 7});
  ServiceEndpoint* client = cluster->AddService("client", 0, 950);
  ASSERT_TRUE(msvc::RunToCompletion(&sim, cluster->InitAll()).ok());
  std::optional<Status> result;
  auto driver = [&]() -> sim::Task<> {
    auto r = co_await app.ReadBlock(client, 9, 999);
    result = r.ok() ? Status::Internal("read a ghost block") : r.status();
  };
  sim.Spawn(driver());
  sim.RunFor(10 * kSecond);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->IsNotFound()) << result->ToString();
}

TEST_P(AppsBackendTest, BlockStorageMixedWorkloadRuns) {
  sim::Simulation sim(81);
  auto cluster = MakeCluster(&sim, /*num_nodes=*/12);
  BlockStorageApp app(cluster.get(), {1, 2, 3, 4, 5, 6, 7});
  ServiceEndpoint* client = cluster->AddService("client", 0, 950, 4);
  ASSERT_TRUE(msvc::RunToCompletion(&sim, cluster->InitAll()).ok());
  msvc::RequestFn fn = app.MakeWorkloadFn(client, 32768, 0.3);
  msvc::WorkloadResult res =
      msvc::RunClosedLoop(&sim, fn, 8, 50 * kMillisecond,
                          400 * kMillisecond);
  EXPECT_GT(res.completed, 100u);
  EXPECT_EQ(res.failed, 0u);
}

INSTANTIATE_TEST_SUITE_P(Backends, AppsBackendTest,
                         ::testing::Values(Backend::kErpc, Backend::kDmNet,
                                           Backend::kDmCxl),
                         BackendTestName);

// The byte kernels checked against naive references kept here. Client and
// aggregator share SumBytes, so a bug that hits both sides alike would
// still let NestedChainDeliversCorrectSum pass; these tests catch it.

uint64_t NaiveSum(const uint8_t* p, size_t n) {
  uint64_t sum = 0;
  for (size_t i = 0; i < n; ++i) sum += p[i];
  return sum;
}

/// Deterministic bytes covering the full 0..255 range.
std::vector<uint8_t> MixedBytes(size_t n) {
  std::vector<uint8_t> v(n);
  uint32_t x = 12345;
  for (uint8_t& b : v) {
    x = x * 1103515245u + 12345u;
    b = static_cast<uint8_t>(x >> 24);
  }
  return v;
}

TEST(ByteKernelTest, FillMatchesNaivePatternAcrossTheByteWrap) {
  for (uint64_t seed : {uint64_t{0}, uint64_t{1}, uint64_t{200},
                        uint64_t{255}, uint64_t{256}, uint64_t{1000},
                        ~uint64_t{0} - 5}) {
    for (size_t n : {0u, 1u, 17u, 256u, 300u, 4099u}) {
      // One guard byte on each side, and an odd start offset.
      std::vector<uint8_t> buf(n + 3, 0xAB);
      FillPattern(buf.data() + 1, n, seed);
      EXPECT_EQ(buf[0], 0xAB);
      EXPECT_EQ(buf[n + 1], 0xAB) << "seed " << seed << " n " << n;
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(buf[1 + i], static_cast<uint8_t>(seed + i))
            << "seed " << seed << " i " << i;
      }
    }
  }
}

TEST(ByteKernelTest, SumMatchesNaiveSumAtEveryLengthAndAlignment) {
  const std::vector<size_t> lengths = {0,   1,   15,   16,   255,
                                       256, 257, 4095, 65539};
  std::vector<uint8_t> mixed = MixedBytes(65539 + 16);
  // All 0xFF is the 16-bit block accumulator's worst case.
  std::vector<uint8_t> ones(65539 + 16, 0xFF);
  for (const std::vector<uint8_t>* buf : {&mixed, &ones}) {
    for (size_t offset : {0u, 1u, 3u, 7u}) {
      for (size_t n : lengths) {
        const uint8_t* p = buf->data() + offset;
        EXPECT_EQ(SumBytes(p, n), NaiveSum(p, n))
            << "n " << n << " offset " << offset;
      }
    }
  }
}

TEST(ByteKernelTest, MultiSliceBufferSumsToItsFlattenedSum) {
  for (const std::vector<uint8_t>& bytes :
       {MixedBytes(20000), std::vector<uint8_t>(20000, 0xFF)}) {
    rpc::MsgBuffer src(bytes);
    // Odd slice sizes: slices that end mid-block and straddle slabs.
    rpc::MsgBuffer chain;
    size_t pos = 0;
    for (size_t len : {1u, 3u, 255u, 257u, 511u, 4097u, 7u, 9999u}) {
      chain.AppendRangeOf(src, pos, len);
      pos += len;
    }
    ASSERT_GE(chain.segments().size(), 8u);
    std::vector<uint8_t> flat = chain.CopyBytes();
    ASSERT_EQ(flat.size(), pos);
    EXPECT_EQ(SumBytes(chain), NaiveSum(flat.data(), flat.size()));
  }
}

}  // namespace
}  // namespace dmrpc::apps
