// Runs the DeathStarBench-style social network (paper §VI-F) under a
// mixed 60/30/10 workload and prints throughput, tail latency, and
// post-storage behaviour.
//
//   $ ./examples/social_network_demo            # DmRPC-net
//   $ ./examples/social_network_demo erpc 20000 # eRPC at 20 krps offered

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "apps/socialnet.h"
#include "msvc/cluster.h"
#include "msvc/workload.h"
#include "workload/openloop.h"

using namespace dmrpc;        // NOLINT: example brevity
using namespace dmrpc::msvc;  // NOLINT

int main(int argc, char** argv) {
  Backend backend = Backend::kDmNet;
  if (argc > 1) {
    if (std::strcmp(argv[1], "erpc") == 0) backend = Backend::kErpc;
    if (std::strcmp(argv[1], "cxl") == 0) backend = Backend::kDmCxl;
  }
  double rate = argc > 2 ? std::atof(argv[2]) : 5000.0;

  std::printf("== Social network on %s, %.0f req/s offered ==\n",
              BackendName(backend), rate);
  std::printf("mix: 60%% read-home-timeline, 30%% read-user-timeline, "
              "10%% compose-post\n\n");

  sim::Simulation sim(11);
  ClusterConfig cfg;
  cfg.backend = backend;
  cfg.num_nodes = 6;  // 3 app servers + client host + DM substrate
  cfg.dm_frames = 1u << 16;
  Cluster cluster(&sim, cfg);

  apps::SocialNetApp app(&cluster, {1, 2, 3});
  ServiceEndpoint* client = cluster.AddService("client", 0, 1000);
  Status st = msvc::RunToCompletion(&sim, cluster.InitAll());
  if (!st.ok()) {
    std::printf("init failed: %s\n", st.ToString().c_str());
    return 1;
  }

  workload::OpenLoopConfig wcfg;
  wcfg.rate_rps = rate;
  wcfg.max_outstanding = 20000;
  WorkloadResult res = workload::RunOpenLoopMulti(
      &sim, {app.MakeMixedRequestFn(client)}, wcfg,
      /*warmup=*/100 * kMillisecond, /*measure=*/1 * kSecond);

  std::printf("completed %llu / offered %llu (failed %llu)\n",
              static_cast<unsigned long long>(res.completed),
              static_cast<unsigned long long>(res.offered),
              static_cast<unsigned long long>(res.failed));
  std::printf("goodput: %.0f req/s, media moved to readers: %.2f Gbps\n",
              res.throughput_rps(), res.throughput_gbps());
  std::printf("latency: mean %s  p50 %s  p99 %s  p99.9 %s\n",
              FormatDuration(res.latency.mean()).c_str(),
              FormatDuration(res.latency.p50()).c_str(),
              FormatDuration(res.latency.p99()).c_str(),
              FormatDuration(res.latency.p999()).c_str());
  std::printf("posts stored: %llu, evicted: %llu\n",
              static_cast<unsigned long long>(app.posts_stored()),
              static_cast<unsigned long long>(app.posts_evicted()));

  std::printf("\ndata-mover hosts' memory traffic per completed request:\n");
  for (net::NodeId node : {1u, 2u, 3u}) {
    std::printf("  server %u: %s\n", node,
                FormatBytes(cluster.node_meter(node)->dram_bytes() /
                            (res.completed ? res.completed : 1))
                    .c_str());
  }
  return 0;
}
