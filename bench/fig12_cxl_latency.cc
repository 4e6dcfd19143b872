// Reproduces Fig. 12 (paper §VI-G): DmRPC-CXL's sensitivity to the CXL
// memory-pool access latency, sweeping it from 165 ns (no switch) to
// 565 ns, normalized to the fastest point.
//   12a: the §VI-D micro-benchmark (32 KiB block sharing, 50% writes).
//   12b: the cloud image processing application (4 KiB images).
//
// Expected shape: throughput decreases only mildly across the sweep --
// the paper's argument that its 265 ns emulation point is robust.

#include <map>
#include <vector>

#include "apps/image_pipeline.h"
#include "bench/bench_util.h"
#include "common/logging.h"
#include "core/dmrpc.h"
#include "msvc/cluster.h"
#include "msvc/workload.h"

namespace dmrpc::bench {
namespace {

constexpr TimeNs kLatenciesNs[] = {165, 265, 365, 465, 565};

/// 12a workload: 32 KiB block shared producer -> consumer, 50% written.
double RunMicro(TimeNs cxl_latency) {
  BenchEnv env = BenchEnv::FromEnv();
  sim::Simulation sim(12);
  BenchObs::Arm(&sim);
  msvc::ClusterConfig cfg;
  cfg.backend = msvc::Backend::kDmCxl;
  cfg.num_nodes = 5;
  cfg.dm_frames = 1u << 15;
  cfg.memory.cxl_latency_ns = cxl_latency;
  msvc::Cluster cluster(&sim, cfg);
  msvc::ServiceEndpoint* producer = cluster.AddService("producer", 0, 1000);
  msvc::ServiceEndpoint* consumer = cluster.AddService("consumer", 1, 1000);

  constexpr rpc::ReqType kShare = 60;
  consumer->RegisterHandler(
      kShare, [consumer](rpc::ReqContext,
                         rpc::MsgBuffer req) -> sim::Task<rpc::MsgBuffer> {
        core::Payload payload = core::Payload::DecodeFrom(&req);
        rpc::MsgBuffer resp;
        auto region = co_await consumer->dmrpc()->Map(payload);
        if (!region.ok()) {
          resp.Append<uint8_t>(1);
          co_return resp;
        }
        std::vector<uint8_t> data(16384, 0x77);  // 50% of 32 KiB
        (void)co_await region->Write(0, data.data(), data.size());
        (void)co_await region->Close();
        consumer->Detach(consumer->dmrpc()->Release(payload));
        resp.Append<uint8_t>(0);
        co_return resp;
      });
  Status st = msvc::RunToCompletion(&sim, cluster.InitAll());
  if (!st.ok()) LOG_FATAL << "init: " << st.ToString();

  std::vector<uint8_t> block(32768, 0x42);
  msvc::RequestFn fn = [&]() -> sim::Task<StatusOr<uint64_t>> {
    auto payload = co_await producer->dmrpc()->MakePayload(block);
    if (!payload.ok()) co_return payload.status();
    rpc::MsgBuffer req;
    payload->EncodeTo(&req);
    auto resp = co_await producer->CallService("consumer", kShare,
                                               std::move(req));
    if (!resp.ok()) co_return resp.status();
    co_return uint64_t{32768};
  };
  msvc::WorkloadResult res = msvc::RunClosedLoop(
      &sim, fn, /*workers=*/4, env.Warmup(10 * kMillisecond),
      env.Measure(200 * kMillisecond));
  BenchObs::Record("micro-32k_" + std::to_string(cxl_latency) + "ns", &sim);
  return res.throughput_rps();
}

/// 12b workload: the image pipeline at 4 KiB.
double RunImageApp(TimeNs cxl_latency) {
  BenchEnv env = BenchEnv::FromEnv();
  sim::Simulation sim(13);
  BenchObs::Arm(&sim);
  msvc::ClusterConfig cfg;
  cfg.backend = msvc::Backend::kDmCxl;
  cfg.num_nodes = 10;
  cfg.dm_frames = 1u << 16;
  cfg.memory.cxl_latency_ns = cxl_latency;
  msvc::Cluster cluster(&sim, cfg);
  apps::ImagePipelineApp app(&cluster, {1, 2, 3, 4, 5, 6});
  msvc::ServiceEndpoint* client = cluster.AddService("client", 0, 1000, 4);
  Status st = msvc::RunToCompletion(&sim, cluster.InitAll());
  if (!st.ok()) LOG_FATAL << "init: " << st.ToString();
  msvc::WorkloadResult res = msvc::RunClosedLoop(
      &sim, app.MakeRequestFn(client, 4096), /*workers=*/16,
      env.Warmup(30 * kMillisecond), env.Measure(250 * kMillisecond));
  BenchObs::Record("image-4k_" + std::to_string(cxl_latency) + "ns", &sim);
  return res.throughput_rps();
}

void Main() {
  std::map<TimeNs, double> micro;
  std::map<TimeNs, double> image;
  for (TimeNs latency : kLatenciesNs) micro[latency] = RunMicro(latency);
  for (TimeNs latency : kLatenciesNs) image[latency] = RunImageApp(latency);

  Table table("Fig 12: DmRPC-CXL normalized throughput vs CXL latency",
              {"latency-ns", "micro-krps", "micro-norm", "image-krps",
               "image-norm"});
  for (TimeNs latency : kLatenciesNs) {
    table.AddRow({Table::Int(latency), Table::Num(micro.at(latency) / 1e3),
                  Table::Num(micro.at(latency) / micro.at(165), 3),
                  Table::Num(image.at(latency) / 1e3),
                  Table::Num(image.at(latency) / image.at(165), 3)});
  }
  table.Print();
}

}  // namespace
}  // namespace dmrpc::bench

int main() { dmrpc::bench::Main(); }
