// Reproduces Fig. 10 (paper §VI-E): the synthetic 7-tier Cloud Image
// Processing application.
//   10a: end-to-end throughput (Gbps of image data) vs image size.
//   10b: average / p99 / p99.5 / p99.9 latency at 4 KiB images.
//
// Expected shape: eRPC's throughput stays low and roughly flat as image
// size grows (every tier moves every byte); DmRPC-net and DmRPC-CXL
// scale up with image size, CXL on top; at 4 KiB the latency order is
// CXL < net < eRPC.

#include <map>

#include "apps/image_pipeline.h"
#include "bench/bench_util.h"
#include "common/logging.h"
#include "msvc/cluster.h"
#include "msvc/workload.h"

namespace dmrpc::bench {
namespace {

msvc::WorkloadResult RunPipeline(msvc::Backend backend, uint32_t image_bytes) {
  BenchEnv env = BenchEnv::FromEnv();
  sim::Simulation sim(10);
  BenchObs::Arm(&sim);
  msvc::ClusterConfig cfg;
  cfg.backend = backend;
  cfg.num_nodes = 10;
  cfg.dm_frames = 1u << 16;
  msvc::Cluster cluster(&sim, cfg);
  apps::ImagePipelineApp app(&cluster, {1, 2, 3, 4, 5, 6});
  msvc::ServiceEndpoint* client = cluster.AddService("client", 0, 1000, 4);
  Status st = msvc::RunToCompletion(&sim, cluster.InitAll());
  if (!st.ok()) LOG_FATAL << "init: " << st.ToString();

  msvc::WorkloadResult res = msvc::RunClosedLoop(
      &sim, app.MakeRequestFn(client, image_bytes), /*workers=*/16,
      env.Warmup(30 * kMillisecond), env.Measure(300 * kMillisecond));
  BenchObs::Record(std::string(msvc::BackendName(backend)) + "_" +
                       std::to_string(image_bytes) + "B",
                   &sim);
  return res;
}

constexpr uint32_t kSizes[] = {1024, 4096, 16384, 65536, 262144};

void Main() {
  std::map<std::pair<msvc::Backend, uint32_t>, msvc::WorkloadResult> runs;
  for (msvc::Backend backend :
       {msvc::Backend::kErpc, msvc::Backend::kDmNet, msvc::Backend::kDmCxl}) {
    for (uint32_t bytes : kSizes) {
      runs[{backend, bytes}] = RunPipeline(backend, bytes);
    }
  }

  Table tput("Fig 10a: image pipeline throughput (Gbps of images)",
             {"size", "eRPC", "DmRPC-net", "DmRPC-CXL", "net-gain",
              "cxl-gain"});
  for (uint32_t bytes : kSizes) {
    const msvc::WorkloadResult& erpc = runs.at({msvc::Backend::kErpc, bytes});
    const msvc::WorkloadResult& net = runs.at({msvc::Backend::kDmNet, bytes});
    const msvc::WorkloadResult& cxl = runs.at({msvc::Backend::kDmCxl, bytes});
    double e = erpc.throughput_gbps();
    tput.AddRow({FormatBytes(bytes), Table::Num(e, 2),
                 Table::Num(net.throughput_gbps(), 2),
                 Table::Num(cxl.throughput_gbps(), 2),
                 Table::Num(e > 0 ? net.throughput_gbps() / e : 0, 1) + "x",
                 Table::Num(e > 0 ? cxl.throughput_gbps() / e : 0, 1) + "x"});
  }
  tput.Print();

  Table lat("Fig 10b: latency at 4KB images (us)",
            {"metric", "eRPC", "DmRPC-net", "DmRPC-CXL"});
  const msvc::WorkloadResult& erpc = runs.at({msvc::Backend::kErpc, 4096});
  const msvc::WorkloadResult& net = runs.at({msvc::Backend::kDmNet, 4096});
  const msvc::WorkloadResult& cxl = runs.at({msvc::Backend::kDmCxl, 4096});
  auto row = [&](const char* name, auto pick) {
    lat.AddRow({name, Table::Num(pick(erpc) / 1e3),
                Table::Num(pick(net) / 1e3), Table::Num(pick(cxl) / 1e3)});
  };
  row("average", [](const msvc::WorkloadResult& r) {
    return static_cast<double>(r.latency.mean());
  });
  row("p99", [](const msvc::WorkloadResult& r) {
    return static_cast<double>(r.latency.p99());
  });
  row("p99.5", [](const msvc::WorkloadResult& r) {
    return static_cast<double>(r.latency.p995());
  });
  row("p99.9", [](const msvc::WorkloadResult& r) {
    return static_cast<double>(r.latency.p999());
  });
  lat.Print();
}

}  // namespace
}  // namespace dmrpc::bench

int main() { dmrpc::bench::Main(); }
