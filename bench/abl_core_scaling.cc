// Ablation: DM-server core scaling (paper §VI-E: "the system throughput
// increases almost linearly with the number of used CPU cores").
//
// Drives one DmRPC-net DM server with a deep window of PutRef/FetchRef
// pairs (the producer/consumer hot path) while sweeping its worker core
// count, and reports the speedup relative to a single core. Also sweeps
// the paper's future-work MMU-direct translation mode (§V-A2) to show
// what removing the software translation would buy.

#include <map>
#include <vector>

#include "apps/image_pipeline.h"
#include "bench/bench_util.h"
#include "common/logging.h"
#include "dmnet/client.h"
#include "dmnet/protocol.h"
#include "dmnet/server.h"
#include "msvc/cluster.h"
#include "msvc/workload.h"
#include "net/fabric.h"
#include "sim/simulation.h"

namespace dmrpc::bench {
namespace {

constexpr uint32_t kBlockBytes = 16384;

double RunOne(int cores, bool mmu_direct) {
  BenchEnv env = BenchEnv::FromEnv();
  sim::Simulation sim(24);
  BenchObs::Arm(&sim);
  net::Fabric fabric(&sim, net::NetworkConfig{}, 3);
  dmnet::DmServerConfig scfg;
  scfg.num_frames = 1u << 16;
  scfg.cores = cores;
  scfg.mmu_direct_translation = mmu_direct;
  dmnet::DmServer server(&fabric, 2, dmnet::kDmServerPort, scfg,
                         uint64_t{1} << 44);
  // Two client hosts so the server, not a client NIC, is the bottleneck.
  rpc::Rpc rpc_a(&fabric, 0, 1000);
  rpc::Rpc rpc_b(&fabric, 1, 1000);
  std::vector<dmnet::DmServerAddr> addrs{
      {2, dmnet::kDmServerPort, uint64_t{1} << 44, uint64_t{1} << 44}};
  dmnet::DmNetClient client_a(&rpc_a, addrs);
  dmnet::DmNetClient client_b(&rpc_b, addrs);

  Status st = msvc::RunToCompletion(&sim, [&]() -> sim::Task<Status> {
    Status a = co_await client_a.Init();
    if (!a.ok()) co_return a;
    co_return co_await client_b.Init();
  }());
  DMRPC_CHECK(st.ok()) << st.ToString();

  std::vector<uint8_t> block(kBlockBytes, 0x66);
  auto counter = std::make_shared<int>(0);
  msvc::RequestFn fn = [&, counter]() -> sim::Task<StatusOr<uint64_t>> {
    dmnet::DmNetClient* producer =
        (*counter)++ % 2 == 0 ? &client_a : &client_b;
    dmnet::DmNetClient* consumer =
        producer == &client_a ? &client_b : &client_a;
    auto ref = co_await producer->PutRef(block.data(), block.size());
    if (!ref.ok()) co_return ref.status();
    auto data = co_await consumer->FetchRef(*ref);
    if (!data.ok()) co_return data.status();
    Status rs = co_await consumer->ReleaseRef(*ref);
    if (!rs.ok()) co_return rs;
    co_return uint64_t{kBlockBytes};
  };
  msvc::WorkloadResult res = msvc::RunClosedLoop(
      &sim, fn, /*workers=*/32, env.Warmup(10 * kMillisecond),
      env.Measure(150 * kMillisecond));
  BenchObs::Record(std::string(mmu_direct ? "mmu-direct" : "sw") + "_cores" +
                       std::to_string(cores),
                   &sim);
  return res.throughput_rps();
}

constexpr int kCores[] = {1, 2, 4, 8};

/// The paper's actual linear-scaling claim (§VI-E): the image app on
/// DmRPC-CXL is bound by application CPU cores, not UPI or network.
double RunImageApp(int codec_threads) {
  BenchEnv env = BenchEnv::FromEnv();
  sim::Simulation sim(25);
  BenchObs::Arm(&sim);
  msvc::ClusterConfig cfg;
  cfg.backend = msvc::Backend::kDmCxl;
  cfg.num_nodes = 10;
  cfg.dm_frames = 1u << 16;
  msvc::Cluster cluster(&sim, cfg);
  apps::ImagePipelineConfig pcfg;
  pcfg.codec_threads = codec_threads;
  apps::ImagePipelineApp app(&cluster, {1, 2, 3, 4, 5, 6}, pcfg);
  msvc::ServiceEndpoint* client = cluster.AddService("client", 0, 1000, 8);
  Status st = msvc::RunToCompletion(&sim, cluster.InitAll());
  if (!st.ok()) LOG_FATAL << "init: " << st.ToString();
  msvc::WorkloadResult res = msvc::RunClosedLoop(
      &sim, app.MakeRequestFn(client, 65536), /*workers=*/8 * codec_threads,
      env.Warmup(30 * kMillisecond), env.Measure(200 * kMillisecond));
  BenchObs::Record("image-app_codec" + std::to_string(codec_threads), &sim);
  return res.throughput_gbps();
}

void Main() {
  std::map<std::pair<int, bool>, double> runs;
  for (int cores : kCores) {
    for (bool mmu : {false, true}) runs[{cores, mmu}] = RunOne(cores, mmu);
  }

  Table table(
      "Ablation: DM-server core scaling (16KB PutRef+FetchRef pairs)",
      {"cores", "krps", "speedup", "krps(mmu-direct)", "mmu-gain"});
  for (int cores : kCores) {
    double sw = runs.at({cores, false});
    double mmu = runs.at({cores, true});
    table.AddRow({Table::Int(cores), Table::Num(sw / 1e3),
                  Table::Num(sw / runs.at({1, false}), 2) + "x",
                  Table::Num(mmu / 1e3),
                  Table::Num(sw > 0 ? mmu / sw : 0, 3) + "x"});
  }
  table.Print();

  std::map<int, double> gbps;
  for (int cores : kCores) gbps[cores] = RunImageApp(cores);
  Table app(
      "Paper §VI-E claim: image app (DmRPC-CXL, 64KB) scales with codec "
      "cores",
      {"codec-cores", "Gbps", "speedup"});
  for (int cores : kCores) {
    app.AddRow({Table::Int(cores), Table::Num(gbps.at(cores), 2),
                Table::Num(gbps.at(cores) / gbps.at(1), 2) + "x"});
  }
  app.Print();
}

}  // namespace
}  // namespace dmrpc::bench

int main() { dmrpc::bench::Main(); }
