// Reproduces Fig. 5 (paper §VI-B): throughput and average latency of a
// nested RPC chain, 4 KiB argument, single client thread, as the number
// of nested calls grows from 1 to 7, for eRPC / DmRPC-net / DmRPC-CXL.
//
// Expected shape: eRPC throughput decays ~1/chain-length because the
// argument crosses the wire at every hop; DmRPC-net and DmRPC-CXL stay
// nearly flat (only the Ref is forwarded) with DmRPC-CXL on top.

#include <map>

#include "apps/nested_chain.h"
#include "bench/bench_util.h"
#include "common/logging.h"
#include "msvc/cluster.h"
#include "msvc/workload.h"

namespace dmrpc::bench {
namespace {

constexpr uint32_t kArgBytes = 4096;

msvc::WorkloadResult RunChain(msvc::Backend backend, int chain_len) {
  BenchEnv env = BenchEnv::FromEnv();
  sim::Simulation sim(7);
  BenchObs::Arm(&sim);
  msvc::ClusterConfig cfg;
  cfg.backend = backend;
  cfg.num_nodes = 10;
  cfg.dm_frames = 1u << 15;
  msvc::Cluster cluster(&sim, cfg);
  apps::NestedChainApp app(&cluster, chain_len, {1, 2, 3, 4, 5, 6, 7});
  msvc::ServiceEndpoint* client = cluster.AddService("client", 0, 1000);
  Status st = msvc::RunToCompletion(&sim, cluster.InitAll());
  if (!st.ok()) LOG_FATAL << "init: " << st.ToString();
  // One client thread with a full session-slot window (8 outstanding).
  msvc::WorkloadResult res = msvc::RunClosedLoop(
      &sim, app.MakeRequestFn(client, kArgBytes),
      /*workers=*/8, env.Warmup(20 * kMillisecond),
      env.Measure(250 * kMillisecond));
  BenchObs::Record(std::string(msvc::BackendName(backend)) + "_chain" +
                       std::to_string(chain_len),
                   &sim);
  return res;
}

void Main() {
  std::map<std::pair<msvc::Backend, int>, msvc::WorkloadResult> runs;
  for (msvc::Backend backend :
       {msvc::Backend::kErpc, msvc::Backend::kDmNet, msvc::Backend::kDmCxl}) {
    for (int chain = 1; chain <= 7; ++chain) {
      runs[{backend, chain}] = RunChain(backend, chain);
    }
  }

  Table tput("Fig 5a: nested RPC throughput (krps), 4KB arg, 1 thread",
             {"chain", "eRPC", "DmRPC-net", "DmRPC-CXL"});
  Table lat("Fig 5b: nested RPC average latency (us)",
            {"chain", "eRPC", "DmRPC-net", "DmRPC-CXL"});
  for (int chain = 1; chain <= 7; ++chain) {
    const msvc::WorkloadResult& erpc = runs.at({msvc::Backend::kErpc, chain});
    const msvc::WorkloadResult& net = runs.at({msvc::Backend::kDmNet, chain});
    const msvc::WorkloadResult& cxl = runs.at({msvc::Backend::kDmCxl, chain});
    tput.AddRow({Table::Int(chain), Table::Num(erpc.throughput_rps() / 1e3),
                 Table::Num(net.throughput_rps() / 1e3),
                 Table::Num(cxl.throughput_rps() / 1e3)});
    lat.AddRow({Table::Int(chain), Table::Num(erpc.latency.mean() / 1e3),
                Table::Num(net.latency.mean() / 1e3),
                Table::Num(cxl.latency.mean() / 1e3)});
  }
  tput.Print();
  lat.Print();
}

}  // namespace
}  // namespace dmrpc::bench

int main() { dmrpc::bench::Main(); }
