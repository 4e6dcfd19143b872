// Reproduces Fig. 6 (paper §VI-B): an application-layer load balancer
// forwarding requests from three client hosts to three worker hosts.
//   6a: sustained request rate vs request size (4K-32K).
//   6b: memory bandwidth consumed on the LB host.
//
// Expected shape: with eRPC both the achievable rate drops and the LB
// host's memory bandwidth grows with request size (every byte is DMA'd
// in and out of its DRAM); with DmRPC the LB forwards ~30-byte Refs, so
// its rate is size-independent and its memory traffic near zero.

#include <map>

#include "apps/load_balancer.h"
#include "bench/bench_util.h"
#include "common/logging.h"
#include "msvc/cluster.h"
#include "msvc/workload.h"

namespace dmrpc::bench {
namespace {

constexpr net::NodeId kLbNode = 3;

struct LbOutcome {
  msvc::WorkloadResult result;
  double lb_gbytes_per_s = 0.0;
  double lb_bytes_per_req = 0.0;
};

LbOutcome RunLb(msvc::Backend backend, uint32_t req_bytes) {
  BenchEnv env = BenchEnv::FromEnv();
  sim::Simulation sim(6);
  BenchObs::Arm(&sim);
  msvc::ClusterConfig cfg;
  cfg.backend = backend;
  cfg.num_nodes = 12;  // 3 clients, LB, 3 workers, spares, 2 DM hosts
  cfg.dm_frames = 1u << 15;
  msvc::Cluster cluster(&sim, cfg);
  apps::LoadBalancerApp app(&cluster, kLbNode, {4, 5, 6});
  // Three generator hosts, as in the paper.
  std::vector<msvc::ServiceEndpoint*> clients;
  for (net::NodeId n : {0u, 1u, 2u}) {
    clients.push_back(
        cluster.AddService("client" + std::to_string(n), n, 1000));
  }
  Status st = msvc::RunToCompletion(&sim, cluster.InitAll());
  if (!st.ok()) LOG_FATAL << "init: " << st.ToString();

  // Spread a window of 8 outstanding requests over each client host.
  auto counter = std::make_shared<size_t>(0);
  msvc::RequestFn fn =
      [&app, clients, counter,
       req_bytes]() -> sim::Task<StatusOr<uint64_t>> {
    msvc::ServiceEndpoint* client = clients[(*counter)++ % clients.size()];
    return app.DoRequest(client, req_bytes);
  };
  TimeNs measure = env.Measure(250 * kMillisecond);
  uint64_t lb_bytes = 0;
  msvc::WindowHooks hooks;
  hooks.on_measure_start = [&cluster] {
    cluster.node_meter(kLbNode)->Reset();
  };
  hooks.on_measure_end = [&cluster, &lb_bytes] {
    lb_bytes = cluster.node_meter(kLbNode)->dram_bytes();
  };
  LbOutcome out;
  out.result =
      msvc::RunClosedLoop(&sim, fn, /*workers=*/24,
                          env.Warmup(20 * kMillisecond), measure, hooks);
  out.lb_gbytes_per_s =
      static_cast<double>(lb_bytes) / static_cast<double>(measure);
  out.lb_bytes_per_req =
      out.result.completed == 0
          ? 0.0
          : static_cast<double>(lb_bytes) / out.result.completed;
  BenchObs::Record(std::string(msvc::BackendName(backend)) + "_" +
                       std::to_string(req_bytes) + "B",
                   &sim);
  return out;
}

void Main() {
  std::map<std::pair<msvc::Backend, uint32_t>, LbOutcome> runs;
  for (msvc::Backend backend :
       {msvc::Backend::kErpc, msvc::Backend::kDmNet, msvc::Backend::kDmCxl}) {
    for (uint32_t bytes : {4096u, 8192u, 16384u, 32768u}) {
      runs[{backend, bytes}] = RunLb(backend, bytes);
    }
  }

  Table tput("Fig 6a: LB request rate (krps) vs request size",
             {"size", "eRPC", "DmRPC-net", "DmRPC-CXL"});
  Table bw("Fig 6b: LB-server memory bandwidth (GB/s)",
           {"size", "eRPC", "DmRPC-net", "DmRPC-CXL"});
  Table per("Fig 6b': LB-server memory traffic per request (bytes)",
            {"size", "eRPC", "DmRPC-net", "DmRPC-CXL"});
  for (uint32_t bytes : {4096u, 8192u, 16384u, 32768u}) {
    const LbOutcome& erpc = runs.at({msvc::Backend::kErpc, bytes});
    const LbOutcome& net = runs.at({msvc::Backend::kDmNet, bytes});
    const LbOutcome& cxl = runs.at({msvc::Backend::kDmCxl, bytes});
    tput.AddRow({FormatBytes(bytes),
                 Table::Num(erpc.result.throughput_rps() / 1e3),
                 Table::Num(net.result.throughput_rps() / 1e3),
                 Table::Num(cxl.result.throughput_rps() / 1e3)});
    bw.AddRow({FormatBytes(bytes), Table::Num(erpc.lb_gbytes_per_s, 2),
               Table::Num(net.lb_gbytes_per_s, 2),
               Table::Num(cxl.lb_gbytes_per_s, 2)});
    per.AddRow({FormatBytes(bytes), Table::Num(erpc.lb_bytes_per_req, 0),
                Table::Num(net.lb_bytes_per_req, 0),
                Table::Num(cxl.lb_bytes_per_req, 0)});
  }
  tput.Print();
  bw.Print();
  per.Print();
}

}  // namespace
}  // namespace dmrpc::bench

int main() { dmrpc::bench::Main(); }
