// Reproduces Fig. 11 (paper §VI-F): the DeathStarBench-style social
// network under the mixed workload (60% read-home-timeline, 30%
// read-user-timeline, 10% compose-post), deployed on three app servers,
// comparing eRPC and DmRPC-net: average, p99, and p99.9 latency as the
// offered request rate grows.
//
// Expected shape: DmRPC-net sustains a substantially higher request rate
// before its latency knee, and has lower latency at every common rate,
// because all requests traverse at least three data-mover services that
// only forward Refs instead of post media.

#include <map>

#include "apps/socialnet.h"
#include "bench/bench_util.h"
#include "common/logging.h"
#include "msvc/cluster.h"
#include "msvc/workload.h"
#include "workload/openloop.h"

namespace dmrpc::bench {
namespace {

msvc::WorkloadResult RunSocialNet(msvc::Backend backend, int rate_krps) {
  BenchEnv env = BenchEnv::FromEnv();
  sim::Simulation sim(11);
  BenchObs::Arm(&sim);
  msvc::ClusterConfig cfg;
  cfg.backend = backend;
  cfg.num_nodes = 6;  // 3 app servers + client host + DM hosts
  cfg.dm_frames = 1u << 17;
  msvc::Cluster cluster(&sim, cfg);
  apps::SocialNetApp app(&cluster, {1, 2, 3});
  msvc::ServiceEndpoint* client = cluster.AddService("client", 0, 1000, 4);
  Status st = msvc::RunToCompletion(&sim, cluster.InitAll());
  if (!st.ok()) LOG_FATAL << "init: " << st.ToString();

  workload::OpenLoopConfig wcfg;
  wcfg.rate_rps = rate_krps * 1000.0;
  wcfg.max_outstanding = 50000;
  msvc::WorkloadResult res = workload::RunOpenLoopMulti(
      &sim, {app.MakeMixedRequestFn(client)}, wcfg,
      env.Warmup(100 * kMillisecond), env.Measure(500 * kMillisecond));
  BenchObs::Record(std::string(msvc::BackendName(backend)) + "_" +
                       std::to_string(rate_krps) + "krps",
                   &sim);
  return res;
}

constexpr int kRatesKrps[] = {5, 10, 20, 40, 60, 80, 100};

void Main() {
  std::map<std::pair<msvc::Backend, int>, msvc::WorkloadResult> runs;
  for (msvc::Backend backend : {msvc::Backend::kErpc, msvc::Backend::kDmNet}) {
    for (int rate : kRatesKrps) {
      runs[{backend, rate}] = RunSocialNet(backend, rate);
    }
  }

  Table table(
      "Fig 11: social network latency vs offered rate "
      "(60/30/10 read-home/read-user/compose, us)",
      {"offered-krps", "eRPC-goodput", "eRPC-avg", "eRPC-p99", "eRPC-p999",
       "net-goodput", "net-avg", "net-p99", "net-p999"});
  for (int rate : kRatesKrps) {
    const msvc::WorkloadResult& erpc = runs.at({msvc::Backend::kErpc, rate});
    const msvc::WorkloadResult& net = runs.at({msvc::Backend::kDmNet, rate});
    table.AddRow({Table::Int(rate),
                  Table::Num(erpc.throughput_rps() / 1e3),
                  Table::Num(erpc.latency.mean() / 1e3),
                  Table::Num(erpc.latency.p99() / 1e3),
                  Table::Num(erpc.latency.p999() / 1e3),
                  Table::Num(net.throughput_rps() / 1e3),
                  Table::Num(net.latency.mean() / 1e3),
                  Table::Num(net.latency.p99() / 1e3),
                  Table::Num(net.latency.p999() / 1e3)});
  }
  table.Print();
}

}  // namespace
}  // namespace dmrpc::bench

int main() { dmrpc::bench::Main(); }
