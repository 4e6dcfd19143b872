// Ablation: the size-aware transfer threshold (paper §IV-B).
//
// DmRPC passes small arguments by value and large ones by reference; the
// crossover point is the inline_threshold. This bench sweeps argument
// size x threshold policy on the nested-chain workload (DmRPC-net,
// 5 hops) to locate the crossover and justify the default (1 KiB):
// always-by-ref pays DM round trips that dwarf small payloads;
// always-inline degenerates to eRPC for large payloads.

#include <map>

#include "apps/nested_chain.h"
#include "bench/bench_util.h"
#include "common/logging.h"
#include "msvc/cluster.h"
#include "msvc/workload.h"

namespace dmrpc::bench {
namespace {

// Threshold policies: 0 = always by-ref, huge = always inline.
constexpr uint64_t kThresholds[] = {0, 1024, 8192, uint64_t{1} << 40};
constexpr uint32_t kSizes[] = {64, 512, 4096, 32768, 262144};

const char* PolicyName(uint64_t threshold) {
  if (threshold == 0) return "always-ref";
  if (threshold == 1024) return "1KB(default)";
  if (threshold == 8192) return "8KB";
  return "always-inline";
}

msvc::WorkloadResult RunOne(uint64_t threshold, uint32_t arg_bytes) {
  BenchEnv env = BenchEnv::FromEnv();
  sim::Simulation sim(21);
  BenchObs::Arm(&sim);
  msvc::ClusterConfig cfg;
  cfg.backend = msvc::Backend::kDmNet;
  cfg.num_nodes = 10;
  cfg.dm_frames = 1u << 16;
  cfg.dmrpc.inline_threshold = threshold;
  msvc::Cluster cluster(&sim, cfg);
  apps::NestedChainApp app(&cluster, 5, {1, 2, 3, 4, 5});
  msvc::ServiceEndpoint* client = cluster.AddService("client", 0, 1000);
  Status st = msvc::RunToCompletion(&sim, cluster.InitAll());
  if (!st.ok()) LOG_FATAL << "init: " << st.ToString();
  msvc::WorkloadResult res = msvc::RunClosedLoop(
      &sim, app.MakeRequestFn(client, arg_bytes), /*workers=*/8,
      env.Warmup(20 * kMillisecond), env.Measure(200 * kMillisecond));
  BenchObs::Record(std::string(PolicyName(threshold)) + "_" +
                       std::to_string(arg_bytes) + "B",
                   &sim);
  return res;
}

void Main() {
  std::map<std::pair<uint64_t, uint32_t>, msvc::WorkloadResult> runs;
  for (uint64_t threshold : kThresholds) {
    for (uint32_t bytes : kSizes) {
      runs[{threshold, bytes}] = RunOne(threshold, bytes);
    }
  }

  Table table(
      "Ablation: size-aware threshold, nested chain (5 hops), krps",
      {"arg-size", "always-ref", "1KB(default)", "8KB", "always-inline"});
  for (uint32_t bytes : kSizes) {
    std::vector<std::string> row{FormatBytes(bytes)};
    for (uint64_t threshold : kThresholds) {
      row.push_back(
          Table::Num(runs.at({threshold, bytes}).throughput_rps() / 1e3));
    }
    table.AddRow(std::move(row));
  }
  table.Print();
}

}  // namespace
}  // namespace dmrpc::bench

int main() { dmrpc::bench::Main(); }
