// Quantifies the paper's §I motivation: "the commodity block storage
// service uses RPC to transfer large data blocks (tens to hundreds of
// KBs)" [28][49], and the write path replicates each block through a
// chain (gateway -> primary -> replica -> replica), so pass-by-value
// moves every block four times across the network. Under DmRPC each hop
// forwards a Ref and *maps* it; the block's bytes cross the network once
// (client -> DM) regardless of replication factor.
//
// Reports write and mixed-workload throughput vs block size per backend.

#include <map>

#include "apps/block_storage.h"
#include "bench/bench_util.h"
#include "common/logging.h"
#include "msvc/cluster.h"
#include "msvc/workload.h"

namespace dmrpc::bench {
namespace {

struct Outcome {
  double write_krps = 0.0;
  double write_gbps = 0.0;
  double mixed_krps = 0.0;
};

Outcome RunOne(msvc::Backend backend, uint32_t block_bytes) {
  BenchEnv env = BenchEnv::FromEnv();
  Outcome out;
  for (int phase = 0; phase < 2; ++phase) {
    sim::Simulation sim(29 + phase);
    BenchObs::Arm(&sim);
    msvc::ClusterConfig cfg;
    cfg.backend = backend;
    cfg.num_nodes = 12;
    cfg.dm_frames = 1u << 16;
    msvc::Cluster cluster(&sim, cfg);
    apps::BlockStorageApp app(&cluster, {1, 2, 3, 4, 5, 6, 7});
    msvc::ServiceEndpoint* client = cluster.AddService("client", 0, 1000, 4);
    Status st = msvc::RunToCompletion(&sim, cluster.InitAll());
    if (!st.ok()) LOG_FATAL << "init: " << st.ToString();
    double write_fraction = phase == 0 ? 1.0 : 0.3;
    msvc::WorkloadResult res = msvc::RunClosedLoop(
        &sim, app.MakeWorkloadFn(client, block_bytes, write_fraction),
        /*workers=*/16, env.Warmup(20 * kMillisecond),
        env.Measure(250 * kMillisecond));
    if (phase == 0) {
      out.write_krps = res.throughput_rps() / 1e3;
      out.write_gbps = res.throughput_gbps();
    } else {
      out.mixed_krps = res.throughput_rps() / 1e3;
    }
    BenchObs::Record(std::string(msvc::BackendName(backend)) + "_" +
                         std::to_string(block_bytes) + "B_" +
                         (phase == 0 ? "writes" : "mixed"),
                     &sim);
  }
  return out;
}

constexpr uint32_t kSizes[] = {16384, 65536, 262144};

void Main() {
  std::map<std::pair<msvc::Backend, uint32_t>, Outcome> runs;
  for (msvc::Backend backend :
       {msvc::Backend::kErpc, msvc::Backend::kDmNet, msvc::Backend::kDmCxl}) {
    for (uint32_t bytes : kSizes) {
      runs[{backend, bytes}] = RunOne(backend, bytes);
    }
  }

  Table writes(
      "Motivation (paper I): replicated block-store write path "
      "(3-deep chain), Gbps of blocks",
      {"block", "eRPC", "DmRPC-net", "DmRPC-CXL", "net-gain", "cxl-gain"});
  Table mixed("Block store, 30% writes / 70% reads (krps)",
              {"block", "eRPC", "DmRPC-net", "DmRPC-CXL"});
  for (uint32_t bytes : kSizes) {
    const Outcome& erpc = runs.at({msvc::Backend::kErpc, bytes});
    const Outcome& net = runs.at({msvc::Backend::kDmNet, bytes});
    const Outcome& cxl = runs.at({msvc::Backend::kDmCxl, bytes});
    writes.AddRow(
        {FormatBytes(bytes), Table::Num(erpc.write_gbps, 2),
         Table::Num(net.write_gbps, 2), Table::Num(cxl.write_gbps, 2),
         Table::Num(erpc.write_gbps > 0 ? net.write_gbps / erpc.write_gbps
                                        : 0,
                    1) +
             "x",
         Table::Num(erpc.write_gbps > 0 ? cxl.write_gbps / erpc.write_gbps
                                        : 0,
                    1) +
             "x"});
    mixed.AddRow({FormatBytes(bytes), Table::Num(erpc.mixed_krps, 1),
                  Table::Num(net.mixed_krps, 1),
                  Table::Num(cxl.mixed_krps, 1)});
  }
  writes.Print();
  mixed.Print();
}

}  // namespace
}  // namespace dmrpc::bench

int main() { dmrpc::bench::Main(); }
