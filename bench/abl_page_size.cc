// Ablation: copy-on-write page granularity (paper §V-A notes the page
// size is changeable; 4 KiB is their default).
//
// A consumer maps a shared 64 KiB region and writes a small sparse
// fraction of it. Small pages copy less data per COW fault (less write
// amplification) but cost more refcount/PTE operations per region;
// large pages invert the trade. The bench reports DM memory traffic per
// request and the achieved rate across page sizes.

#include <vector>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "core/dmrpc.h"
#include "msvc/cluster.h"
#include "msvc/workload.h"

namespace dmrpc::bench {
namespace {

constexpr uint32_t kRegionBytes = 65536;
constexpr uint32_t kPageSizes[] = {1024, 4096, 16384, 65536};

struct Outcome {
  double krps = 0.0;
  double traffic_per_req = 0.0;
  double cow_per_req = 0.0;
};

Outcome RunOne(uint32_t page_size) {
  BenchEnv env = BenchEnv::FromEnv();
  sim::Simulation sim(22);
  BenchObs::Arm(&sim);
  msvc::ClusterConfig cfg;
  cfg.backend = msvc::Backend::kDmNet;
  cfg.num_nodes = 5;
  cfg.page_size = page_size;
  cfg.dm_frames = (64u << 20) / page_size;  // 64 MiB pool
  msvc::Cluster cluster(&sim, cfg);
  msvc::ServiceEndpoint* producer = cluster.AddService("producer", 0, 1000);
  msvc::ServiceEndpoint* consumer = cluster.AddService("consumer", 1, 1000);

  constexpr rpc::ReqType kShare = 61;
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
        // Sparse writes: 64 bytes at the head of each 16 KiB stripe
        // (4 stripes in 64 KiB), i.e. 256 dirty bytes per request.
        std::vector<uint8_t> dirty(64, 0x5a);
        for (uint32_t off = 0; off < kRegionBytes; off += 16384) {
          (void)co_await region->Write(off, dirty.data(), dirty.size());
        }
        (void)co_await region->Close();
        consumer->Detach(consumer->dmrpc()->Release(payload));
        resp.Append<uint8_t>(0);
        co_return resp;
      });

  Status st = msvc::RunToCompletion(&sim, cluster.InitAll());
  if (!st.ok()) LOG_FATAL << "init: " << st.ToString();

  std::vector<uint8_t> block(kRegionBytes, 0x42);
  msvc::RequestFn fn = [&]() -> sim::Task<StatusOr<uint64_t>> {
    auto payload = co_await producer->dmrpc()->MakePayload(block);
    if (!payload.ok()) co_return payload.status();
    rpc::MsgBuffer req;
    payload->EncodeTo(&req);
    auto resp = co_await producer->CallService("consumer", kShare,
                                               std::move(req));
    if (!resp.ok()) co_return resp.status();
    co_return uint64_t{kRegionBytes};
  };

  uint64_t traffic = 0;
  uint64_t cows = 0;
  msvc::WindowHooks hooks;
  hooks.on_measure_start = [&] {
    cluster.dm_server(0)->ResetStats();
    cluster.dm_server(1)->ResetStats();
  };
  hooks.on_measure_end = [&] {
    traffic = cluster.dm_server(0)->memory_meter().total_bytes() +
              cluster.dm_server(1)->memory_meter().total_bytes();
    cows = cluster.dm_server(0)->stats().cow_copies +
           cluster.dm_server(1)->stats().cow_copies;
  };
  msvc::WorkloadResult res = msvc::RunClosedLoop(
      &sim, fn, /*workers=*/4, env.Warmup(10 * kMillisecond),
      env.Measure(200 * kMillisecond), hooks);
  Outcome out;
  out.krps = res.throughput_rps() / 1e3;
  if (res.completed > 0) {
    out.traffic_per_req = static_cast<double>(traffic) / res.completed;
    out.cow_per_req = static_cast<double>(cows) / res.completed;
  }
  BenchObs::Record("page" + std::to_string(page_size), &sim);
  return out;
}

void Main() {
  Table table(
      "Ablation: COW page size (64KB region, 4x64B sparse writes)",
      {"page", "krps", "DM-traffic/req", "COW-copies/req"});
  for (uint32_t page : kPageSizes) {
    Outcome out = RunOne(page);
    table.AddRow({FormatBytes(page), Table::Num(out.krps),
                  FormatBytes(static_cast<uint64_t>(out.traffic_per_req)),
                  Table::Num(out.cow_per_req, 2)});
  }
  table.Print();
}

}  // namespace
}  // namespace dmrpc::bench

int main() { dmrpc::bench::Main(); }
