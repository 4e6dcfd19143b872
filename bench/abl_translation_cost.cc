// Ablation: software address-translation overhead in DmRPC-net (paper
// §V-A2: "the first software-based translation only accounts for 0.17%
// of the total DM access time").
//
// Measures rread of various sizes and reports the hash-table translation
// time as a fraction of (a) server-side handler time and (b) end-to-end
// client-observed access time (the paper's denominator, which includes
// the network round trip).

#include <vector>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "dmnet/client.h"
#include "dmnet/protocol.h"
#include "dmnet/server.h"
#include "msvc/workload.h"
#include "net/fabric.h"
#include "sim/simulation.h"

namespace dmrpc::bench {
namespace {

struct Outcome {
  double server_fraction = 0.0;  // translation / handler time
  double e2e_fraction = 0.0;     // translation / client-observed time
  double access_us = 0.0;
};

Outcome RunOne(uint32_t size) {
  sim::Simulation sim(23);
  BenchObs::Arm(&sim);
  net::Fabric fabric(&sim, net::NetworkConfig{}, 2);
  dmnet::DmServerConfig scfg;
  scfg.num_frames = 1u << 15;
  dmnet::DmServer server(&fabric, 1, dmnet::kDmServerPort, scfg,
                         uint64_t{1} << 44);
  rpc::Rpc rpc(&fabric, 0, 1000);
  dmnet::DmNetClient client(
      &rpc, {{1, dmnet::kDmServerPort, uint64_t{1} << 44, uint64_t{1} << 44}});

  Outcome out;
  constexpr int kIters = 200;
  Status st = msvc::RunToCompletion(
      &sim,
      [&]() -> sim::Task<Status> {
        Status init = co_await client.Init();
        if (!init.ok()) co_return init;
        auto va = co_await client.Alloc(size);
        if (!va.ok()) co_return va.status();
        std::vector<uint8_t> buf(size, 1);
        (void)co_await client.Write(*va, buf.data(), size);
        server.ResetStats();
        TimeNs start = sim::Simulation::Current()->Now();
        for (int i = 0; i < kIters; ++i) {
          Status r = co_await client.Read(*va, buf.data(), size);
          if (!r.ok()) co_return r;
        }
        TimeNs e2e = sim::Simulation::Current()->Now() - start;
        out.server_fraction =
            static_cast<double>(server.stats().translation_ns) /
            static_cast<double>(server.stats().access_ns);
        out.e2e_fraction =
            static_cast<double>(server.stats().translation_ns) /
            static_cast<double>(e2e);
        out.access_us = static_cast<double>(e2e) / kIters / 1e3;
        co_return Status::OK();
      }(),
      60 * kSecond);
  DMRPC_CHECK(st.ok()) << st.ToString();
  BenchObs::Record("read_" + std::to_string(size) + "B", &sim);
  return out;
}

constexpr uint32_t kSizes[] = {4096, 16384, 65536, 262144};

void Main() {
  Table table(
      "Ablation: software translation cost in rread (paper claims 0.17% "
      "of total DM access time)",
      {"size", "access-us", "server-side %", "end-to-end %"});
  for (uint32_t size : kSizes) {
    Outcome out = RunOne(size);
    table.AddRow({FormatBytes(size), Table::Num(out.access_us, 2),
                  Table::Num(out.server_fraction * 100.0, 3),
                  Table::Num(out.e2e_fraction * 100.0, 3)});
  }
  table.Print();
}

}  // namespace
}  // namespace dmrpc::bench

int main() { dmrpc::bench::Main(); }
