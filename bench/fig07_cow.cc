// Reproduces Fig. 7 (paper §VI-C): the effect of the copy-on-write
// mechanism on create_ref.
//   7a: create_ref request rate vs request size.
//   7b: create_ref response time vs request size.
//   7c: DM memory traffic per request vs request size.
// Variants: DmRPC-net / DmRPC-net-copy (eager copy at create_ref time,
// one DM-server core) and DmRPC-CXL / DmRPC-CXL-copy (one client thread).
//
// Expected shape: the -copy variants' response time and memory traffic
// grow linearly with size (they duplicate every page eagerly), while the
// COW variants pay only a refcount increment per page.

#include <map>
#include <vector>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "cxl/coordinator.h"
#include "cxl/host_dm.h"
#include "dmnet/client.h"
#include "dmnet/protocol.h"
#include "dmnet/server.h"
#include "msvc/workload.h"
#include "net/fabric.h"
#include "sim/simulation.h"

namespace dmrpc::bench {
namespace {

enum class Variant { kNet, kNetCopy, kCxl, kCxlCopy };

struct CowOutcome {
  double krps = 0.0;           // create_ref request rate
  double response_us = 0.0;    // mean create_ref response time
  double traffic_per_req = 0;  // DM memory bytes per create_ref
};

/// Measures create_ref on the network backend: one client saturating one
/// DM-server core with a window of outstanding create_ref calls; refs are
/// released in batches outside the timed path by a second (untimed)
/// session... releases still consume the core, so the reported rate is a
/// conservative lower bound (the paper's relative -copy gap dominates).
CowOutcome RunNet(bool eager_copy, uint32_t size) {
  BenchEnv env = BenchEnv::FromEnv();
  sim::Simulation sim(17);
  BenchObs::Arm(&sim);
  net::Fabric fabric(&sim, net::NetworkConfig{}, 2);
  dmnet::DmServerConfig scfg;
  scfg.num_frames = 1u << 16;
  scfg.cores = 1;  // paper: one CPU core in a single memory server
  scfg.eager_copy = eager_copy;
  dmnet::DmServer server(&fabric, 1, dmnet::kDmServerPort, scfg,
                         uint64_t{1} << 44);
  rpc::Rpc rpc(&fabric, 0, 1000);
  dmnet::DmNetClient client(
      &rpc, {{1, dmnet::kDmServerPort, uint64_t{1} << 44, uint64_t{1} << 44}});

  // Setup: register, allocate and fill the source buffer.
  dm::RemoteAddr va = 0;
  Status setup = msvc::RunToCompletion(&sim, [&]() -> sim::Task<Status> {
    Status st = co_await client.Init();
    if (!st.ok()) co_return st;
    auto a = co_await client.Alloc(size);
    if (!a.ok()) co_return a.status();
    va = *a;
    std::vector<uint8_t> data(size, 0x3c);
    co_return co_await client.Write(va, data.data(), size);
  }());
  DMRPC_CHECK(setup.ok()) << setup.ToString();

  msvc::RequestFn fn = [&client, &sim, va,
                        size]() -> sim::Task<StatusOr<uint64_t>> {
    auto ref = co_await client.CreateRef(va, size);
    if (!ref.ok()) co_return ref.status();
    // Release outside the timed create path (detached).
    auto release = [](dmnet::DmNetClient* c, dm::Ref r) -> sim::Task<> {
      (void)co_await c->ReleaseRef(r);
    };
    sim.Spawn(release(&client, std::move(*ref)));
    co_return uint64_t{size};
  };

  uint64_t traffic = 0;
  uint64_t creates = 0;
  msvc::WindowHooks hooks;
  hooks.on_measure_start = [&] {
    server.memory_meter().Reset();
    creates = server.stats().create_refs;
  };
  hooks.on_measure_end = [&] {
    traffic = server.memory_meter().total_bytes();
    creates = server.stats().create_refs - creates;
  };
  msvc::WorkloadResult res = msvc::RunClosedLoop(
      &sim, fn, /*workers=*/8, env.Warmup(10 * kMillisecond),
      env.Measure(150 * kMillisecond), hooks);
  CowOutcome out;
  out.krps = res.throughput_rps() / 1e3;
  out.response_us = res.latency.mean() / 1e3;
  out.traffic_per_req =
      creates == 0 ? 0.0 : static_cast<double>(traffic) / creates;
  BenchObs::Record(std::string(eager_copy ? "net-copy" : "net") + "_" +
                       std::to_string(size) + "B",
                   &sim);
  return out;
}

/// Measures create_ref on the CXL backend: a single client thread.
CowOutcome RunCxl(bool eager_copy, uint32_t size) {
  BenchEnv env = BenchEnv::FromEnv();
  sim::Simulation sim(18);
  BenchObs::Arm(&sim);
  net::Fabric fabric(&sim, net::NetworkConfig{}, 2);
  cxl::GfamDevice device(1u << 16, 4096);
  cxl::Coordinator coordinator(&fabric, 1, &device);
  rpc::Rpc rpc(&fabric, 0, 1000);
  mem::BandwidthMeter meter;
  cxl::CxlPort port(&sim, &device, mem::MemoryConfig{}, &meter);
  cxl::HostDmConfig hcfg;
  hcfg.eager_copy = eager_copy;
  hcfg.refill_batch = 512;
  hcfg.high_watermark = 4096;
  cxl::HostDmLayer host(&rpc, &port, 1, cxl::kCoordinatorPort, hcfg);

  dm::RemoteAddr va = 0;
  Status setup = msvc::RunToCompletion(&sim, [&]() -> sim::Task<Status> {
    Status st = co_await host.Init();
    if (!st.ok()) co_return st;
    auto a = co_await host.Alloc(size);
    if (!a.ok()) co_return a.status();
    va = *a;
    std::vector<uint8_t> data(size, 0x3c);
    co_return co_await host.Write(va, data.data(), size);
  }());
  DMRPC_CHECK(setup.ok()) << setup.ToString();

  msvc::RequestFn fn = [&host, va, size]() -> sim::Task<StatusOr<uint64_t>> {
    auto ref = co_await host.CreateRef(va, size);
    if (!ref.ok()) co_return ref.status();
    (void)co_await host.ReleaseRef(*ref);
    co_return uint64_t{size};
  };

  uint64_t traffic = 0;
  uint64_t creates = 0;
  msvc::WindowHooks hooks;
  hooks.on_measure_start = [&] {
    meter.Reset();
    creates = host.stats().create_refs;
  };
  hooks.on_measure_end = [&] {
    traffic = meter.total_bytes();
    creates = host.stats().create_refs - creates;
  };
  // One client thread (paper), releases inline; latency below reports the
  // create_ref half of the cycle.
  msvc::WorkloadResult res = msvc::RunClosedLoop(
      &sim, fn, /*workers=*/1, env.Warmup(10 * kMillisecond),
      env.Measure(150 * kMillisecond), hooks);
  CowOutcome out;
  out.krps = res.throughput_rps() / 1e3;
  out.response_us = res.latency.mean() / 1e3;
  out.traffic_per_req =
      creates == 0 ? 0.0 : static_cast<double>(traffic) / creates;
  BenchObs::Record(std::string(eager_copy ? "cxl-copy" : "cxl") + "_" +
                       std::to_string(size) + "B",
                   &sim);
  return out;
}

CowOutcome Run(Variant variant, uint32_t size) {
  CowOutcome out;
  switch (variant) {
    case Variant::kNet:
      out = RunNet(false, size);
      break;
    case Variant::kNetCopy:
      out = RunNet(true, size);
      break;
    case Variant::kCxl:
      out = RunCxl(false, size);
      break;
    case Variant::kCxlCopy:
      out = RunCxl(true, size);
      break;
  }
  return out;
}

constexpr uint32_t kSizes[] = {4096, 16384, 65536, 262144};

void Main() {
  std::map<std::pair<Variant, uint32_t>, CowOutcome> runs;
  for (Variant v : {Variant::kNet, Variant::kNetCopy, Variant::kCxl,
                    Variant::kCxlCopy}) {
    for (uint32_t size : kSizes) {
      runs[{v, size}] = Run(v, size);
    }
  }

  Table rate("Fig 7a: create_ref request rate (krps)",
             {"size", "net", "net-copy", "cxl", "cxl-copy", "net-gain",
              "cxl-gain"});
  Table resp("Fig 7b: create_ref response time (us)",
             {"size", "net", "net-copy", "cxl", "cxl-copy"});
  Table traffic("Fig 7c: DM memory traffic per request (bytes)",
                {"size", "net", "net-copy", "cxl", "cxl-copy"});
  for (uint32_t size : kSizes) {
    const CowOutcome& net = runs.at({Variant::kNet, size});
    const CowOutcome& netc = runs.at({Variant::kNetCopy, size});
    const CowOutcome& cxl = runs.at({Variant::kCxl, size});
    const CowOutcome& cxlc = runs.at({Variant::kCxlCopy, size});
    rate.AddRow({FormatBytes(size), Table::Num(net.krps),
                 Table::Num(netc.krps), Table::Num(cxl.krps),
                 Table::Num(cxlc.krps),
                 Table::Num(netc.krps > 0 ? net.krps / netc.krps : 0, 2) + "x",
                 Table::Num(cxlc.krps > 0 ? cxl.krps / cxlc.krps : 0, 2) +
                     "x"});
    resp.AddRow({FormatBytes(size), Table::Num(net.response_us, 2),
                 Table::Num(netc.response_us, 2),
                 Table::Num(cxl.response_us, 2),
                 Table::Num(cxlc.response_us, 2)});
    traffic.AddRow({FormatBytes(size), Table::Num(net.traffic_per_req, 0),
                    Table::Num(netc.traffic_per_req, 0),
                    Table::Num(cxl.traffic_per_req, 0),
                    Table::Num(cxlc.traffic_per_req, 0)});
  }
  rate.Print();
  resp.Print();
  traffic.Print();
}

}  // namespace
}  // namespace dmrpc::bench

int main() { dmrpc::bench::Main(); }
