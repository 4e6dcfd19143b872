// Reproduces Fig. 8 (paper §VI-D): sharing a 32 KiB raw data block
// between two servers, single thread, with the remote side writing a
// varying percentage of the shared data.
//   8a: throughput vs write percentage.
//   8b: latency vs write percentage.
// Systems: DmRPC-net, DmRPC-CXL, Ray-like distributed in-memory object
// store (Plasma-style), Spark-like store (extra serialization).
//
// Expected shape: DmRPC is one to two orders of magnitude faster; its
// throughput falls as the write fraction rises (copy-on-write copies the
// written pages), while Ray/Spark are flat (they copy everything,
// unconditionally, regardless of the write fraction).

#include <map>
#include <vector>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "core/dmrpc.h"
#include "datastore/object_store.h"
#include "msvc/cluster.h"
#include "msvc/workload.h"

namespace dmrpc::bench {
namespace {

constexpr uint32_t kBlockBytes = 32768;

enum class System { kDmNet, kDmCxl, kRay, kSpark };

struct Outcome {
  double krps = 0.0;
  double latency_us = 0.0;
};

/// DmRPC flow: producer service PutRefs the block and sends the Ref to a
/// consumer service on another host, which maps it and writes `write_pct`
/// percent of the pages in place (copy-on-write), then acknowledges.
Outcome RunDmRpc(msvc::Backend backend, int write_pct) {
  BenchEnv env = BenchEnv::FromEnv();
  sim::Simulation sim(19);
  BenchObs::Arm(&sim);
  msvc::ClusterConfig cfg;
  cfg.backend = backend;
  cfg.num_nodes = 5;
  cfg.dm_frames = 1u << 15;
  msvc::Cluster cluster(&sim, cfg);
  msvc::ServiceEndpoint* producer = cluster.AddService("producer", 0, 1000);
  msvc::ServiceEndpoint* consumer = cluster.AddService("consumer", 1, 1000);

  constexpr rpc::ReqType kShare = 60;
  consumer->RegisterHandler(
      kShare,
      [consumer, write_pct](rpc::ReqContext,
                            rpc::MsgBuffer req) -> sim::Task<rpc::MsgBuffer> {
        core::Payload payload = core::Payload::DecodeFrom(&req);
        rpc::MsgBuffer resp;
        auto region = co_await consumer->dmrpc()->Map(payload);
        if (!region.ok()) {
          resp.Append<uint8_t>(1);
          co_return resp;
        }
        uint64_t to_write = payload.size() * write_pct / 100;
        if (to_write > 0) {
          std::vector<uint8_t> data(to_write, 0x77);
          Status ws = co_await region->Write(0, data.data(), to_write);
          if (!ws.ok()) {
            resp.Append<uint8_t>(1);
            co_return resp;
          }
        }
        (void)co_await region->Close();
        consumer->Detach(consumer->dmrpc()->Release(payload));
        resp.Append<uint8_t>(0);
        co_return resp;
      });

  Status st = msvc::RunToCompletion(&sim, cluster.InitAll());
  if (!st.ok()) LOG_FATAL << "init: " << st.ToString();

  std::vector<uint8_t> block(kBlockBytes, 0x42);
  msvc::RequestFn fn = [&]() -> sim::Task<StatusOr<uint64_t>> {
    auto payload = co_await producer->dmrpc()->MakePayload(block);
    if (!payload.ok()) co_return payload.status();
    rpc::MsgBuffer req;
    payload->EncodeTo(&req);
    auto resp = co_await producer->CallService("consumer", kShare,
                                               std::move(req));
    if (!resp.ok()) co_return resp.status();
    if (resp->Read<uint8_t>() != 0) co_return Status::Internal("share fail");
    co_return uint64_t{kBlockBytes};
  };
  // Single thread, synchronous (the paper's micro-benchmark).
  msvc::WorkloadResult res = msvc::RunClosedLoop(
      &sim, fn, /*workers=*/1, env.Warmup(10 * kMillisecond),
      env.Measure(200 * kMillisecond));
  BenchObs::Record(std::string(msvc::BackendName(backend)) + "_write" +
                       std::to_string(write_pct),
                   &sim);
  return Outcome{res.throughput_rps() / 1e3, res.latency.mean() / 1e3};
}

/// Ray/Spark flow: producer Puts the block into its local store, sends
/// the ObjectId over RPC; the consumer Gets it (remote fetch + two
/// unconditional copies) and writes into its private heap copy.
Outcome RunStore(bool spark, int write_pct) {
  BenchEnv env = BenchEnv::FromEnv();
  sim::Simulation sim(20);
  BenchObs::Arm(&sim);
  net::Fabric fabric(&sim, net::NetworkConfig{}, 2);
  datastore::DataStoreConfig dcfg = spark ? datastore::DataStoreConfig::Spark()
                                          : datastore::DataStoreConfig::Ray();
  datastore::DataStoreNode store0(&fabric, 0, dcfg);
  datastore::DataStoreNode store1(&fabric, 1, dcfg);
  rpc::Rpc producer(&fabric, 0, 1100);
  rpc::Rpc consumer(&fabric, 1, 1100);
  mem::MemoryConfig memory;

  constexpr rpc::ReqType kShare = 1;
  consumer.RegisterHandler(
      kShare,
      [&store1, &memory, write_pct](
          rpc::ReqContext, rpc::MsgBuffer req) -> sim::Task<rpc::MsgBuffer> {
        datastore::ObjectId id;
        id.owner = req.Read<uint32_t>();
        id.seq = req.Read<uint64_t>();
        rpc::MsgBuffer resp;
        auto copy = co_await store1.Get(id);
        if (!copy.ok()) {
          resp.Append<uint8_t>(1);
          co_return resp;
        }
        // Write into the private heap copy (plain local memory).
        uint64_t to_write = copy->size() * write_pct / 100;
        if (to_write > 0) {
          std::fill_n(copy->begin(), to_write, 0x77);
          co_await sim::Delay(memory.AccessNs(mem::MemKind::kLocalDram,
                                              to_write));
        }
        resp.Append<uint8_t>(0);
        co_return resp;
      });

  rpc::SessionId session = 0;
  Status setup = msvc::RunToCompletion(&sim, [&]() -> sim::Task<Status> {
    auto s = co_await producer.Connect(1, 1100);
    if (!s.ok()) co_return s.status();
    session = *s;
    co_return Status::OK();
  }());
  DMRPC_CHECK(setup.ok());

  std::vector<uint8_t> block(kBlockBytes, 0x42);
  msvc::RequestFn fn = [&]() -> sim::Task<StatusOr<uint64_t>> {
    auto id = co_await store0.Put(block.data(), block.size());
    if (!id.ok()) co_return id.status();
    rpc::MsgBuffer req;
    req.Append<uint32_t>(id->owner);
    req.Append<uint64_t>(id->seq);
    auto resp = co_await producer.Call(session, kShare, std::move(req));
    if (!resp.ok()) co_return resp.status();
    if (resp->Read<uint8_t>() != 0) co_return Status::Internal("get failed");
    (void)co_await store0.Delete(*id);
    co_return uint64_t{kBlockBytes};
  };
  msvc::WorkloadResult res = msvc::RunClosedLoop(
      &sim, fn, /*workers=*/1, env.Warmup(10 * kMillisecond),
      env.Measure(400 * kMillisecond));
  BenchObs::Record(std::string(spark ? "Spark" : "Ray") + "_write" +
                       std::to_string(write_pct),
                   &sim);
  return Outcome{res.throughput_rps() / 1e3, res.latency.mean() / 1e3};
}

Outcome Run(System system, int write_pct) {
  Outcome out;
  switch (system) {
    case System::kDmNet:
      out = RunDmRpc(msvc::Backend::kDmNet, write_pct);
      break;
    case System::kDmCxl:
      out = RunDmRpc(msvc::Backend::kDmCxl, write_pct);
      break;
    case System::kRay:
      out = RunStore(false, write_pct);
      break;
    case System::kSpark:
      out = RunStore(true, write_pct);
      break;
  }
  return out;
}

constexpr int kWritePcts[] = {0, 25, 50, 75, 100};

void Main() {
  std::map<std::pair<System, int>, Outcome> runs;
  for (System s :
       {System::kDmNet, System::kDmCxl, System::kRay, System::kSpark}) {
    for (int pct : kWritePcts) {
      runs[{s, pct}] = Run(s, pct);
    }
  }

  Table tput("Fig 8a: 32KB block sharing throughput (krps), 1 thread",
             {"write%", "DmRPC-net", "DmRPC-CXL", "Ray", "Spark",
              "net/Ray", "cxl/Ray"});
  Table lat("Fig 8b: 32KB block sharing latency (us)",
            {"write%", "DmRPC-net", "DmRPC-CXL", "Ray", "Spark"});
  for (int pct : kWritePcts) {
    const Outcome& net = runs.at({System::kDmNet, pct});
    const Outcome& cxl = runs.at({System::kDmCxl, pct});
    const Outcome& ray = runs.at({System::kRay, pct});
    const Outcome& spark = runs.at({System::kSpark, pct});
    tput.AddRow(
        {Table::Int(pct), Table::Num(net.krps, 2), Table::Num(cxl.krps, 2),
         Table::Num(ray.krps, 2), Table::Num(spark.krps, 2),
         Table::Num(ray.krps > 0 ? net.krps / ray.krps : 0, 1) + "x",
         Table::Num(ray.krps > 0 ? cxl.krps / ray.krps : 0, 1) + "x"});
    lat.AddRow({Table::Int(pct), Table::Num(net.latency_us, 1),
                Table::Num(cxl.latency_us, 1), Table::Num(ray.latency_us, 1),
                Table::Num(spark.latency_us, 1)});
  }
  tput.Print();
  lat.Print();
}

}  // namespace
}  // namespace dmrpc::bench

int main() { dmrpc::bench::Main(); }
