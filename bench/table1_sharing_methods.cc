// Quantifies the paper's Table I: the four data-sharing approaches on one
// workload -- a producer shares a 32 KiB block with a consumer two RPC
// hops away (through a data-mover proxy, the paper's motivating
// topology); the consumer reads all of it and overwrites 25% in place.
//
//   Traditional RPC        pass-by-value, bytes cross at every hop
//   DSM model              shared mutable region + explicit RW locks
//   In-memory data store   immutable copies (Ray-like, two copies + IPC)
//   DmRPC                  pass-by-reference + copy-on-write
//
// Table I's qualitative cells become measurable: throughput/latency
// (Performance), whether the consumer's writes need app-level
// coordination (Programming), and whether writes are possible at all
// without a new object (Mutability).

#include <vector>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "core/dmrpc.h"
#include "datastore/object_store.h"
#include "dmnet/protocol.h"
#include "dsm/lock_server.h"
#include "msvc/cluster.h"
#include "msvc/workload.h"

namespace dmrpc::bench {
namespace {

constexpr uint32_t kBlockBytes = 32768;
constexpr uint32_t kWriteBytes = kBlockBytes / 4;
constexpr rpc::ReqType kShare = 70;

struct Outcome {
  double krps = 0.0;
  double latency_us = 0.0;
  /// Synchronization round trips the APPLICATION had to issue per
  /// request (Table I's "Programming" column, made countable).
  double sync_ops_per_req = 0.0;
};

/// Traditional RPC and DmRPC share a harness: the backend decides whether
/// bytes or Refs cross the wire.
Outcome RunRpcStyle(msvc::Backend backend) {
  BenchEnv env = BenchEnv::FromEnv();
  sim::Simulation sim(26);
  BenchObs::Arm(&sim);
  msvc::ClusterConfig cfg;
  cfg.backend = backend;
  cfg.num_nodes = 5;
  cfg.dm_frames = 1u << 15;
  msvc::Cluster cluster(&sim, cfg);
  msvc::ServiceEndpoint* producer = cluster.AddService("producer", 0, 1000);
  msvc::ServiceEndpoint* proxy = cluster.AddService("proxy", 2, 1000);
  msvc::ServiceEndpoint* consumer = cluster.AddService("consumer", 1, 1000);
  proxy->RegisterHandler(
      kShare, [proxy](rpc::ReqContext,
                      rpc::MsgBuffer req) -> sim::Task<rpc::MsgBuffer> {
        co_await proxy->ForwardCost(req.size());
        auto resp = co_await proxy->CallService("consumer", kShare,
                                                std::move(req));
        if (!resp.ok()) {
          rpc::MsgBuffer err;
          err.Append<uint8_t>(1);
          co_return err;
        }
        co_return std::move(*resp);
      });
  consumer->RegisterHandler(
      kShare, [consumer](rpc::ReqContext,
                         rpc::MsgBuffer req) -> sim::Task<rpc::MsgBuffer> {
        core::Payload payload = core::Payload::DecodeFrom(&req);
        rpc::MsgBuffer resp;
        auto data = co_await consumer->dmrpc()->Fetch(payload);
        if (!data.ok()) {
          resp.Append<uint8_t>(1);
          co_return resp;
        }
        if (payload.is_ref()) {
          // Write 25% in place through a mapping (COW isolates us).
          auto region = co_await consumer->dmrpc()->Map(payload);
          std::vector<uint8_t> w(kWriteBytes, 0x77);
          (void)co_await region->Write(0, w.data(), w.size());
          (void)co_await region->Close();
          consumer->Detach(consumer->dmrpc()->Release(payload));
        }
        // (By-value consumers mutate their private copy for free.)
        resp.Append<uint8_t>(0);
        co_return resp;
      });
  Status st = msvc::RunToCompletion(&sim, cluster.InitAll());
  if (!st.ok()) LOG_FATAL << st.ToString();

  std::vector<uint8_t> block(kBlockBytes, 0x42);
  msvc::RequestFn fn = [&]() -> sim::Task<StatusOr<uint64_t>> {
    auto payload = co_await producer->dmrpc()->MakePayload(block);
    if (!payload.ok()) co_return payload.status();
    rpc::MsgBuffer req;
    payload->EncodeTo(&req);
    auto resp = co_await producer->CallService("proxy", kShare,
                                               std::move(req));
    if (!resp.ok()) co_return resp.status();
    co_return uint64_t{kBlockBytes};
  };
  msvc::WorkloadResult res = msvc::RunClosedLoop(
      &sim, fn, /*workers=*/1, env.Warmup(10 * kMillisecond),
      env.Measure(200 * kMillisecond));
  BenchObs::Record(std::string(msvc::BackendName(backend)) + "_share", &sim);
  return Outcome{res.throughput_rps() / 1e3, res.latency.mean() / 1e3, 0.0};
}

/// DSM model: a pool of shared regions in DM; the producer writes one
/// under an exclusive lock, the consumer reads it under a shared lock
/// and writes 25% back under an exclusive lock -- application-managed
/// synchronization at every step.
Outcome RunDsm() {
  BenchEnv env = BenchEnv::FromEnv();
  sim::Simulation sim(27);
  BenchObs::Arm(&sim);
  net::Fabric fabric(&sim, net::NetworkConfig{}, 6);
  dsm::LockServer lock_server(&fabric, 2);
  dmnet::DmServerConfig scfg;
  scfg.num_frames = 1u << 14;
  dmnet::DmServer dm_server(&fabric, 3, dmnet::kDmServerPort, scfg,
                            uint64_t{1} << 44);
  rpc::Rpc rpc_p(&fabric, 0, 1000);   // producer host
  rpc::Rpc rpc_c(&fabric, 1, 1000);   // consumer host
  rpc::Rpc rpc_x(&fabric, 4, 1000);   // proxy host (data mover)
  std::vector<dmnet::DmServerAddr> addrs{
      {3, dmnet::kDmServerPort, uint64_t{1} << 44, uint64_t{1} << 44}};
  dmnet::DmNetClient dm_p(&rpc_p, addrs);
  dmnet::DmNetClient dm_c(&rpc_c, addrs);
  dsm::DsmLockClient lock_p(&rpc_p, 2);
  dsm::DsmLockClient lock_c(&rpc_c, 2);

  // One long-lived shared region: the producer allocates it and shares a
  // Ref once; the consumer maps it once. From then on both sides address
  // the SAME pages and rely purely on the lock discipline -- writes go
  // in place, so the region must never be create_ref'd again (a COW
  // would silently unshare it). That subtlety is exactly the
  // programming-complexity cost Table I charges the DSM model.
  dm::RemoteAddr region_p = 0;  // producer's address of the region
  dm::RemoteAddr region_c = 0;  // consumer's address of the same pages
  uint64_t sync_ops = 0;
  std::vector<uint8_t> readbuf(kBlockBytes);
  std::vector<uint8_t> wr(kWriteBytes, 0x77);

  // Consumer-side service: on notification, read all + write 25% under
  // locks.
  rpc_c.RegisterHandler(
      kShare,
      [&](rpc::ReqContext, rpc::MsgBuffer req) -> sim::Task<rpc::MsgBuffer> {
        uint64_t lock_id = req.Read<uint64_t>();
        uint8_t expect = static_cast<uint8_t>(req.Read<uint32_t>());
        rpc::MsgBuffer resp;
        (void)co_await lock_c.Lock(lock_id, dsm::LockMode::kShared);
        Status r = co_await dm_c.Read(region_c, readbuf.data(),
                                      readbuf.size());
        (void)co_await lock_c.Unlock(lock_id, dsm::LockMode::kShared);
        if (!r.ok() || readbuf[0] != expect ||
            readbuf[kBlockBytes - 1] != expect) {
          // Shared mapping did not observe the producer's write.
          resp.Append<uint8_t>(1);
          co_return resp;
        }
        (void)co_await lock_c.Lock(lock_id, dsm::LockMode::kExclusive);
        Status w = co_await dm_c.WriteInPlace(region_c, wr.data(),
                                              wr.size());
        (void)co_await lock_c.Unlock(lock_id, dsm::LockMode::kExclusive);
        sync_ops += 4;
        resp.Append<uint8_t>(w.ok() ? 0 : 1);
        co_return resp;
      });
  // Proxy: forwards the (tiny) notification.
  rpc::SessionId proxy_to_consumer = 0;
  rpc_x.RegisterHandler(
      kShare,
      [&](rpc::ReqContext, rpc::MsgBuffer req) -> sim::Task<rpc::MsgBuffer> {
        auto resp = co_await rpc_x.Call(proxy_to_consumer, kShare,
                                        std::move(req));
        if (!resp.ok()) {
          rpc::MsgBuffer err;
          err.Append<uint8_t>(1);
          co_return err;
        }
        co_return std::move(*resp);
      });

  rpc::SessionId producer_to_proxy = 0;
  Status setup = msvc::RunToCompletion(&sim, [&]() -> sim::Task<Status> {
    Status a = co_await dm_p.Init();
    if (!a.ok()) co_return a;
    Status a2 = co_await dm_c.Init();
    if (!a2.ok()) co_return a2;
    Status b = co_await lock_p.Init();
    if (!b.ok()) co_return b;
    Status c = co_await lock_c.Init();
    if (!c.ok()) co_return c;
    auto va = co_await dm_p.Alloc(kBlockBytes);
    if (!va.ok()) co_return va.status();
    region_p = *va;
    // Establish the shared mapping once (setup-time, not per request).
    auto ref = co_await dm_p.CreateRef(region_p, kBlockBytes);
    if (!ref.ok()) co_return ref.status();
    auto vc = co_await dm_c.MapRef(*ref);
    if (!vc.ok()) co_return vc.status();
    region_c = *vc;
    // Both sides write through WriteInPlace (no COW): true DSM-style
    // shared mutable memory, consistent only thanks to the lock
    // discipline. Drop the bootstrap Ref's share; the two mappings keep
    // the pages alive.
    Status rel = co_await dm_p.ReleaseRef(*ref);
    if (!rel.ok()) co_return rel;
    auto sp = co_await rpc_p.Connect(4, 1000);
    if (!sp.ok()) co_return sp.status();
    producer_to_proxy = *sp;
    auto sx = co_await rpc_x.Connect(1, 1000);
    if (!sx.ok()) co_return sx.status();
    proxy_to_consumer = *sx;
    co_return Status::OK();
  }());
  DMRPC_CHECK(setup.ok()) << setup.ToString();

  std::vector<uint8_t> block(kBlockBytes);
  uint32_t round = 0;
  msvc::RequestFn fn = [&]() -> sim::Task<StatusOr<uint64_t>> {
    // Producer: exclusive lock, write the block in place, unlock.
    round++;
    std::fill(block.begin(), block.end(), static_cast<uint8_t>(round));
    (void)co_await lock_p.Lock(7, dsm::LockMode::kExclusive);
    Status w = co_await dm_p.WriteInPlace(region_p, block.data(),
                                          block.size());
    (void)co_await lock_p.Unlock(7, dsm::LockMode::kExclusive);
    sync_ops += 2;
    if (!w.ok()) co_return w;
    // Notify the consumer through the proxy (tiny message).
    rpc::MsgBuffer req;
    req.Append<uint64_t>(7);
    req.Append<uint32_t>(round);
    auto resp = co_await rpc_p.Call(producer_to_proxy, kShare,
                                    std::move(req));
    if (!resp.ok()) co_return resp.status();
    if (resp->Read<uint8_t>() != 0) co_return Status::Internal("dsm fail");
    co_return uint64_t{kBlockBytes};
  };
  msvc::WorkloadResult res = msvc::RunClosedLoop(
      &sim, fn, /*workers=*/1, env.Warmup(10 * kMillisecond),
      env.Measure(200 * kMillisecond));
  Outcome out{res.throughput_rps() / 1e3, res.latency.mean() / 1e3, 0.0};
  if (res.completed > 0) {
    out.sync_ops_per_req = static_cast<double>(sync_ops) / res.completed;
  }
  BenchObs::Record("dsm_share", &sim);
  return out;
}

/// Ray-like store: immutable copies (no in-place mutation possible; the
/// consumer mutates its private heap copy).
Outcome RunStore() {
  BenchEnv env = BenchEnv::FromEnv();
  sim::Simulation sim(28);
  BenchObs::Arm(&sim);
  net::Fabric fabric(&sim, net::NetworkConfig{}, 3);
  datastore::DataStoreNode store0(&fabric, 0);
  datastore::DataStoreNode store1(&fabric, 1);
  rpc::Rpc rpc_p(&fabric, 0, 1100);
  rpc::Rpc rpc_c(&fabric, 1, 1100);
  rpc::Rpc rpc_x(&fabric, 2, 1100);  // proxy host
  mem::MemoryConfig memory;

  // Consumer-side service: Get the object (remote fetch + two copies)
  // and mutate its private heap copy.
  rpc_c.RegisterHandler(
      kShare,
      [&](rpc::ReqContext, rpc::MsgBuffer req) -> sim::Task<rpc::MsgBuffer> {
        datastore::ObjectId id;
        id.owner = req.Read<uint32_t>();
        id.seq = req.Read<uint64_t>();
        rpc::MsgBuffer resp;
        auto copy = co_await store1.Get(id);
        if (!copy.ok()) {
          resp.Append<uint8_t>(1);
          co_return resp;
        }
        std::fill_n(copy->begin(), kWriteBytes, 0x77);
        co_await sim::Delay(memory.AccessNs(mem::MemKind::kLocalDram,
                                            kWriteBytes));
        resp.Append<uint8_t>(0);
        co_return resp;
      });
  rpc::SessionId proxy_to_consumer = 0;
  rpc_x.RegisterHandler(
      kShare,
      [&](rpc::ReqContext, rpc::MsgBuffer req) -> sim::Task<rpc::MsgBuffer> {
        auto resp = co_await rpc_x.Call(proxy_to_consumer, kShare,
                                        std::move(req));
        if (!resp.ok()) {
          rpc::MsgBuffer err;
          err.Append<uint8_t>(1);
          co_return err;
        }
        co_return std::move(*resp);
      });

  rpc::SessionId producer_to_proxy = 0;
  Status setup = msvc::RunToCompletion(&sim, [&]() -> sim::Task<Status> {
    auto sp = co_await rpc_p.Connect(2, 1100);
    if (!sp.ok()) co_return sp.status();
    producer_to_proxy = *sp;
    auto sx = co_await rpc_x.Connect(1, 1100);
    if (!sx.ok()) co_return sx.status();
    proxy_to_consumer = *sx;
    co_return Status::OK();
  }());
  DMRPC_CHECK(setup.ok()) << setup.ToString();

  std::vector<uint8_t> block(kBlockBytes, 0x42);
  msvc::RequestFn fn = [&]() -> sim::Task<StatusOr<uint64_t>> {
    auto id = co_await store0.Put(block.data(), block.size());
    if (!id.ok()) co_return id.status();
    rpc::MsgBuffer req;
    req.Append<uint32_t>(id->owner);
    req.Append<uint64_t>(id->seq);
    auto resp = co_await rpc_p.Call(producer_to_proxy, kShare,
                                    std::move(req));
    if (!resp.ok()) co_return resp.status();
    if (resp->Read<uint8_t>() != 0) co_return Status::Internal("get fail");
    (void)co_await store0.Delete(*id);
    co_return uint64_t{kBlockBytes};
  };
  msvc::WorkloadResult res = msvc::RunClosedLoop(
      &sim, fn, /*workers=*/1, env.Warmup(10 * kMillisecond),
      env.Measure(400 * kMillisecond));
  BenchObs::Record("store_share", &sim);
  return Outcome{res.throughput_rps() / 1e3, res.latency.mean() / 1e3, 0.0};
}

void Main() {
  Table table(
      "Table I quantified: 32KB producer->consumer share + 25% in-place "
      "write, 1 thread",
      {"approach", "krps", "latency-us", "app-sync-ops/req", "semantics",
       "mutability"});
  auto row = [&](const char* approach, const Outcome& out,
                 const char* semantics, const char* mutability) {
    table.AddRow({approach, Table::Num(out.krps, 2),
                  Table::Num(out.latency_us, 1),
                  Table::Num(out.sync_ops_per_req, 0), semantics,
                  mutability});
  };
  row("Traditional RPC", RunRpcStyle(msvc::Backend::kErpc), "by-value",
      "private copy only");
  row("DSM model", RunDsm(), "by-reference", "shared, app-locked");
  row("In-memory store", RunStore(), "by-reference", "immutable");
  row("DmRPC", RunRpcStyle(msvc::Backend::kDmNet), "by-reference",
      "mutable via COW");
  table.Print();
}

}  // namespace
}  // namespace dmrpc::bench

int main() { dmrpc::bench::Main(); }
