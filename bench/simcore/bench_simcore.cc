// Wall-clock microbenchmark suite for the simulation engine hot paths.
//
// Unlike the fig*/abl* benches (which reproduce paper figures in virtual
// time), this suite measures how fast the simulator itself executes on the
// host: events per wall-clock second across three workloads that stress the
// scheduler, the packet path, and the full RPC stack:
//
//   event_churn        timers + callback chains, no network
//   packet_forwarding  raw NIC -> switch -> NIC traffic, no RPC
//   rpc_echo_storm     concurrent small-message RPC echo calls
//   rpc_large_transfer multi-fragment 256 KiB RPC echoes (message path)
//
// Each scenario runs a fixed, seeded virtual-time workload, so its virtual
// results (executed event count, full metrics JSON) are bit-reproducible;
// the FNV-1a hash of the metrics dump is recorded to prove that engine
// optimizations never change simulated behavior. Results are written to a
// BENCH_simcore.json sidecar (override the path with DMRPC_SIMCORE_JSON)
// together with the pre-overhaul baseline, establishing the repo's
// wall-clock perf trajectory.
//
// Usage: bench_simcore [--smoke]   (smoke = ~10x shorter, for CI)

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/units.h"
#include "net/config.h"
#include "net/fabric.h"
#include "rpc/rpc.h"
#include "sim/channel.h"
#include "sim/simulation.h"
#include "sim/task.h"

namespace dmrpc::bench {
namespace {

constexpr uint64_t kSeed = 42;

/// When set, scenarios arm the event tracer before running. The harness
/// runs every scenario a second time with this on and requires the
/// executed-event count and metrics fingerprint to match the untraced
/// run exactly: recording spans must never perturb simulated behavior.
bool g_trace_pass = false;

void MaybeArmTracer(sim::Simulation* sim) {
  if (!g_trace_pass) return;
  sim->tracer().set_enabled(true);
  // High enough that no scenario sheds records: a nonzero dropped()
  // count would fold obs.trace_dropped into the metrics dump and fail
  // the fingerprint comparison for the wrong reason.
  sim->tracer().set_limit(size_t{1} << 24);
}

/// FNV-1a over the metrics JSON: a compact determinism fingerprint.
uint64_t Fnv64(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

struct RunResult {
  uint64_t events = 0;
  double wall_ms = 0.0;
  uint64_t metrics_fnv = 0;

  double events_per_sec() const {
    return wall_ms > 0.0 ? events / (wall_ms / 1e3) : 0.0;
  }
};

/// Baseline numbers recorded on the pre-overhaul engine (commit 92ae1b5:
/// std::function events in a binary std::priority_queue, std::vector packet
/// payloads), Release -O2. wall_ms was measured with baseline and current
/// binaries run back-to-back in alternation on the same host (averaged
/// over four interleaved pairs) so both sides see the same machine
/// conditions; it is only meaningful relative to a fresh run on that host.
/// metrics_fnv is machine-independent and must match exactly.
struct BaselineEntry {
  const char* scenario;
  RunResult full;
  RunResult smoke;
};

constexpr uint64_t kNoBaseline = 0;

BaselineEntry kBaseline[] = {
    // {scenario, {events, wall_ms, metrics_fnv}, {events, wall_ms, fnv}}
    //
    // All four rows' fingerprints were re-recorded when gauges grew a
    // high-watermark (the dump became {"value":V,"max":M}) and the
    // fabric/rpc/dm layers gained timeline instrumentation (eager
    // net.drop_reason.* registration, net.fabric.port_enqueued,
    // rpc.in_flight, dm.fetch_refs/release_refs/peer_reclaims): every
    // dump's byte stream shifted, but every scenario's executed-event
    // count stayed exactly the same, pinning the drift to the dump
    // format rather than the event schedule.
    {"event_churn",
     {3479858, 404.33, 0x971f545e4e811400ULL},
     {347993, 45.23, 0xbb5e55b37505f28aULL}},
    {"packet_forwarding",
     {1279944, 95.82, 0xc772be9579f89b22ULL},
     {127944, 11.62, 0xaa366358db77d3a3ULL}},
    // Both RPC rows' fingerprints were re-recorded when the packet
    // header grew trace context (trace_id + parent span + flags,
    // kWireBytes 22 -> 39): larger headers change serialization times,
    // which shifts the event schedule (rpc_large_transfer) and the
    // metrics dump (both). event_churn and packet_forwarding bypass
    // rpc::wire and kept their original fingerprints, pinning the
    // drift to the header change.
    //
    // The RPC rows' wall_ms was re-measured later because the
    // pre-overhaul hybrid binary no longer builds against the current
    // APIs: their baseline binary is an older sequential engine with
    // bit-identical fingerprints on the same workload, run interleaved
    // with the binary of that time on a 1-core host (averaged over four
    // alternating pairs). Like every wall_ms here, the speedup is only
    // meaningful for a fresh run on the host that recorded the baseline.
    {"rpc_echo_storm",
     {2097230, 192.44, 0x62d8aa580cdf3b27ULL},
     {209658, 19.74, 0xc6266cb0723b9295ULL}},
    {"rpc_large_transfer",
     {624538, 47.71, 0x08bbd6e37a5f14fbULL},
     {63854, 5.85, 0xafd05165065f1c58ULL}},
};

const BaselineEntry* FindBaseline(const std::string& scenario) {
  for (const BaselineEntry& e : kBaseline) {
    if (scenario == e.scenario) return &e;
  }
  return nullptr;
}

class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double ElapsedMs() const {
    auto d = std::chrono::steady_clock::now() - start_;
    return std::chrono::duration<double, std::milli>(d).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// ---------------------------------------------------------------------------
// Scenario 1: event churn (scheduler-only hot loop)
// ---------------------------------------------------------------------------

sim::Task<> TimerLoop(sim::Simulation* sim, TimeNs period, TimeNs deadline) {
  while (sim->Now() + period <= deadline) {
    co_await sim::Delay(period);
  }
}

/// A self-rescheduling callback chain: one live event per chain at any
/// instant, stressing the push/pop path with small inlined callbacks.
struct CallbackChain {
  sim::Simulation* sim;
  TimeNs period;
  TimeNs deadline;
  void Step() {
    if (sim->Now() + period > deadline) return;
    sim->After(period, [this] { Step(); });
  }
};

RunResult RunEventChurn(bool smoke) {
  const TimeNs window = (smoke ? 2 : 20) * kMillisecond;
  sim::Simulation sim(kSeed);
  MaybeArmTracer(&sim);
  std::vector<CallbackChain> chains;
  chains.reserve(64);
  for (int i = 0; i < 64; ++i) {
    // Periods 100..1703 ns, co-prime-ish so heap order keeps churning.
    sim.Spawn(TimerLoop(&sim, 100 + 37 * i, window));
    chains.push_back(CallbackChain{&sim, 113 + 41 * i, window});
  }
  for (CallbackChain& c : chains) c.Step();

  WallTimer wall;
  sim.RunUntil(window);
  RunResult res;
  res.wall_ms = wall.ElapsedMs();
  res.events = sim.executed_events();
  res.metrics_fnv = Fnv64(sim.DumpMetricsJson());
  return res;
}

// ---------------------------------------------------------------------------
// Scenario 2: packet forwarding (NIC -> switch -> NIC, no RPC)
// ---------------------------------------------------------------------------

sim::Task<> PacketSender(sim::Simulation* sim, net::Fabric* fabric,
                         net::NodeId src, net::NodeId dst, uint32_t bytes,
                         TimeNs gap, TimeNs deadline) {
  while (sim->Now() + gap <= deadline) {
    co_await sim::Delay(gap);
    net::Packet pkt;
    pkt.src = src;
    pkt.dst = dst;
    pkt.src_port = 9;
    pkt.dst_port = 80;
    pkt.payload.assign(bytes, 0xab);
    fabric->nic(src)->Send(std::move(pkt));
  }
}

sim::Task<> PacketDrain(sim::Channel<net::Packet>* inbox, uint64_t* bytes) {
  for (;;) {
    net::Packet pkt = co_await inbox->Pop();
    *bytes += pkt.payload_size();
  }
}

RunResult RunPacketForwarding(bool smoke) {
  const TimeNs window = (smoke ? 1 : 10) * kMillisecond;
  constexpr uint32_t kNodes = 8;
  sim::Simulation sim(kSeed);
  MaybeArmTracer(&sim);
  net::NetworkConfig cfg;
  net::Fabric fabric(&sim, cfg, kNodes);
  std::vector<std::unique_ptr<sim::Channel<net::Packet>>> inboxes;
  uint64_t drained_bytes = 0;
  for (uint32_t n = 0; n < kNodes; ++n) {
    inboxes.push_back(std::make_unique<sim::Channel<net::Packet>>());
    fabric.nic(n)->BindPort(80, inboxes.back().get());
    sim.Spawn(PacketDrain(inboxes.back().get(), &drained_bytes));
  }
  for (uint32_t n = 0; n < kNodes; ++n) {
    sim.Spawn(PacketSender(&sim, &fabric, n, (n + 1) % kNodes,
                           /*bytes=*/1000, /*gap=*/500, window));
  }

  WallTimer wall;
  sim.RunUntil(window);
  RunResult res;
  res.wall_ms = wall.ElapsedMs();
  res.events = sim.executed_events();
  res.metrics_fnv = Fnv64(sim.DumpMetricsJson());
  return res;
}

// ---------------------------------------------------------------------------
// Scenario 3: RPC echo storm (full stack)
// ---------------------------------------------------------------------------

sim::Task<rpc::MsgBuffer> EchoHandler(rpc::ReqContext, rpc::MsgBuffer req) {
  co_return req;
}

sim::Task<> EchoWorker(sim::Simulation* sim, rpc::Rpc* client,
                       rpc::SessionId session, TimeNs deadline,
                       uint64_t* calls) {
  while (sim->Now() < deadline) {
    rpc::MsgBuffer req;
    for (int i = 0; i < 8; ++i) req.Append<uint64_t>(i);  // 64 B
    auto resp = co_await client->Call(session, 1, std::move(req));
    DMRPC_CHECK(resp.ok());
    ++*calls;
  }
}

sim::Task<> EchoClient(sim::Simulation* sim, rpc::Rpc* client,
                       net::NodeId server, TimeNs deadline, uint64_t* calls) {
  auto session = co_await client->Connect(server, 1);
  DMRPC_CHECK(session.ok());
  for (int w = 0; w < 4; ++w) {
    sim->Spawn(EchoWorker(sim, client, *session, deadline, calls));
  }
}

RunResult RunRpcEchoStorm(bool smoke) {
  const TimeNs window = (smoke ? 2 : 20) * kMillisecond;
  constexpr uint32_t kClients = 4;
  sim::Simulation sim(kSeed);
  MaybeArmTracer(&sim);
  net::NetworkConfig cfg;
  net::Fabric fabric(&sim, cfg, kClients + 1);
  rpc::Rpc server(&fabric, 0, 1);
  server.RegisterHandler(1, EchoHandler);
  std::vector<std::unique_ptr<rpc::Rpc>> clients;
  uint64_t calls = 0;
  for (uint32_t c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<rpc::Rpc>(&fabric, c + 1, 1));
    sim.Spawn(EchoClient(&sim, clients.back().get(), 0, window, &calls));
  }

  WallTimer wall;
  sim.RunUntil(window + 1 * kMillisecond);  // drain in-flight tails
  RunResult res;
  res.wall_ms = wall.ElapsedMs();
  res.events = sim.executed_events();
  res.metrics_fnv = Fnv64(sim.DumpMetricsJson());
  DMRPC_CHECK_GT(calls, 0u);
  return res;
}

// ---------------------------------------------------------------------------
// Scenario 4: large transfers (the scatter-gather message path)
// ---------------------------------------------------------------------------
//
// 256 KiB echoes fragment into ~178 packets each way, so host time is
// dominated by serialization, fragmentation, and reassembly -- the path
// the slice-chain MsgBuffer made copy-free. This scenario deliberately
// uses only the MsgBuffer API surface shared by the contiguous and
// chain implementations, so the identical source measures both.

sim::Task<> LargeTransferWorker(sim::Simulation* sim, rpc::Rpc* client,
                                rpc::SessionId session,
                                const std::vector<uint8_t>* blob,
                                TimeNs deadline, uint64_t* calls) {
  while (sim->Now() < deadline) {
    rpc::MsgBuffer req;
    req.AppendBytes(blob->data(), blob->size());
    auto resp = co_await client->Call(session, 1, std::move(req));
    DMRPC_CHECK(resp.ok());
    DMRPC_CHECK_EQ(resp->size(), blob->size());
    ++*calls;
  }
}

sim::Task<> LargeTransferClient(sim::Simulation* sim, rpc::Rpc* client,
                                net::NodeId server,
                                const std::vector<uint8_t>* blob,
                                TimeNs deadline, uint64_t* calls) {
  auto session = co_await client->Connect(server, 1);
  DMRPC_CHECK(session.ok());
  for (int w = 0; w < 2; ++w) {
    sim->Spawn(LargeTransferWorker(sim, client, *session, blob, deadline,
                                   calls));
  }
}

RunResult RunRpcLargeTransfer(bool smoke) {
  const TimeNs window = (smoke ? 2 : 20) * kMillisecond;
  constexpr uint32_t kClients = 2;
  constexpr size_t kBlobBytes = 256 * 1024;
  sim::Simulation sim(kSeed);
  MaybeArmTracer(&sim);
  net::NetworkConfig cfg;
  net::Fabric fabric(&sim, cfg, kClients + 1);
  rpc::Rpc server(&fabric, 0, 1);
  server.RegisterHandler(1, EchoHandler);
  std::vector<uint8_t> blob(kBlobBytes);
  for (size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<uint8_t>(i * 131 + 7);
  }
  std::vector<std::unique_ptr<rpc::Rpc>> clients;
  uint64_t calls = 0;
  for (uint32_t c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<rpc::Rpc>(&fabric, c + 1, 1));
    sim.Spawn(LargeTransferClient(&sim, clients.back().get(), 0, &blob,
                                  window, &calls));
  }

  WallTimer wall;
  sim.RunUntil(window + 2 * kMillisecond);  // drain in-flight tails
  RunResult res;
  res.wall_ms = wall.ElapsedMs();
  res.events = sim.executed_events();
  res.metrics_fnv = Fnv64(sim.DumpMetricsJson());
  DMRPC_CHECK_GT(calls, 0u);
  // The zero-copy gate: after the producer writes into the request, no
  // payload byte may be memcpy'd on the message path. The contiguous
  // baseline predates the counter, so CounterValue returns 0 there too
  // and this check compiles and passes against both implementations.
  DMRPC_CHECK_EQ(sim.metrics().CounterValue("rpc.bytes_copied"), 0u);
  return res;
}

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

struct Scenario {
  const char* name;
  RunResult (*run)(bool smoke);
};

const Scenario kScenarios[] = {
    {"event_churn", RunEventChurn},
    {"packet_forwarding", RunPacketForwarding},
    {"rpc_echo_storm", RunRpcEchoStorm},
    {"rpc_large_transfer", RunRpcLargeTransfer},
};

std::string JsonRun(const RunResult& r) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"events\": %llu, \"wall_ms\": %.3f, "
                "\"events_per_sec\": %.0f, \"metrics_fnv64\": \"%016llx\"}",
                static_cast<unsigned long long>(r.events), r.wall_ms,
                r.events_per_sec(),
                static_cast<unsigned long long>(r.metrics_fnv));
  return buf;
}

int Main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  if (const char* env = std::getenv("DMRPC_SIMCORE_SMOKE")) {
    if (env[0] != '\0' && env[0] != '0') smoke = true;
  }
  const char* json_path = std::getenv("DMRPC_SIMCORE_JSON");
  if (json_path == nullptr) json_path = "BENCH_simcore.json";

  std::printf("simcore wall-clock suite (%s mode)\n",
              smoke ? "smoke" : "full");
  std::printf("%-20s %12s %10s %14s %10s %8s %8s\n", "scenario", "events",
              "wall_ms", "events/sec", "speedup", "determ", "traceok");

  std::string runs_json, base_json, speedup_json, trace_json;
  bool all_deterministic = true;
  bool all_zero_perturb = true;
  for (const Scenario& sc : kScenarios) {
    RunResult r = sc.run(smoke);
    // Zero-perturbation pass: the same scenario with span recording on
    // must execute the identical event sequence and dump byte-identical
    // metrics. Untimed -- only the virtual-time fingerprints matter.
    g_trace_pass = true;
    RunResult traced = sc.run(smoke);
    g_trace_pass = false;
    bool zero_perturb =
        traced.events == r.events && traced.metrics_fnv == r.metrics_fnv;
    if (!zero_perturb) all_zero_perturb = false;
    const BaselineEntry* be = FindBaseline(sc.name);
    const RunResult* base = nullptr;
    if (be != nullptr) base = smoke ? &be->smoke : &be->full;
    double speedup = 0.0;
    const char* determ = "n/a";
    if (base != nullptr && base->metrics_fnv != kNoBaseline) {
      if (base->wall_ms > 0.0 && r.wall_ms > 0.0) {
        speedup = base->wall_ms / r.wall_ms;
      }
      bool same = base->metrics_fnv == r.metrics_fnv &&
                  base->events == r.events;
      determ = same ? "ok" : "DIFF";
      if (!same) all_deterministic = false;
    }
    std::printf("%-20s %12llu %10.2f %14.0f %9.2fx %8s %8s\n", sc.name,
                static_cast<unsigned long long>(r.events), r.wall_ms,
                r.events_per_sec(), speedup, determ,
                zero_perturb ? "ok" : "DIFF");

    if (!runs_json.empty()) {
      runs_json += ",\n    ";
      base_json += ",\n    ";
      speedup_json += ", ";
      trace_json += ", ";
    }
    runs_json += std::string("\"") + sc.name + "\": " + JsonRun(r);
    base_json += std::string("\"") + sc.name + "\": " +
                 (base != nullptr ? JsonRun(*base) : "null");
    char sbuf[64];
    std::snprintf(sbuf, sizeof(sbuf), "\"%s\": %.2f", sc.name, speedup);
    speedup_json += sbuf;
    trace_json += std::string("\"") + sc.name +
                  "\": " + (zero_perturb ? "true" : "false");
  }

  std::ofstream out(json_path);
  out << "{\n  \"bench\": \"simcore\",\n  \"mode\": \""
      << (smoke ? "smoke" : "full") << "\",\n  \"runs\": {\n    "
      << runs_json << "\n  },\n  \"baseline\": {\n    " << base_json
      << "\n  },\n  \"speedup_vs_baseline\": { " << speedup_json
      << " },\n  \"trace_zero_perturbation\": { " << trace_json
      << " },\n  \"deterministic_vs_baseline\": "
      << (all_deterministic ? "true" : "false")
      << ",\n  \"tracing_zero_perturbation\": "
      << (all_zero_perturb ? "true" : "false") << "\n}\n";
  out.close();
  std::printf("wrote %s\n", json_path);
  return all_deterministic && all_zero_perturb ? 0 : 1;
}

}  // namespace
}  // namespace dmrpc::bench

int main(int argc, char** argv) { return dmrpc::bench::Main(argc, argv); }
