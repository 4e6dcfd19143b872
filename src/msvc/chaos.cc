#include "msvc/chaos.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "msvc/cluster.h"
#include "msvc/workload.h"
#include "obs/trace.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace dmrpc::msvc {
namespace {

/// Request type of the actor-to-actor echo handler.
constexpr rpc::ReqType kEchoReq = 7;

/// Payload contents are a pure function of (seed, actor, iter, offset),
/// so a fetched payload can be verified byte-for-byte without retaining
/// anything beyond the loop variables.
uint8_t PatternByte(uint64_t seed, uint64_t actor, uint64_t iter,
                    uint64_t j) {
  uint64_t x = seed * 0x9e3779b97f4a7c15ull + actor * 0x100000001b3ull +
               iter * 1315423911ull + j * 0x2545f4914f6cdd1dull;
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 29;
  return static_cast<uint8_t>(x);
}

struct World {
  const ChaosOptions* opts = nullptr;
  sim::Simulation* sim = nullptr;
  Cluster* cluster = nullptr;
  fault::FaultInjector* injector = nullptr;
  std::vector<ServiceEndpoint*> actors;
  /// Crash generation per node: the listener bumps it at the crash
  /// instant; actors poll it between ops to learn they died.
  std::vector<uint64_t> crash_gen;
  sim::WaitGroup wg;
  ChaosReport* report = nullptr;
};

/// Brings actor `a` back after its host restarts: waits for link power,
/// rebuilds the process (fresh DM layer, empty session cache) and
/// re-registers with the DM servers. Loops because the replacement
/// process can itself be killed by a later crash window.
sim::Task<> RecoverActor(World* w, int a) {
  ServiceEndpoint* ep = w->actors[a];
  for (;;) {
    while (!w->injector->IsNodeUp(ep->node())) {
      co_await sim::Delay(200 * kMicrosecond);
    }
    ep->Restart();
    Status st = co_await ep->Init();
    if (st.ok()) co_return;
    co_await sim::Delay(1 * kMillisecond);
  }
}

sim::Task<> ActorLoop(World* w, int a) {
  ServiceEndpoint* ep = w->actors[a];
  const std::string peer =
      "actor" + std::to_string((a + 1) % w->opts->num_actors);
  uint64_t seen_gen = w->crash_gen[ep->node()];
  for (int iter = 0; iter < w->opts->ops_per_actor; ++iter) {
    // Every 4th payload is small (inline path); the rest go through DM.
    uint64_t size =
        (iter % 4 == 0)
            ? 64 + w->sim->rng().Uniform(512)
            : 2048 + w->sim->rng().Uniform(static_cast<uint32_t>(
                         w->opts->max_payload_bytes - 2048));
    std::vector<uint8_t> data(size);
    for (uint64_t j = 0; j < size; ++j) {
      data[j] = PatternByte(w->opts->seed, a, iter, j);
    }

    w->report->ops_attempted++;
    bool op_ok = false;
    auto payload = co_await ep->dmrpc()->MakePayload(data);
    if (payload.ok()) {
      auto fetched = co_await ep->dmrpc()->Fetch(*payload);
      if (fetched.ok()) {
        op_ok = true;
        if (*fetched != data) w->report->fetch_mismatches++;
      }
      (void)co_await ep->dmrpc()->Release(std::move(*payload));
    }
    if (op_ok) {
      w->report->ops_ok++;
    } else {
      w->report->ops_failed++;
    }

    // Control-plane traffic: echo off a neighbour actor.
    rpc::MsgBuffer msg;
    msg.Append<uint64_t>(w->opts->seed ^ (uint64_t{1} << a) ^
                         static_cast<uint64_t>(iter));
    auto echo = co_await ep->CallService(peer, kEchoReq, std::move(msg));
    if (echo.ok()) {
      w->report->echo_ok++;
    } else {
      w->report->echo_failed++;
      // The peer may have restarted and lost the session; reconnect on
      // the next call instead of timing out against dead state forever.
      ep->ForgetSession(peer);
    }

    // Crash detection: the generation check catches a crash+restart that
    // completed while we were suspended above; the IsNodeUp check
    // catches being mid-outage right now.
    if (w->crash_gen[ep->node()] != seen_gen ||
        !w->injector->IsNodeUp(ep->node())) {
      co_await RecoverActor(w, a);
      seen_gen = w->crash_gen[ep->node()];
    }
    // Pace the loop so the whole workload spans the fault horizon --
    // otherwise the actors drain in a few ms and most scheduled fault
    // windows fire into a quiet cluster.
    TimeNs pace = w->opts->fault_horizon / (w->opts->ops_per_actor + 1);
    co_await sim::Delay(pace / 2 +
                        w->sim->rng().Uniform(static_cast<uint32_t>(pace)));
  }
  w->wg.Done();
}

sim::Task<Status> Supervise(World* w) {
  Status st = co_await w->cluster->InitAll();
  if (!st.ok()) {
    w->wg.Add(0);
    co_return Status(st.code(), "cluster init: " + st.message());
  }

  // The schedule is a pure function of the seed; shifting it past init
  // keeps the handshake phase fault-free without consuming rng draws.
  fault::ChaosProfile prof;
  prof.horizon_ns = w->opts->fault_horizon;
  prof.max_packet_faults = w->opts->max_packet_faults;
  prof.max_link_downs = w->opts->max_link_downs;
  prof.max_crashes = w->opts->max_crashes;
  for (uint32_t n = 0; n < w->cluster->config().num_nodes; ++n) {
    prof.packet_fault_nodes.push_back(n);
  }
  if (w->opts->inject_crashes) {
    // DM servers stay up: the pool must survive CLIENT failure. A DM
    // server's own crash is a different fault domain (durable pool
    // state), left as future work -- see docs/ARCHITECTURE.md.
    for (ServiceEndpoint* ep : w->actors) {
      prof.crash_nodes.push_back(ep->node());
    }
  }
  fault::FaultPlan plan = fault::FaultPlan::Randomized(w->opts->seed, prof);
  plan.ShiftBy(w->sim->Now() + 1 * kMillisecond);
  w->injector->Schedule(plan);

  w->wg.Add(w->opts->num_actors);
  for (int a = 0; a < w->opts->num_actors; ++a) {
    w->sim->Spawn(ActorLoop(w, a));
  }
  co_await w->wg.Wait();

  // Grace: orphaned server-side handlers and packets still in flight
  // are micro/millisecond-scale; let them resolve before retirement.
  co_await sim::Delay(20 * kMillisecond);

  // Retirement: every actor process exits. A clean exit is the same
  // sweep as a crash -- drop whatever the incarnation still holds. Any
  // frame unaccounted for afterwards is a leak by definition.
  for (size_t s = 0; s < w->cluster->num_dm_servers(); ++s) {
    for (ServiceEndpoint* ep : w->actors) {
      w->cluster->dm_server(s)->ReclaimPeer(ep->node());
    }
  }
  co_return Status::OK();
}

}  // namespace

std::string ChaosReport::Summary(uint64_t seed) const {
  std::string s = "seed " + std::to_string(seed) + ": ";
  s += ok ? "ok" : "FAIL";
  s += ", ops " + std::to_string(ops_ok) + "/" + std::to_string(ops_attempted);
  s += ", echo " + std::to_string(echo_ok) + "/" +
       std::to_string(echo_ok + echo_failed);
  s += ", spans " + std::to_string(spans_recorded);
  s += ", crashes " + std::to_string(faults.crashes);
  s += ", drops " + std::to_string(faults.dropped);
  s += ", corrupt " + std::to_string(faults.corrupted);
  s += ", dup " + std::to_string(faults.duplicated);
  s += ", reorder " + std::to_string(faults.reordered);
  for (const std::string& v : violations) {
    s += "\n  violation: " + v;
  }
  return s;
}

ChaosReport RunChaosIteration(const ChaosOptions& opts) {
  DMRPC_CHECK_GE(opts.num_actors, 2) << "actors echo off a neighbour";
  ChaosReport report;
  sim::Simulation sim(opts.seed);
  // Every iteration runs traced: the sweep then doubles as a propagation
  // stress test (spans under drops, retransmits, link flaps and crashes)
  // on top of the data-plane invariants. The limit is far above what one
  // iteration records, so nothing is shed and the metrics dump -- part of
  // the determinism fingerprint -- never grows an obs.trace_dropped row.
  sim.tracer().set_enabled(true);
  sim.tracer().set_limit(size_t{1} << 22);
  ClusterConfig cfg;
  cfg.backend = Backend::kDmNet;
  cfg.num_nodes = static_cast<uint32_t>(opts.num_actors) + 2;
  cfg.dm_frames = 4096;
  // Recovery must ride out the longest link outage (20 ms): base RTO
  // well under it, backoff cap and retry budget comfortably over it.
  cfg.rpc.rto_ns = 500 * kMicrosecond;
  cfg.rpc.rto_max_ns = 8 * kMillisecond;
  cfg.rpc.max_retries = 12;
  {
    Cluster cluster(&sim, cfg);
    fault::FaultInjector injector(cluster.fabric());
    World w;
    w.opts = &opts;
    w.sim = &sim;
    w.cluster = &cluster;
    w.injector = &injector;
    w.report = &report;
    w.crash_gen.assign(cfg.num_nodes, 0);
    for (int a = 0; a < opts.num_actors; ++a) {
      ServiceEndpoint* ep = cluster.AddService(
          "actor" + std::to_string(a), static_cast<net::NodeId>(a),
          /*port=*/300, /*worker_threads=*/2);
      ep->RegisterHandler(kEchoReq,
                          [](rpc::ReqContext, rpc::MsgBuffer req)
                              -> sim::Task<rpc::MsgBuffer> {
                            co_await sim::Delay(2 * kMicrosecond);
                            co_return req;
                          });
      w.actors.push_back(ep);
    }
    if (opts.debug_leak_on_release) {
      cluster.dm_server(0)->set_debug_leak_on_release(true);
    }
    injector.AddNodeListener([&w](net::NodeId node, fault::NodeEvent ev) {
      if (ev != fault::NodeEvent::kCrash) return;
      w.crash_gen[node]++;
      // Volatile state dies with the host: fail its RPC operations...
      for (ServiceEndpoint* ep : w.actors) {
        if (ep->node() == node) {
          ep->rpc()->ResetAllSessions(Status::Aborted("node crashed"));
        }
      }
      // ...and reclaim everything the incarnation held on DM servers.
      for (size_t s = 0; s < w.cluster->num_dm_servers(); ++s) {
        w.cluster->dm_server(s)->ReclaimPeer(node);
      }
    });

    const int64_t baseline_tasks = sim.live_task_count();
    Status st = RunToCompletion(&sim, Supervise(&w), opts.run_timeout);
    if (!st.ok()) {
      report.violations.push_back("run did not complete cleanly: " +
                                  st.ToString());
    }
    if (sim.live_task_count() != baseline_tasks) {
      report.violations.push_back(
          "coroutine leak: " + std::to_string(sim.live_task_count()) +
          " live tasks vs baseline " + std::to_string(baseline_tasks));
    }
    for (size_t s = 0; s < cluster.num_dm_servers(); ++s) {
      const dm::PagePool& pool = cluster.dm_server(s)->pool();
      if (pool.free_frames() != pool.num_frames()) {
        uint64_t leaked = pool.num_frames() - pool.free_frames();
        report.frames_leaked += leaked;
        report.violations.push_back(
            "dm server " + std::to_string(s) + ": " +
            std::to_string(leaked) + " frames not returned to the free list");
      }
      // Host bytes must follow frames in use: a freed frame that stays
      // backed is host memory the pool lost track of.
      if (pool.resident_frames() != pool.num_frames() - pool.free_frames()) {
        report.violations.push_back(
            "dm server " + std::to_string(s) + ": " +
            std::to_string(pool.resident_frames()) +
            " frames hold host bytes, " +
            std::to_string(pool.num_frames() - pool.free_frames()) +
            " are in use");
      }
      if (pool.lease_count() != 0) {
        report.leases_leaked += pool.lease_count();
        report.violations.push_back(
            "dm server " + std::to_string(s) + ": " +
            std::to_string(pool.lease_count()) + " leases outstanding");
      }
    }
    if (report.fetch_mismatches > 0) {
      report.violations.push_back(
          std::to_string(report.fetch_mismatches) +
          " fetched payloads differed from their source bytes");
    }

    // Tracing invariants. Request-layer spans must always belong to a
    // trace (net-layer spans may carry trace 0 for background packets,
    // e.g. the connect handshake before a request context exists), and
    // every span begun anywhere must have been closed by retirement --
    // crashes and retransmissions are not an excuse to lose an end
    // record. Shed records would make both checks vacuous, so the run
    // must also fit the record limit.
    if (sim.tracer().open_span_count() != 0) {
      report.violations.push_back(
          std::to_string(sim.tracer().open_span_count()) +
          " spans still open after retirement");
    }
    if (sim.tracer().dropped() != 0) {
      report.violations.push_back(
          "tracer shed " + std::to_string(sim.tracer().dropped()) +
          " records; span invariants not checkable");
    }
    uint64_t untraced_spans = 0;
    for (const obs::TraceRecord& rec : sim.tracer().records()) {
      report.spans_recorded +=
          rec.phase == obs::TracePhase::kSpanBegin ? 1 : 0;
      if (rec.phase == obs::TracePhase::kSpanBegin && rec.trace_id == 0 &&
          rec.cat != "net") {
        untraced_spans++;
      }
    }
    if (untraced_spans > 0) {
      report.violations.push_back(
          std::to_string(untraced_spans) +
          " request-layer spans with no trace id");
    }

    report.faults = injector.stats();
  }
  report.executed_events = sim.executed_events();
  report.metrics_json = sim.DumpMetricsJson();
  report.ok = report.violations.empty();
  return report;
}

}  // namespace dmrpc::msvc
