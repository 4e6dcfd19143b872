// End-to-end benchmark harness: one DmRPC workload per process, measured
// on both clocks. Virtual-time metrics (goodput, latency percentiles, SLO
// attainment) describe the modelled system; host-time metrics (simulator
// slowdown, set-up time, peak memory) describe the simulator running it.
//
//   dmrpc_e2e --workload=<name> [--seed=N] [--seconds=S] [--trace]
//             [--anchor]
//
// --seconds scales the measure window (10 runs the reference window);
// --trace adds a traced run for the critical-path split; --anchor runs
// the workload's construction at the point an earlier sweep recorded.
//
// Every run is one process, one thread and the sequential engine. The
// harness only calls the simulator's stable public surface (Simulation,
// Cluster, the apps, KvCluster, RunOpenLoopMulti, Histogram, registry
// reads, TraceAnalysis) and observes requests from outside through a
// wrapper that reads clocks and counters but never schedules events or
// draws randomness, so a run's metrics fingerprint is the one the same
// construction produces without the harness.
//
// The last stdout line is one JSON object: the correctness verdict, the
// request counts, the schedule fingerprint and every metric with the
// clock it was measured on. Exit status 1 means a correctness gate
// failed, 2 a usage error.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "apps/nested_chain.h"
#include "apps/socialnet.h"
#include "common/histogram.h"
#include "common/random.h"
#include "kv/harness.h"
#include "msvc/cluster.h"
#include "msvc/workload.h"
#include "net/topology.h"
#include "obs/trace_analysis.h"
#include "sim/simulation.h"
#include "workload/openloop.h"

namespace dmrpc::e2e {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// `--seconds` scales every workload's measure window relative to this
/// value; at exactly this value each workload runs its reference window
/// (the one its anchor numbers were recorded with).
constexpr double kRefSeconds = 10.0;
/// Set-ups per run; setup_s and the host.* phases are their medians, so
/// one slow allocation burst on a shared host does not move them.
constexpr int kSetups = 5;
/// The load phase (warmup + measure) is cut into this many equal slices
/// of virtual time; wall_ns_per_virtual_ns is the median slice.
constexpr int kSlices = 20;
/// Tracer capacity for --trace runs; a run that overflows it fails.
constexpr size_t kTraceLimit = size_t{1} << 24;

enum class Kind { kSocialNet, kChainDmNet, kChainCxl, kKvYcsbA };

/// One workload's fixed inputs. All are open-loop Poisson at a fixed
/// rate: the simulated clients model independent users.
///
/// Rates sit below each system's saturation knee on purpose. Past about
/// 80% of the knee the tail is set by rare queue build-ups, and p99 moves
/// by 10-40% from one seed to the next; at these rates it moves by under
/// 3%, so a regression of a few percent is visible.
struct Spec {
  const char* name;
  Kind kind;
  double rate_krps;
  int max_outstanding;
  TimeNs warmup;
  TimeNs measure;  // at kRefSeconds
  /// Latency limit of slo_frac: about the p99 the workload showed when
  /// the benchmark was defined, so a worse tail shows as lost attainment.
  TimeNs limit;
  TimeNs trace_warmup;
  TimeNs trace_measure;
  /// Rate of the point --anchor reproduces (0: none); the windows are the
  /// reference ones.
  double anchor_krps;
};

constexpr Spec kSpecs[] = {
    // scale_sweep's datacenter at two thirds of its 1500 krps knee: port
    // queues, spine hops, small-message rpc and msvc fan-out. The anchor
    // is the knee point itself.
    {"socialnet_clos", Kind::kSocialNet, 1000, 50000, 15 * kMillisecond,
     60 * kMillisecond, 70 * kMicrosecond, 2 * kMillisecond,
     5 * kMillisecond, 1500},
    // Fig. 5's mechanism: a 64 KiB argument passed by Ref down a depth-4
    // chain at ~60% of the ~48 krps knee (dm/dmnet page path, multi-
    // fragment fetches, no Clos).
    {"chain_64k_dmnet", Kind::kChainDmNet, 30, 50000, 10 * kMillisecond,
     1000 * kMillisecond, 150 * kMicrosecond, 10 * kMillisecond,
     60 * kMillisecond, 0},
    // The same inputs on DmRPC-CXL: copy-bound, no dmnet, no fabric data
    // path. The control for engine, net and dmnet changes.
    {"chain_64k_cxl", Kind::kChainCxl, 30, 50000, 10 * kMillisecond,
     1000 * kMillisecond, 120 * kMicrosecond, 10 * kMillisecond,
     60 * kMillisecond, 0},
    // YCSB-A over the by-ref B+-tree: DM writes beside reads and heavy
    // lock contention (WAIT_DIE retries).
    {"kv_ycsb_a_byref", Kind::kKvYcsbA, 100, 512, 5 * kMillisecond,
     1000 * kMillisecond, 180 * kMicrosecond, 5 * kMillisecond,
     40 * kMillisecond, 100},
};

// socialnet_clos: scale_sweep's default datacenter. Frames per DM server
// are 2^15 rather than scale_sweep's 2^18: the pools are touched eagerly,
// a run uses a few percent of them, and 8 GiB of zeroed frames per set-up
// would dominate both the host's memory and the run time. Timing does not
// depend on the pool size, so the anchor point still reproduces exactly.
constexpr uint32_t kSnHosts = 192;
constexpr uint32_t kSnSpines = 4;
constexpr uint32_t kSnLeaves = 8;
constexpr uint32_t kSnQueue = 256;
constexpr uint32_t kSnFrames = 1u << 15;
constexpr double kSnZipf = 0.99;

// chain_64k_*: 16 hosts on one ToR, services on 1-4, clients on 10-13.
constexpr uint32_t kChainHosts = 16;
constexpr int kChainDepth = 4;
constexpr uint32_t kChainArgBytes = 64 * 1024;
constexpr uint32_t kChainClients = 4;
constexpr uint32_t kChainFrames = 1u << 16;

// kv_ycsb_a_byref: ycsb_sweep --modes=ref --workloads=a --policy=wait-die
// --clients=8 --keys=65536 --zipf=0.99.
constexpr uint32_t kKvClients = 8;
constexpr uint64_t kKvKeys = 65536;
constexpr uint32_t kKvValueSize = 100;
constexpr double kKvZipf = 0.99;
constexpr uint32_t kKvFrames = 1u << 17;

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 14695981039346656037ull;
  for (char c : s) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// Nearest-rank quantile of raw samples (sorts in place); 0 when empty.
double Quantile(std::vector<int64_t>* v, double q) {
  if (v->empty()) return 0.0;
  std::sort(v->begin(), v->end());
  size_t rank = static_cast<size_t>(q * static_cast<double>(v->size()));
  return static_cast<double>((*v)[std::min(rank, v->size() - 1)]);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double CurrentRssMb() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0, resident = 0;
  statm >> pages >> resident;
  return static_cast<double>(resident) * sysconf(_SC_PAGESIZE) / (1 << 20);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Registry reads that never register a name (Get* would create it and
// change the metrics dump, i.e. the run's fingerprint).
const obs::Counter* FindCounter(const obs::MetricsRegistry& m,
                                std::string_view name) {
  const obs::Counter* found = nullptr;
  m.ForEachCounter([&](const std::string& n, const obs::Counter& c) {
    if (n == name) found = &c;
  });
  return found;
}

int64_t GaugeMax(const obs::MetricsRegistry& m, std::string_view name) {
  int64_t v = 0;
  m.ForEachGauge([&](const std::string& n, const obs::Gauge& g) {
    if (n == name) v = g.max();
  });
  return v;
}

/// Registry state at one instant, for deltas over the load phase.
struct Snapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, Histogram> timers;
  uint64_t events = 0;
};

Snapshot Take(const sim::Simulation& sim) {
  Snapshot s;
  sim.metrics().ForEachCounter([&](const std::string& n,
                                   const obs::Counter& c) {
    s.counters[n] = c.value();
  });
  sim.metrics().ForEachTimer([&](const std::string& n, const obs::Timer& t) {
    s.timers[n] = t.hist();
  });
  s.events = sim.executed_events();
  return s;
}

uint64_t Delta(const Snapshot& before, const Snapshot& after,
               const std::string& name) {
  auto a = after.counters.find(name);
  if (a == after.counters.end()) return 0;
  auto b = before.counters.find(name);
  return a->second - (b == before.counters.end() ? 0 : b->second);
}

uint64_t DeltaPrefix(const Snapshot& before, const Snapshot& after,
                     const std::string& prefix) {
  uint64_t sum = 0;
  for (const auto& [name, v] : after.counters) {
    if (name.compare(0, prefix.size(), prefix) == 0) {
      sum += Delta(before, after, name);
    }
  }
  return sum;
}

/// Quantile of the samples a timer took between two snapshots.
double TimerQuantile(const Snapshot& before, const Snapshot& after,
                     const std::string& name, double q) {
  auto a = after.timers.find(name);
  if (a == after.timers.end()) return 0.0;
  auto b = before.timers.find(name);
  Histogram h = b == before.timers.end() ? a->second : a->second.Diff(b->second);
  return static_cast<double>(h.ValueAtQuantile(q));
}

/// What the harness observes of the load phase from outside the modelled
/// system. Fed by Timed(), which runs inside the simulation but only reads
/// the virtual clock, the host clock and registry counters.
struct Probe {
  sim::Simulation* sim = nullptr;
  TimeNs t0 = 0;
  TimeNs measure_start = 0;
  TimeNs measure_end = 0;
  TimeNs limit = 0;

  uint64_t issued = 0;   // every request started (warmup + measure)
  uint64_t offered = 0;  // started inside the measure window
  uint64_t ok = 0;       // of those, completed successfully
  uint64_t failed = 0;   // of those, completed with an error
  uint64_t internal_errors = 0;  // of those, Internal (checksum mismatch)
  uint64_t within_limit = 0;     // of those, done OK within `limit`
  std::vector<int64_t> latency_ns;  // successful in-window latencies

  int64_t live_tasks_max = 0;
  const obs::Counter* frames_popped = nullptr;
  const obs::Counter* frames_pushed = nullptr;
  int64_t frames_in_use_max = 0;

  // First request start seen in each virtual-time slice of the load
  // phase, plus the measure-window end.
  TimeNs slice_vt[kSlices + 1] = {};
  Clock::time_point slice_wall[kSlices + 1] = {};
  bool slice_seen[kSlices + 1] = {};

  void SampleFrames() {
    if (frames_popped == nullptr || frames_pushed == nullptr) return;
    int64_t in_use = static_cast<int64_t>(frames_popped->value()) -
                     static_cast<int64_t>(frames_pushed->value());
    frames_in_use_max = std::max(frames_in_use_max, in_use);
  }

  void MarkSlice(int i, TimeNs now) {
    slice_seen[i] = true;
    slice_vt[i] = now;
    slice_wall[i] = Clock::now();
  }

  bool InWindow(TimeNs t) const {
    return t >= measure_start && t < measure_end;
  }

  void OnStart(TimeNs now) {
    ++issued;
    if (InWindow(now)) ++offered;
    live_tasks_max = std::max(live_tasks_max, sim->live_task_count());
    SampleFrames();
    int slice = static_cast<int>((now - t0) * kSlices / (measure_end - t0));
    if (slice < kSlices && !slice_seen[slice]) MarkSlice(slice, now);
  }

  void OnEnd(TimeNs start, TimeNs end, const Status& st) {
    SampleFrames();
    if (!InWindow(start)) return;
    if (!st.ok()) {
      ++failed;
      if (st.code() == StatusCode::kInternal) ++internal_errors;
      return;
    }
    ++ok;
    latency_ns.push_back(end - start);
    if (end - start <= limit) ++within_limit;
  }

  /// Host ns per virtual ns of the load phase: the median over slices,
  /// robust to a burst of host interference in a few of them.
  double WallPerVirtual() const {
    std::vector<double> r;
    for (int i = 0; i < kSlices; ++i) {
      if (!slice_seen[i] || !slice_seen[i + 1]) continue;
      double wall_ns = std::chrono::duration<double, std::nano>(
                           slice_wall[i + 1] - slice_wall[i])
                           .count();
      r.push_back(wall_ns / static_cast<double>(slice_vt[i + 1] - slice_vt[i]));
    }
    return Median(r);
  }
};

sim::Task<StatusOr<uint64_t>> Timed(const msvc::RequestFn* inner, Probe* p) {
  TimeNs start = p->sim->Now();
  p->OnStart(start);
  StatusOr<uint64_t> r = co_await (*inner)();
  p->OnEnd(start, p->sim->Now(), r.status());
  co_return r;
}

/// Virtual-time latencies of the KV calls the harness makes itself.
struct KvProbe {
  std::vector<int64_t> txn_ns;  // TxnMgr::RunTxn, retries included
  std::vector<int64_t> get_ns;  // Txn::Get / Txn::GetForUpdate
  std::vector<int64_t> put_ns;  // Txn::Put
};

/// One YCSB-A transaction (50% Get, 50% GetForUpdate + Put), drawn
/// exactly as ycsb_sweep draws it so the run reproduces its schedule.
sim::Task<StatusOr<uint64_t>> YcsbA(kv::KvCluster* kvc, uint32_t who,
                                    KvProbe* probe) {
  sim::Simulation* sim = sim::Simulation::Current();
  Rng& rng = sim->rng();
  kv::TxnMgr* mgr = kvc->txns(who);
  uint64_t key = rng.Zipf(kKvKeys, kKvZipf);
  bool update = rng.Uniform(100) < 50;
  // Root span of the transaction's trace, as the apps open one per
  // request, so the critical-path split is per transaction rather than
  // per RPC. The trace id is minted whether or not the tracer records.
  obs::Tracer& tracer = sim->tracer();
  const obs::TraceContext root = obs::EnsureTraceContext(tracer);
  uint64_t span = 0;
  if (tracer.enabled()) {
    span = tracer.BeginSpan(root, "app", "app.request", sim->Now(),
                            kvc->client_node(who));
  }
  obs::SetCurrentTraceContext(obs::TraceContext{
      root.trace_id, span != 0 ? span : root.span_id, root.flags});
  TimeNs txn_start = sim->Now();
  Status st = co_await mgr->RunTxn([&](kv::Txn& txn) -> sim::Task<Status> {
    TimeNs t = sim->Now();
    auto read = update ? txn.GetForUpdate(key) : txn.Get(key);
    auto got = co_await std::move(read);
    probe->get_ns.push_back(sim->Now() - t);
    if (!got.ok()) co_return got.status();
    if (update) {
      auto value = kv::KvCluster::MakeValue(key, kKvValueSize, txn.id());
      t = sim->Now();
      Status ps = co_await txn.Put(key, value.data());
      probe->put_ns.push_back(sim->Now() - t);
      if (!ps.ok()) co_return ps;
    }
    co_return Status::OK();
  });
  probe->txn_ns.push_back(sim->Now() - txn_start);
  if (span != 0) tracer.EndSpan(span, sim->Now());
  if (!st.ok()) co_return st;
  co_return uint64_t{kKvValueSize};
}

/// Host time of each set-up phase.
struct Phases {
  double build_s = 0;   // Simulation + Cluster / KvCluster construction
  double deploy_s = 0;  // app constructors and client endpoints
  double init_s = 0;    // InitAll / KvCluster::Init
  double load_s = 0;    // KvCluster::Load
  double total() const { return build_s + deploy_s + init_s + load_s; }
};

/// One built datacenter. Members are declared in dependency order, so
/// destruction tears down sources and apps before the cluster and the
/// cluster before the simulation.
struct Deployment {
  std::unique_ptr<sim::Simulation> sim;
  std::unique_ptr<msvc::Cluster> cluster;
  std::vector<std::unique_ptr<apps::SocialNetApp>> cells;
  std::unique_ptr<apps::NestedChainApp> chain;
  std::unique_ptr<kv::KvCluster> kv;
  std::vector<msvc::RequestFn> sources;
  /// Registry prefix of the DM frame pools and their total frame count.
  std::string pool_prefix = "dm.pool";
  uint64_t pool_frames = 0;
  Phases phases;
  double rss_after_build_mb = 0;
};

void InitOrDie(sim::Simulation* sim, sim::Task<Status> task) {
  Status st = msvc::RunToCompletion(sim, std::move(task), 600 * kSecond);
  if (!st.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
    std::exit(1);
  }
}

std::unique_ptr<Deployment> Deploy(const Spec& spec, uint64_t seed,
                                   KvProbe* kvp) {
  auto d = std::make_unique<Deployment>();
  Clock::time_point t0 = Clock::now();
  d->sim = std::make_unique<sim::Simulation>(seed);
  sim::Simulation* sim = d->sim.get();
  Clock::time_point built, deployed, inited, loaded;

  switch (spec.kind) {
    case Kind::kSocialNet: {
      msvc::ClusterConfig cfg;
      cfg.backend = msvc::Backend::kDmNet;
      cfg.num_nodes = kSnHosts;
      cfg.topology =
          net::TopologyConfig::Clos(kSnHosts, kSnSpines, kSnLeaves, kSnQueue);
      cfg.dm_frames = kSnFrames;
      // Per leaf block: a 3-host cell at its start, the DM server on its
      // last host, open-loop clients on the rest (cell j % cells each).
      uint32_t hpl = cfg.topology.HostsPerLeaf();
      std::vector<std::vector<net::NodeId>> cell_nodes;
      std::vector<net::NodeId> clients;
      for (uint32_t l = 0; l < kSnLeaves; ++l) {
        net::NodeId base = l * hpl;
        net::NodeId dm = std::min(kSnHosts, base + hpl) - 1;
        cfg.dm_server_nodes.push_back(dm);
        cell_nodes.push_back({base, base + 1, base + 2});
        for (net::NodeId n = base + 3; n < dm; ++n) clients.push_back(n);
      }
      d->cluster = std::make_unique<msvc::Cluster>(sim, cfg);
      built = Clock::now();
      d->rss_after_build_mb = CurrentRssMb();
      for (size_t i = 0; i < cell_nodes.size(); ++i) {
        apps::SocialNetConfig scfg;
        scfg.read_zipf_skew = kSnZipf;
        scfg.service_prefix = "sn" + std::to_string(i) + "-";
        d->cells.push_back(std::make_unique<apps::SocialNetApp>(
            d->cluster.get(), cell_nodes[i], scfg));
      }
      for (size_t j = 0; j < clients.size(); ++j) {
        msvc::ServiceEndpoint* client = d->cluster->AddService(
            "client" + std::to_string(j), clients[j], 1000, 4);
        d->sources.push_back(
            d->cells[j % d->cells.size()]->MakeMixedRequestFn(client));
      }
      deployed = Clock::now();
      InitOrDie(sim, d->cluster->InitAll());
      inited = loaded = Clock::now();
      d->pool_frames = uint64_t{kSnFrames} * d->cluster->num_dm_servers();
      break;
    }
    case Kind::kChainDmNet:
    case Kind::kChainCxl: {
      msvc::ClusterConfig cfg;
      cfg.backend = spec.kind == Kind::kChainCxl ? msvc::Backend::kDmCxl
                                                 : msvc::Backend::kDmNet;
      cfg.num_nodes = kChainHosts;
      cfg.dm_frames = kChainFrames;
      d->cluster = std::make_unique<msvc::Cluster>(sim, cfg);
      built = Clock::now();
      d->rss_after_build_mb = CurrentRssMb();
      d->chain = std::make_unique<apps::NestedChainApp>(
          d->cluster.get(), kChainDepth, std::vector<net::NodeId>{1, 2, 3, 4});
      for (uint32_t i = 0; i < kChainClients; ++i) {
        msvc::ServiceEndpoint* client = d->cluster->AddService(
            "client" + std::to_string(i), 10 + i, 1000);
        d->sources.push_back(d->chain->MakeRequestFn(client, kChainArgBytes));
      }
      deployed = Clock::now();
      InitOrDie(sim, d->cluster->InitAll());
      inited = loaded = Clock::now();
      if (spec.kind == Kind::kChainCxl) {
        d->pool_prefix = "cxl.gfam";
        d->pool_frames = kChainFrames;
      } else {
        d->pool_frames = uint64_t{kChainFrames} * d->cluster->num_dm_servers();
      }
      break;
    }
    case Kind::kKvYcsbA: {
      kv::KvClusterConfig cfg;
      cfg.mode = kv::AccessMode::kByRef;
      cfg.policy = kv::CcPolicy::kWaitDie;
      cfg.num_clients = kKvClients;
      cfg.value_size = kKvValueSize;
      cfg.record_history = false;
      cfg.dm_frames = kKvFrames;
      d->kv = std::make_unique<kv::KvCluster>(sim, cfg);
      built = deployed = Clock::now();
      d->rss_after_build_mb = CurrentRssMb();
      // Init and Load share one task, as in ycsb_sweep: a second
      // RunToCompletion would add an event and shift the schedule.
      kv::KvCluster* kvc = d->kv.get();
      auto boot = [&]() -> sim::Task<Status> {
        Status st = co_await kvc->Init();
        inited = Clock::now();
        if (!st.ok()) co_return st;
        co_return co_await kvc->Load(kKvKeys);
      };
      InitOrDie(sim, boot());
      loaded = Clock::now();
      for (uint32_t i = 0; i < kKvClients; ++i) {
        d->sources.push_back([kvc, i, kvp]() { return YcsbA(kvc, i, kvp); });
      }
      d->pool_frames = uint64_t{kKvFrames} * kvc->cluster()->num_dm_servers();
      break;
    }
  }
  d->phases.build_s = Seconds(t0, built);
  d->phases.deploy_s = Seconds(built, deployed);
  d->phases.init_s = Seconds(deployed, inited);
  d->phases.load_s = Seconds(inited, loaded);
  return d;
}

/// One open-loop load phase on a deployment, observed from outside.
struct LoadRun {
  msvc::WorkloadResult res;
  std::unique_ptr<Probe> probe;
  Snapshot before;
  Snapshot after;
  double wall_s = 0;
  uint64_t fingerprint = 0;
};

LoadRun RunLoad(Deployment* d, const Spec& spec, double rate_krps,
                TimeNs warmup, TimeNs measure) {
  sim::Simulation* sim = d->sim.get();
  LoadRun run;
  run.probe = std::make_unique<Probe>();
  Probe* p = run.probe.get();
  p->sim = sim;
  p->t0 = sim->Now();
  p->measure_start = p->t0 + warmup;
  p->measure_end = p->measure_start + measure;
  p->limit = spec.limit;
  p->frames_popped =
      FindCounter(sim->metrics(), d->pool_prefix + ".frames_popped");
  p->frames_pushed =
      FindCounter(sim->metrics(), d->pool_prefix + ".frames_pushed");
  p->SampleFrames();

  std::vector<msvc::RequestFn> timed;
  for (const msvc::RequestFn& fn : d->sources) {
    const msvc::RequestFn* inner = &fn;
    timed.push_back([inner, p]() { return Timed(inner, p); });
  }
  workload::OpenLoopConfig wcfg;
  wcfg.rate_rps = rate_krps * 1000.0;
  wcfg.max_outstanding = spec.max_outstanding;
  msvc::WindowHooks hooks;
  hooks.on_measure_end = [p] { p->MarkSlice(kSlices, p->measure_end); };

  run.before = Take(*sim);
  Clock::time_point start = Clock::now();
  run.res = workload::RunOpenLoopMulti(sim, timed, wcfg, warmup, measure, hooks);
  run.wall_s = Seconds(start, Clock::now());
  run.after = Take(*sim);
  run.fingerprint = Fnv1a(sim->DumpMetricsJson());
  return run;
}

/// A named metric value and the clock it was measured on.
struct Metric {
  std::string name;
  double value;
  bool host;
};

class Report {
 public:
  void Virtual(const std::string& name, double v) { m_.push_back({name, v, false}); }
  void Host(const std::string& name, double v) { m_.push_back({name, v, true}); }
  void Fail(std::string why) { failures_.push_back(std::move(why)); }
  bool ok() const { return failures_.empty(); }

  void Print(const Spec& spec, uint64_t seed, double seconds, bool trace,
             uint64_t attempted, uint64_t failed, uint64_t fingerprint,
             uint64_t events, const std::string& anchor) const {
    std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64
                ", \"seconds\": %.17g, \"trace\": %s, \"correct\": %s, "
                "\"failures\": [",
                spec.name, seed, seconds, trace ? "true" : "false",
                ok() ? "true" : "false");
    for (size_t i = 0; i < failures_.size(); ++i) {
      std::string quoted;
      for (char c : failures_[i]) {
        if (c == '"' || c == '\\') quoted += '\\';
        quoted += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
      }
      std::printf("%s\"%s\"", i > 0 ? ", " : "", quoted.c_str());
    }
    std::printf("], \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                ", \"metrics_fingerprint\": \"%016" PRIx64
                "\", \"events\": %" PRIu64 ", \"anchor\": %s, \"metrics\": {",
                attempted, failed, fingerprint, events, anchor.c_str());
    for (size_t i = 0; i < m_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"clock\": \"%s\"}",
                  i > 0 ? ", " : "", m_[i].name.c_str(), m_[i].value,
                  m_[i].host ? "host" : "virtual");
    }
    std::printf("}}\n");
  }

 private:
  std::vector<Metric> m_;
  std::vector<std::string> failures_;
};

void ReportLayers(const Deployment& d, const LoadRun& run, Report* r) {
  const Snapshot& b = run.before;
  const Snapshot& a = run.after;
  const Probe& p = *run.probe;
  double req = static_cast<double>(p.issued);
  uint64_t events = a.events - b.events;

  r->Virtual("sim.events", static_cast<double>(events));
  r->Virtual("sim.events_per_request", Ratio(events, req));
  r->Host("sim.wall_ns_per_event", Ratio(run.wall_s * 1e9, events));
  r->Virtual("sim.live_tasks_max", static_cast<double>(p.live_tasks_max));

  uint64_t spine = Delta(b, a, "net.fabric.spine_hops");
  uint64_t local = Delta(b, a, "net.fabric.leaf_local");
  r->Virtual("net.packets_per_request", Ratio(Delta(b, a, "net.tx_packets"), req));
  r->Virtual("net.bytes_per_request", Ratio(Delta(b, a, "net.tx_bytes"), req));
  r->Virtual("net.port_enqueued",
             static_cast<double>(Delta(b, a, "net.fabric.port_enqueued")));
  r->Virtual("net.max_port_depth", static_cast<double>(GaugeMax(
                                       d.sim->metrics(), "net.fabric.max_port_depth")));
  r->Virtual("net.spine_hop_frac", Ratio(spine, spine + local));
  r->Virtual("net.drops", static_cast<double>(DeltaPrefix(b, a, "net.drop_reason.")));

  uint64_t sent = Delta(b, a, "rpc.requests_sent");
  r->Virtual("rpc.calls_per_request", Ratio(sent, req));
  r->Virtual("rpc.call_p50_ns", TimerQuantile(b, a, "rpc.call", 0.50));
  r->Virtual("rpc.call_p99_ns", TimerQuantile(b, a, "rpc.call", 0.99));
  r->Virtual("rpc.handler_p99_ns", TimerQuantile(b, a, "rpc.handler", 0.99));
  r->Virtual("rpc.slot_wait_p99_ns", TimerQuantile(b, a, "rpc.slot_wait", 0.99));
  r->Virtual("rpc.retransmit_frac", Ratio(Delta(b, a, "rpc.retransmits"), sent));
  r->Virtual("rpc.bytes_copied_per_request",
             Ratio(Delta(b, a, "rpc.bytes_copied"), req));
  r->Virtual("rpc.in_flight_max",
             static_cast<double>(GaugeMax(d.sim->metrics(), "rpc.in_flight")));
  r->Virtual("rpc.credit_stalls",
             static_cast<double>(Delta(b, a, "rpc.credit_stalls")));

  r->Virtual("msvc.calls_per_request", Ratio(Delta(b, a, "msvc.service_calls"), req));

  r->Virtual("dm.fetch_refs_per_request", Ratio(Delta(b, a, "dm.fetch_refs"), req));
  r->Virtual("dm.cow_copies", static_cast<double>(Delta(b, a, "dm.cow_copies")));
  r->Virtual("dm.frames_used_frac",
             Ratio(static_cast<double>(p.frames_in_use_max), d.pool_frames));

  r->Virtual("cxl.page_faults", static_cast<double>(Delta(b, a, "cxl.page_faults")));
  r->Virtual("cxl.cow_copies", static_cast<double>(Delta(b, a, "cxl.cow_copies")));
  r->Virtual("cxl.coordinator_refills",
             static_cast<double>(Delta(b, a, "cxl.coordinator_refills")));

  uint64_t begun = Delta(b, a, "kv.txn.begun");
  uint64_t committed = Delta(b, a, "kv.txn.committed");
  r->Virtual("kv.commit_frac", Ratio(committed, begun));
  r->Virtual("kv.retries_per_txn", Ratio(Delta(b, a, "kv.txn.retries"), committed));
}

void ReportPhases(const std::vector<Phases>& setups, double rss_after_build_mb,
                  Report* r) {
  auto median = [&](double Phases::*field) {
    std::vector<double> v;
    for (const Phases& p : setups) v.push_back(p.*field);
    return Median(v);
  };
  r->Host("host.build_s", median(&Phases::build_s));
  r->Host("host.deploy_s", median(&Phases::deploy_s));
  r->Host("host.init_s", median(&Phases::init_s));
  r->Host("host.load_s", median(&Phases::load_s));
  r->Host("host.rss_after_build_mb", rss_after_build_mb);
}

/// Critical-path split of a traced run (obs::TraceAnalysis in process).
void ReportTrace(sim::Simulation* sim, double untraced_wall_per_virtual,
                 const LoadRun& run, Report* r) {
  static constexpr const char* kLayers[] = {"app", "msvc", "rpc",
                                            "dmrpc", "dm", "net"};
  obs::TraceAnalysis ta;
  ta.AddRecords(sim->tracer().records(), sim->tracer().dropped());
  ta.Build();
  obs::WellFormedness wf = ta.Check();
  if (!wf.ok()) {
    r->Fail("trace not well formed: " + std::to_string(wf.unclosed) +
            " unclosed, " + std::to_string(wf.orphans) + " orphans, " +
            std::to_string(wf.interval_violations) + " interval violations, " +
            std::to_string(wf.dropped) + " dropped");
  }
  std::vector<obs::RequestBreakdown> bds = ta.Breakdowns();
  if (bds.empty()) r->Fail("trace holds no complete request");
  double total = 0, wire = 0, copied = 0;
  std::map<std::string, double> layer_total;
  for (const obs::RequestBreakdown& bd : bds) {
    total += static_cast<double>(bd.latency);
    wire += static_cast<double>(bd.wire_bytes);
    copied += static_cast<double>(bd.copied_bytes);
    for (const auto& [layer, ns] : bd.by_layer) layer_total[layer] += ns;
  }
  double share_sum = 0;
  for (const char* layer : kLayers) {
    std::vector<int64_t> self;
    for (const obs::RequestBreakdown& bd : bds) {
      auto it = bd.by_layer.find(layer);
      self.push_back(it == bd.by_layer.end() ? 0 : it->second);
    }
    double share = Ratio(layer_total[layer], total);
    share_sum += share;
    r->Virtual(std::string("trace.") + layer + ".share", share);
    r->Virtual(std::string("trace.") + layer + ".p99_ns", Quantile(&self, 0.99));
  }
  for (const auto& [layer, ns] : layer_total) {
    if (std::find_if(std::begin(kLayers), std::end(kLayers),
                     [&](const char* l) { return layer == l; }) ==
        std::end(kLayers)) {
      r->Fail("critical path in unreported layer " + layer);
    }
  }
  if (!bds.empty() && std::abs(share_sum - 1.0) > 1e-9) {
    r->Fail("trace layer shares sum to " + std::to_string(share_sum));
  }
  r->Virtual("trace.wire_bytes_per_request", Ratio(wire, bds.size()));
  r->Virtual("trace.copied_bytes_per_request", Ratio(copied, bds.size()));
  r->Host("trace.overhead",
          Ratio(run.probe->WallPerVirtual(), untraced_wall_per_virtual));
}

struct Options {
  const Spec* spec = nullptr;
  uint64_t seed = 42;
  double seconds = kRefSeconds;
  bool trace = false;
  bool anchor = false;  // run the workload's anchor point instead
};

bool ParseOptions(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto val = [&](const char* flag) -> const char* {
      size_t n = std::strlen(flag);
      if (std::strncmp(a, flag, n) == 0 && a[n] == '=') return a + n + 1;
      return nullptr;
    };
    const char* v = nullptr;
    if (std::strcmp(a, "--trace") == 0) {
      opt->trace = true;
    } else if (std::strcmp(a, "--anchor") == 0) {
      opt->anchor = true;
    } else if ((v = val("--workload")) != nullptr) {
      for (const Spec& s : kSpecs) {
        if (std::strcmp(v, s.name) == 0) opt->spec = &s;
      }
      if (opt->spec == nullptr) {
        std::fprintf(stderr, "unknown workload: %s\n", v);
        return false;
      }
    } else if ((v = val("--seed")) != nullptr) {
      char* end = nullptr;
      opt->seed = std::strtoull(v, &end, 10);
      if (end == v || *end != '\0') {
        std::fprintf(stderr, "bad --seed: %s\n", v);
        return false;
      }
    } else if ((v = val("--seconds")) != nullptr) {
      char* end = nullptr;
      opt->seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(opt->seconds > 0) ||
          opt->seconds > 600) {
        std::fprintf(stderr, "bad --seconds: %s\n", v);
        return false;
      }
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a);
      return false;
    }
  }
  if (opt->spec == nullptr) {
    std::fprintf(stderr,
                 "usage: dmrpc_e2e --workload=<name> [--seed=N] "
                 "[--seconds=S] [--trace] [--anchor]\nworkloads:");
    for (const Spec& s : kSpecs) std::fprintf(stderr, " %s", s.name);
    std::fprintf(stderr, "\n");
    return false;
  }
  if (opt->anchor && (opt->spec->anchor_krps == 0 ||
                      opt->seconds != kRefSeconds)) {
    std::fprintf(stderr, "--anchor needs a workload with an anchor point "
                         "and the reference --seconds\n");
    return false;
  }
  return true;
}

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseOptions(argc, argv, &opt)) return 2;
  const Spec& spec = *opt.spec;
  Report r;

  // Set up kSetups times and keep the last; each earlier one is torn
  // down first, so peak memory is one deployment's.
  KvProbe kvp;
  std::vector<Phases> setups;
  std::unique_ptr<Deployment> d;
  for (int i = 0; i < kSetups; ++i) {
    d.reset();
    d = Deploy(spec, opt.seed, &kvp);
    setups.push_back(d->phases);
  }
  std::vector<double> setup_s;
  for (const Phases& p : setups) setup_s.push_back(p.total());

  TimeNs measure = static_cast<TimeNs>(static_cast<double>(spec.measure) *
                                       opt.seconds / kRefSeconds);
  double rate_krps = opt.anchor ? spec.anchor_krps : spec.rate_krps;
  LoadRun run = RunLoad(d.get(), spec, rate_krps, spec.warmup, measure);
  const Probe& p = *run.probe;
  const msvc::WorkloadResult& res = run.res;

  // Correctness gates.
  if (res.completed + res.failed > res.offered) {
    r.Fail("completed + failed exceeds offered");
  }
  if (p.offered != res.offered) {
    r.Fail("harness and generator disagree on offered requests");
  }
  if (p.internal_errors > 0) {
    r.Fail(std::to_string(p.internal_errors) +
           " requests failed verification (chain checksum mismatch)");
  }
  if (d->kv != nullptr) {
    uint64_t committed = 0;
    for (size_t i = 0; i < d->kv->num_clients(); ++i) {
      committed += d->kv->txns(i)->stats().committed;
    }
    if (committed < res.completed) {
      r.Fail("fewer transactions committed than requests completed");
    }
    std::string report;
    Status st = msvc::RunToCompletion(
        d->sim.get(), d->kv->tree(0)->CheckInvariants(&report), 600 * kSecond);
    if (!st.ok()) r.Fail("B+-tree invariants: " + st.ToString());
  }

  uint64_t unfinished = p.offered - p.ok - p.failed;
  double wall_per_virtual = p.WallPerVirtual();
  double window_s = static_cast<double>(measure) / kSecond;
  std::vector<int64_t> lat = p.latency_ns;
  r.Virtual("goodput_krps", res.completed / window_s / 1e3);
  r.Virtual("p50_us", Quantile(&lat, 0.50) / 1e3);
  r.Virtual("p99_us", Quantile(&lat, 0.99) / 1e3);
  r.Virtual("p999_us", Quantile(&lat, 0.999) / 1e3);
  r.Virtual("failed_frac", Ratio(p.failed + unfinished, p.offered));
  r.Virtual("slo_frac", Ratio(p.within_limit, p.offered));
  r.Host("wall_ns_per_virtual_ns", wall_per_virtual);
  r.Host("setup_s", Median(setup_s));

  ReportLayers(*d, run, &r);
  ReportPhases(setups, d->rss_after_build_mb, &r);
  r.Virtual("kv.txn_p99_ns", Quantile(&kvp.txn_ns, 0.99));
  r.Virtual("kv.get_p99_ns", Quantile(&kvp.get_ns, 0.99));
  r.Virtual("kv.put_p99_ns", Quantile(&kvp.put_ns, 0.99));

  // The anchor row: what scale_sweep / ycsb_sweep print for this point
  // (histogram quantiles, goodput to two decimals).
  char anchor[256];
  std::snprintf(anchor, sizeof(anchor),
                "{\"goodput_krps\": %.2f, \"p50_us\": %.2f, \"p99_us\": %.2f, "
                "\"p999_us\": %.2f, \"offered\": %" PRIu64
                ", \"completed\": %" PRIu64 ", \"failed\": %" PRIu64 "}",
                res.throughput_rps() / 1e3, res.latency.p50() / 1e3,
                res.latency.p99() / 1e3, res.latency.p999() / 1e3, res.offered,
                res.completed, res.failed);
  uint64_t events = run.after.events;
  uint64_t fingerprint = run.fingerprint;
  r.Host("peak_rss_mb", PeakRssMb());

  if (opt.trace) {
    // A fresh deployment with the tracer armed after set-up, on a shorter
    // window: the tracer holds every span of every request in memory.
    d.reset();
    d = Deploy(spec, opt.seed, &kvp);
    d->sim->tracer().set_limit(kTraceLimit);
    d->sim->tracer().set_enabled(true);
    LoadRun traced = RunLoad(d.get(), spec, rate_krps, spec.trace_warmup,
                             spec.trace_measure);
    ReportTrace(d->sim.get(), wall_per_virtual, traced, &r);
  }
  d.reset();

  r.Print(spec, opt.seed, opt.seconds, opt.trace, p.offered,
          p.failed + unfinished, fingerprint, events, anchor);
  return r.ok() ? 0 : 1;
}

}  // namespace
}  // namespace dmrpc::e2e

int main(int argc, char** argv) { return dmrpc::e2e::Main(argc, argv); }
