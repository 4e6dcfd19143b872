// Datacenter-scale offered-load sweep: the DeathStarBench-style social
// network deployed as many independent cells over a spine/leaf Clos
// fabric (net::TopologyConfig::Clos), driven open-loop from every
// remaining host by src/workload's arrival processes. For each offered
// rate the whole datacenter is rebuilt from the same seed, so rate
// points are independent and any same-seed rerun is bit-identical.
//
// Reported per rate: goodput, p50/p99/p999 latency, drop counts by
// reason, and the fabric's high-water egress queue depths. The sweep
// locates the saturation knee (first rate whose p99 blows past 3x the
// lightest rate's p99, or whose goodput falls under 95% of offered) and
// writes everything to BENCH_scale.json (override with DMRPC_SCALE_JSON).
//
// Flags (defaults in Options):
//   --hosts=N --spines=N --leaves=N     fabric shape
//   --cells=N                           socialnet cells (0 = one per leaf)
//   --queue=N                           per-port egress queue, packets
//   --backend=erpc|dmnet|cxl            data-sharing substrate
//   --rates=10,20,40                    offered load sweep, krps
//   --seed=N                            simulation seed
//   --zipf=S                            timeline-read popularity skew
//   --arrival=poisson|pareto|lognormal  inter-arrival process
//   --diurnal=A                         diurnal amplitude (0 disables)
//   --warmup-ms=N --measure-ms=N        window lengths
//   --smoke                             small preset for CI
//   --verify-determinism                run every rate twice, compare
//                                       metric fingerprints, exit 1 on
//                                       any divergence

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "apps/socialnet.h"
#include "bench/bench_util.h"
#include "common/logging.h"
#include "msvc/cluster.h"
#include "msvc/workload.h"
#include "net/topology.h"
#include "sim/simulation.h"
#include "workload/openloop.h"

namespace dmrpc::bench {
namespace {

struct Options {
  uint32_t hosts = 192;
  uint32_t spines = 4;
  uint32_t leaves = 8;
  uint32_t cells = 0;  // 0 -> one per leaf
  uint32_t queue = 256;
  msvc::Backend backend = msvc::Backend::kDmNet;
  /// Straddles the default config's saturation knee (DM-server service
  /// capacity binds around ~2.5-3M rps for 8 cells x 8 DM servers).
  std::vector<double> rates_krps = {250, 500, 1000, 1500, 2000, 2500, 3000};
  uint64_t seed = 42;
  double zipf = 0.99;
  workload::ArrivalConfig arrival;
  double diurnal = 0.0;
  TimeNs diurnal_period = 100 * kMillisecond;
  TimeNs warmup = 15 * kMillisecond;
  TimeNs measure = 60 * kMillisecond;
  bool smoke = false;
  bool verify = false;

  uint32_t Cells() const { return cells == 0 ? leaves : cells; }
};

/// Host placement over the leaf blocks: each cell's 3 app servers sit on
/// consecutive hosts of one leaf (service-to-service hops stay
/// leaf-local); one DM server per leaf on the block's last host (kDmNet);
/// every remaining host runs an open-loop client whose cell assignment is
/// round-robin, so most client traffic crosses the spines.
struct Layout {
  std::vector<std::vector<net::NodeId>> cell_nodes;
  std::vector<net::NodeId> dm_nodes;
  std::vector<net::NodeId> client_nodes;
};

Layout BuildLayout(const Options& opt) {
  net::TopologyConfig topo =
      net::TopologyConfig::Clos(opt.hosts, opt.spines, opt.leaves, opt.queue);
  uint32_t hpl = topo.HostsPerLeaf();
  Layout lay;
  std::vector<bool> used(opt.hosts, false);
  auto block_end = [&](uint32_t leaf) {
    return std::min(opt.hosts, (leaf + 1) * hpl);
  };
  if (opt.backend == msvc::Backend::kDmNet) {
    for (uint32_t l = 0; l < opt.leaves; ++l) {
      if (l * hpl >= opt.hosts) break;
      net::NodeId dm = block_end(l) - 1;
      lay.dm_nodes.push_back(dm);
      used[dm] = true;
    }
  }
  if (opt.backend == msvc::Backend::kDmCxl) used[opt.hosts - 1] = true;
  for (uint32_t i = 0; i < opt.Cells(); ++i) {
    uint32_t leaf = i % opt.leaves;
    net::NodeId base = leaf * hpl + 3 * (i / opt.leaves);
    if (base + 3 > block_end(leaf) || used[base + 2]) {
      LOG_FATAL << "layout: leaf " << leaf << " cannot fit cell " << i
                << " (need 3 free hosts; grow --hosts or shrink --cells)";
    }
    lay.cell_nodes.push_back({base, base + 1, base + 2});
    used[base] = used[base + 1] = used[base + 2] = true;
  }
  for (net::NodeId n = 0; n < opt.hosts; ++n) {
    if (!used[n]) lay.client_nodes.push_back(n);
  }
  if (lay.client_nodes.empty()) {
    LOG_FATAL << "layout: no hosts left for clients";
  }
  return lay;
}

/// One measured point of the sweep.
struct RatePoint {
  double offered_krps = 0;
  double goodput_krps = 0;
  double mean_us = 0;
  double p50_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  uint64_t offered = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  net::SwitchStats drops;
  uint32_t max_port_depth = 0;
  uint64_t fingerprint = 0;
  /// FNV-1a of the timeline JSONL sidecar (0 when sampling is off). Part
  /// of the --verify-determinism check: the whole per-window time series
  /// must match across reruns, not just the final registry state.
  uint64_t timeline_fingerprint = 0;
  uint64_t timeline_windows = 0;
  uint64_t slo_breaches = 0;
};

RatePoint RunOne(const Options& opt, double rate_krps,
                 const char* label_suffix) {
  sim::Simulation sim(opt.seed);
  BenchObs::Arm(&sim);
  if (sim.timeline().enabled()) {
    // Burn-rate SLOs evaluated per sampled window. The p99 latency
    // objective (budget 0.01: 99% of calls under 1 ms) trips as the sweep
    // crosses the knee; the drop-rate objective (budget 0.001 of
    // forwarded packets) trips once egress queues overflow.
    sim.slo().AddObjective(obs::SloObjective::Latency(
        "rpc_call_1ms", "rpc.call", 1 * kMillisecond, /*budget=*/0.01));
    sim.slo().AddObjective(obs::SloObjective::Ratio(
        "net_drop_rate", "net.switch.dropped", "net.switch.forwarded",
        /*budget=*/0.001));
  }

  msvc::ClusterConfig cfg;
  cfg.backend = opt.backend;
  cfg.num_nodes = opt.hosts;
  cfg.topology =
      net::TopologyConfig::Clos(opt.hosts, opt.spines, opt.leaves, opt.queue);
  cfg.dm_frames = 1u << 18;
  Layout lay = BuildLayout(opt);
  if (opt.backend == msvc::Backend::kDmNet) {
    cfg.dm_server_nodes = lay.dm_nodes;
  }
  if (opt.backend == msvc::Backend::kDmCxl) {
    cfg.coordinator_node = opt.hosts - 1;
  }
  msvc::Cluster cluster(&sim, cfg);

  std::vector<std::unique_ptr<apps::SocialNetApp>> cells;
  for (size_t i = 0; i < lay.cell_nodes.size(); ++i) {
    apps::SocialNetConfig scfg;
    scfg.read_zipf_skew = opt.zipf;
    scfg.service_prefix = "sn" + std::to_string(i) + "-";
    cells.push_back(std::make_unique<apps::SocialNetApp>(
        &cluster, lay.cell_nodes[i], scfg));
  }
  std::vector<msvc::RequestFn> sources;
  for (size_t j = 0; j < lay.client_nodes.size(); ++j) {
    msvc::ServiceEndpoint* client = cluster.AddService(
        "client" + std::to_string(j), lay.client_nodes[j], 1000, 4);
    sources.push_back(
        cells[j % cells.size()]->MakeMixedRequestFn(client));
  }
  Status st = msvc::RunToCompletion(&sim, cluster.InitAll());
  if (!st.ok()) LOG_FATAL << "init: " << st.ToString();

  workload::OpenLoopConfig wcfg;
  wcfg.rate_rps = rate_krps * 1000.0;
  wcfg.arrival = opt.arrival;
  wcfg.diurnal.amplitude = opt.diurnal;
  wcfg.diurnal.period_ns = opt.diurnal_period;
  msvc::WorkloadResult res =
      workload::RunOpenLoopMulti(&sim, sources, wcfg, opt.warmup, opt.measure);

  RatePoint pt;
  pt.offered_krps = rate_krps;
  pt.goodput_krps = res.throughput_rps() / 1e3;
  pt.mean_us = res.latency.mean() / 1e3;
  pt.p50_us = res.latency.p50() / 1e3;
  pt.p99_us = res.latency.p99() / 1e3;
  pt.p999_us = res.latency.p999() / 1e3;
  pt.offered = res.offered;
  pt.completed = res.completed;
  pt.failed = res.failed;
  pt.drops = cluster.fabric()->switch_stats();
  pt.max_port_depth = cluster.fabric()->max_port_depth();
  pt.fingerprint = Fnv1a(sim.DumpMetricsJson());
  if (sim.timeline().enabled()) {
    // Captured before Record(): writing the sidecars clears the windows.
    pt.timeline_fingerprint = Fnv1a(sim.timeline().ToJsonLines());
    pt.timeline_windows = sim.timeline().windows().size();
    pt.slo_breaches = sim.slo().breaches().size();
  }
  char label[64];
  std::snprintf(label, sizeof(label), "%s_%gkrps%s",
                msvc::BackendName(opt.backend), rate_krps, label_suffix);
  BenchObs::Record(label, &sim);
  return pt;
}

/// First rate past the saturation knee, or -1 when the sweep stayed flat.
double KneeKrps(const std::vector<RatePoint>& points) {
  if (points.empty()) return -1.0;
  const RatePoint& base = points.front();
  for (const RatePoint& p : points) {
    bool latency_blown = base.p99_us > 0 && p.p99_us > 3.0 * base.p99_us;
    bool goodput_lost = p.goodput_krps < 0.95 * p.offered_krps;
    if (latency_blown || goodput_lost) return p.offered_krps;
  }
  return -1.0;
}

void WriteJson(const Options& opt, const std::vector<RatePoint>& points,
               double knee, bool verified) {
  const char* path = std::getenv("DMRPC_SCALE_JSON");
  if (path == nullptr || path[0] == '\0') path = "BENCH_scale.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    LOG_FATAL << "cannot write " << path;
  }
  std::fprintf(f, "{\n  \"bench\": \"scale_sweep\",\n");
  std::fprintf(f,
               "  \"config\": {\"hosts\": %u, \"spines\": %u, \"leaves\": %u, "
               "\"cells\": %u, \"clients\": %zu, \"queue_packets\": %u, "
               "\"backend\": \"%s\", \"arrival\": \"%s\", \"zipf\": %g, "
               "\"diurnal_amplitude\": %g, \"seed\": %" PRIu64
               ", \"warmup_ms\": %" PRId64 ", \"measure_ms\": %" PRId64 "},\n",
               opt.hosts, opt.spines, opt.leaves, opt.Cells(),
               BuildLayout(opt).client_nodes.size(), opt.queue,
               msvc::BackendName(opt.backend),
               workload::ArrivalKindName(opt.arrival.kind), opt.zipf,
               opt.diurnal, opt.seed, opt.warmup / kMillisecond,
               opt.measure / kMillisecond);
  std::fprintf(f, "  \"points\": [\n");
  for (size_t i = 0; i < points.size(); ++i) {
    const RatePoint& p = points[i];
    std::fprintf(
        f,
        "    {\"offered_krps\": %g, \"goodput_krps\": %.2f, "
        "\"mean_us\": %.2f, \"p50_us\": %.2f, \"p99_us\": %.2f, "
        "\"p999_us\": %.2f, \"offered\": %" PRIu64 ", \"completed\": %" PRIu64
        ", \"failed\": %" PRIu64 ", \"max_port_depth\": %u, "
        "\"drops\": {\"queue_full\": %" PRIu64 ", \"switch_down\": %" PRIu64
        ", \"loss\": %" PRIu64 ", \"fault\": %" PRIu64
        ", \"unknown_dst\": %" PRIu64 "}, \"metrics_fingerprint\": \"%016" PRIx64
        "\"",
        p.offered_krps, p.goodput_krps, p.mean_us, p.p50_us, p.p99_us,
        p.p999_us, p.offered, p.completed, p.failed, p.max_port_depth,
        p.drops.dropped_queue_full, p.drops.dropped_switch_down,
        p.drops.dropped_loss, p.drops.dropped_fault,
        p.drops.dropped_unknown_dst, p.fingerprint);
    if (p.timeline_windows > 0) {
      // Present only when DMRPC_TIMELINE_US armed the sampler, so the
      // baked no-timeline BENCH_scale.json keeps its schema.
      std::fprintf(f,
                   ", \"timeline_windows\": %" PRIu64
                   ", \"slo_breaches\": %" PRIu64
                   ", \"timeline_fingerprint\": \"%016" PRIx64 "\"",
                   p.timeline_windows, p.slo_breaches, p.timeline_fingerprint);
    }
    std::fprintf(f, "}%s\n", i + 1 < points.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  if (knee > 0) {
    std::fprintf(f, "  \"knee_krps\": %g,\n", knee);
  } else {
    std::fprintf(f, "  \"knee_krps\": null,\n");
  }
  std::fprintf(f, "  \"determinism\": \"%s\"\n}\n",
               verified ? "verified" : "unverified");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

bool ParseRates(const char* s, std::vector<double>* out) {
  out->clear();
  while (*s != '\0') {
    char* end = nullptr;
    double v = std::strtod(s, &end);
    if (end == s || v <= 0) return false;
    out->push_back(v);
    s = end;
    if (*s == ',') ++s;
  }
  return !out->empty();
}

bool ParseOptions(int argc, char** argv, Options* opt) {
  // --smoke first, so explicit flags override the preset in either order.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      opt->smoke = true;
      opt->hosts = 24;
      opt->spines = 2;
      opt->leaves = 4;
      opt->cells = 2;
      opt->queue = 64;
      opt->rates_krps = {100, 200, 400, 600, 800};
      opt->warmup = 10 * kMillisecond;
      opt->measure = 30 * kMillisecond;
    }
  }
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto val = [&](const char* flag) -> const char* {
      size_t n = std::strlen(flag);
      if (std::strncmp(a, flag, n) == 0 && a[n] == '=') return a + n + 1;
      return nullptr;
    };
    const char* v = nullptr;
    if (std::strcmp(a, "--smoke") == 0) {
      continue;
    } else if (std::strcmp(a, "--verify-determinism") == 0) {
      opt->verify = true;
    } else if ((v = val("--hosts")) != nullptr) {
      opt->hosts = static_cast<uint32_t>(std::atoi(v));
    } else if ((v = val("--spines")) != nullptr) {
      opt->spines = static_cast<uint32_t>(std::atoi(v));
    } else if ((v = val("--leaves")) != nullptr) {
      opt->leaves = static_cast<uint32_t>(std::atoi(v));
    } else if ((v = val("--cells")) != nullptr) {
      opt->cells = static_cast<uint32_t>(std::atoi(v));
    } else if ((v = val("--queue")) != nullptr) {
      opt->queue = static_cast<uint32_t>(std::atoi(v));
    } else if ((v = val("--seed")) != nullptr) {
      opt->seed = static_cast<uint64_t>(std::atoll(v));
    } else if ((v = val("--zipf")) != nullptr) {
      opt->zipf = std::atof(v);
    } else if ((v = val("--diurnal")) != nullptr) {
      opt->diurnal = std::atof(v);
    } else if ((v = val("--diurnal-period-ms")) != nullptr) {
      opt->diurnal_period = std::atoll(v) * kMillisecond;
    } else if ((v = val("--warmup-ms")) != nullptr) {
      opt->warmup = std::atoll(v) * kMillisecond;
    } else if ((v = val("--measure-ms")) != nullptr) {
      opt->measure = std::atoll(v) * kMillisecond;
    } else if ((v = val("--rates")) != nullptr) {
      if (!ParseRates(v, &opt->rates_krps)) {
        std::fprintf(stderr, "bad --rates: %s\n", v);
        return false;
      }
    } else if ((v = val("--arrival")) != nullptr) {
      if (!workload::ParseArrivalKind(v, &opt->arrival.kind)) {
        std::fprintf(stderr, "bad --arrival: %s\n", v);
        return false;
      }
    } else if ((v = val("--backend")) != nullptr) {
      if (std::strcmp(v, "erpc") == 0) {
        opt->backend = msvc::Backend::kErpc;
      } else if (std::strcmp(v, "dmnet") == 0) {
        opt->backend = msvc::Backend::kDmNet;
      } else if (std::strcmp(v, "cxl") == 0) {
        opt->backend = msvc::Backend::kDmCxl;
      } else {
        std::fprintf(stderr, "bad --backend: %s\n", v);
        return false;
      }
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a);
      return false;
    }
  }
  return true;
}

int Main(int argc, char** argv) {
  Options opt;
  if (!ParseOptions(argc, argv, &opt)) return 2;

  Layout lay = BuildLayout(opt);
  std::printf("scale_sweep: %s, %u hosts (%u leaves x %u spines), "
              "%u cells, %zu clients, %zu dm servers, arrival=%s\n",
              msvc::BackendName(opt.backend), opt.hosts, opt.leaves,
              opt.spines, opt.Cells(), lay.client_nodes.size(),
              lay.dm_nodes.size(), workload::ArrivalKindName(opt.arrival.kind));

  std::vector<RatePoint> points;
  bool determinism_ok = true;
  for (double rate : opt.rates_krps) {
    RatePoint pt = RunOne(opt, rate, "");
    if (opt.verify) {
      RatePoint again = RunOne(opt, rate, "_rerun");
      if (again.fingerprint != pt.fingerprint ||
          again.timeline_fingerprint != pt.timeline_fingerprint ||
          again.completed != pt.completed || again.p99_us != pt.p99_us) {
        std::fprintf(stderr,
                     "DETERMINISM FAILURE at %g krps: fingerprints "
                     "%016" PRIx64 " vs %016" PRIx64 "\n",
                     rate, pt.fingerprint, again.fingerprint);
        determinism_ok = false;
      }
    }
    std::printf("  %6.1f krps: goodput %7.2f krps  p50 %8.1f us  "
                "p99 %8.1f us  p999 %8.1f us  qdepth %u  drops %" PRIu64 "\n",
                pt.offered_krps, pt.goodput_krps, pt.p50_us, pt.p99_us,
                pt.p999_us, pt.max_port_depth,
                pt.drops.dropped_queue_full + pt.drops.dropped_loss);
    if (pt.timeline_windows > 0) {
      std::printf("          timeline: %" PRIu64 " windows, %" PRIu64
                  " SLO breach%s\n",
                  pt.timeline_windows, pt.slo_breaches,
                  pt.slo_breaches == 1 ? "" : "es");
    }
    points.push_back(pt);
  }

  double knee = KneeKrps(points);
  Table table("Scale sweep: latency vs offered load (" +
                  std::string(msvc::BackendName(opt.backend)) + ", " +
                  std::to_string(opt.Cells()) + " cells)",
              {"offered-krps", "goodput-krps", "p50-us", "p99-us", "p999-us",
               "qdepth", "drop-full"});
  for (const RatePoint& p : points) {
    table.AddRow({Table::Num(p.offered_krps), Table::Num(p.goodput_krps),
                  Table::Num(p.p50_us), Table::Num(p.p99_us),
                  Table::Num(p.p999_us), Table::Int(p.max_port_depth),
                  Table::Int(p.drops.dropped_queue_full)});
  }
  table.Print();
  if (knee > 0) {
    std::printf("saturation knee: %g krps\n", knee);
  } else {
    std::printf("saturation knee: not reached (raise --rates)\n");
  }

  WriteJson(opt, points, knee, opt.verify && determinism_ok);
  if (opt.verify && !determinism_ok) return 1;
  return 0;
}

}  // namespace
}  // namespace dmrpc::bench

int main(int argc, char** argv) { return dmrpc::bench::Main(argc, argv); }
