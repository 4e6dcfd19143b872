// YCSB + TPC-C-lite sweep over the transactional KV store (src/kv): a
// shared B+-tree whose nodes live in disaggregated memory, reached
// through each of the three node-access modes (pass-by-value page
// caching, pass-by-ref in-place RPCs, CXL-shared G-FAM), with N client
// hosts running strict-2PL transactions against the grown
// dsm::LockServer.
//
// Workload mixes (operations per transaction in parentheses):
//   a     YCSB-A   50% read / 50% update           (1 op)
//   b     YCSB-B   95% read / 5% update            (1 op)
//   c     YCSB-C   100% read                       (1 op)
//   e     YCSB-E   95% short scan / 5% insert      (scan 1-12)
//   tpcc  TPC-C-lite: 50% new-order (district RMW + 5 item reads +
//         order insert), 50% payment (district RMW + customer RMW)
//
// Keys are drawn Zipfian (--zipf) from the loaded key space; inserts
// append fresh keys past it. Every (mode, workload, rate) point rebuilds
// the whole cluster from the same seed and drives it open-loop
// (src/workload arrival processes), so points are independent and any
// same-seed rerun is bit-identical -- --verify-determinism proves it by
// running every point twice and comparing metric fingerprints.
//
// Reported per point: goodput (committed txns), p50/p99/p999 txn
// latency, commit/abort/retry counters. Per series: the saturation knee
// (first rate whose p99 blows past 3x the lightest rate's p99 or whose
// goodput falls under 95% of offered). Everything lands in
// BENCH_ycsb.json (override with DMRPC_YCSB_JSON).
//
// Flags (defaults in Options):
//   --modes=value,ref,cxl         node-access modes to sweep
//   --workloads=a,b,c,e,tpcc      mixes to sweep
//   --policy=no-wait|wait-die     record-lock conflict policy
//   --clients=N                   compute-side client hosts
//   --keys=N                      loaded key-space size
//   --rates=20,40,80              offered load ladder, krps (txns)
//   --zipf=S                      key popularity skew
//   --seed=N --warmup-ms=N --measure-ms=N
//   --smoke                       small preset for CI
//   --verify-determinism          run every point twice, compare
//                                 fingerprints, exit 1 on divergence

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "common/random.h"
#include "kv/harness.h"
#include "msvc/workload.h"
#include "sim/simulation.h"
#include "workload/openloop.h"

namespace dmrpc::bench {
namespace {

enum class Mix : uint8_t { kA, kB, kC, kE, kTpcc };

/// Per-mix multiplier applied to the --rates ladder: scan-heavy E and
/// the district-bound TPC-C-lite saturate far below the point mixes, so
/// one base ladder straddles every knee.
double RateScale(Mix m) {
  return (m == Mix::kE || m == Mix::kTpcc) ? 0.5 : 1.0;
}

const char* MixName(Mix m) {
  switch (m) {
    case Mix::kA: return "ycsb-a";
    case Mix::kB: return "ycsb-b";
    case Mix::kC: return "ycsb-c";
    case Mix::kE: return "ycsb-e";
    case Mix::kTpcc: return "tpcc-lite";
  }
  return "?";
}

struct Options {
  std::vector<kv::AccessMode> modes = {kv::AccessMode::kByValue,
                                       kv::AccessMode::kByRef,
                                       kv::AccessMode::kCxlShared};
  std::vector<Mix> mixes = {Mix::kA, Mix::kB, Mix::kC, Mix::kE, Mix::kTpcc};
  kv::CcPolicy policy = kv::CcPolicy::kWaitDie;
  uint32_t clients = 8;
  uint64_t keys = 1024;
  uint32_t value_size = 100;
  /// Base ladder; per-mix RateScale() maps it onto each knee's range.
  /// 800 straddles the read-only ceiling (~640 krps for 8 clients).
  std::vector<double> rates_krps = {25, 50, 100, 200, 400, 800};
  uint64_t seed = 42;
  double zipf = 0.9;
  TimeNs warmup = 5 * kMillisecond;
  TimeNs measure = 20 * kMillisecond;
  bool smoke = false;
  bool verify = false;
};

/// One measured (mode, mix, rate) point.
struct RatePoint {
  double offered_krps = 0;
  double goodput_krps = 0;
  double p50_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  uint64_t offered = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t committed = 0;  // run totals (incl. warmup)
  uint64_t lock_aborts = 0;
  uint64_t retries = 0;
  uint64_t fingerprint = 0;
};

struct Series {
  kv::AccessMode mode;
  Mix mix;
  std::vector<RatePoint> points;
  double knee_krps = -1.0;
};

/// Builds one client's transaction source for `mix`. `next_insert` is
/// the shared fresh-key counter (inserts append past the loaded space).
msvc::RequestFn MakeSource(const Options& opt, kv::KvCluster* kvc,
                           uint32_t who, Mix mix, uint64_t* next_insert) {
  uint32_t vsize = opt.value_size;
  uint64_t keys = opt.keys;
  double zipf = opt.zipf;
  return [=]() -> sim::Task<StatusOr<uint64_t>> {
    Rng& rng = sim::Simulation::Current()->rng();
    kv::TxnMgr* mgr = kvc->txns(who);
    uint64_t bytes = 0;
    Status st;
    switch (mix) {
      case Mix::kA:
      case Mix::kB:
      case Mix::kC: {
        uint32_t update_pct = mix == Mix::kA ? 50 : (mix == Mix::kB ? 5 : 0);
        uint64_t key = rng.Zipf(keys, zipf);
        bool update = rng.Uniform(100) < update_pct;
        st = co_await mgr->RunTxn([&](kv::Txn& txn) -> sim::Task<Status> {
          if (update) {
            auto got = co_await txn.GetForUpdate(key);
            if (!got.ok()) co_return got.status();
            auto value = kv::KvCluster::MakeValue(key, vsize, txn.id());
            Status ps = co_await txn.Put(key, value.data());
            if (!ps.ok()) co_return ps;
          } else {
            auto got = co_await txn.Get(key);
            if (!got.ok()) co_return got.status();
          }
          bytes = vsize;
          co_return Status::OK();
        });
        break;
      }
      case Mix::kE: {
        bool insert = rng.Uniform(100) < 5;
        uint64_t start = rng.Zipf(keys, zipf);
        uint32_t len = 1 + rng.Uniform(12);
        uint64_t fresh = insert ? (*next_insert)++ : 0;
        st = co_await mgr->RunTxn([&](kv::Txn& txn) -> sim::Task<Status> {
          if (insert) {
            auto value = kv::KvCluster::MakeValue(fresh, vsize, txn.id());
            Status ps = co_await txn.Put(fresh, value.data());
            if (!ps.ok()) co_return ps;
            bytes = vsize;
          } else {
            auto r = co_await txn.Scan(start, len);
            if (!r.ok()) co_return r.status();
            bytes = r->size() * uint64_t{vsize};
          }
          co_return Status::OK();
        });
        break;
      }
      case Mix::kTpcc: {
        // Districts are the first 16 keys (hot); customers/items the
        // rest of the loaded space; orders append fresh keys.
        constexpr uint64_t kDistricts = 16;
        bool new_order = rng.Uniform(100) < 50;
        uint64_t district = rng.Uniform(kDistricts);
        uint64_t customer =
            kDistricts + rng.Zipf(keys - kDistricts, zipf);
        uint64_t items[5];
        for (uint64_t& it : items) {
          it = kDistricts + rng.Zipf(keys - kDistricts, zipf);
        }
        uint64_t order = new_order ? (*next_insert)++ : 0;
        st = co_await mgr->RunTxn([&](kv::Txn& txn) -> sim::Task<Status> {
          auto rmw = [&](uint64_t key) -> sim::Task<Status> {
            auto got = co_await txn.GetForUpdate(key);
            if (!got.ok()) co_return got.status();
            auto value = kv::KvCluster::MakeValue(key, vsize, txn.id());
            co_return co_await txn.Put(key, value.data());
          };
          Status ds = co_await rmw(district);
          if (!ds.ok()) co_return ds;
          bytes += vsize;
          if (new_order) {
            for (uint64_t it : items) {
              auto got = co_await txn.Get(it);
              if (!got.ok()) co_return got.status();
              bytes += vsize;
            }
            auto value = kv::KvCluster::MakeValue(order, vsize, txn.id());
            Status ps = co_await txn.Put(order, value.data());
            if (!ps.ok()) co_return ps;
            bytes += vsize;
          } else {
            Status cs = co_await rmw(customer);
            if (!cs.ok()) co_return cs;
            bytes += vsize;
          }
          co_return Status::OK();
        });
        break;
      }
    }
    if (!st.ok()) co_return st;
    co_return bytes;
  };
}

RatePoint RunOne(const Options& opt, kv::AccessMode mode, Mix mix,
                 double rate_krps, const char* label_suffix) {
  sim::Simulation sim(opt.seed);
  BenchObs::Arm(&sim);

  kv::KvClusterConfig cfg;
  cfg.mode = mode;
  cfg.policy = opt.policy;
  cfg.num_clients = opt.clients;
  cfg.value_size = opt.value_size;
  cfg.record_history = false;  // benchmark run: no checker overhead
  cfg.dm_frames = 1u << 17;
  kv::KvCluster kvc(&sim, cfg);

  auto boot = [&]() -> sim::Task<Status> {
    Status st = co_await kvc.Init();
    if (!st.ok()) co_return st;
    co_return co_await kvc.Load(opt.keys);
  };
  Status st = msvc::RunToCompletion(&sim, boot(), 600 * kSecond);
  if (!st.ok()) LOG_FATAL << "ycsb boot: " << st.ToString();

  uint64_t next_insert = opt.keys;
  std::vector<msvc::RequestFn> sources;
  for (uint32_t i = 0; i < opt.clients; ++i) {
    sources.push_back(MakeSource(opt, &kvc, i, mix, &next_insert));
  }
  workload::OpenLoopConfig wcfg;
  wcfg.rate_rps = rate_krps * 1000.0;
  // Admission cap: an unbounded open loop past the knee piles thousands
  // of waiters onto the hot locks and goodput collapses to zero; a
  // bounded pile keeps past-knee points on the contention plateau
  // (arrivals beyond it count as failed).
  wcfg.max_outstanding = 512;
  msvc::WorkloadResult res = workload::RunOpenLoopMulti(
      &sim, sources, wcfg, opt.warmup, opt.measure);

  RatePoint pt;
  pt.offered_krps = rate_krps;
  pt.goodput_krps = res.throughput_rps() / 1e3;
  pt.p50_us = res.latency.p50() / 1e3;
  pt.p99_us = res.latency.p99() / 1e3;
  pt.p999_us = res.latency.p999() / 1e3;
  pt.offered = res.offered;
  pt.completed = res.completed;
  pt.failed = res.failed;
  for (uint32_t i = 0; i < opt.clients; ++i) {
    pt.committed += kvc.txns(i)->stats().committed;
    pt.lock_aborts += kvc.txns(i)->stats().lock_aborts;
    pt.retries += kvc.txns(i)->stats().retries;
  }
  pt.fingerprint = Fnv1a(sim.DumpMetricsJson());
  char label[96];
  std::snprintf(label, sizeof(label), "%s_%s_%gkrps%s",
                kv::AccessModeName(mode), MixName(mix), rate_krps,
                label_suffix);
  BenchObs::Record(label, &sim);
  return pt;
}

/// First rate past the saturation knee, or -1 when the sweep stayed flat.
double KneeKrps(const std::vector<RatePoint>& points) {
  if (points.empty()) return -1.0;
  const RatePoint& base = points.front();
  for (const RatePoint& p : points) {
    bool latency_blown = base.p99_us > 0 && p.p99_us > 3.0 * base.p99_us;
    // Compare against the arrivals the window actually offered (short
    // windows sit a few percent off the nominal rate), not the nominal.
    bool goodput_lost =
        p.completed < static_cast<uint64_t>(0.95 * p.offered);
    if (latency_blown || goodput_lost) return p.offered_krps;
  }
  return -1.0;
}

void WriteJson(const Options& opt, const std::vector<Series>& series,
               bool verified) {
  const char* path = std::getenv("DMRPC_YCSB_JSON");
  if (path == nullptr || path[0] == '\0') path = "BENCH_ycsb.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) LOG_FATAL << "cannot write " << path;
  std::fprintf(f, "{\n  \"bench\": \"ycsb_sweep\",\n");
  std::fprintf(f,
               "  \"config\": {\"clients\": %u, \"keys\": %" PRIu64
               ", \"value_size\": %u, \"policy\": \"%s\", \"zipf\": %g, "
               "\"seed\": %" PRIu64 ", \"warmup_ms\": %" PRId64
               ", \"measure_ms\": %" PRId64 "},\n",
               opt.clients, opt.keys, opt.value_size,
               kv::CcPolicyName(opt.policy), opt.zipf, opt.seed,
               opt.warmup / kMillisecond, opt.measure / kMillisecond);
  std::fprintf(f, "  \"series\": [\n");
  for (size_t s = 0; s < series.size(); ++s) {
    const Series& sr = series[s];
    std::fprintf(f, "    {\"mode\": \"%s\", \"workload\": \"%s\", ",
                 kv::AccessModeName(sr.mode), MixName(sr.mix));
    if (sr.knee_krps > 0) {
      std::fprintf(f, "\"knee_krps\": %g, \"points\": [\n", sr.knee_krps);
    } else {
      std::fprintf(f, "\"knee_krps\": null, \"points\": [\n");
    }
    for (size_t i = 0; i < sr.points.size(); ++i) {
      const RatePoint& p = sr.points[i];
      std::fprintf(
          f,
          "      {\"offered_krps\": %g, \"goodput_krps\": %.2f, "
          "\"p50_us\": %.2f, \"p99_us\": %.2f, \"p999_us\": %.2f, "
          "\"offered\": %" PRIu64 ", \"completed\": %" PRIu64
          ", \"failed\": %" PRIu64 ", \"committed\": %" PRIu64
          ", \"lock_aborts\": %" PRIu64 ", \"retries\": %" PRIu64
          ", \"metrics_fingerprint\": \"%016" PRIx64 "\"}%s\n",
          p.offered_krps, p.goodput_krps, p.p50_us, p.p99_us, p.p999_us,
          p.offered, p.completed, p.failed, p.committed, p.lock_aborts,
          p.retries, p.fingerprint, i + 1 < sr.points.size() ? "," : "");
    }
    std::fprintf(f, "    ]}%s\n", s + 1 < series.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"determinism\": \"%s\"\n}\n",
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

bool ParseModes(const char* s, std::vector<kv::AccessMode>* out) {
  out->clear();
  std::string tok;
  for (const char* p = s;; ++p) {
    if (*p != ',' && *p != '\0') {
      tok += *p;
      continue;
    }
    if (tok == "value") {
      out->push_back(kv::AccessMode::kByValue);
    } else if (tok == "ref") {
      out->push_back(kv::AccessMode::kByRef);
    } else if (tok == "cxl") {
      out->push_back(kv::AccessMode::kCxlShared);
    } else {
      return false;
    }
    tok.clear();
    if (*p == '\0') break;
  }
  return !out->empty();
}

bool ParseMixes(const char* s, std::vector<Mix>* out) {
  out->clear();
  std::string tok;
  for (const char* p = s;; ++p) {
    if (*p != ',' && *p != '\0') {
      tok += *p;
      continue;
    }
    if (tok == "a") {
      out->push_back(Mix::kA);
    } else if (tok == "b") {
      out->push_back(Mix::kB);
    } else if (tok == "c") {
      out->push_back(Mix::kC);
    } else if (tok == "e") {
      out->push_back(Mix::kE);
    } else if (tok == "tpcc") {
      out->push_back(Mix::kTpcc);
    } else {
      return false;
    }
    tok.clear();
    if (*p == '\0') break;
  }
  return !out->empty();
}

bool ParseOptions(int argc, char** argv, Options* opt) {
  // --smoke first, so explicit flags override the preset in either order.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      opt->smoke = true;
      opt->clients = 4;
      opt->keys = 256;
      opt->mixes = {Mix::kA, Mix::kE};
      opt->rates_krps = {25, 100};
      opt->warmup = 2 * kMillisecond;
      opt->measure = 5 * kMillisecond;
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
    } else if ((v = val("--clients")) != nullptr) {
      opt->clients = static_cast<uint32_t>(std::atoi(v));
    } else if ((v = val("--keys")) != nullptr) {
      opt->keys = static_cast<uint64_t>(std::atoll(v));
    } else if ((v = val("--value-size")) != nullptr) {
      opt->value_size = static_cast<uint32_t>(std::atoi(v));
    } else if ((v = val("--seed")) != nullptr) {
      opt->seed = static_cast<uint64_t>(std::atoll(v));
    } else if ((v = val("--zipf")) != nullptr) {
      opt->zipf = std::atof(v);
    } else if ((v = val("--warmup-ms")) != nullptr) {
      opt->warmup = std::atoll(v) * kMillisecond;
    } else if ((v = val("--measure-ms")) != nullptr) {
      opt->measure = std::atoll(v) * kMillisecond;
    } else if ((v = val("--rates")) != nullptr) {
      if (!ParseRates(v, &opt->rates_krps)) {
        std::fprintf(stderr, "bad --rates: %s\n", v);
        return false;
      }
    } else if ((v = val("--modes")) != nullptr) {
      if (!ParseModes(v, &opt->modes)) {
        std::fprintf(stderr, "bad --modes: %s\n", v);
        return false;
      }
    } else if ((v = val("--workloads")) != nullptr) {
      if (!ParseMixes(v, &opt->mixes)) {
        std::fprintf(stderr, "bad --workloads: %s\n", v);
        return false;
      }
    } else if ((v = val("--policy")) != nullptr) {
      if (std::strcmp(v, "no-wait") == 0) {
        opt->policy = kv::CcPolicy::kNoWait;
      } else if (std::strcmp(v, "wait-die") == 0) {
        opt->policy = kv::CcPolicy::kWaitDie;
      } else {
        std::fprintf(stderr, "bad --policy: %s\n", v);
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

  std::printf("ycsb_sweep: %u clients, %" PRIu64
              " keys, zipf %g, policy %s\n",
              opt.clients, opt.keys, opt.zipf, kv::CcPolicyName(opt.policy));

  std::vector<Series> series;
  bool determinism_ok = true;
  for (kv::AccessMode mode : opt.modes) {
    for (Mix mix : opt.mixes) {
      Series sr;
      sr.mode = mode;
      sr.mix = mix;
      std::printf("-- %s / %s\n", kv::AccessModeName(mode), MixName(mix));
      for (double base_rate : opt.rates_krps) {
        double rate = base_rate * RateScale(mix);
        RatePoint pt = RunOne(opt, mode, mix, rate, "");
        if (opt.verify) {
          RatePoint again = RunOne(opt, mode, mix, rate, "_rerun");
          if (again.fingerprint != pt.fingerprint ||
              again.completed != pt.completed || again.p99_us != pt.p99_us) {
            std::fprintf(stderr,
                         "DETERMINISM FAILURE %s/%s at %g krps: "
                         "fingerprints %016" PRIx64 " vs %016" PRIx64 "\n",
                         kv::AccessModeName(mode), MixName(mix), rate,
                         pt.fingerprint, again.fingerprint);
            determinism_ok = false;
          }
        }
        std::printf("  %6.1f krps: goodput %7.2f krps  p50 %7.1f us  "
                    "p99 %7.1f us  aborts %" PRIu64 "  retries %" PRIu64 "\n",
                    pt.offered_krps, pt.goodput_krps, pt.p50_us, pt.p99_us,
                    pt.lock_aborts, pt.retries);
        sr.points.push_back(pt);
      }
      sr.knee_krps = KneeKrps(sr.points);
      series.push_back(std::move(sr));
    }
  }

  Table table("YCSB / TPC-C-lite: access modes vs saturation knee",
              {"workload", "mode", "knee-krps", "peak-goodput-krps",
               "p50-us@low", "p99-us@low"});
  for (const Series& sr : series) {
    double peak = 0;
    for (const RatePoint& p : sr.points) {
      if (p.goodput_krps > peak) peak = p.goodput_krps;
    }
    table.AddRow({MixName(sr.mix), kv::AccessModeName(sr.mode),
                  sr.knee_krps > 0 ? Table::Num(sr.knee_krps) : "none",
                  Table::Num(peak), Table::Num(sr.points.front().p50_us),
                  Table::Num(sr.points.front().p99_us)});
  }
  table.Print();

  WriteJson(opt, series, opt.verify && determinism_ok);
  if (opt.verify && !determinism_ok) return 1;
  return 0;
}

}  // namespace
}  // namespace dmrpc::bench

int main(int argc, char** argv) { return dmrpc::bench::Main(argc, argv); }
