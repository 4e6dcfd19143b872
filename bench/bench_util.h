#ifndef DMRPC_BENCH_BENCH_UTIL_H_
#define DMRPC_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"
#include "sim/simulation.h"

namespace dmrpc::bench {

/// Aligned-column table printer: each bench binary prints the rows/series
/// of the paper figure it regenerates in this format, so EXPERIMENTS.md
/// can quote them directly.
class Table {
 public:
  Table(std::string title, std::vector<std::string> columns);

  void AddRow(std::vector<std::string> cells);
  void Print() const;

  /// Formats a double with `digits` decimals.
  static std::string Num(double v, int digits = 1);
  static std::string Int(uint64_t v);

 private:
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
};

/// Global knobs for bench runs, read from the environment:
///   DMRPC_BENCH_SCALE: multiplies measurement windows (default 1.0;
///     use 0.2 for a quick smoke run, 5 for tighter confidence).
struct BenchEnv {
  double scale = 1.0;

  static BenchEnv FromEnv();

  TimeNs Warmup(TimeNs base) const {
    return static_cast<TimeNs>(base * scale);
  }
  TimeNs Measure(TimeNs base) const {
    return static_cast<TimeNs>(base * scale);
  }
};

/// Machine-readable observability sidecar for bench binaries.
///
/// Every bench calls Arm() right after constructing each Simulation and
/// Record() once that simulation's run is over. On process exit the
/// collected per-run metrics dumps are written as one JSON file next to
/// the binary's working directory:
///
///   <bench>.metrics.json        {"bench": "...", "runs": {label: {...}}}
///
/// where <bench> is the executable name (override the full path with
/// DMRPC_METRICS_PATH). The file is rewritten after every Record() so
/// already-recorded runs survive a later scenario aborting the process.
///
/// Setting DMRPC_TRACE_DIR (an existing directory) additionally enables
/// the simulation's event tracer and writes two sidecars per run under
/// that directory, both from the tracer's in-memory records:
///
///   <bench>_<label>.trace.json     Chrome trace_event file (load it in
///                                  chrome://tracing or ui.perfetto.dev)
///   <bench>_<label>.breakdown.txt  per-request critical-path latency
///                                  breakdown by layer and by hop
///                                  (obs::TraceAnalysis::TextReport);
///                                  its `status: OK` line certifies
///                                  well-formed span trees and exact
///                                  per-layer/per-hop sums
///
/// A sidecar that cannot be written is logged as a warning; the run
/// itself carries on, and no sidecar sets the exit code.
///
/// Setting DMRPC_TIMELINE_US=<interval in virtual microseconds> arms the
/// simulation's virtual-time timeline sampler (sim::Simulation::
/// EnableTimeline) and writes two more sidecars per run, under
/// DMRPC_TIMELINE_DIR if set, else the working directory:
///
///   <bench>_<label>.timeline.jsonl  one JSON object per sampled window
///                                   (obs::TimelineRecorder::ToJsonLines;
///                                   byte-identical across same-seed
///                                   reruns)
///   <bench>_<label>.counters.json   Chrome/Perfetto counter-track file
///                                   (per-window rates, gauge levels,
///                                   p99s, SLO burn rates)
class BenchObs {
 public:
  /// Enables tracing on `sim` when DMRPC_TRACE_DIR is set.
  static void Arm(sim::Simulation* sim);

  /// Stores sim->DumpMetricsJson() under `label` (labels must be unique
  /// within a binary) and flushes the pending Chrome trace, if armed.
  static void Record(const std::string& label, sim::Simulation* sim);
};

/// 64-bit FNV-1a hash: the sweeps' metrics and timeline fingerprints.
uint64_t Fnv1a(const std::string& s);

}  // namespace dmrpc::bench

#endif  // DMRPC_BENCH_BENCH_UTIL_H_
