#ifndef DMRPC_WORKLOAD_OPENLOOP_H_
#define DMRPC_WORKLOAD_OPENLOOP_H_

#include <cmath>
#include <vector>

#include "common/units.h"
#include "msvc/workload.h"
#include "sim/simulation.h"
#include "workload/arrival.h"

namespace dmrpc::workload {

/// Slow sinusoidal modulation of the offered rate, modeling the diurnal
/// load curve of a user-facing datacenter service: rate(t) =
/// base_rate * Multiplier(t). amplitude = 0 disables the curve.
struct DiurnalConfig {
  /// Peak-to-mean swing in [0, 1): 0.5 means the peak offers 1.5x the
  /// base rate and the trough 0.5x.
  double amplitude = 0.0;
  /// One simulated "day". Benchmarks compress this to fit the window.
  TimeNs period_ns = 1 * kSecond;
  /// Phase offset as a fraction of the period in [0, 1); 0 starts on the
  /// rising edge at the base rate.
  double phase = 0.0;

  /// Instantaneous rate multiplier at virtual time `t` (floored at 0.01
  /// so a full-amplitude trough still trickles requests).
  double Multiplier(TimeNs t) const {
    if (amplitude == 0.0) return 1.0;
    constexpr double kTwoPi = 6.28318530717958647692;
    double x = static_cast<double>(t) / static_cast<double>(period_ns) + phase;
    double m = 1.0 + amplitude * std::sin(kTwoPi * x);
    return m < 0.01 ? 0.01 : m;
  }
};

/// Aggregate open-loop load shape across all sources of one run.
struct OpenLoopConfig {
  /// Offered load summed over every source, requests per second of
  /// virtual time (each source independently offers rate_rps / N).
  double rate_rps = 100000.0;
  ArrivalConfig arrival;
  DiurnalConfig diurnal;
  /// Aggregate in-flight cap: arrivals beyond it are dropped and counted
  /// as failed (an overloaded system's latency climbs long before this
  /// binds; it exists so a run past saturation terminates).
  int max_outstanding = 50000;
};

/// Open-loop load from many independent sources -- one per simulated
/// client host -- against one shared result. Each source draws its own
/// inter-arrival gaps (Poisson/Pareto/lognormal, optionally
/// diurnally modulated) from the simulation rng and spawns a detached
/// request per arrival, so completions never gate arrivals. Latencies and
/// completions are recorded during [warmup, warmup+measure) only.
/// Identically-seeded runs are bit-identical.
msvc::WorkloadResult RunOpenLoopMulti(
    sim::Simulation* sim, const std::vector<msvc::RequestFn>& sources,
    const OpenLoopConfig& cfg, TimeNs warmup, TimeNs measure,
    const msvc::WindowHooks& hooks = msvc::WindowHooks());

}  // namespace dmrpc::workload

#endif  // DMRPC_WORKLOAD_OPENLOOP_H_
