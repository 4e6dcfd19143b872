#ifndef DMRPC_OBS_TIMELINE_H_
#define DMRPC_OBS_TIMELINE_H_

#include <cstdint>
#include <limits>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/units.h"
#include "obs/metrics.h"

namespace dmrpc::obs {

class SloMonitor;
class Tracer;

/// Timeline sampling configuration.
struct TimelineConfig {
  /// Virtual-time distance between samples. 0 disables sampling.
  TimeNs interval_ns = 0;
  /// Retained-window cap: windows past it are counted in
  /// dropped_windows() and discarded (runaway-run protection; the
  /// default covers a 60 s run at 1 ms resolution with headroom).
  size_t max_windows = 1 << 16;
};

/// One counter's view of a window: the cumulative total at the window's
/// end boundary, and the delta accumulated inside the window (the rate,
/// once divided by the interval).
struct WindowCounter {
  uint64_t total = 0;
  uint64_t delta = 0;
};

/// One gauge's view of a window: the level at the window's end boundary
/// and the cumulative high-watermark up to it (see Gauge::max()).
struct WindowGauge {
  int64_t value = 0;
  int64_t max = 0;
};

/// One timer's view of a window: summary of the quantile sketch holding
/// exactly the samples recorded inside the window, built by diffing the
/// cumulative histogram against the previous boundary's snapshot
/// (Histogram::Diff). Empty windows report all zeros.
struct WindowTimer {
  uint64_t count = 0;
  int64_t sum = 0;
  int64_t p50 = 0;
  int64_t p99 = 0;
  int64_t p999 = 0;
  int64_t max = 0;
};

/// One SLO objective's verdict for one window (see slo.h).
struct WindowSlo {
  std::string name;
  uint64_t bad = 0;
  uint64_t total = 0;
  /// Burn rate in thousandths: (bad/total)/budget * 1000, integer so the
  /// sidecar stays byte-stable. 1000 = burning the budget exactly.
  int64_t burn_milli = 0;
  bool breached = false;
};

/// One sampled window [start_ns, end_ns).
struct TimelineWindow {
  TimeNs start_ns = 0;
  TimeNs end_ns = 0;
  uint64_t events_executed = 0;  // cumulative at the boundary
  int64_t live_tasks = 0;        // level at the boundary
  std::map<std::string, WindowCounter> counters;
  std::map<std::string, WindowGauge> gauges;
  std::map<std::string, WindowTimer> timers;
  std::vector<WindowSlo> slo;
};

/// Virtual-time metrics sampler, owned by `sim::Simulation`.
///
/// When enabled, the engine flushes pending sample boundaries before
/// dispatching the first event at or past each boundary, giving every
/// boundary B one well-defined meaning: *the registry state after all
/// events with t < B executed*. That makes timeline sidecars
/// byte-identical across identically-seeded runs -- the same guarantee
/// the metrics fingerprints carry, extended from one end-of-run point to
/// a time series.
///
/// Sampling is strictly read-only against the registry: it never
/// schedules events, never consumes randomness, and never registers or
/// writes metrics, so enabling it cannot perturb the simulated workload
/// (the zero-perturbation bar the tracer set). The one documented
/// exception is the SLO monitor, which registers `slo.<name>.breaches`
/// counters on the first breach of a configured objective -- the same
/// visible-only-when-it-happened policy as `obs.trace_dropped`.
class TimelineRecorder {
 public:
  /// Arms the sampler: boundaries at anchor + k * interval_ns, k >= 1.
  /// Call before running (re-arming mid-run restarts the grid).
  void Configure(const TimelineConfig& cfg, TimeNs anchor);

  bool enabled() const { return interval_ns_ > 0; }
  TimeNs interval_ns() const { return interval_ns_; }

  /// The next unsampled boundary, or TimeNs max when disabled. The
  /// engine caches this and compares each event's timestamp against it.
  TimeNs next_boundary() const { return next_boundary_; }

  /// Samples every pending boundary B <= t, in order. The registry must
  /// reflect every event with timestamp < t. `slo` and `tracer` may be
  /// null; `reg` is written only by the SLO monitor on breaches.
  void SampleUpTo(TimeNs t, MetricsRegistry* reg, uint64_t events_executed,
                  int64_t live_tasks, SloMonitor* slo, Tracer* tracer);

  const std::vector<TimelineWindow>& windows() const { return windows_; }
  /// Windows discarded past TimelineConfig::max_windows.
  uint64_t dropped_windows() const { return dropped_windows_; }

  /// Serializes every window as one JSON object per line (sorted keys,
  /// all-integer values: byte-stable across identically-seeded runs).
  /// This is the `.timeline.jsonl` sidecar format.
  std::string ToJsonLines() const;

  /// Writes a Chrome trace_event / Perfetto counter-track file: one
  /// "ph":"C" event per window per selected series, so queue depths and
  /// per-window p99s render as counter tracks above the span timeline.
  /// `series` names counters/gauges/timers to plot (counters plot their
  /// window delta, gauges their level, timers their window p99); an
  /// empty list plots everything.
  void WriteCounterTrack(std::ostream& os,
                         const std::vector<std::string>& series = {}) const;

  /// Drops recorded windows and baseline snapshots but keeps the
  /// configuration and the boundary grid (benches reuse one recorder
  /// across phases).
  void Clear();

 private:
  void SampleOne(TimeNs boundary, MetricsRegistry* reg,
                 uint64_t events_executed, int64_t live_tasks,
                 SloMonitor* slo, Tracer* tracer);

  TimeNs interval_ns_ = 0;
  size_t max_windows_ = 0;
  TimeNs next_boundary_ = std::numeric_limits<TimeNs>::max();
  std::vector<TimelineWindow> windows_;
  uint64_t dropped_windows_ = 0;
  /// Previous-boundary snapshots for delta encoding.
  std::map<std::string, uint64_t> prev_counters_;
  std::map<std::string, Histogram> prev_timers_;
};

}  // namespace dmrpc::obs

#endif  // DMRPC_OBS_TIMELINE_H_
