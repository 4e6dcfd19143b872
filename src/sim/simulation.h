#ifndef DMRPC_SIM_SIMULATION_H_
#define DMRPC_SIM_SIMULATION_H_

#include <coroutine>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "common/random.h"
#include "common/units.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "obs/trace_context.h"
#include "sim/buffer_pool.h"
#include "sim/event_queue.h"
#include "sim/task.h"

namespace dmrpc::sim {

/// Deterministic single-threaded discrete-event simulator.
///
/// All simulated activity is driven by a virtual clock in nanoseconds.
/// Events scheduled for the same instant execute in schedule order (FIFO),
/// which together with seeded randomness makes every run bit-reproducible.
///
/// Hot-path design (see docs/ARCHITECTURE.md, "Event loop & memory
/// internals"): pending events live in a 4-ary min-heap of tagged entries
/// holding either a coroutine handle or a small-buffer-inlined callback
/// (SmallFn), so scheduling and dispatching an event performs no heap
/// allocation unless the callback outgrows SmallFn::kInlineBytes; packet
/// payloads come from the simulation-owned BufferPool.
///
/// Usage:
///   Simulation sim(/*seed=*/42);
///   sim.Spawn(MyProcess(...));        // detached coroutine process
///   sim.RunFor(1 * kSecond);          // advance virtual time
class Simulation {
 public:
  explicit Simulation(uint64_t seed = 1);
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current virtual time.
  TimeNs Now() const { return now_; }

  /// The simulation owning the coroutine currently executing. Awaitables
  /// use this to find their scheduler. Only valid while a simulation is
  /// stepping or within Spawn.
  static Simulation* Current();

  /// Starts a detached root coroutine at the current virtual time. The
  /// frame is owned by the scheduler and destroyed when it completes.
  void Spawn(Task<> task);

  /// Schedules `fn` (any void() callable) at absolute virtual time `t`.
  /// Scheduling into the past (t < Now()) is rejected with a fatal check
  /// in every build type: executing such an event would silently rewind
  /// the clock and corrupt event order for the rest of the run.
  template <typename F>
  void At(TimeNs t, F&& fn) {
    DMRPC_CHECK_GE(t, now_) << "scheduling into the past (t=" << t
                            << ", now=" << now_ << ")";
    if (t == now_) {
      queue_.PushReadyFn(t, next_seq_++, std::forward<F>(fn));
    } else {
      queue_.PushFn(t, next_seq_++, std::forward<F>(fn));
    }
  }

  /// Schedules `fn` after `delay` nanoseconds. Negative delays clamp to
  /// zero (run at the current instant, after already-queued work), the
  /// same policy as Delay(); a delay so large that now + delay overflows
  /// the clock is rejected with a fatal check.
  template <typename F>
  void After(TimeNs delay, F&& fn) {
    if (delay <= 0) {
      queue_.PushReadyFn(now_, next_seq_++, std::forward<F>(fn));
      return;
    }
    // Overflow-safe form: now_ + delay would be signed-overflow UB, which
    // the optimizer is entitled to assume never happens.
    DMRPC_CHECK_LE(delay, std::numeric_limits<TimeNs>::max() - now_)
        << "After() overflows the virtual clock (delay=" << delay << ")";
    queue_.PushFn(now_ + delay, next_seq_++, std::forward<F>(fn));
  }

  /// Schedules a coroutine resume at absolute time `t`. Used by awaitables.
  /// Rejects t < Now() like At().
  void ScheduleHandle(TimeNs t, std::coroutine_handle<> h);

  /// Executes the single earliest event. Returns false when idle.
  bool Step();

  /// Time of the earliest pending event, or -1 when the queue is empty.
  TimeNs NextEventTime() const {
    return queue_.empty() ? -1 : queue_.top_time();
  }

  /// Runs until the event queue drains.
  void Run();

  /// Runs until the clock reaches `deadline` (events at later times remain
  /// queued; the clock is advanced to `deadline` even if the queue drains
  /// first).
  void RunUntil(TimeNs deadline);

  /// Runs for `duration` of virtual time from Now().
  void RunFor(TimeNs duration) { RunUntil(now_ + duration); }

  /// Number of detached tasks spawned and not yet finished.
  int64_t live_task_count() const { return live_tasks_; }

  /// Total events executed (diagnostics / determinism checks).
  uint64_t executed_events() const { return executed_; }

  /// Simulation-wide deterministic random source.
  Rng& rng() { return rng_; }

  /// Slab pool for packet payload buffers. The network and RPC layers
  /// lease payload storage here so the per-packet path never touches the
  /// general-purpose allocator at steady state. Pool stats are exposed via
  /// BufferPool::stats() (deliberately kept out of the metrics registry:
  /// the registry dump is a determinism artifact and wall-clock pooling
  /// must never change it).
  BufferPool& buffer_pool() { return pool_; }
  const BufferPool& buffer_pool() const { return pool_; }

  /// The run's metrics registry. Every layer built on this simulation
  /// (fabric, RPC endpoints, DM substrate, cluster) registers its
  /// counters/gauges/timers here, so one dump captures the whole run and
  /// identically-seeded runs dump byte-identical JSON.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// The run's event tracer (disabled by default; recording is purely
  /// observational and never perturbs the simulation).
  obs::Tracer& tracer() { return tracer_; }
  const obs::Tracer& tracer() const { return tracer_; }

  /// Dumps the metrics registry plus the simulator's own counters
  /// (events executed, live tasks) as one JSON object. This is what
  /// bench/bench_util writes as each benchmark's metrics sidecar.
  std::string DumpMetricsJson();

  /// Arms virtual-time telemetry: the timeline recorder samples the whole
  /// metrics registry at every boundary `Now() + k * cfg.interval_ns`.
  /// Boundary B means "registry state after all events with t < B".
  /// Sampling is read-only against the run (see obs::TimelineRecorder);
  /// cfg.interval_ns == 0 disarms.
  void EnableTimeline(const obs::TimelineConfig& cfg) {
    timeline_.Configure(cfg, now_);
    tl_next_ = timeline_.next_boundary();
  }

  /// The run's timeline recorder (inert until EnableTimeline).
  obs::TimelineRecorder& timeline() { return timeline_; }
  const obs::TimelineRecorder& timeline() const { return timeline_; }

  /// The run's SLO monitor. Objectives added here are evaluated against
  /// every sampled timeline window (no-op until EnableTimeline arms the
  /// sampler).
  obs::SloMonitor& slo() { return slo_; }
  const obs::SloMonitor& slo() const { return slo_; }

 private:
  friend void internal::NotifyDetachedDone(Simulation* sim,
                                           std::coroutine_handle<> h);

  void Dispatch(EventQueue::Event ev);

  /// Samples every pending timeline boundary <= `up_to`. The run loops
  /// call this before dispatching the first event at or past a boundary,
  /// and once more when a run advances the clock to a deadline.
  void FlushTimeline(TimeNs up_to);

  /// Declared before queue_ and after nothing that can hold buffers:
  /// members destroy in reverse order, so the (already drained) queue and
  /// everything else that might hold PooledBufs dies before the pool.
  BufferPool pool_;
  EventQueue queue_;
  /// Frames of live detached root tasks; destroying a root transitively
  /// destroys its awaited children, so teardown destroys exactly these.
  std::unordered_set<void*> detached_roots_;
  TimeNs now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t executed_ = 0;
  int64_t live_tasks_ = 0;
  Rng rng_;
  obs::MetricsRegistry metrics_;
  obs::Tracer tracer_;
  obs::TimelineRecorder timeline_;
  obs::SloMonitor slo_;
  /// Cached timeline_.next_boundary(): the run loops compare each event's
  /// timestamp against this single TimeNs (max() when sampling is off) so
  /// the disabled-case overhead is one branch per dispatch.
  TimeNs tl_next_ = std::numeric_limits<TimeNs>::max();
};

/// Awaitable that resumes the current coroutine after `delay` virtual ns.
/// A zero delay still yields through the scheduler (FIFO fairness). The
/// ambient trace context is captured at the co_await point and restored
/// on resume (the scheduler clears it between events).
struct DelayAwaiter {
  TimeNs delay;
  obs::TraceContext saved = obs::CurrentTraceContext();
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const;
  void await_resume() const noexcept { obs::SetCurrentTraceContext(saved); }
};

/// co_await Delay(ns): suspend the current task for `ns` virtual time.
/// Like After(), a delay that would overflow the clock is a fatal check.
inline DelayAwaiter Delay(TimeNs ns) { return DelayAwaiter{ns}; }

}  // namespace dmrpc::sim

#endif  // DMRPC_SIM_SIMULATION_H_
