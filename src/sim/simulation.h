#ifndef DMRPC_SIM_SIMULATION_H_
#define DMRPC_SIM_SIMULATION_H_

#include <condition_variable>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

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

class Simulation;

/// Engine configuration. The default (worker_threads == 0) is the classic
/// sequential engine: one global event queue, one thread, the exact code
/// path every baked fingerprint was produced on. worker_threads >= 1
/// enables the logical-process (LP) engine: layers may partition their
/// event flow into LPs (see Simulation::AddLp) and Run() executes
/// lookahead-bounded time windows on a worker pool — bit-identical to the
/// sequential engine at every thread count, including 1.
struct SimConfig {
  /// Total executors for parallel windows (the driving thread counts as
  /// one). 0 = sequential engine, 1 = windowed engine on the driving
  /// thread only, N > 1 = driving thread + N-1 worker threads.
  int worker_threads = 0;
};

namespace internal {

/// Sequence numbers at or above this value are provisional: they order
/// events pushed inside the currently-executing parallel window relative
/// to their own LP only, and are replaced by globally-merged sequence
/// numbers at the window barrier before they can meet another LP's
/// events. Committed (globally ordered) sequence numbers stay below it.
inline constexpr uint64_t kProvisionalSeqBase = 1ull << 63;

/// One push made by an event dispatched inside a parallel window,
/// recorded in intra-event order so the barrier replay can re-assign
/// global sequence numbers in exactly the order the sequential engine
/// would have assigned them.
struct PushRec {
  TimeNs t = 0;
  /// Index into LpState::staged, or kInWindow for a same-LP push that
  /// landed inside the window (it re-enters the replay as a stub).
  uint32_t staged = 0;
  static constexpr uint32_t kInWindow = 0xffffffffu;
};

/// An event scheduled during a parallel window whose timestamp falls at
/// or beyond the window end (every cross-LP send, plus same-LP sends past
/// the window). Parked here until the barrier assigns its final global
/// sequence number and pushes it into the destination LP's queue.
struct Staged {
  TimeNs t = 0;
  uint32_t dest_lp = 0;
  uint64_t gseq = 0;  // assigned by the barrier replay
  std::coroutine_handle<> handle;
  SmallFn fn;
};

/// What one window dispatch looked like: its key as popped plus the range
/// of PushRecs it appended. `seq` below kProvisionalSeqBase means the
/// event was already globally ordered when the window started.
struct LogEntry {
  TimeNs t = 0;
  uint64_t seq = 0;
  uint32_t push_begin = 0;
  uint32_t push_count = 0;
};

/// One logical process: a partition of the simulation's event flow with
/// its own queue and clock. LP 0 always exists and owns everything not
/// explicitly assigned elsewhere (hosts, NICs, RPC endpoints, application
/// coroutines, the rng, trace-id minting); AddLp creates further LPs
/// (the fabric groups switches onto them).
struct LpState {
  EventQueue queue;
  /// This LP's clock: timestamp of its latest dispatched event. Inside a
  /// window LPs advance independently; the window bound keeps them within
  /// one lookahead of each other.
  TimeNs lp_now = 0;
  // --- per-window scratch (empty between windows) ---
  uint64_t prov_seq = kProvisionalSeqBase;
  uint64_t window_executed = 0;
  std::vector<LogEntry> log;
  std::vector<PushRec> pushes;
  std::vector<Staged> staged;
  /// Detached root frames that ran to completion inside this window on a
  /// worker thread. The root set lives on the driver, so workers defer
  /// the bookkeeping (and the frame destruction) to the barrier.
  std::vector<void*> done_detached;
};

/// Ambient execution context of the event currently being dispatched:
/// which simulation, which LP, and whether we are inside a parallel
/// window (provisional sequence numbers, staging) or a globally-ordered
/// serial dispatch. Null on a driving thread between dispatches. One slot
/// per OS thread, so worker threads never see each other's context.
struct WorkerCtx {
  Simulation* sim = nullptr;
  LpState* lp = nullptr;
  uint32_t lp_index = 0;
  TimeNs window_end = 0;  // exclusive; meaningful only when windowed
  bool windowed = false;
};

extern thread_local WorkerCtx* g_worker_ctx;

/// Per-worker wake slot: the coordinator publishes a window under `mu`
/// and bumps `epoch`; the worker drains its LPs and reports on the shared
/// done latch. Condition variables (not spinning) so oversubscribed hosts
/// degrade gracefully.
struct WorkerSlot {
  std::mutex mu;
  std::condition_variable cv;
  uint64_t epoch = 0;
  TimeNs window_end = 0;
  bool shutdown = false;
};

}  // namespace internal

/// Deterministic discrete-event simulator.
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
/// Parallel engine (docs/ARCHITECTURE.md, "Parallel engine"): with
/// SimConfig::worker_threads >= 1 the event flow can be partitioned into
/// logical processes executed concurrently under conservative
/// synchronization — time windows bounded by the smallest cross-LP delay
/// (lookahead), with a deterministic sequence-number replay at each
/// barrier so results are bit-identical to the sequential engine at any
/// thread count.
///
/// Usage:
///   Simulation sim(/*seed=*/42);
///   sim.Spawn(MyProcess(...));        // detached coroutine process
///   sim.RunFor(1 * kSecond);          // advance virtual time
class Simulation {
 public:
  explicit Simulation(uint64_t seed = 1) : Simulation(seed, SimConfig{}) {}
  Simulation(uint64_t seed, const SimConfig& config);
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current virtual time: the executing event's timestamp inside a
  /// dispatch (the owning LP's clock), the global clock otherwise.
  TimeNs Now() const {
    internal::WorkerCtx* w = internal::g_worker_ctx;
    if (w != nullptr && w->sim == this) return w->lp->lp_now;
    return now_;
  }

  /// The simulation owning the coroutine currently executing. Awaitables
  /// use this to find their scheduler. Only valid while a simulation is
  /// stepping or within Spawn. The slot is thread-local, so parallel
  /// workers each resolve to their own dispatching simulation.
  static Simulation* Current();

  /// Starts a detached root coroutine at the current virtual time. The
  /// frame is owned by the scheduler and destroyed when it completes.
  void Spawn(Task<> task);

  /// Schedules `fn` (any void() callable) at absolute virtual time `t` on
  /// the scheduling context's own LP (LP 0 when called outside a
  /// dispatch). Scheduling into the past (t < Now()) is rejected with a
  /// fatal check in every build type: executing such an event would
  /// silently rewind the clock and corrupt event order for the rest of
  /// the run.
  template <typename F>
  void At(TimeNs t, F&& fn) {
    internal::WorkerCtx* w = internal::g_worker_ctx;
    if (w != nullptr && w->sim == this) {
      ScheduleFnCtx(w, w->lp_index, t, SmallFn(std::forward<F>(fn)));
      return;
    }
    DMRPC_CHECK_GE(t, now_) << "scheduling into the past (t=" << t
                            << ", now=" << now_ << ")";
    if (t == now_) {
      lp0_->queue.PushReadyFn(t, next_seq_++, std::forward<F>(fn));
    } else {
      lp0_->queue.PushFn(t, next_seq_++, std::forward<F>(fn));
    }
  }

  /// Schedules `fn` after `delay` nanoseconds. Negative delays clamp to
  /// zero (run at the current instant, after already-queued work), the
  /// same policy as Delay(); a delay so large that now + delay overflows
  /// the clock is rejected with a fatal check.
  template <typename F>
  void After(TimeNs delay, F&& fn) {
    internal::WorkerCtx* w = internal::g_worker_ctx;
    if (w != nullptr && w->sim == this) {
      ScheduleFnCtx(w, w->lp_index, DelayToAbs(w->lp->lp_now, delay),
                    SmallFn(std::forward<F>(fn)));
      return;
    }
    if (delay <= 0) {
      lp0_->queue.PushReadyFn(now_, next_seq_++, std::forward<F>(fn));
      return;
    }
    // Overflow-safe form: now_ + delay would be signed-overflow UB, which
    // the optimizer is entitled to assume never happens.
    DMRPC_CHECK_LE(delay, std::numeric_limits<TimeNs>::max() - now_)
        << "After() overflows the virtual clock (delay=" << delay << ")";
    lp0_->queue.PushFn(now_ + delay, next_seq_++, std::forward<F>(fn));
  }

  /// Schedules a coroutine resume at absolute time `t` on the scheduling
  /// context's own LP. Used by awaitables. Rejects t < Now() like At().
  void ScheduleHandle(TimeNs t, std::coroutine_handle<> h);

  /// Executes the single earliest event. Returns false when idle.
  bool Step();

  /// Time of the earliest pending event, or -1 when the queue is empty.
  TimeNs NextEventTime() const {
    if (lps_.size() == 1) {
      const EventQueue& q = lp0_->queue;
      return q.empty() ? -1 : q.top_time();
    }
    return NextEventTimeMulti();
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

  /// Simulation-wide deterministic random source. In the LP engine all
  /// draws must come from LP 0 events (or serially-pinned runs): a draw
  /// from a parallel window on another LP would make the draw sequence
  /// depend on thread schedule, so it is rejected with a fatal check.
  Rng& rng() {
    internal::WorkerCtx* w = internal::g_worker_ctx;
    DMRPC_CHECK(w == nullptr || w->sim != this || !w->windowed ||
                w->lp_index == 0)
        << "rng draw from a parallel window on LP " << w->lp_index;
    return rng_;
  }

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
  /// observational and never perturbs the simulation). Enabling it pins
  /// LP runs to the serial merge path — span ids are minted from one
  /// shared counter, which only stays deterministic in global event
  /// order — and that path is still bit-identical to the parallel one.
  obs::Tracer& tracer() { return tracer_; }
  const obs::Tracer& tracer() const { return tracer_; }

  /// Dumps the metrics registry plus the simulator's own counters
  /// (events executed, live tasks) as one JSON object. This is what
  /// bench/bench_util writes as each benchmark's metrics sidecar.
  std::string DumpMetricsJson();

  /// Arms virtual-time telemetry: the timeline recorder samples the whole
  /// metrics registry at every boundary `Now() + k * cfg.interval_ns`.
  /// Boundary B means "registry state after all events with t < B" on
  /// every engine path (sequential, serial merge, parallel windows), so
  /// the resulting time series is bit-identical across worker-thread
  /// counts. Sampling is read-only against the run (see
  /// obs::TimelineRecorder); cfg.interval_ns == 0 disarms.
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

  // -------------------------------------------------------------------
  // Logical-process (parallel engine) API. Used by the network fabric to
  // partition switches onto LPs, and by engine tests; application code
  // never needs it.
  // -------------------------------------------------------------------

  const SimConfig& config() const { return config_; }

  /// True when this simulation was constructed LP-capable
  /// (worker_threads >= 1). Layers check this before creating LPs.
  bool lp_enabled() const { return config_.worker_threads >= 1; }

  /// Number of logical processes (1 until AddLp is called).
  uint32_t lp_count() const { return static_cast<uint32_t>(lps_.size()); }

  /// The LP owning the currently-executing event (0 outside a dispatch).
  uint32_t current_lp() const {
    internal::WorkerCtx* w = internal::g_worker_ctx;
    return (w != nullptr && w->sim == this) ? w->lp_index : 0;
  }

  /// Creates a logical process and returns its id. `min_cross_lp_delay`
  /// is this LP's lookahead contribution: the caller promises that every
  /// event it schedules onto a *different* LP is at least this far in the
  /// future. The engine's window size is the minimum over all AddLp
  /// calls. Only valid on an LP-enabled simulation, from driver code,
  /// before the first parallel run.
  uint32_t AddLp(TimeNs min_cross_lp_delay);

  /// Smallest registered cross-LP delay (the conservative-sync window).
  TimeNs lookahead() const { return lookahead_; }

  /// Permanently forces this simulation onto the serial merge path (still
  /// LP-partitioned, still bit-identical, just single-threaded). Layers
  /// call this when a feature is enabled whose side effects are only
  /// deterministic in global event order (rng-based loss on switch LPs,
  /// stateful drop filters, fault hooks, packet trace sinks).
  void PinSequential(const char* reason);

  /// Why the simulation is pinned sequential, or nullptr when it is not.
  const char* sequential_pin_reason() const { return pin_reason_; }

  /// Registers a hook run after every Run/RunUntil/Step and before every
  /// metrics dump on an LP-partitioned simulation. The fabric uses this
  /// to fold its per-LP counter shards into the registry so reads between
  /// runs observe exactly what the sequential engine would have written.
  /// Returns a token for RemoveFoldHook; a registrant that can be
  /// destroyed before the simulation must unregister in its destructor.
  size_t AddFoldHook(std::function<void()> hook);

  /// Unregisters a hook returned by AddFoldHook (idempotent per token).
  void RemoveFoldHook(size_t token);

  /// Spawn, but the coroutine starts (and thereafter lives) on `lp`.
  /// The fabric uses this so a switch port pump's very first resume
  /// already executes on the LP that owns the port's channel.
  void SpawnOn(uint32_t lp, Task<> task);

  /// At/After variants that schedule onto an explicit LP. In a dispatch
  /// on the same LP they behave exactly like At/After; scheduling onto a
  /// *different* LP from inside a parallel window requires the timestamp
  /// to clear the window end (the lookahead contract; checked fatally).
  /// On a single-LP simulation they are literally At/After.
  template <typename F>
  void AtOnLp(uint32_t lp, TimeNs t, F&& fn) {
    if (lps_.size() == 1) {
      At(t, std::forward<F>(fn));
      return;
    }
    ScheduleFnOnLp(lp, t, SmallFn(std::forward<F>(fn)));
  }

  template <typename F>
  void AfterOnLp(uint32_t lp, TimeNs delay, F&& fn) {
    if (lps_.size() == 1) {
      After(delay, std::forward<F>(fn));
      return;
    }
    internal::WorkerCtx* w = internal::g_worker_ctx;
    TimeNs base = (w != nullptr && w->sim == this) ? w->lp->lp_now : now_;
    ScheduleFnOnLp(lp, DelayToAbs(base, delay), SmallFn(std::forward<F>(fn)));
  }

 private:
  friend void internal::NotifyDetachedDone(Simulation* sim,
                                           std::coroutine_handle<> h);

  static TimeNs DelayToAbs(TimeNs base, TimeNs delay) {
    if (delay <= 0) return base;
    DMRPC_CHECK_LE(delay, std::numeric_limits<TimeNs>::max() - base)
        << "delay overflows the virtual clock (delay=" << delay << ")";
    return base + delay;
  }

  /// Sequential-engine dispatch (single-LP simulations only).
  void Dispatch(EventQueue::Event ev);

  /// Globally-ordered dispatch of one event on `lp` (serial merge path).
  void DispatchOn(internal::LpState* lp, uint32_t lp_index,
                  EventQueue::Event ev);

  // Context-aware scheduling (LP engine; definitions in simulation.cc).
  void ScheduleFnCtx(internal::WorkerCtx* w, uint32_t dest, TimeNs t,
                     SmallFn fn);
  void ScheduleHandleCtx(internal::WorkerCtx* w, uint32_t dest, TimeNs t,
                         std::coroutine_handle<> h);
  void ScheduleFnOnLp(uint32_t dest, TimeNs t, SmallFn fn);

  TimeNs NextEventTimeMulti() const;
  void RunMulti(TimeNs deadline, bool has_deadline);
  void RunSerialMerge(TimeNs deadline);
  void RunWindowed(TimeNs deadline);
  void ExecuteWindow(TimeNs window_end);
  void DrainWindow(internal::LpState* lp, uint32_t lp_index,
                   TimeNs window_end);
  void CommitWindow();
  void ReplayLogs();
  void EnsureWorkers();
  void ShutdownWorkers();
  void WorkerMain(int worker_index);
  void RunFoldHooks();

  /// Samples every pending timeline boundary <= `up_to`. Folds sharded
  /// counters first so the registry reflects all executed events. The
  /// engine calls this before dispatching the first event at or past a
  /// boundary, and once more when a run advances the clock to a deadline.
  void FlushTimeline(TimeNs up_to);

  /// Declared before lps_ and after nothing that can hold buffers:
  /// members destroy in reverse order, so the (already drained) queues and
  /// everything else that might hold PooledBufs die before the pool.
  BufferPool pool_;
  SimConfig config_;
  /// lps_[0] always exists; it is the sequential engine's whole world and
  /// the LP engine's host/application partition. unique_ptr for stable
  /// addresses across AddLp.
  std::vector<std::unique_ptr<internal::LpState>> lps_;
  internal::LpState* lp0_ = nullptr;  // == lps_[0].get(), hot-path alias
  /// Frames of live detached root tasks; destroying a root transitively
  /// destroys its awaited children, so teardown destroys exactly these.
  std::unordered_set<void*> detached_roots_;
  TimeNs now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t executed_ = 0;
  int64_t live_tasks_ = 0;
  TimeNs lookahead_ = std::numeric_limits<TimeNs>::max();
  const char* pin_reason_ = nullptr;
  std::vector<std::function<void()>> fold_hooks_;
  // --- worker pool (created lazily on the first parallel window) ---
  bool threads_started_ = false;
  int n_workers_ = 0;
  std::vector<std::unique_ptr<internal::WorkerSlot>> slots_;
  std::vector<std::thread> threads_;
  std::vector<uint8_t> slot_active_;  // scratch: which workers have work
  std::mutex done_mu_;
  std::condition_variable done_cv_;
  int pending_workers_ = 0;
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
inline DelayAwaiter Delay(TimeNs ns) { return DelayAwaiter{ns}; }

/// co_await Yield(): reschedule at the current instant, letting other
/// ready events run first.
inline DelayAwaiter Yield() { return DelayAwaiter{0}; }

}  // namespace dmrpc::sim

#endif  // DMRPC_SIM_SIMULATION_H_
