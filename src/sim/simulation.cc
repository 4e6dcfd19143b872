#include "sim/simulation.h"

#include <limits>

#include "common/logging.h"

namespace dmrpc::sim {

namespace {
thread_local Simulation* g_current = nullptr;

/// RAII guard setting the thread-local current simulation.
class CurrentGuard {
 public:
  explicit CurrentGuard(Simulation* sim) : prev_(g_current) {
    g_current = sim;
  }
  ~CurrentGuard() { g_current = prev_; }

 private:
  Simulation* prev_;
};
}  // namespace

namespace internal {
void NotifyDetachedDone(Simulation* sim, std::coroutine_handle<> h) {
  --sim->live_tasks_;
  sim->detached_roots_.erase(h.address());
  h.destroy();
}
}  // namespace internal

Simulation::Simulation(uint64_t seed)
    : rng_(seed, /*seq=*/0xda3e39cb94b95bdbULL) {
  // A fresh simulation must not inherit the thread's ambient trace
  // context: coroutine frames capture it at creation, so a context left
  // over from a previous simulation on this thread (benches run one per
  // scenario) would stitch the new run's spans into the old run's trace.
  obs::SetCurrentTraceContext(obs::TraceContext{});
}

Simulation::~Simulation() {
  // Drop pending events without running them, then destroy live detached
  // root frames. Frames own their awaited children (via the Task temporary
  // in the parent's co_await expression), so destroying roots reclaims
  // every suspended frame exactly once. Queue handles are never destroyed
  // directly: they point into subtrees owned by the roots (or by Task
  // objects still held in user code). Both steps run while pool_ is still
  // alive, so event callbacks and frames holding pooled payload buffers
  // return them cleanly.
  while (!queue_.empty()) queue_.PopMin();
  for (void* addr : detached_roots_) {
    std::coroutine_handle<>::from_address(addr).destroy();
  }
}

Simulation* Simulation::Current() { return g_current; }

std::string Simulation::DumpMetricsJson() {
  // Fold the simulator's own counters into the registry at dump time so
  // the hot event loop stays free of even the single extra increment.
  metrics_.GetGauge("sim.events_executed")->Set(static_cast<int64_t>(executed_));
  metrics_.GetGauge("sim.live_tasks")->Set(live_tasks_);
  metrics_.GetGauge("sim.now_ns")->Set(now_);
  // Folded only when records were actually shed: a run whose trace fits
  // in the limit (and every tracing-off run) dumps byte-identical JSON,
  // which the zero-perturbation fingerprints depend on. A truncated
  // trace, by contrast, *should* be loudly visible in the sidecar.
  if (tracer_.dropped() > 0) {
    metrics_.GetGauge("obs.trace_dropped")
        ->Set(static_cast<int64_t>(tracer_.dropped()));
  }
  return metrics_.DumpJson();
}

void Simulation::Spawn(Task<> task) {
  DMRPC_CHECK(task.valid()) << "spawning an empty task";
  Task<>::Handle h = task.Release();
  h.promise().detached_owner = this;
  ++live_tasks_;
  detached_roots_.insert(h.address());
  ScheduleHandle(now_, h);
}

void Simulation::FlushTimeline(TimeNs up_to) {
  if (up_to < tl_next_) return;
  timeline_.SampleUpTo(up_to, &metrics_, executed_, live_tasks_, &slo_,
                       &tracer_);
  tl_next_ = timeline_.next_boundary();
}

void Simulation::ScheduleHandle(TimeNs t, std::coroutine_handle<> h) {
  DMRPC_CHECK_GE(t, now_) << "scheduling into the past (t=" << t
                          << ", now=" << now_ << ")";
  // Same-instant wake-ups (channel pushes, completions, yields -- most of
  // the events in an RPC workload) take the O(1) ready ring; only events
  // with a future timestamp pay for a heap insert.
  if (t == now_) {
    queue_.PushReadyHandle(t, next_seq_++, h);
  } else {
    queue_.PushHandle(t, next_seq_++, h);
  }
}

void Simulation::Dispatch(EventQueue::Event ev) {
  now_ = ev.t;
  ++executed_;
  // Each event starts from a clean ambient trace context: resumed
  // coroutines restore their own saved context in await_resume, and plain
  // callbacks must not inherit whatever the previous event left behind.
  obs::SetCurrentTraceContext({});
  if (ev.handle) {
    ev.handle.resume();
  } else {
    ev.fn();
  }
}

bool Simulation::Step() {
  if (queue_.empty()) return false;
  CurrentGuard guard(this);
  if (queue_.top_time() >= tl_next_) FlushTimeline(queue_.top_time());
  Dispatch(queue_.PopMin());
  return true;
}

void Simulation::Run() {
  // The guard sits outside the loop: one thread-local save/restore per
  // run, not per event (nested Run/RunUntil calls re-guard themselves).
  CurrentGuard guard(this);
  while (!queue_.empty()) {
    // Sample every boundary the next event is about to step over (one
    // compare against a cached TimeNs when the timeline is off).
    if (queue_.top_time() >= tl_next_) FlushTimeline(queue_.top_time());
    Dispatch(queue_.PopMin());
  }
}

void Simulation::RunUntil(TimeNs deadline) {
  CurrentGuard guard(this);
  while (!queue_.empty() && queue_.top_time() <= deadline) {
    if (queue_.top_time() >= tl_next_) FlushTimeline(queue_.top_time());
    Dispatch(queue_.PopMin());
  }
  if (now_ < deadline) now_ = deadline;
  // Boundaries between the last event and the deadline sample as empty
  // windows: a deadline-bounded run covers its full grid.
  FlushTimeline(deadline);
}

void DelayAwaiter::await_suspend(std::coroutine_handle<> h) const {
  Simulation* sim = Simulation::Current();
  DMRPC_CHECK(sim != nullptr) << "Delay awaited outside a simulation";
  TimeNs d = delay < 0 ? 0 : delay;
  // Same overflow-safe check as After(): Now() + d must not overflow.
  DMRPC_CHECK_LE(d, std::numeric_limits<TimeNs>::max() - sim->Now())
      << "Delay() overflows the virtual clock (delay=" << delay << ")";
  sim->ScheduleHandle(sim->Now() + d, h);
}

}  // namespace dmrpc::sim
