#ifndef DMRPC_OBS_TRACE_H_
#define DMRPC_OBS_TRACE_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/units.h"
#include "obs/trace_context.h"

namespace dmrpc::obs {

/// What a recorded trace event marks.
enum class TracePhase : uint8_t {
  kSpanBegin = 0,  // a duration opens (rpc call, handler run, NIC tx)
  kSpanEnd = 1,    // the matching duration closes
  kInstant = 2,    // a point event (packet drop, page fault, COW copy)
};

/// One recorded event. Spans are stored as begin/end pairs linked by
/// `id`. Spans opened through the causal overload additionally carry the
/// trace they belong to and their causal parent span, which is what lets
/// the analyzer stitch per-node spans into one distributed request tree.
struct TraceRecord {
  TracePhase phase = TracePhase::kInstant;
  TimeNs time = 0;        // virtual time
  uint64_t id = 0;        // span id (0 for instants)
  uint64_t trace_id = 0;  // causal trace (0 = not part of a trace)
  uint64_t parent_id = 0; // causal parent span (0 = root of its trace)
  uint32_t track = 0;     // display lane, conventionally the node id
  std::string cat;        // layer: "sim", "net", "rpc", "dm", "app"
  std::string name;       // event name, e.g. "rpc.call"
  std::string args;       // optional JSON object ("{...}"), or empty

  friend bool operator==(const TraceRecord&, const TraceRecord&) = default;
};

/// Records typed spans and instants on the simulation's virtual-time
/// axis. Consumers read the in-memory records() (obs::TraceAnalysis
/// builds span trees from them); WriteChromeTrace exports them as a
/// Chrome `trace_event` file loadable in chrome://tracing or
/// https://ui.perfetto.dev.
///
/// The tracer is owned by `sim::Simulation` and is purely observational:
/// recording never schedules events, consumes randomness, or otherwise
/// perturbs the run, so enabling it cannot change any measured number.
/// It is disabled by default (Begin/Instant are a single branch); when
/// enabled it keeps at most `limit()` records in memory and counts the
/// overflow in dropped(). A nonzero drop count is surfaced three ways so
/// a truncated trace is detectable instead of silently misleading: the
/// dropped() accessor, a metadata event in the Chrome export, and an
/// `obs.trace_dropped` entry folded into the simulation metrics dump.
class Tracer {
 public:
  Tracer() = default;

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Maximum records retained (default 1M ~ 100 MB worst case).
  size_t limit() const { return limit_; }
  void set_limit(size_t n) { limit_ = n; }

  /// Mints a fresh trace id. The counter always advances, even while the
  /// tracer is disabled, so the ids carried on packet headers are
  /// identical whether or not recording is on (tracing must not change
  /// what crosses the simulated wire).
  uint64_t NextTraceId() { return next_trace_id_++; }

  /// Opens an untraced span at virtual time `now`; returns its id (0
  /// when the tracer is disabled or full -- EndSpan ignores id 0).
  uint64_t BeginSpan(std::string cat, std::string name, TimeNs now,
                     uint32_t track = 0, std::string args = "");

  /// Opens a causally-linked span: it belongs to `ctx.trace_id` and its
  /// causal parent is `ctx.span_id` (0 = this span is the trace root).
  uint64_t BeginSpan(const TraceContext& ctx, std::string cat,
                     std::string name, TimeNs now, uint32_t track = 0,
                     std::string args = "");

  /// Closes span `id` at virtual time `now`.
  void EndSpan(uint64_t id, TimeNs now);

  /// Accumulates `n` payload bytes memcpy'd while span `id` was open;
  /// emitted as a `"copied"` arg on the span. Ignored when `id` is not a
  /// currently open span.
  void AttributeBytesCopied(uint64_t id, uint64_t n);

  /// Merges `key:value` into open span `id`'s args (attributes known
  /// only mid-span, e.g. response bytes). Ignored when `id` is 0 or not
  /// open.
  void AttributeSpanArg(uint64_t id, const std::string& key, uint64_t value);

  /// Records a point event.
  void Instant(std::string cat, std::string name, TimeNs now,
               uint32_t track = 0, std::string args = "");

  /// Causally-linked point event (carries trace/parent like a span).
  void Instant(const TraceContext& ctx, std::string cat, std::string name,
               TimeNs now, uint32_t track = 0, std::string args = "");

  const std::vector<TraceRecord>& records() const { return records_; }
  size_t dropped() const { return dropped_; }

  /// Spans begun and not yet ended (the chaos harness asserts this is 0
  /// after every iteration: no span leaks).
  size_t open_span_count() const { return open_.size(); }

  void Clear();

  /// Chrome trace_event JSON (the `{"traceEvents":[...]}` form). Spans
  /// become complete ("X") slices with microsecond timestamps, instants
  /// become "i" events; the track maps to `tid`, layers ("cat") are
  /// preserved for filtering in the viewer, and trace/parent ids ride in
  /// `args`. A final metadata event reports dropped().
  void WriteChromeTrace(std::ostream& os) const;

 private:
  bool Full() const { return records_.size() >= limit_; }
  uint64_t BeginSpanRecord(uint64_t trace_id, uint64_t parent_id,
                           std::string cat, std::string name, TimeNs now,
                           uint32_t track, std::string args);

  bool enabled_ = false;
  size_t limit_ = 1u << 20;
  uint64_t next_id_ = 1;
  uint64_t next_trace_id_ = 1;
  size_t dropped_ = 0;
  std::vector<TraceRecord> records_;
  /// id -> index of the kSpanBegin record (dropped on EndSpan).
  std::unordered_map<uint64_t, size_t> open_;
  /// id -> bytes copied attributed while open (see AttributeBytesCopied).
  std::unordered_map<uint64_t, uint64_t> open_copied_;
};

/// The ambient trace context, minting a fresh root trace (sampled, no
/// parent span) from `tracer` when no trace is active. Layers that can
/// be the entry point of a request (the root DmRpc call, a service
/// endpoint) use this so every span they record belongs to some trace.
/// The mint is unconditional -- the id counter advances identically
/// whether or not recording is enabled, keeping traced and untraced runs
/// byte-identical on the wire.
inline TraceContext EnsureTraceContext(Tracer& tracer) {
  TraceContext ctx = CurrentTraceContext();
  if (!ctx.valid()) {
    ctx.trace_id = tracer.NextTraceId();
    ctx.span_id = 0;
    ctx.flags = TraceContext::kSampled;
  }
  return ctx;
}

}  // namespace dmrpc::obs

#endif  // DMRPC_OBS_TRACE_H_
