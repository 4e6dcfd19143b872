#ifndef DMRPC_OBS_TRACE_ANALYSIS_H_
#define DMRPC_OBS_TRACE_ANALYSIS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/units.h"
#include "obs/trace.h"

namespace dmrpc::obs {

/// One reconstructed span of a distributed request: a begin/end record
/// pair stitched back together, with its place in the causal tree.
struct SpanNode {
  uint64_t id = 0;
  uint64_t trace_id = 0;
  uint64_t parent_id = 0;  // 0 = root of its trace
  uint32_t track = 0;      // node id (hop)
  TimeNs start = 0;
  TimeNs end = 0;
  bool closed = false;  // an end record was seen
  std::string cat;      // layer: "app", "msvc", "rpc", "dmrpc", "dm", "net"
  std::string name;
  std::string args;  // JSON object as recorded, or empty
  std::vector<size_t> children;  // indices into TraceAnalysis::spans()

  TimeNs duration() const { return end - start; }
};

/// Verdict on a span forest. A healthy trace has every begun span
/// closed, every non-root span's parent present in the same trace,
/// exactly one root per trace, and every child interval nested inside
/// its parent's interval in virtual time -- except detached
/// continuations (work spawned off the request path, e.g. a deferred
/// Ref release), which begin at or after their parent's end and are
/// counted separately in `async_children`. Every request's breakdown
/// also sums exactly to its latency, per layer and per hop.
struct WellFormedness {
  size_t traces = 0;
  size_t spans = 0;
  size_t instants = 0;
  size_t unclosed = 0;
  size_t orphans = 0;           // parent id names no span in the trace
  size_t cross_trace = 0;       // parent exists but in a different trace
  size_t multi_root_traces = 0; // traces with != 1 root span
  size_t interval_violations = 0;
  size_t async_children = 0;    // follow-up spans (start >= parent end)
  size_t dropped = 0;           // records the tracer shed (AddRecords)
  size_t inexact_sums = 0;      // breakdowns whose layer or hop times do
                                // not sum to their latency
  /// Human-readable descriptions of the first few problems found.
  std::vector<std::string> problems;

  bool ok() const {
    return unclosed == 0 && orphans == 0 && cross_trace == 0 &&
           multi_root_traces == 0 && interval_violations == 0 &&
           dropped == 0 && inexact_sums == 0;
  }
};

/// Per-request latency decomposition. Every virtual nanosecond of the
/// root span's duration is attributed to exactly one span on the
/// critical path (the deepest span covering that instant on the backward
/// walk from the request's completion), so the per-layer and per-hop
/// sums each equal the end-to-end latency exactly.
struct RequestBreakdown {
  uint64_t trace_id = 0;
  TimeNs latency = 0;  // root span duration = end-to-end virtual latency
  std::string root_name;
  std::string root_args;
  bool by_ref = false;  // any dmrpc span in the trace chose pass-by-ref
  std::map<std::string, TimeNs> by_layer;  // cat -> critical-path self time
  std::map<uint32_t, TimeNs> by_hop;       // track -> critical-path self time
  uint64_t wire_bytes = 0;    // sum of "bytes" args on rpc.call spans
  uint64_t copied_bytes = 0;  // sum of "copied" args across the trace
};

/// Aggregate view over many requests: latency quantiles and per-layer /
/// per-hop totals, split by the pass-by-reference decision.
struct BreakdownAggregate {
  size_t requests = 0;
  TimeNs total_latency = 0;
  TimeNs p50 = 0, p95 = 0, p99 = 0, max = 0;
  std::map<std::string, TimeNs> by_layer;
  std::map<uint32_t, TimeNs> by_hop;
  uint64_t wire_bytes = 0;
  uint64_t copied_bytes = 0;
};

/// Reconstructs span trees from the tracer's in-memory records, verifies
/// their structure, and computes critical-path latency breakdowns.
/// Deterministic by construction: identical inputs produce byte-identical
/// reports.
class TraceAnalysis {
 public:
  /// Ingests the tracer's records. `dropped` is the tracer's shed-record
  /// count; a nonzero value marks the analysis as operating on a
  /// truncated trace.
  void AddRecords(const std::vector<TraceRecord>& records,
                  size_t dropped = 0);

  /// Stitches begin/end records into SpanNodes and indexes the forest.
  /// Must be called after ingestion, before any query below.
  void Build();

  const std::vector<SpanNode>& spans() const { return spans_; }
  size_t dropped() const { return dropped_; }

  /// Structural checks over the whole forest (spans with trace_id 0 --
  /// background activity outside any request -- are exempt from the
  /// per-trace checks but still checked for closure), plus the exact-sum
  /// check over Breakdowns().
  WellFormedness Check() const;

  /// One breakdown per trace that has exactly one closed root span.
  /// Sorted by trace id, so reports are stable across identical runs.
  std::vector<RequestBreakdown> Breakdowns() const;

  /// Aggregates breakdowns; key "all" plus "by_ref" / "by_value" splits.
  static std::map<std::string, BreakdownAggregate> Aggregate(
      const std::vector<RequestBreakdown>& breakdowns);

  /// The full text report: well-formedness summary, aggregate tables,
  /// and per-layer critical-path percentages. Its `status:` line reads
  /// OK exactly when Check() passes. Byte-stable for identical inputs.
  std::string TextReport() const;

  /// Reads an integer value for `key` out of a span's recorded JSON args
  /// (e.g. bytes, copied, by_ref). Returns `fallback` when absent.
  static uint64_t ArgValue(const std::string& args, const std::string& key,
                           uint64_t fallback = 0);

 private:
  /// Check() over breakdowns the caller already holds.
  WellFormedness Check(const std::vector<RequestBreakdown>& breakdowns) const;
  void AttributeCriticalPath(size_t idx, TimeNs end, TimeNs floor,
                             RequestBreakdown* out) const;

  std::vector<TraceRecord> records_;
  std::vector<SpanNode> spans_;
  std::map<uint64_t, size_t> span_index_;  // span id -> index in spans_
  size_t instants_ = 0;
  size_t dropped_ = 0;
  bool built_ = false;
};

}  // namespace dmrpc::obs

#endif  // DMRPC_OBS_TRACE_ANALYSIS_H_
