#include "obs/trace_analysis.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace dmrpc::obs {

namespace {

/// How many structural problems Check() describes verbatim before it
/// just counts; keeps reports readable on badly broken traces.
constexpr size_t kMaxProblemDescriptions = 10;

std::string Percent(TimeNs part, TimeNs whole) {
  char buf[32];
  double pct = whole > 0 ? 100.0 * static_cast<double>(part) /
                               static_cast<double>(whole)
                         : 0.0;
  std::snprintf(buf, sizeof(buf), "%6.2f%%", pct);
  return buf;
}

void AppendAggregate(std::ostream& os, const std::string& label,
                     const BreakdownAggregate& agg) {
  os << "== latency breakdown (" << label << ") ==\n";
  os << "requests: " << agg.requests << "\n";
  if (agg.requests == 0) return;
  os << "latency ns: p50=" << agg.p50 << " p95=" << agg.p95
     << " p99=" << agg.p99 << " max=" << agg.max
     << " total=" << agg.total_latency << "\n";
  os << "wire_bytes: " << agg.wire_bytes
     << "  copied_bytes: " << agg.copied_bytes << "\n";
  os << "critical-path time by layer:\n";
  for (const auto& [cat, ns] : agg.by_layer) {
    os << "  " << cat;
    for (size_t i = cat.size(); i < 8; ++i) os << ' ';
    os << ns << " ns  " << Percent(ns, agg.total_latency) << "\n";
  }
  os << "critical-path time by hop (track):\n";
  for (const auto& [track, ns] : agg.by_hop) {
    os << "  track " << track << "  " << ns << " ns  "
       << Percent(ns, agg.total_latency) << "\n";
  }
}

}  // namespace

uint64_t TraceAnalysis::ArgValue(const std::string& args,
                                 const std::string& key, uint64_t fallback) {
  std::string needle = "\"" + key + "\":";
  size_t pos = args.find(needle);
  if (pos == std::string::npos) return fallback;
  pos += needle.size();
  if (pos >= args.size() || args[pos] < '0' || args[pos] > '9') {
    return fallback;
  }
  uint64_t v = 0;
  while (pos < args.size() && args[pos] >= '0' && args[pos] <= '9') {
    v = v * 10 + static_cast<uint64_t>(args[pos++] - '0');
  }
  return v;
}

void TraceAnalysis::AddRecords(const std::vector<TraceRecord>& records,
                               size_t dropped) {
  records_.insert(records_.end(), records.begin(), records.end());
  dropped_ += dropped;
  built_ = false;
}

void TraceAnalysis::Build() {
  spans_.clear();
  span_index_.clear();
  instants_ = 0;
  for (const TraceRecord& r : records_) {
    switch (r.phase) {
      case TracePhase::kSpanBegin: {
        SpanNode node;
        node.id = r.id;
        node.trace_id = r.trace_id;
        node.parent_id = r.parent_id;
        node.track = r.track;
        node.start = r.time;
        node.end = r.time;  // until the end record arrives
        node.cat = r.cat;
        node.name = r.name;
        node.args = r.args;
        span_index_.emplace(r.id, spans_.size());
        spans_.push_back(std::move(node));
        break;
      }
      case TracePhase::kSpanEnd: {
        auto it = span_index_.find(r.id);
        if (it == span_index_.end()) break;  // begin was dropped
        spans_[it->second].end = r.time;
        spans_[it->second].closed = true;
        break;
      }
      case TracePhase::kInstant:
        ++instants_;
        break;
    }
  }
  // Causal edges. A parent in a *different* trace is a structural bug
  // (reported by Check); such edges are excluded so tree walks stay
  // within one request.
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent_id == 0) continue;
    auto it = span_index_.find(spans_[i].parent_id);
    if (it == span_index_.end()) continue;  // orphan (reported by Check)
    if (spans_[it->second].trace_id != spans_[i].trace_id) continue;
    spans_[it->second].children.push_back(i);
  }
  built_ = true;
}

WellFormedness TraceAnalysis::Check() const { return Check(Breakdowns()); }

WellFormedness TraceAnalysis::Check(
    const std::vector<RequestBreakdown>& breakdowns) const {
  WellFormedness wf;
  wf.spans = spans_.size();
  wf.instants = instants_;
  wf.dropped = dropped_;
  auto note = [&wf](std::string msg) {
    if (wf.problems.size() < kMaxProblemDescriptions) {
      wf.problems.push_back(std::move(msg));
    }
  };
  if (dropped_ > 0) {
    note("trace truncated: " + std::to_string(dropped_) +
         " records dropped");
  }
  std::map<uint64_t, size_t> roots_per_trace;
  for (const SpanNode& s : spans_) {
    if (s.trace_id != 0) roots_per_trace.emplace(s.trace_id, 0);
    if (!s.closed) {
      ++wf.unclosed;
      note("span " + std::to_string(s.id) + " (" + s.name +
           ") never closed");
    }
    if (s.trace_id == 0) continue;  // background span: no tree checks
    if (s.parent_id == 0) {
      ++roots_per_trace[s.trace_id];
      continue;
    }
    auto it = span_index_.find(s.parent_id);
    if (it == span_index_.end()) {
      ++wf.orphans;
      note("span " + std::to_string(s.id) + " (" + s.name + ") parent " +
           std::to_string(s.parent_id) + " missing");
      continue;
    }
    const SpanNode& p = spans_[it->second];
    if (p.trace_id != s.trace_id) {
      ++wf.cross_trace;
      note("span " + std::to_string(s.id) + " in trace " +
           std::to_string(s.trace_id) + " but parent " +
           std::to_string(p.id) + " in trace " +
           std::to_string(p.trace_id));
      continue;
    }
    if (s.closed && p.closed && (s.start < p.start || s.end > p.end)) {
      if (s.start >= p.end) {
        // Detached continuation: spawned as the parent finished (e.g. a
        // deferred Ref release). Causally linked but intentionally off
        // the request path, so not a nesting violation.
        ++wf.async_children;
      } else {
        ++wf.interval_violations;
        note("span " + std::to_string(s.id) + " (" + s.name + ") [" +
             std::to_string(s.start) + "," + std::to_string(s.end) +
             "] outside parent " + std::to_string(p.id) + " [" +
             std::to_string(p.start) + "," + std::to_string(p.end) + "]");
      }
    }
  }
  wf.traces = roots_per_trace.size();
  for (const auto& [trace, roots] : roots_per_trace) {
    if (roots != 1) {
      ++wf.multi_root_traces;
      note("trace " + std::to_string(trace) + " has " +
           std::to_string(roots) + " roots");
    }
  }
  // The accounting invariant behind every number in the report: a
  // request's critical-path times partition its root span, so per layer
  // and per hop they sum to the end-to-end latency exactly.
  for (const RequestBreakdown& bd : breakdowns) {
    TimeNs layer_sum = 0;
    for (const auto& [cat, ns] : bd.by_layer) layer_sum += ns;
    TimeNs hop_sum = 0;
    for (const auto& [track, ns] : bd.by_hop) hop_sum += ns;
    if (layer_sum != bd.latency || hop_sum != bd.latency) {
      ++wf.inexact_sums;
      note("trace " + std::to_string(bd.trace_id) + " breakdown sums (layer=" +
           std::to_string(layer_sum) + ", hop=" + std::to_string(hop_sum) +
           ") != latency " + std::to_string(bd.latency));
    }
  }
  return wf;
}

void TraceAnalysis::AttributeCriticalPath(size_t idx, TimeNs end,
                                          TimeNs floor,
                                          RequestBreakdown* out) const {
  const SpanNode& s = spans_[idx];
  auto credit = [&](TimeNs ns) {
    if (ns <= 0) return;
    out->by_layer[s.cat] += ns;
    out->by_hop[s.track] += ns;
  };
  // Backward walk: at each instant the deepest span still running owns
  // the time. Children sorted by end time descending (id breaks ties
  // deterministically); the child finishing latest before the cursor is
  // the one on the critical path there.
  std::vector<size_t> kids = s.children;
  std::sort(kids.begin(), kids.end(), [this](size_t a, size_t b) {
    if (spans_[a].end != spans_[b].end) return spans_[a].end > spans_[b].end;
    return spans_[a].id > spans_[b].id;
  });
  TimeNs cur = end;
  for (size_t k : kids) {
    const SpanNode& c = spans_[k];
    if (!c.closed) continue;
    TimeNs c_end = std::min(c.end, cur);
    TimeNs c_start = std::max(c.start, floor);
    if (c_end <= floor) break;  // sorted: nothing later reaches the window
    if (c_start >= c_end) continue;  // zero width after clamping
    credit(cur - c_end);  // the parent ran alone in (c_end, cur]
    AttributeCriticalPath(k, c_end, c_start, out);
    cur = c_start;
    if (cur <= floor) return;
  }
  credit(cur - floor);
}

std::vector<RequestBreakdown> TraceAnalysis::Breakdowns() const {
  // Group spans per trace; breakdowns only for traces with exactly one
  // closed root (Check() reports everything else).
  std::map<uint64_t, std::vector<size_t>> by_trace;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].trace_id != 0) by_trace[spans_[i].trace_id].push_back(i);
  }
  std::vector<RequestBreakdown> out;
  for (const auto& [trace_id, members] : by_trace) {
    size_t root = spans_.size();
    size_t roots = 0;
    for (size_t i : members) {
      if (spans_[i].parent_id == 0) {
        root = i;
        ++roots;
      }
    }
    if (roots != 1 || !spans_[root].closed) continue;
    RequestBreakdown bd;
    bd.trace_id = trace_id;
    bd.latency = spans_[root].duration();
    bd.root_name = spans_[root].name;
    bd.root_args = spans_[root].args;
    for (size_t i : members) {
      const SpanNode& s = spans_[i];
      bd.copied_bytes += ArgValue(s.args, "copied");
      if (s.cat == "dmrpc" && ArgValue(s.args, "by_ref") == 1) {
        bd.by_ref = true;
      }
      if (s.name == "rpc.call") {
        bd.wire_bytes += ArgValue(s.args, "bytes");
        bd.wire_bytes += ArgValue(s.args, "resp_bytes");
      }
    }
    AttributeCriticalPath(root, spans_[root].end, spans_[root].start, &bd);
    out.push_back(std::move(bd));
  }
  return out;  // map iteration: already sorted by trace id
}

std::map<std::string, BreakdownAggregate> TraceAnalysis::Aggregate(
    const std::vector<RequestBreakdown>& breakdowns) {
  std::map<std::string, std::vector<const RequestBreakdown*>> groups;
  for (const RequestBreakdown& bd : breakdowns) {
    groups["all"].push_back(&bd);
    groups[bd.by_ref ? "by_ref" : "by_value"].push_back(&bd);
  }
  std::map<std::string, BreakdownAggregate> out;
  for (const auto& [label, group] : groups) {
    BreakdownAggregate agg;
    agg.requests = group.size();
    std::vector<TimeNs> lat;
    lat.reserve(group.size());
    for (const RequestBreakdown* bd : group) {
      lat.push_back(bd->latency);
      agg.total_latency += bd->latency;
      agg.wire_bytes += bd->wire_bytes;
      agg.copied_bytes += bd->copied_bytes;
      for (const auto& [cat, ns] : bd->by_layer) agg.by_layer[cat] += ns;
      for (const auto& [track, ns] : bd->by_hop) agg.by_hop[track] += ns;
    }
    std::sort(lat.begin(), lat.end());
    auto q = [&lat](size_t pct) {
      size_t idx = (lat.size() * pct) / 100;
      if (idx >= lat.size()) idx = lat.size() - 1;
      return lat[idx];
    };
    if (!lat.empty()) {
      agg.p50 = q(50);
      agg.p95 = q(95);
      agg.p99 = q(99);
      agg.max = lat.back();
    }
    out.emplace(label, std::move(agg));
  }
  return out;
}

std::string TraceAnalysis::TextReport() const {
  std::ostringstream os;
  std::vector<RequestBreakdown> bds = Breakdowns();
  WellFormedness wf = Check(bds);
  os << "== trace well-formedness ==\n";
  os << "traces: " << wf.traces << "  spans: " << wf.spans
     << "  instants: " << wf.instants << "  dropped: " << wf.dropped << "\n";
  os << "unclosed: " << wf.unclosed << "  orphans: " << wf.orphans
     << "  cross_trace: " << wf.cross_trace
     << "  multi_root: " << wf.multi_root_traces
     << "  interval_violations: " << wf.interval_violations
     << "  async_children: " << wf.async_children << "\n";
  os << "status: " << (wf.ok() ? "OK" : "PROBLEMS") << "\n";
  for (const std::string& p : wf.problems) os << "  ! " << p << "\n";
  for (const auto& [label, agg] : Aggregate(bds)) {
    os << "\n";
    AppendAggregate(os, label, agg);
  }
  return os.str();
}

}  // namespace dmrpc::obs
