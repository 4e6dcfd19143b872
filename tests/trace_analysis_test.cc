// Unit tests for obs::TraceAnalysis: span-tree reconstruction, structural
// well-formedness verdicts, the critical-path exact-sum invariant, the
// report's status line, and determinism on a real RPC workload.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/fabric.h"
#include "obs/trace.h"
#include "obs/trace_analysis.h"
#include "rpc/rpc.h"
#include "sim/simulation.h"

namespace dmrpc::obs {
namespace {

TraceRecord Begin(uint64_t id, uint64_t trace, uint64_t parent, TimeNs at,
                  const char* cat, const char* name, uint32_t track = 0,
                  const char* args = "") {
  TraceRecord r;
  r.phase = TracePhase::kSpanBegin;
  r.id = id;
  r.trace_id = trace;
  r.parent_id = parent;
  r.time = at;
  r.cat = cat;
  r.name = name;
  r.track = track;
  r.args = args;
  return r;
}

TraceRecord End(uint64_t id, TimeNs at) {
  TraceRecord r;
  r.phase = TracePhase::kSpanEnd;
  r.id = id;
  r.time = at;
  return r;
}

// A hand-built request: root app span [0,1000] on track 0, an rpc child
// [100,900] on track 0, a dm grandchild [300,600] on track 1, and a
// detached follow-up [1000,1100] hanging off the rpc span.
std::vector<TraceRecord> SampleRequest() {
  std::vector<TraceRecord> recs;
  recs.push_back(Begin(1, 5, 0, 0, "app", "app.request", 0));
  recs.push_back(
      Begin(2, 5, 1, 100, "rpc", "rpc.call", 0, "{\"bytes\":4096}"));
  recs.push_back(Begin(3, 5, 2, 300, "dm", "dm.fetch", 1));
  recs.push_back(End(3, 600));
  recs.push_back(End(2, 900));
  recs.push_back(End(1, 1000));
  recs.push_back(Begin(4, 5, 2, 1000, "dmrpc", "dmrpc.release", 0));
  recs.push_back(End(4, 1100));
  return recs;
}

TEST(TraceAnalysisTest, CriticalPathPartitionsRootDurationExactly) {
  TraceAnalysis analysis;
  analysis.AddRecords(SampleRequest());
  analysis.Build();

  WellFormedness wf = analysis.Check();
  EXPECT_TRUE(wf.ok());
  EXPECT_EQ(wf.traces, 1u);
  EXPECT_EQ(wf.spans, 4u);
  EXPECT_EQ(wf.async_children, 1u);  // the detached release

  std::vector<RequestBreakdown> bds = analysis.Breakdowns();
  ASSERT_EQ(bds.size(), 1u);
  const RequestBreakdown& bd = bds[0];
  EXPECT_EQ(bd.latency, 1000);
  // Self-time on the backward walk: app covers [0,100)+[900,1000),
  // rpc covers [100,300)+[600,900), dm covers [300,600). The detached
  // span contributes nothing (it lies past the root's end).
  EXPECT_EQ(bd.by_layer.at("app"), 200);
  EXPECT_EQ(bd.by_layer.at("rpc"), 500);
  EXPECT_EQ(bd.by_layer.at("dm"), 300);
  EXPECT_EQ(bd.by_layer.count("dmrpc"), 0u);
  EXPECT_EQ(bd.by_hop.at(0), 700);
  EXPECT_EQ(bd.by_hop.at(1), 300);
  EXPECT_EQ(bd.wire_bytes, 4096u);

  TimeNs layer_sum = 0, hop_sum = 0;
  for (const auto& [cat, ns] : bd.by_layer) layer_sum += ns;
  for (const auto& [track, ns] : bd.by_hop) hop_sum += ns;
  EXPECT_EQ(layer_sum, bd.latency);
  EXPECT_EQ(hop_sum, bd.latency);
}

TEST(TraceAnalysisTest, PartialOverlapIsAViolationDetachedIsNot) {
  // Child [500,1200] leaks past its parent's end [.,1000] while having
  // started inside it: a genuine nesting violation, unlike the detached
  // case (start >= parent end).
  std::vector<TraceRecord> recs;
  recs.push_back(Begin(1, 9, 0, 0, "app", "app.request"));
  recs.push_back(Begin(2, 9, 1, 500, "rpc", "rpc.call"));
  recs.push_back(End(1, 1000));
  recs.push_back(End(2, 1200));
  TraceAnalysis analysis;
  analysis.AddRecords(recs);
  analysis.Build();
  WellFormedness wf = analysis.Check();
  EXPECT_EQ(wf.interval_violations, 1u);
  EXPECT_EQ(wf.async_children, 0u);
  EXPECT_FALSE(wf.ok());
}

TEST(TraceAnalysisTest, DetectsUnclosedOrphanAndMultiRoot) {
  std::vector<TraceRecord> recs;
  // Trace 1: root + a span whose parent id names nothing in the dump.
  recs.push_back(Begin(1, 1, 0, 0, "app", "root"));
  recs.push_back(Begin(2, 1, 77, 10, "rpc", "orphan"));
  recs.push_back(End(2, 20));
  recs.push_back(End(1, 30));
  // Trace 2: two roots, one never closed.
  recs.push_back(Begin(3, 2, 0, 0, "app", "rootA"));
  recs.push_back(End(3, 5));
  recs.push_back(Begin(4, 2, 0, 6, "app", "rootB"));
  TraceAnalysis analysis;
  analysis.AddRecords(recs, /*dropped=*/3);
  analysis.Build();
  WellFormedness wf = analysis.Check();
  EXPECT_EQ(wf.unclosed, 1u);
  EXPECT_EQ(wf.orphans, 1u);
  EXPECT_EQ(wf.multi_root_traces, 1u);
  EXPECT_EQ(wf.dropped, 3u);
  EXPECT_FALSE(wf.ok());
  EXPECT_FALSE(wf.problems.empty());
  EXPECT_NE(analysis.TextReport().find("\nstatus: PROBLEMS\n"),
            std::string::npos);
  // Structurally broken traces yield no breakdown rather than a bogus one.
  for (const RequestBreakdown& bd : analysis.Breakdowns()) {
    EXPECT_NE(bd.trace_id, 2u);
  }
}

TEST(TraceAnalysisTest, ArgValueReadsNumbersAndFallsBack) {
  const std::string args = "{\"bytes\":4096,\"by_ref\":1,\"copied\":0}";
  EXPECT_EQ(TraceAnalysis::ArgValue(args, "bytes"), 4096u);
  EXPECT_EQ(TraceAnalysis::ArgValue(args, "by_ref"), 1u);
  EXPECT_EQ(TraceAnalysis::ArgValue(args, "copied"), 0u);
  EXPECT_EQ(TraceAnalysis::ArgValue(args, "missing", 7), 7u);
  EXPECT_EQ(TraceAnalysis::ArgValue("", "bytes", 9), 9u);
}

/// Runs a small traced client/server RPC workload; the tracer's records
/// stay in `sim` for the tests below.
void RunTracedWorkload(sim::Simulation* sim) {
  sim->tracer().set_enabled(true);
  net::Fabric fabric(sim, net::NetworkConfig{}, 2);
  rpc::Rpc server(&fabric, 1, 100);
  rpc::Rpc client(&fabric, 0, 200);
  server.RegisterHandler(
      1, [](rpc::ReqContext, rpc::MsgBuffer req) -> sim::Task<rpc::MsgBuffer> {
        co_await sim::Delay(3 * kMicrosecond);
        co_return req;
      });
  std::optional<int> done;
  auto driver = [&]() -> sim::Task<> {
    auto sid = co_await client.Connect(1, 100);
    int ok = 0;
    for (int i = 0; i < 8; ++i) {
      rpc::MsgBuffer req;
      for (int k = 0; k < 1 + i * 700; ++k) {
        req.Append<uint8_t>(static_cast<uint8_t>(k));
      }
      auto resp = co_await client.Call(*sid, 1, std::move(req));
      if (resp.ok()) ok++;
    }
    done = ok;
  };
  sim->Spawn(driver());
  sim->RunFor(5 * kSecond);
  ASSERT_TRUE(done.has_value());
  ASSERT_EQ(*done, 8);
}

/// The breakdown report over `sim`'s tracer records.
std::string Report(const sim::Simulation& sim) {
  TraceAnalysis analysis;
  analysis.AddRecords(sim.tracer().records(), sim.tracer().dropped());
  analysis.Build();
  return analysis.TextReport();
}

TEST(TraceAnalysisTest, InProcessBreakdownsSumExactly) {
  sim::Simulation sim(1234);
  RunTracedWorkload(&sim);
  TraceAnalysis analysis;
  analysis.AddRecords(sim.tracer().records(), sim.tracer().dropped());
  analysis.Build();
  WellFormedness wf = analysis.Check();
  EXPECT_TRUE(wf.ok());
  EXPECT_EQ(wf.inexact_sums, 0u);
  // The line CI's tracing gate greps for.
  EXPECT_NE(analysis.TextReport().find("\nstatus: OK\n"), std::string::npos);

  // Every request satisfies the exact-sum invariant.
  std::vector<RequestBreakdown> bds = analysis.Breakdowns();
  EXPECT_GE(bds.size(), 8u);
  for (const RequestBreakdown& bd : bds) {
    TimeNs layer_sum = 0, hop_sum = 0;
    for (const auto& [cat, ns] : bd.by_layer) layer_sum += ns;
    for (const auto& [track, ns] : bd.by_hop) hop_sum += ns;
    EXPECT_EQ(layer_sum, bd.latency);
    EXPECT_EQ(hop_sum, bd.latency);
  }
}

TEST(TraceAnalysisTest, IdenticalSeedsProduceByteIdenticalReports) {
  sim::Simulation sim_a(777);
  RunTracedWorkload(&sim_a);
  sim::Simulation sim_b(777);
  RunTracedWorkload(&sim_b);
  // Every field of every record: phase, time, ids, track, cat, name, args.
  EXPECT_TRUE(sim_a.tracer().records() == sim_b.tracer().records());
  std::string report_a = Report(sim_a);
  EXPECT_EQ(report_a, Report(sim_b));
  EXPECT_NE(report_a.find("\nstatus: OK\n"), std::string::npos);
}

}  // namespace
}  // namespace dmrpc::obs
