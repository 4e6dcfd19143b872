// Protocol-level tests of the RPC layer: targeted packet drops, duplicate
// handshakes, malformed traffic, and conservation invariants that the
// end-to-end tests in rpc_test.cc cannot pin down.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <optional>
#include <vector>

#include "common/random.h"
#include "fault/fault.h"
#include "net/fabric.h"
#include "obs/trace.h"
#include "rpc/rpc.h"
#include "rpc/wire.h"
#include "sim/simulation.h"
#include "uniform_loss.h"

namespace dmrpc::rpc {
namespace {

/// Decodes the header of a packet on the wire (test-side peeking).
PacketHeader Peek(const net::Packet& pkt) {
  PacketHeader hdr;
  EXPECT_TRUE(hdr.DecodeFrom(pkt.payload.data(), pkt.payload.size()));
  return hdr;
}

class ProtocolTest : public ::testing::Test {
 protected:
  ProtocolTest()
      : sim_(404), fabric_(&sim_, net::NetworkConfig{}, 2) {
    server_ = std::make_unique<Rpc>(&fabric_, 1, 100);
    client_ = std::make_unique<Rpc>(&fabric_, 0, 200);
    server_->RegisterHandler(
        1, [](ReqContext, MsgBuffer req) -> sim::Task<MsgBuffer> {
          std::vector<uint8_t> bytes(req.size());
          req.ReadBytes(bytes.data(), bytes.size());
          for (uint8_t& b : bytes) b = static_cast<uint8_t>(b + 1);
          co_return MsgBuffer(bytes);
        });
  }

  /// Runs one request of `bytes` and returns its status.
  Status OneCall(uint32_t bytes) {
    std::optional<Status> out;
    auto driver = [&]() -> sim::Task<> {
      auto sid = co_await client_->Connect(1, 100);
      if (!sid.ok()) {
        out = sid.status();
        co_return;
      }
      std::vector<uint8_t> pattern(bytes);
      for (uint32_t i = 0; i < bytes; ++i) pattern[i] = uint8_t(i);
      MsgBuffer req(pattern);
      auto resp = co_await client_->Call(*sid, 1, std::move(req));
      if (!resp.ok()) {
        out = resp.status();
        co_return;
      }
      std::vector<uint8_t> got = resp->CopyBytes();
      for (uint32_t i = 0; i < bytes; ++i) {
        if (got[i] != uint8_t(uint8_t(i) + 1)) {
          out = Status::Internal("corrupted");
          co_return;
        }
      }
      out = Status::OK();
    };
    sim_.Spawn(driver());
    sim_.RunFor(30 * kSecond);
    return out.value_or(Status::TimedOut("driver stuck"));
  }

  sim::Simulation sim_;
  net::Fabric fabric_;
  std::unique_ptr<Rpc> server_;
  std::unique_ptr<Rpc> client_;
};

TEST_F(ProtocolTest, SurvivesDroppedConnect) {
  int dropped = 0;
  fabric_.set_drop_filter([&](const net::Packet& pkt) {
    if (Peek(pkt).msg_type == MsgType::kConnect && dropped < 2) {
      dropped++;
      return true;
    }
    return false;
  });
  EXPECT_TRUE(OneCall(64).ok());
  EXPECT_EQ(dropped, 2);
  EXPECT_GE(client_->stats().retransmits, 2u);
}

TEST_F(ProtocolTest, SurvivesDroppedConnectAck) {
  int dropped = 0;
  fabric_.set_drop_filter([&](const net::Packet& pkt) {
    if (Peek(pkt).msg_type == MsgType::kConnectAck && dropped < 1) {
      dropped++;
      return true;
    }
    return false;
  });
  EXPECT_TRUE(OneCall(64).ok());
  // The duplicate connect must not create a second server session.
  EXPECT_EQ(client_->stats().responses_received, 1u);
}

TEST_F(ProtocolTest, SurvivesDroppedFirstRequestPacket) {
  int dropped = 0;
  fabric_.set_drop_filter([&](const net::Packet& pkt) {
    PacketHeader hdr = Peek(pkt);
    if (hdr.msg_type == MsgType::kRequest && hdr.pkt_idx == 0 &&
        dropped < 1) {
      dropped++;
      return true;
    }
    return false;
  });
  EXPECT_TRUE(OneCall(10000).ok());
  EXPECT_EQ(server_->stats().requests_handled, 1u);  // at-most-once
}

TEST_F(ProtocolTest, SurvivesDroppedMiddleFragment) {
  int dropped = 0;
  fabric_.set_drop_filter([&](const net::Packet& pkt) {
    PacketHeader hdr = Peek(pkt);
    if (hdr.msg_type == MsgType::kRequest && hdr.pkt_idx == 2 &&
        dropped < 1) {
      dropped++;
      return true;
    }
    return false;
  });
  EXPECT_TRUE(OneCall(20000).ok());
  EXPECT_EQ(server_->stats().requests_handled, 1u);
}

TEST_F(ProtocolTest, SurvivesDroppedResponse) {
  int dropped = 0;
  fabric_.set_drop_filter([&](const net::Packet& pkt) {
    if (Peek(pkt).msg_type == MsgType::kResponse && dropped < 2) {
      dropped++;
      return true;
    }
    return false;
  });
  EXPECT_TRUE(OneCall(64).ok());
  // Retransmitted request hits the response cache, not the handler.
  EXPECT_EQ(server_->stats().requests_handled, 1u);
  EXPECT_GE(server_->stats().duplicate_requests, 1u);
}

TEST_F(ProtocolTest, SurvivesDroppedCreditReturns) {
  // Drop every credit return; completion must still reconcile credits.
  fabric_.set_drop_filter([&](const net::Packet& pkt) {
    return Peek(pkt).msg_type == MsgType::kCreditReturn;
  });
  EXPECT_TRUE(OneCall(60000).ok());
  // A second large call must not be starved of credits.
  EXPECT_TRUE(OneCall(60000).ok());
}

TEST_F(ProtocolTest, MalformedPacketsAreDropped) {
  sim_.At(0, [&] {
    net::Packet junk;
    junk.src = 0;
    junk.src_port = 9;
    junk.dst = 1;
    junk.dst_port = 100;  // the server's bound port
    junk.payload = {0xde, 0xad, 0xbe, 0xef};
    fabric_.nic(0)->Send(std::move(junk));
  });
  sim_.RunFor(1 * kMillisecond);
  // Server is still healthy afterwards.
  EXPECT_TRUE(OneCall(64).ok());
}

TEST_F(ProtocolTest, StaleSessionTrafficIgnored) {
  // Packets referencing nonexistent sessions must be counted and dropped.
  sim_.At(0, [&] {
    PacketHeader hdr;
    hdr.msg_type = MsgType::kRequest;
    hdr.session_id = 77;  // never created
    hdr.req_id = 8;
    net::Packet pkt;
    pkt.src = 0;
    pkt.src_port = 9;
    pkt.dst = 1;
    pkt.dst_port = 100;
    pkt.payload.resize(PacketHeader::kWireBytes);
    hdr.EncodeTo(pkt.payload.data());
    fabric_.nic(0)->Send(std::move(pkt));
  });
  sim_.RunFor(1 * kMillisecond);
  EXPECT_EQ(server_->stats().stale_packets, 1u);
  EXPECT_TRUE(OneCall(64).ok());
}

TEST_F(ProtocolTest, ManySequentialCallsReuseSlotsCleanly) {
  std::optional<int> completed;
  auto driver = [&]() -> sim::Task<> {
    auto sid = co_await client_->Connect(1, 100);
    int done = 0;
    for (int i = 0; i < 100; ++i) {
      MsgBuffer req;
      req.Append<uint32_t>(i);
      auto resp = co_await client_->Call(*sid, 1, std::move(req));
      if (resp.ok()) done++;
    }
    completed = done;
  };
  sim_.Spawn(driver());
  sim_.RunFor(10 * kSecond);
  ASSERT_TRUE(completed.has_value());
  EXPECT_EQ(*completed, 100);
  // req_ids grow, slots recycle: 100 requests over 8 slots.
  EXPECT_EQ(server_->stats().requests_handled, 100u);
}

TEST_F(ProtocolTest, TwoClientsDistinctSessions) {
  Rpc client2(&fabric_, 0, 201);
  std::optional<bool> ok;
  auto driver = [&]() -> sim::Task<> {
    auto s1 = co_await client_->Connect(1, 100);
    auto s2 = co_await client2.Connect(1, 100);
    MsgBuffer r1;
    r1.Append<uint8_t>(1);
    MsgBuffer r2;
    r2.Append<uint8_t>(2);
    auto a = co_await client_->Call(*s1, 1, std::move(r1));
    auto b = co_await client2.Call(*s2, 1, std::move(r2));
    ok = a.ok() && b.ok() && a->Read<uint8_t>() == 2 && b->Read<uint8_t>() == 3;
  };
  sim_.Spawn(driver());
  sim_.RunFor(5 * kSecond);
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(*ok);
}

TEST_F(ProtocolTest, WireOverheadOfSmallCallIsBounded) {
  ASSERT_TRUE(OneCall(8).ok());
  // connect + ack + request + response (+ maybe nothing else).
  EXPECT_LE(client_->stats().tx_packets + server_->stats().tx_packets, 6u);
}

/// Robustness: a blast of random garbage datagrams at a live endpoint
/// must never crash it or disturb in-flight traffic.
TEST_F(ProtocolTest, RandomGarbageDoesNotCrashOrCorrupt) {
  Rng rng(0xBADF00D, 9);
  sim_.At(0, [&] {
    for (int i = 0; i < 300; ++i) {
      net::Packet junk;
      junk.src = 0;
      junk.src_port = static_cast<net::Port>(rng.Uniform(1000));
      junk.dst = 1;
      junk.dst_port = 100;  // the server's bound port
      size_t len = rng.Uniform(200);
      junk.payload.resize(len);
      for (size_t k = 0; k < len; ++k) {
        junk.payload[k] = static_cast<uint8_t>(rng.Next());
      }
      // Half the packets get a valid magic so they parse as headers with
      // random contents -- the nastier case.
      if (len >= PacketHeader::kWireBytes && rng.Bernoulli(0.5)) {
        uint16_t magic = PacketHeader::kMagic;
        std::memcpy(junk.payload.data(), &magic, sizeof(magic));
      }
      fabric_.nic(0)->Send(std::move(junk));
    }
  });
  sim_.RunFor(5 * kMillisecond);
  // The endpoint still works, with data integrity intact.
  EXPECT_TRUE(OneCall(30000).ok());
}

/// Property: across random loss patterns the protocol executes each
/// request exactly once and always reconciles credits.
class LossPatternTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LossPatternTest, ExactlyOnceUnderRandomLoss) {
  sim::Simulation sim(GetParam());
  net::Fabric fabric(&sim, net::NetworkConfig{}, 2);
  fault::FaultInjector loss(&fabric);
  loss.Schedule(UniformLoss(&fabric, 0.08, 60 * kSecond));
  RpcConfig rcfg;
  rcfg.rto_ns = 300 * kMicrosecond;  // quick test turnaround
  Rpc server(&fabric, 1, 100, rcfg);
  Rpc client(&fabric, 0, 200, rcfg);
  uint64_t handler_sum = 0;
  server.RegisterHandler(
      1, [&handler_sum](ReqContext, MsgBuffer req) -> sim::Task<MsgBuffer> {
        handler_sum += req.Read<uint64_t>();
        MsgBuffer resp;
        resp.Append<uint64_t>(1);
        co_return resp;
      });
  std::optional<uint64_t> client_sum;
  auto driver = [&]() -> sim::Task<> {
    auto sid = co_await client.Connect(1, 100);
    if (!sid.ok()) co_return;
    uint64_t sum = 0;
    for (uint64_t i = 1; i <= 60; ++i) {
      MsgBuffer req;
      req.Append<uint64_t>(i);
      auto resp = co_await client.Call(*sid, 1, std::move(req));
      if (resp.ok()) sum += i;
    }
    client_sum = sum;
  };
  sim.Spawn(driver());
  sim.RunFor(60 * kSecond);
  ASSERT_TRUE(client_sum.has_value());
  // Every acknowledged request executed exactly once server-side.
  EXPECT_EQ(*client_sum, 60ull * 61 / 2);
  EXPECT_EQ(handler_sum, *client_sum);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LossPatternTest,
                         ::testing::Values(11, 22, 33, 44, 55));

// ---- Trace-context propagation under adversity -------------------------
//
// The trace triple rides the fixed packet header, so it must survive
// whatever the protocol machinery does to a message: fragmentation far
// beyond the credit window, retransmission after loss, and riding out a
// link outage. Each test runs one traced request and then checks the
// causal chain the tracer recorded.

/// Causal facts of a single-request run, scanned from the tracer.
struct TraceView {
  uint64_t trace_id = 0;       // of the (single) rpc.call span
  uint64_t call_span = 0;
  size_t call_begins = 0;
  size_t handler_begins = 0;
  uint64_t handler_parent = 0;
  uint64_t handler_trace = 0;
  size_t retransmit_instants = 0;
  size_t retransmits_in_trace = 0;  // retransmit instants on the trace
  size_t foreign_records = 0;       // nonzero trace id != the call's
};

TraceView ScanTrace(const obs::Tracer& tracer) {
  TraceView v;
  for (const obs::TraceRecord& r : tracer.records()) {
    if (r.phase == obs::TracePhase::kSpanBegin && r.name == "rpc.call") {
      v.call_begins++;
      v.trace_id = r.trace_id;
      v.call_span = r.id;
    }
  }
  for (const obs::TraceRecord& r : tracer.records()) {
    if (r.phase == obs::TracePhase::kSpanBegin && r.name == "rpc.handler") {
      v.handler_begins++;
      v.handler_parent = r.parent_id;
      v.handler_trace = r.trace_id;
    }
    if (r.name == "rpc.retransmit") {
      v.retransmit_instants++;
      if (r.trace_id == v.trace_id) v.retransmits_in_trace++;
    }
    if (r.trace_id != 0 && r.trace_id != v.trace_id) v.foreign_records++;
  }
  return v;
}

TEST_F(ProtocolTest, TraceSurvivesFragmentationBeyondCreditWindow) {
  sim_.tracer().set_enabled(true);
  // 256 KiB fragments into ~64 packets against a credit window of 8, so
  // the message crosses several credit-stall/return rounds.
  ASSERT_TRUE(OneCall(256 * 1024).ok());
  EXPECT_GT(client_->stats().credit_stalls, 0u);
  TraceView v = ScanTrace(sim_.tracer());
  EXPECT_EQ(v.call_begins, 1u);
  ASSERT_NE(v.trace_id, 0u);
  // The handler ran once, causally under the client's call span, in the
  // same trace -- the context survived reassembly of every fragment.
  EXPECT_EQ(v.handler_begins, 1u);
  EXPECT_EQ(v.handler_trace, v.trace_id);
  EXPECT_EQ(v.handler_parent, v.call_span);
  // Nothing recorded under a different (phantom) trace id.
  EXPECT_EQ(v.foreign_records, 0u);
  EXPECT_EQ(sim_.tracer().open_span_count(), 0u);
}

TEST_F(ProtocolTest, TraceSurvivesRetransmission) {
  sim_.tracer().set_enabled(true);
  int dropped = 0;
  fabric_.set_drop_filter([&](const net::Packet& pkt) {
    PacketHeader hdr = Peek(pkt);
    if (hdr.msg_type == MsgType::kRequest && dropped < 3) {
      dropped++;
      return true;
    }
    return false;
  });
  ASSERT_TRUE(OneCall(10000).ok());
  EXPECT_EQ(dropped, 3);
  EXPECT_EQ(server_->stats().requests_handled, 1u);
  TraceView v = ScanTrace(sim_.tracer());
  ASSERT_NE(v.trace_id, 0u);
  // Retransmitted packets carry the original request's context: the
  // retransmit instants land on the trace, and the (single) handler
  // execution is still parented under the call span.
  EXPECT_GE(v.retransmit_instants, 1u);
  EXPECT_EQ(v.retransmits_in_trace, v.retransmit_instants);
  EXPECT_EQ(v.handler_begins, 1u);
  EXPECT_EQ(v.handler_trace, v.trace_id);
  EXPECT_EQ(v.handler_parent, v.call_span);
  EXPECT_EQ(v.foreign_records, 0u);
  EXPECT_EQ(sim_.tracer().open_span_count(), 0u);
}

TEST_F(ProtocolTest, TraceSurvivesLinkOutageMidRequest) {
  sim_.tracer().set_enabled(true);
  // The server's uplink goes dark shortly after the run starts -- mid
  // request, before any response packet can get back -- and stays down
  // for two RTOs. The client retransmits into the outage; the request
  // completes after the link heals.
  fault::FaultInjector injector(&fabric_);
  fault::FaultPlan plan;
  plan.LinkOutage(/*node=*/1, net::LinkDir::kUplink,
                  /*start_ns=*/50 * kMicrosecond,
                  /*end_ns=*/4500 * kMicrosecond);
  injector.Schedule(plan);
  ASSERT_TRUE(OneCall(10000).ok());
  EXPECT_EQ(server_->stats().requests_handled, 1u);
  TraceView v = ScanTrace(sim_.tracer());
  ASSERT_NE(v.trace_id, 0u);
  EXPECT_EQ(v.handler_begins, 1u);
  EXPECT_EQ(v.handler_trace, v.trace_id);
  EXPECT_EQ(v.handler_parent, v.call_span);
  EXPECT_EQ(v.foreign_records, 0u);
  EXPECT_EQ(sim_.tracer().open_span_count(), 0u);
}

// ---- PacketHeader decode hardening -------------------------------------
//
// DecodeFrom parses attacker-controlled bytes, so it must be total: any
// input either decodes or returns false, with no read past `len`. The
// buffers below are heap allocations of exactly `len` bytes so an
// out-of-bounds read trips ASan rather than silently passing.

/// A fully populated header (every field distinguishable from zero).
PacketHeader SampleHeader() {
  PacketHeader hdr;
  hdr.msg_type = MsgType::kRequest;
  hdr.req_type = 9;
  hdr.session_id = 0x1234;
  hdr.pkt_idx = 3;
  hdr.num_pkts = 7;
  hdr.req_id = 0x1122334455667788ull;
  hdr.msg_size = 0xABCDEF01u;
  hdr.set_trace_context(
      obs::TraceContext{0xDEADBEEFCAFEF00Dull, 0x0102030405060708ull,
                        obs::TraceContext::kSampled});
  return hdr;
}

TEST(PacketHeaderDecode, RoundTripPreservesEveryField) {
  PacketHeader hdr = SampleHeader();
  std::vector<uint8_t> buf(PacketHeader::kWireBytes);
  hdr.EncodeTo(buf.data());
  PacketHeader out;
  ASSERT_TRUE(out.DecodeFrom(buf.data(), buf.size()));
  EXPECT_EQ(out.msg_type, hdr.msg_type);
  EXPECT_EQ(out.req_type, hdr.req_type);
  EXPECT_EQ(out.session_id, hdr.session_id);
  EXPECT_EQ(out.pkt_idx, hdr.pkt_idx);
  EXPECT_EQ(out.num_pkts, hdr.num_pkts);
  EXPECT_EQ(out.req_id, hdr.req_id);
  EXPECT_EQ(out.msg_size, hdr.msg_size);
  EXPECT_EQ(out.trace_context(), hdr.trace_context());
}

TEST(PacketHeaderDecode, RejectsEveryTruncatedLength) {
  PacketHeader hdr = SampleHeader();
  std::vector<uint8_t> full(PacketHeader::kWireBytes);
  hdr.EncodeTo(full.data());
  for (size_t len = 0; len < PacketHeader::kWireBytes; ++len) {
    // Exact-size allocation: a read past `len` is a heap overflow.
    std::vector<uint8_t> buf(full.begin(),
                             full.begin() + static_cast<ptrdiff_t>(len));
    PacketHeader out;
    EXPECT_FALSE(out.DecodeFrom(buf.data(), len)) << "len=" << len;
  }
}

TEST(PacketHeaderDecode, RejectsBadMagic) {
  PacketHeader hdr = SampleHeader();
  std::vector<uint8_t> buf(PacketHeader::kWireBytes);
  hdr.EncodeTo(buf.data());
  for (int byte = 0; byte < 2; ++byte) {
    std::vector<uint8_t> bad = buf;
    bad[static_cast<size_t>(byte)] ^= 0x5A;
    PacketHeader out;
    EXPECT_FALSE(out.DecodeFrom(bad.data(), bad.size()));
  }
}

TEST(PacketHeaderDecode, AcceptsExactlyTheDefinedTraceFlagBits) {
  PacketHeader hdr = SampleHeader();
  std::vector<uint8_t> buf(PacketHeader::kWireBytes);
  for (int flags = 0; flags < 256; ++flags) {
    hdr.trace_flags = static_cast<uint8_t>(flags);
    hdr.EncodeTo(buf.data());
    PacketHeader out;
    bool defined_only =
        (flags & ~obs::TraceContext::kValidFlags) == 0;
    EXPECT_EQ(out.DecodeFrom(buf.data(), buf.size()), defined_only)
        << "flags=" << flags;
    if (defined_only) {
      EXPECT_EQ(out.trace_flags, static_cast<uint8_t>(flags));
    }
  }
}

TEST(PacketHeaderDecode, RandomMutationsNeverReadOutOfBounds) {
  PacketHeader hdr = SampleHeader();
  std::vector<uint8_t> base(PacketHeader::kWireBytes);
  hdr.EncodeTo(base.data());
  Rng rng(0xF00DFACE, 3);
  for (int i = 0; i < 20000; ++i) {
    // Mutate 1..4 bytes of a valid encoding, sometimes truncating too.
    std::vector<uint8_t> buf = base;
    int flips = 1 + static_cast<int>(rng.Uniform(4));
    for (int f = 0; f < flips; ++f) {
      size_t at = rng.Uniform(static_cast<uint32_t>(buf.size()));
      buf[at] = static_cast<uint8_t>(rng.Next());
    }
    size_t len = buf.size();
    if (rng.Bernoulli(0.25)) {
      len = rng.Uniform(static_cast<uint32_t>(buf.size() + 1));
      buf.resize(len);  // exact-size: OOB reads are heap overflows
      buf.shrink_to_fit();
    }
    PacketHeader out;
    // Must not crash or over-read; the verdict itself is input-defined.
    bool ok = out.DecodeFrom(buf.data(), len);
    if (ok) {
      // Anything DecodeFrom accepts satisfies the decode invariants.
      EXPECT_EQ(out.magic, PacketHeader::kMagic);
      EXPECT_EQ(out.trace_flags & ~obs::TraceContext::kValidFlags, 0);
    }
  }
}

}  // namespace
}  // namespace dmrpc::rpc
