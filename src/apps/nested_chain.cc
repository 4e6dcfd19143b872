#include "apps/nested_chain.h"

#include <utility>

#include "apps/bytes.h"
#include "common/logging.h"
#include "core/payload.h"
#include "obs/trace.h"

namespace dmrpc::apps {

using core::Payload;
using msvc::ServiceEndpoint;
using rpc::MsgBuffer;
using rpc::ReqContext;

namespace {
/// CPU cost of the tail service aggregating the array (a simple sum):
/// ~0.3 ns/byte of streaming arithmetic.
constexpr double kAggregateNsPerKb = 300.0;
}  // namespace

NestedChainApp::NestedChainApp(msvc::Cluster* cluster, int chain_len,
                               const std::vector<net::NodeId>& service_nodes)
    : cluster_(cluster), chain_len_(chain_len) {
  DMRPC_CHECK_GT(chain_len, 0);
  DMRPC_CHECK(!service_nodes.empty());
  std::vector<ServiceEndpoint*> eps;
  for (int i = 0; i < chain_len; ++i) {
    net::NodeId node = service_nodes[i % service_nodes.size()];
    eps.push_back(cluster->AddService("chain" + std::to_string(i), node,
                                      static_cast<net::Port>(9000 + i),
                                      /*worker_threads=*/1));
  }
  for (int i = 0; i < chain_len - 1; ++i) {
    InstallForwarder(eps[i], "chain" + std::to_string(i + 1));
  }
  InstallAggregator(eps[chain_len - 1]);
}

void NestedChainApp::InstallForwarder(ServiceEndpoint* ep,
                                      const std::string& next) {
  ep->RegisterHandler(
      kChainReq,
      [ep, next](ReqContext ctx, MsgBuffer req) -> sim::Task<MsgBuffer> {
        // A pure data mover: forwards the opaque request bytes to the
        // next tier and relays the response (Ref or full data alike).
        // Forwarding cost scales with the message it must re-serialize --
        // a Ref keeps this near zero, full data does not.
        co_await ep->Compute(100);  // request admission bookkeeping
        co_await ep->ForwardCost(req.size());
        auto resp = co_await ep->CallService(next, kChainReq,
                                             std::move(req));
        if (!resp.ok()) {
          MsgBuffer err;
          err.Append<uint8_t>(1);
          co_return err;
        }
        co_await ep->ForwardCost(resp->size());
        co_return std::move(*resp);
      });
}

void NestedChainApp::InstallAggregator(ServiceEndpoint* ep) {
  ep->RegisterHandler(
      kChainReq,
      [ep](ReqContext ctx, MsgBuffer req) -> sim::Task<MsgBuffer> {
        Payload payload = Payload::DecodeFrom(&req);
        MsgBuffer resp;
        auto data = co_await ep->dmrpc()->FetchBuf(payload);
        if (!data.ok()) {
          resp.Append<uint8_t>(1);
          co_return resp;
        }
        co_await ep->ComputeBytes(data->size(), kAggregateNsPerKb);
        // The aggregate walks the fetched slabs in place.
        uint64_t sum = SumBytes(*data);
        // Final consumer drops the Ref share (off the response path).
        ep->Detach(ep->dmrpc()->Release(payload));
        resp.Append<uint8_t>(0);
        resp.Append<uint64_t>(sum);
        co_return resp;
      });
}

sim::Task<StatusOr<uint64_t>> NestedChainApp::DoRequest(
    ServiceEndpoint* client, uint32_t arg_bytes) {
  sim::Simulation* sim = cluster_->simulation();
  // Root of the request's trace: the whole nested-RPC chain (payload
  // construction, every hop, the aggregate) descends from this span, so
  // its duration is the end-to-end latency the breakdown must sum to.
  // The mint is unconditional so traced and untraced runs stay identical.
  const obs::TraceContext root = obs::EnsureTraceContext(sim->tracer());
  uint64_t span = 0;
  if (sim->tracer().enabled()) {
    span = sim->tracer().BeginSpan(
        root, "app", "app.request", sim->Now(), client->node(),
        "{\"app\":\"nested_chain\",\"bytes\":" + std::to_string(arg_bytes) +
            "}");
  }
  obs::SetCurrentTraceContext(obs::TraceContext{
      root.trace_id, span != 0 ? span : root.span_id, root.flags});
  auto result = co_await DoRequestInner(client, arg_bytes);
  if (span != 0) sim->tracer().EndSpan(span, sim->Now());
  co_return result;
}

sim::Task<StatusOr<uint64_t>> NestedChainApp::DoRequestInner(
    ServiceEndpoint* client, uint32_t arg_bytes) {
  std::vector<uint8_t> data(arg_bytes);
  FillPattern(data.data(), data.size(), next_fill_++);
  uint64_t expected = SumBytes(data.data(), data.size());

  auto payload = co_await client->dmrpc()->MakePayload(data);
  if (!payload.ok()) co_return payload.status();
  MsgBuffer req;
  payload->EncodeTo(&req);
  auto resp = co_await client->CallService("chain0", kChainReq,
                                           std::move(req));
  if (!resp.ok()) co_return resp.status();
  if (resp->Read<uint8_t>() != 0) {
    co_return Status::Internal("chain reported failure");
  }
  uint64_t sum = resp->Read<uint64_t>();
  if (sum != expected) {
    co_return Status::Internal("aggregation mismatch: data corrupted");
  }
  co_return static_cast<uint64_t>(arg_bytes);
}

msvc::RequestFn NestedChainApp::MakeRequestFn(ServiceEndpoint* client,
                                              uint32_t arg_bytes) {
  return [this, client, arg_bytes]() -> sim::Task<StatusOr<uint64_t>> {
    return DoRequest(client, arg_bytes);
  };
}

}  // namespace dmrpc::apps
