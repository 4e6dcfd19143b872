#include "apps/image_pipeline.h"

#include <utility>

#include "apps/bytes.h"
#include "common/logging.h"
#include "core/payload.h"

namespace dmrpc::apps {

using core::Payload;
using msvc::ServiceEndpoint;
using rpc::MsgBuffer;
using rpc::ReqContext;

namespace {
constexpr uint32_t kAuthToken = 0xfeedbeef;

// The codec loops run over raw pointers: indexing the vectors directly
// makes GCC reload their internals after every byte store and keeps both
// loops scalar.

/// "Transcoding": every byte re-encoded (here: +1 mod 256), same size.
void TranscodeBytes(const std::vector<uint8_t>& in, std::vector<uint8_t>* out) {
  const size_t n = in.size();
  out->resize(n);
  const uint8_t* src = in.data();
  uint8_t* dst = out->data();
  for (size_t i = 0; i < n; ++i) dst[i] = src[i] + 1;
}

/// "Compressing": 2:1 reduction (every other byte).
void CompressBytes(const std::vector<uint8_t>& in, std::vector<uint8_t>* out) {
  const size_t n = in.size() / 2;
  out->resize(n);
  const uint8_t* src = in.data();
  uint8_t* dst = out->data();
  for (size_t i = 0; i < n; ++i) dst[i] = src[2 * i];
}

MsgBuffer ErrorResp() {
  MsgBuffer resp;
  resp.Append<uint8_t>(1);
  return resp;
}
}  // namespace

ImagePipelineApp::ImagePipelineApp(
    msvc::Cluster* cluster, const std::vector<net::NodeId>& service_nodes,
    ImagePipelineConfig cfg)
    : cluster_(cluster), cfg_(cfg) {
  DMRPC_CHECK_GE(service_nodes.size(), 1u);
  auto node_of = [&](size_t i) {
    return service_nodes[i % service_nodes.size()];
  };
  size_t slot = 0;
  ServiceEndpoint* firewall =
      cluster->AddService("firewall", node_of(slot++), 9200, 1);
  ServiceEndpoint* lb = cluster->AddService("imglb", node_of(slot++), 9201, 1);
  for (int i = 0; i < cfg_.num_imgproc; ++i) {
    std::string name = "imgproc" + std::to_string(i);
    ServiceEndpoint* proc = cluster->AddService(
        name, node_of(slot++), static_cast<net::Port>(9210 + i), 2);
    imgproc_names_.push_back(name);
    InstallImgProc(proc);
  }
  ServiceEndpoint* transcode = cluster->AddService(
      "transcoding", node_of(slot++), 9202, cfg_.codec_threads);
  ServiceEndpoint* compress = cluster->AddService(
      "compressing", node_of(slot++), 9203, cfg_.codec_threads);
  InstallFirewall(firewall);
  InstallLb(lb);
  InstallCodec(transcode, /*transcode=*/true);
  InstallCodec(compress, /*transcode=*/false);
}

void ImagePipelineApp::InstallFirewall(ServiceEndpoint* ep) {
  ep->RegisterHandler(
      kFirewallReq,
      [this, ep](ReqContext ctx, MsgBuffer req) -> sim::Task<MsgBuffer> {
        // Authenticate using only the fixed-size header; the image
        // payload itself is never inspected.
        uint32_t token = req.Read<uint32_t>();
        co_await ep->Compute(cfg_.firewall_ns);
        co_await ep->ForwardCost(req.size());
        if (token != kAuthToken) {
          MsgBuffer resp;
          resp.Append<uint8_t>(2);  // permission denied
          co_return resp;
        }
        req.SeekTo(0);
        auto resp = co_await ep->CallService("imglb", kLbReq, std::move(req));
        if (!resp.ok()) co_return ErrorResp();
        co_await ep->ForwardCost(resp->size());
        co_return std::move(*resp);
      });
}

void ImagePipelineApp::InstallLb(ServiceEndpoint* ep) {
  ep->RegisterHandler(
      kLbReq,
      [this, ep](ReqContext ctx, MsgBuffer req) -> sim::Task<MsgBuffer> {
        co_await ep->Compute(100);
        co_await ep->ForwardCost(req.size());
        const std::string& target =
            imgproc_names_[lb_rr_++ % imgproc_names_.size()];
        auto resp = co_await ep->CallService(target, kProcReq,
                                             std::move(req));
        if (!resp.ok()) co_return ErrorResp();
        co_await ep->ForwardCost(resp->size());
        co_return std::move(*resp);
      });
}

void ImagePipelineApp::InstallImgProc(ServiceEndpoint* ep) {
  ep->RegisterHandler(
      kProcReq,
      [this, ep](ReqContext ctx, MsgBuffer req) -> sim::Task<MsgBuffer> {
        // Parse the request header to route to the right codec; the image
        // payload is forwarded untouched.
        req.Read<uint32_t>();  // auth token
        Op op = static_cast<Op>(req.Read<uint8_t>());
        co_await ep->Compute(cfg_.parse_ns);
        co_await ep->ForwardCost(req.size());
        size_t payload_pos = req.read_pos();
        MsgBuffer fwd;
        fwd.AppendRangeOf(req, payload_pos, req.size() - payload_pos);
        rpc::ReqType req_type =
            op == Op::kTranscode ? kTranscodeReq : kCompressReq;
        const std::string target =
            op == Op::kTranscode ? "transcoding" : "compressing";
        auto resp = co_await ep->CallService(target, req_type,
                                             std::move(fwd));
        if (!resp.ok()) co_return ErrorResp();
        co_await ep->ForwardCost(resp->size());
        co_return std::move(*resp);
      });
}

void ImagePipelineApp::InstallCodec(ServiceEndpoint* ep, bool transcode) {
  rpc::ReqType req_type = transcode ? kTranscodeReq : kCompressReq;
  double ns_per_kb =
      transcode ? cfg_.transcode_ns_per_kb : cfg_.compress_ns_per_kb;
  ep->RegisterHandler(
      req_type,
      [ep, transcode, ns_per_kb](ReqContext ctx,
                                 MsgBuffer req) -> sim::Task<MsgBuffer> {
        Payload input = Payload::DecodeFrom(&req);
        auto data = co_await ep->dmrpc()->Fetch(input);
        if (!data.ok()) co_return ErrorResp();
        co_await ep->ComputeBytes(data->size(), ns_per_kb);
        std::vector<uint8_t> out;
        if (transcode) {
          TranscodeBytes(*data, &out);
        } else {
          CompressBytes(*data, &out);
        }
        ep->Detach(ep->dmrpc()->Release(input));
        auto out_payload = co_await ep->dmrpc()->MakePayload(out);
        if (!out_payload.ok()) co_return ErrorResp();
        MsgBuffer resp;
        resp.Append<uint8_t>(0);
        out_payload->EncodeTo(&resp);
        co_return resp;
      });
}

sim::Task<StatusOr<uint64_t>> ImagePipelineApp::DoRequest(
    ServiceEndpoint* client, uint32_t image_bytes) {
  uint64_t rid = next_request_id_++;
  Op op = (rid % 2 == 0) ? Op::kTranscode : Op::kCompress;
  std::vector<uint8_t> image(image_bytes);
  FillPattern(image.data(), image.size(), rid * 7);
  auto payload = co_await client->dmrpc()->MakePayload(image);
  if (!payload.ok()) co_return payload.status();

  MsgBuffer req;
  req.Append<uint32_t>(kAuthToken);
  req.Append<uint8_t>(static_cast<uint8_t>(op));
  payload->EncodeTo(&req);
  auto resp = co_await client->CallService("firewall", kFirewallReq,
                                           std::move(req));
  if (!resp.ok()) co_return resp.status();
  uint8_t code = resp->Read<uint8_t>();
  if (code != 0) co_return Status::Internal("pipeline error");

  Payload result = Payload::DecodeFrom(&*resp);
  auto out = co_await client->dmrpc()->Fetch(result);
  if (!out.ok()) co_return out.status();
  client->Detach(client->dmrpc()->Release(result));

  // Validate the transformation end to end.
  std::vector<uint8_t> expected;
  if (op == Op::kTranscode) {
    TranscodeBytes(image, &expected);
  } else {
    CompressBytes(image, &expected);
  }
  if (*out != expected) {
    co_return Status::Internal("image corrupted in flight");
  }
  co_return static_cast<uint64_t>(image_bytes);
}

msvc::RequestFn ImagePipelineApp::MakeRequestFn(ServiceEndpoint* client,
                                                uint32_t image_bytes) {
  return [this, client, image_bytes]() -> sim::Task<StatusOr<uint64_t>> {
    return DoRequest(client, image_bytes);
  };
}

}  // namespace dmrpc::apps
