#include "cxl/coordinator.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "dmnet/protocol.h"

namespace dmrpc::cxl {

using rpc::MsgBuffer;
using rpc::ReqContext;

Coordinator::Coordinator(net::Fabric* fabric, net::NodeId node,
                         GfamDevice* device, net::Port port)
    : node_(node),
      port_(port),
      rpc_(std::make_unique<rpc::Rpc>(fabric, node, port)),
      free_(device->TakeAllFree()) {
  rpc_->RegisterHandler(kRequestFrames, [this](ReqContext c, MsgBuffer m) {
    return HandleRequest(c, std::move(m));
  });
  rpc_->RegisterHandler(kReturnFrames, [this](ReqContext c, MsgBuffer m) {
    return HandleReturn(c, std::move(m));
  });
}

sim::Task<MsgBuffer> Coordinator::HandleRequest(ReqContext ctx,
                                                MsgBuffer req) {
  uint32_t want = req.Read<uint32_t>();
  co_await sim::Delay(200);  // bookkeeping CPU
  MsgBuffer resp;
  if (free_.empty()) {
    dmnet::PutStatus(&resp, Status::OutOfMemory("G-FAM exhausted"));
    co_return resp;
  }
  uint32_t grant = static_cast<uint32_t>(
      std::min<size_t>(want, free_.size()));
  dmnet::PutStatus(&resp, Status::OK());
  resp.Append<uint32_t>(grant);
  for (uint32_t i = 0; i < grant; ++i) {
    resp.Append<uint32_t>(free_.front());
    free_.pop_front();
  }
  grants_ += grant;
  co_return resp;
}

sim::Task<MsgBuffer> Coordinator::HandleReturn(ReqContext ctx,
                                               MsgBuffer req) {
  uint32_t n = req.Read<uint32_t>();
  co_await sim::Delay(200);
  for (uint32_t i = 0; i < n; ++i) free_.push_back(req.Read<uint32_t>());
  MsgBuffer resp;
  dmnet::PutStatus(&resp, Status::OK());
  co_return resp;
}

}  // namespace dmrpc::cxl
