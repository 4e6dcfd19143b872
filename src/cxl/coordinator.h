#ifndef DMRPC_CXL_COORDINATOR_H_
#define DMRPC_CXL_COORDINATOR_H_

#include <cstdint>
#include <deque>
#include <memory>

#include "cxl/gfam.h"
#include "net/fabric.h"
#include "rpc/rpc.h"

namespace dmrpc::cxl {

/// Coordinator RPC request types.
enum CoordReqType : uint8_t {
  kRequestFrames = 1,  // (count) -> frames[]
  kReturnFrames = 2,   // (frames[]) -> ()
};

/// Default port the coordinator listens on.
inline constexpr uint16_t kCoordinatorPort = 7100;

/// The coordinator server of DmRPC-CXL (§V-B1): manages the ownership of
/// all free CXL physical pages among compute servers over a reliable
/// network protocol. Hosts reserve batches of free pages and return
/// excess batches, amortizing coordination cost.
class Coordinator {
 public:
  Coordinator(net::Fabric* fabric, net::NodeId node, GfamDevice* device,
              net::Port port = kCoordinatorPort);

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  net::NodeId node() const { return node_; }
  net::Port port() const { return port_; }
  size_t free_frames() const { return free_.size(); }
  uint64_t grants() const { return grants_; }

 private:
  sim::Task<rpc::MsgBuffer> HandleRequest(rpc::ReqContext ctx,
                                          rpc::MsgBuffer req);
  sim::Task<rpc::MsgBuffer> HandleReturn(rpc::ReqContext ctx,
                                         rpc::MsgBuffer req);

  net::NodeId node_;
  net::Port port_;
  std::unique_ptr<rpc::Rpc> rpc_;
  std::deque<dm::FrameId> free_;
  uint64_t grants_ = 0;
};

}  // namespace dmrpc::cxl

#endif  // DMRPC_CXL_COORDINATOR_H_
