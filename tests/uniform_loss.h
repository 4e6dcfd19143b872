// Test helper: uniform random packet loss expressed as a fault plan.
#ifndef DMRPC_TESTS_UNIFORM_LOSS_H_
#define DMRPC_TESTS_UNIFORM_LOSS_H_

#include "common/units.h"
#include "fault/fault.h"
#include "net/fabric.h"

namespace dmrpc {

/// From now until `end_ns`, every host's uplink drops each packet with
/// probability `p`: one Bernoulli draw per packet at first-switch
/// ingress. Schedule it on a fault::FaultInjector attached to `fabric`.
inline fault::FaultPlan UniformLoss(net::Fabric* fabric, double p,
                                    TimeNs end_ns) {
  fault::FaultPlan plan;
  TimeNs now = fabric->simulation()->Now();
  for (net::NodeId n = 0; n < fabric->num_nodes(); ++n) {
    plan.DropWindow(n, net::LinkDir::kUplink, now, end_ns, p);
  }
  return plan;
}

}  // namespace dmrpc

#endif  // DMRPC_TESTS_UNIFORM_LOSS_H_
