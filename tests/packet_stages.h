// Test helper: the fabric's per-packet stage instants, read back from the
// simulation's tracer.
#ifndef DMRPC_TESTS_PACKET_STAGES_H_
#define DMRPC_TESTS_PACKET_STAGES_H_

#include <optional>
#include <string>
#include <vector>

#include "net/fabric.h"
#include "obs/trace.h"

namespace dmrpc {

/// The instant name net::Fabric records for `stage`: `net.pkt.<stage>`.
inline std::string PacketStageName(net::TraceStage stage) {
  return std::string("net.pkt.") + net::TraceStageName(stage);
}

/// The tracer's `net.pkt.<stage>` instants in record order, or only those
/// of `stage` when given. Their args carry the packet id, src, dst and
/// payload bytes (read them with obs::TraceAnalysis::ArgValue).
inline std::vector<obs::TraceRecord> PacketStages(
    const obs::Tracer& tracer,
    std::optional<net::TraceStage> stage = std::nullopt) {
  std::vector<obs::TraceRecord> out;
  for (const obs::TraceRecord& r : tracer.records()) {
    if (r.phase != obs::TracePhase::kInstant || !r.name.starts_with("net.pkt.")) {
      continue;
    }
    if (stage && r.name != PacketStageName(*stage)) continue;
    out.push_back(r);
  }
  return out;
}

}  // namespace dmrpc

#endif  // DMRPC_TESTS_PACKET_STAGES_H_
