#ifndef DMRPC_MSVC_CLUSTER_H_
#define DMRPC_MSVC_CLUSTER_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/dmrpc.h"
#include "cxl/coordinator.h"
#include "cxl/gfam.h"
#include "cxl/host_dm.h"
#include "dmnet/client.h"
#include "dmnet/server.h"
#include "net/fabric.h"
#include "net/topology.h"
#include "obs/metrics.h"
#include "rpc/rpc.h"
#include "sim/simulation.h"
#include "sim/sync.h"

namespace dmrpc::msvc {

/// Which data-sharing substrate the cluster's microservices use.
enum class Backend {
  kErpc,   // pass-by-value baseline (no DM)
  kDmNet,  // DmRPC-net: DM servers reached over the fabric
  kDmCxl,  // DmRPC-CXL: G-FAM device + coordinator
};

const char* BackendName(Backend backend);

/// Whole-datacenter configuration for one experiment.
struct ClusterConfig {
  Backend backend = Backend::kErpc;
  /// Hosts on the fabric (compute servers + DM servers + coordinator).
  uint32_t num_nodes = 8;
  /// Hosts running DM servers (kDmNet). Empty -> defaults to the last
  /// two nodes, matching the paper's setup (§VI-A).
  std::vector<net::NodeId> dm_server_nodes;
  /// Host running the coordinator (kDmCxl); defaults to the last node.
  net::NodeId coordinator_node = net::kInvalidNode;
  uint32_t page_size = 4096;
  /// Frames in each DM server's pool / in the G-FAM device.
  uint32_t dm_frames = 1u << 16;

  net::NetworkConfig network;
  /// Switch graph the hosts hang off. Defaults to the paper's single-ToR
  /// rack; use TopologyConfig::Clos for a spine/leaf fabric. num_hosts is
  /// overridden with num_nodes at construction so the two can never
  /// disagree.
  net::TopologyConfig topology;
  mem::MemoryConfig memory;
  rpc::RpcConfig rpc;
  core::DmRpcConfig dmrpc;
  dmnet::DmServerConfig dm_server;
  cxl::HostDmConfig host_dm;
};

class Cluster;

/// One microservice process: an RPC endpoint plus (backend-dependent) a
/// DM client, wrapped in a DmRpc layer, plus a worker-thread pool model.
class ServiceEndpoint {
 public:
  ServiceEndpoint(Cluster* cluster, std::string name, net::NodeId node,
                  net::Port port, int worker_threads);

  ServiceEndpoint(const ServiceEndpoint&) = delete;
  ServiceEndpoint& operator=(const ServiceEndpoint&) = delete;

  const std::string& name() const { return name_; }
  net::NodeId node() const { return node_; }
  net::Port port() const { return port_; }
  rpc::Rpc* rpc() { return rpc_.get(); }
  core::DmRpc* dmrpc() { return dmrpc_.get(); }
  Cluster* cluster() { return cluster_; }

  /// Registers a request handler (runs as its own coroutine per request;
  /// use Compute() inside to model CPU bursts on this service's workers).
  void RegisterHandler(rpc::ReqType req_type, rpc::Handler handler) {
    rpc_->RegisterHandler(req_type, std::move(handler));
  }

  /// Occupies one worker thread for `ns` of CPU time (event-loop model:
  /// workers are held for bursts, not across downstream awaits).
  sim::Task<> Compute(TimeNs ns);

  /// CPU burst proportional to bytes processed.
  sim::Task<> ComputeBytes(uint64_t bytes, double ns_per_kb);

  /// Per-KB cost a data mover pays to deserialize + reserialize a
  /// forwarded message (~2 GB/s, thrift/protobuf-class frameworks as in
  /// DeathStarBench). Refs make the forwarded message tiny, which is
  /// exactly DmRPC's saving.
  static constexpr double kForwardNsPerKb = 500.0;

  /// Models forwarding overhead for a message of `bytes`.
  sim::Task<> ForwardCost(uint64_t bytes) {
    return ComputeBytes(bytes, kForwardNsPerKb);
  }

  /// Fire-and-forget: runs a Status-returning coroutine detached from the
  /// caller (used to take Ref releases off the response critical path).
  void Detach(sim::Task<Status> task);

  /// Calls another service by registry name (sessions are cached).
  sim::Task<StatusOr<rpc::MsgBuffer>> CallService(const std::string& target,
                                                  rpc::ReqType req_type,
                                                  rpc::MsgBuffer request);

  /// Drops the cached session to `target` -- e.g. after the target's
  /// process restarted and the old session went dead -- so the next
  /// CallService establishes a fresh one.
  void ForgetSession(const std::string& target) { sessions_.erase(target); }

  /// Connects the DM client (if any). Called by Cluster::InitAll.
  sim::Task<Status> Init();

  /// Crash model: brings the endpoint back as a fresh process after its
  /// host restarts. The Rpc object survives (its sessions were reset by
  /// the crash and stay closed -- stale ids never collide with new
  /// ones); the DM layer is rebuilt from scratch and the session cache
  /// cleared, so the caller must run Init() again before using DM.
  void Restart();

 private:
  friend class Cluster;

  /// Constructs dm_ + dmrpc_ for the cluster backend (ctor and Restart).
  void BuildDmLayer();

  Cluster* cluster_;
  std::string name_;
  net::NodeId node_;
  net::Port port_;
  std::unique_ptr<rpc::Rpc> rpc_;
  std::unique_ptr<dm::DmClient> dm_;
  std::unique_ptr<core::DmRpc> dmrpc_;
  sim::Semaphore workers_;
  std::unordered_map<std::string, rpc::SessionId> sessions_;
  // Cluster-wide registry aggregates (shared by every endpoint).
  obs::Counter* m_service_calls_;
  obs::Counter* m_sessions_opened_;
};

/// Owns the simulated datacenter for one experiment: fabric, DM
/// substrate, and the microservices deployed on it.
class Cluster {
 public:
  Cluster(sim::Simulation* sim, ClusterConfig cfg);
  ~Cluster();

  sim::Simulation* simulation() { return sim_; }
  net::Fabric* fabric() { return fabric_.get(); }
  const ClusterConfig& config() const { return cfg_; }
  Backend backend() const { return cfg_.backend; }

  /// Deploys a microservice. Ports must be unique per node.
  ServiceEndpoint* AddService(const std::string& name, net::NodeId node,
                              net::Port port, int worker_threads = 1);

  ServiceEndpoint* service(const std::string& name);

  /// Initializes every service's DM client (sessions + registration).
  sim::Task<Status> InitAll();

  /// Per-host memory-bandwidth meter (NIC DMA + DM layer traffic).
  mem::BandwidthMeter* node_meter(net::NodeId node) {
    return &node_meters_[node];
  }

  // Substrate accessors (null when not applicable to the backend).
  dmnet::DmServer* dm_server(size_t i) { return dm_servers_[i].get(); }
  size_t num_dm_servers() const { return dm_servers_.size(); }
  cxl::GfamDevice* gfam() { return gfam_.get(); }
  cxl::Coordinator* coordinator() { return coordinator_.get(); }
  cxl::CxlPort* cxl_port(net::NodeId node) { return cxl_ports_[node].get(); }

  /// DM server address list for DmNetClient construction.
  const std::vector<dmnet::DmServerAddr>& dm_addrs() const {
    return dm_addrs_;
  }

  /// Sets the modeled CXL latency on every host port (Fig. 12's sweep).
  void SetCxlLatency(TimeNs ns);

 private:
  sim::Simulation* sim_;
  ClusterConfig cfg_;
  std::unique_ptr<net::Fabric> fabric_;
  std::vector<mem::BandwidthMeter> node_meters_;

  // kDmNet substrate.
  std::vector<std::unique_ptr<dmnet::DmServer>> dm_servers_;
  std::vector<dmnet::DmServerAddr> dm_addrs_;

  // kDmCxl substrate.
  std::unique_ptr<cxl::GfamDevice> gfam_;
  std::unique_ptr<cxl::Coordinator> coordinator_;
  std::vector<std::unique_ptr<cxl::CxlPort>> cxl_ports_;

  std::vector<std::unique_ptr<ServiceEndpoint>> services_;
  std::unordered_map<std::string, ServiceEndpoint*> by_name_;
};

}  // namespace dmrpc::msvc

#endif  // DMRPC_MSVC_CLUSTER_H_
