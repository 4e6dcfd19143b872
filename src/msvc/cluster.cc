#include "msvc/cluster.h"

#include <string>
#include <utility>

#include "common/logging.h"
#include "dmnet/protocol.h"
#include "obs/trace.h"

namespace dmrpc::msvc {

const char* BackendName(Backend backend) {
  switch (backend) {
    case Backend::kErpc:
      return "eRPC";
    case Backend::kDmNet:
      return "DmRPC-net";
    case Backend::kDmCxl:
      return "DmRPC-CXL";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// ServiceEndpoint
// ---------------------------------------------------------------------------

ServiceEndpoint::ServiceEndpoint(Cluster* cluster, std::string name,
                                 net::NodeId node, net::Port port,
                                 int worker_threads)
    : cluster_(cluster),
      name_(std::move(name)),
      node_(node),
      port_(port),
      workers_(worker_threads) {
  const ClusterConfig& cfg = cluster_->config();
  rpc_ = std::make_unique<rpc::Rpc>(cluster_->fabric(), node, port, cfg.rpc);
  rpc_->set_memory_meter(cluster_->node_meter(node));
  obs::MetricsRegistry& metrics = cluster_->simulation()->metrics();
  m_service_calls_ = metrics.GetCounter("msvc.service_calls");
  m_sessions_opened_ = metrics.GetCounter("msvc.sessions_opened");
  metrics.GetGauge("msvc.services")->Add(1);
  BuildDmLayer();
}

void ServiceEndpoint::BuildDmLayer() {
  const ClusterConfig& cfg = cluster_->config();
  dmrpc_.reset();
  dm_.reset();
  switch (cfg.backend) {
    case Backend::kErpc:
      break;  // no DM layer: pure pass-by-value
    case Backend::kDmNet:
      dm_ = std::make_unique<dmnet::DmNetClient>(rpc_.get(),
                                                 cluster_->dm_addrs());
      break;
    case Backend::kDmCxl:
      dm_ = std::make_unique<cxl::HostDmLayer>(
          rpc_.get(), cluster_->cxl_port(node_),
          cluster_->coordinator()->node(), cluster_->coordinator()->port(),
          cfg.host_dm);
      break;
  }
  dmrpc_ = std::make_unique<core::DmRpc>(rpc_.get(), dm_.get(), cfg.dmrpc);
}

void ServiceEndpoint::Restart() {
  sessions_.clear();
  BuildDmLayer();
}

sim::Task<> ServiceEndpoint::Compute(TimeNs ns) {
  co_await workers_.Acquire();
  co_await sim::Delay(ns);
  workers_.Release();
}

sim::Task<> ServiceEndpoint::ComputeBytes(uint64_t bytes, double ns_per_kb) {
  co_await Compute(static_cast<TimeNs>(ns_per_kb * bytes / 1024.0));
}

void ServiceEndpoint::Detach(sim::Task<Status> task) {
  auto wrap = [](sim::Task<Status> inner,
                 std::string name) -> sim::Task<> {
    Status st = co_await std::move(inner);
    if (!st.ok()) {
      LOG_WARN << name << ": detached op failed: " << st.ToString();
    }
  };
  cluster_->simulation()->Spawn(wrap(std::move(task), name_));
}

sim::Task<StatusOr<rpc::MsgBuffer>> ServiceEndpoint::CallService(
    const std::string& target, rpc::ReqType req_type,
    rpc::MsgBuffer request) {
  sim::Simulation* sim = cluster_->simulation();
  // One span per service-to-service hop; the nested rpc.call (and any DM
  // traffic the handler triggers downstream) becomes its children. The
  // trace is minted here when the caller has none -- unconditionally, so
  // traced and untraced runs consume identical trace-id sequences.
  const obs::TraceContext parent = obs::EnsureTraceContext(sim->tracer());
  uint64_t span = 0;
  if (sim->tracer().enabled()) {
    span = sim->tracer().BeginSpan(
        parent, "msvc", "msvc.call", sim->Now(), node_,
        "{\"target\":\"" + target +
            "\",\"bytes\":" + std::to_string(request.size()) + "}");
  }
  obs::SetCurrentTraceContext(obs::TraceContext{
      parent.trace_id, span != 0 ? span : parent.span_id, parent.flags});
  auto it = sessions_.find(target);
  if (it == sessions_.end()) {
    ServiceEndpoint* ep = cluster_->service(target);
    if (ep == nullptr) {
      if (span != 0) sim->tracer().EndSpan(span, sim->Now());
      co_return Status::NotFound("unknown service: " + target);
    }
    auto session = co_await rpc_->Connect(ep->node(), ep->port());
    if (!session.ok()) {
      if (span != 0) sim->tracer().EndSpan(span, sim->Now());
      co_return session.status();
    }
    it = sessions_.emplace(target, *session).first;
    m_sessions_opened_->Inc();
  }
  m_service_calls_->Inc();
  auto resp = co_await rpc_->Call(it->second, req_type, std::move(request));
  if (span != 0) sim->tracer().EndSpan(span, sim->Now());
  co_return resp;
}

sim::Task<Status> ServiceEndpoint::Init() {
  switch (cluster_->config().backend) {
    case Backend::kErpc:
      co_return Status::OK();
    case Backend::kDmNet:
      co_return co_await static_cast<dmnet::DmNetClient*>(dm_.get())->Init();
    case Backend::kDmCxl:
      co_return co_await static_cast<cxl::HostDmLayer*>(dm_.get())->Init();
  }
  co_return Status::Internal("bad backend");
}

// ---------------------------------------------------------------------------
// Cluster
// ---------------------------------------------------------------------------

Cluster::Cluster(sim::Simulation* sim, ClusterConfig cfg)
    : sim_(sim), cfg_(std::move(cfg)) {
  DMRPC_CHECK_GT(cfg_.num_nodes, 0u);
  cfg_.topology.num_hosts = cfg_.num_nodes;
  fabric_ = std::make_unique<net::Fabric>(sim_, cfg_.network, cfg_.topology);
  node_meters_.resize(cfg_.num_nodes);

  if (cfg_.backend == Backend::kDmNet) {
    if (cfg_.dm_server_nodes.empty()) {
      // Paper default: two DM servers on the last two hosts.
      DMRPC_CHECK_GE(cfg_.num_nodes, 3u);
      cfg_.dm_server_nodes = {cfg_.num_nodes - 2, cfg_.num_nodes - 1};
    }
    dmnet::DmServerConfig scfg = cfg_.dm_server;
    scfg.page_size = cfg_.page_size;
    scfg.num_frames = cfg_.dm_frames;
    scfg.memory = cfg_.memory;
    for (size_t i = 0; i < cfg_.dm_server_nodes.size(); ++i) {
      uint64_t base = (static_cast<uint64_t>(i) + 1) << 44;
      auto server = std::make_unique<dmnet::DmServer>(
          fabric_.get(), cfg_.dm_server_nodes[i], dmnet::kDmServerPort, scfg,
          base);
      server->rpc()->set_memory_meter(node_meter(cfg_.dm_server_nodes[i]));
      dm_servers_.push_back(std::move(server));
      dm_addrs_.push_back(dmnet::DmServerAddr{cfg_.dm_server_nodes[i],
                                              dmnet::kDmServerPort, base,
                                              uint64_t{1} << 44});
    }
  }

  if (cfg_.backend == Backend::kDmCxl) {
    if (cfg_.coordinator_node == net::kInvalidNode) {
      cfg_.coordinator_node = cfg_.num_nodes - 1;
    }
    gfam_ = std::make_unique<cxl::GfamDevice>(cfg_.dm_frames, cfg_.page_size);
    gfam_->pool().AttachMetrics(&sim_->metrics(), "cxl.gfam");
    coordinator_ = std::make_unique<cxl::Coordinator>(
        fabric_.get(), cfg_.coordinator_node, gfam_.get());
    cxl_ports_.resize(cfg_.num_nodes);
    for (uint32_t n = 0; n < cfg_.num_nodes; ++n) {
      cxl_ports_[n] = std::make_unique<cxl::CxlPort>(
          sim_, gfam_.get(), cfg_.memory, node_meter(n));
    }
  }
}

Cluster::~Cluster() = default;

ServiceEndpoint* Cluster::AddService(const std::string& name,
                                     net::NodeId node, net::Port port,
                                     int worker_threads) {
  DMRPC_CHECK_LT(node, cfg_.num_nodes);
  DMRPC_CHECK(by_name_.find(name) == by_name_.end())
      << "duplicate service name " << name;
  auto ep = std::make_unique<ServiceEndpoint>(this, name, node, port,
                                              worker_threads);
  ServiceEndpoint* ptr = ep.get();
  services_.push_back(std::move(ep));
  by_name_.emplace(name, ptr);
  return ptr;
}

ServiceEndpoint* Cluster::service(const std::string& name) {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : it->second;
}

sim::Task<Status> Cluster::InitAll() {
  for (auto& svc : services_) {
    Status st = co_await svc->Init();
    if (!st.ok()) {
      co_return Status(st.code(),
                       "init of " + svc->name() + ": " + st.message());
    }
  }
  co_return Status::OK();
}

}  // namespace dmrpc::msvc
