#include "fault/fault.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace dmrpc::fault {

// ---------------------------------------------------------------------------
// FaultPlan
// ---------------------------------------------------------------------------

FaultPlan& FaultPlan::Fault(FaultKind kind, net::NodeId node,
                            net::LinkDir dir, TimeNs start_ns, TimeNs end_ns,
                            double probability, TimeNs reorder_delay_ns) {
  DMRPC_CHECK_LT(start_ns, end_ns) << "empty fault window";
  PacketFault f;
  f.kind = kind;
  f.node = node;
  f.dir = dir;
  f.start_ns = start_ns;
  f.end_ns = end_ns;
  f.probability = probability;
  f.reorder_delay_ns = reorder_delay_ns;
  packet_faults.push_back(f);
  return *this;
}

FaultPlan& FaultPlan::DropWindow(net::NodeId node, net::LinkDir dir,
                                 TimeNs start_ns, TimeNs end_ns,
                                 double probability) {
  return Fault(FaultKind::kDrop, node, dir, start_ns, end_ns, probability);
}

FaultPlan& FaultPlan::CorruptWindow(net::NodeId node, net::LinkDir dir,
                                    TimeNs start_ns, TimeNs end_ns,
                                    double probability) {
  return Fault(FaultKind::kCorrupt, node, dir, start_ns, end_ns, probability);
}

FaultPlan& FaultPlan::DuplicateWindow(net::NodeId node, net::LinkDir dir,
                                      TimeNs start_ns, TimeNs end_ns,
                                      double probability) {
  return Fault(FaultKind::kDuplicate, node, dir, start_ns, end_ns,
               probability);
}

FaultPlan& FaultPlan::ReorderWindow(net::NodeId node, net::LinkDir dir,
                                    TimeNs start_ns, TimeNs end_ns,
                                    TimeNs delay_ns, double probability) {
  DMRPC_CHECK_GT(delay_ns, 0) << "reorder needs a positive delay";
  return Fault(FaultKind::kReorder, node, dir, start_ns, end_ns, probability,
               delay_ns);
}

FaultPlan& FaultPlan::LinkOutage(net::NodeId node, net::LinkDir dir,
                                 TimeNs start_ns, TimeNs end_ns) {
  DMRPC_CHECK_LT(start_ns, end_ns) << "empty outage window";
  link_downs.push_back(LinkDown{node, dir, start_ns, end_ns});
  return *this;
}

FaultPlan& FaultPlan::NicDown(net::NodeId node, TimeNs start_ns,
                              TimeNs end_ns) {
  LinkOutage(node, net::LinkDir::kUplink, start_ns, end_ns);
  LinkOutage(node, net::LinkDir::kDownlink, start_ns, end_ns);
  return *this;
}

FaultPlan& FaultPlan::SwitchOutage(net::SwitchId switch_id, TimeNs start_ns,
                                   TimeNs end_ns) {
  DMRPC_CHECK_LT(start_ns, end_ns) << "empty switch-outage window";
  switch_downs.push_back(SwitchDown{switch_id, start_ns, end_ns});
  return *this;
}

FaultPlan& FaultPlan::Crash(net::NodeId node, TimeNs crash_ns,
                            TimeNs restart_ns) {
  DMRPC_CHECK_LT(crash_ns, restart_ns) << "empty crash window";
  crashes.push_back(NodeCrash{node, crash_ns, restart_ns});
  return *this;
}

FaultPlan& FaultPlan::ShiftBy(TimeNs delta_ns) {
  for (PacketFault& f : packet_faults) {
    f.start_ns += delta_ns;
    f.end_ns += delta_ns;
  }
  for (LinkDown& d : link_downs) {
    d.start_ns += delta_ns;
    d.end_ns += delta_ns;
  }
  for (SwitchDown& s : switch_downs) {
    s.start_ns += delta_ns;
    s.end_ns += delta_ns;
  }
  for (NodeCrash& c : crashes) {
    c.crash_ns += delta_ns;
    c.restart_ns += delta_ns;
  }
  return *this;
}

TimeNs FaultPlan::EndTime() const {
  TimeNs end = 0;
  for (const PacketFault& f : packet_faults) end = std::max(end, f.end_ns);
  for (const LinkDown& d : link_downs) end = std::max(end, d.end_ns);
  for (const SwitchDown& s : switch_downs) end = std::max(end, s.end_ns);
  for (const NodeCrash& c : crashes) end = std::max(end, c.restart_ns);
  return end;
}

FaultPlan FaultPlan::Randomized(uint64_t seed, const ChaosProfile& profile) {
  FaultPlan plan;
  Rng rng(seed);
  auto window = [&rng, &profile](TimeNs min_len, TimeNs max_len) {
    TimeNs len = rng.UniformRange(min_len, max_len);
    TimeNs latest_start = std::max<TimeNs>(1, profile.horizon_ns - len);
    TimeNs start = rng.UniformRange(0, latest_start - 1);
    return std::pair<TimeNs, TimeNs>(start, start + len);
  };

  if (!profile.packet_fault_nodes.empty()) {
    int n_faults =
        static_cast<int>(rng.Uniform(profile.max_packet_faults + 1));
    for (int i = 0; i < n_faults; ++i) {
      auto [start, end] = window(profile.min_burst_ns, profile.max_burst_ns);
      net::NodeId node = profile.packet_fault_nodes[rng.Uniform(
          static_cast<uint32_t>(profile.packet_fault_nodes.size()))];
      net::LinkDir dir = rng.Bernoulli(0.5) ? net::LinkDir::kUplink
                                            : net::LinkDir::kDownlink;
      FaultKind kind = static_cast<FaultKind>(rng.Uniform(4));
      double p = profile.min_probability +
                 rng.NextDouble() *
                     (profile.max_probability - profile.min_probability);
      TimeNs delay = kind == FaultKind::kReorder
                         ? rng.UniformRange(1, profile.max_reorder_delay_ns)
                         : 0;
      plan.Fault(kind, node, dir, start, end, p, delay);
    }
    int n_downs = static_cast<int>(rng.Uniform(profile.max_link_downs + 1));
    for (int i = 0; i < n_downs; ++i) {
      auto [start, end] =
          window(profile.min_outage_ns, profile.max_outage_ns);
      net::NodeId node = profile.packet_fault_nodes[rng.Uniform(
          static_cast<uint32_t>(profile.packet_fault_nodes.size()))];
      net::LinkDir dir = rng.Bernoulli(0.5) ? net::LinkDir::kUplink
                                            : net::LinkDir::kDownlink;
      plan.LinkOutage(node, dir, start, end);
    }
  }
  if (!profile.crash_nodes.empty()) {
    int n_crashes = static_cast<int>(rng.Uniform(profile.max_crashes + 1));
    for (int i = 0; i < n_crashes; ++i) {
      auto [start, end] =
          window(profile.min_outage_ns, profile.max_outage_ns);
      net::NodeId node = profile.crash_nodes[rng.Uniform(
          static_cast<uint32_t>(profile.crash_nodes.size()))];
      // The injector models one incarnation at a time: overlapping crash
      // windows on the same node are meaningless, so drop the draw (the
      // rng sequence stays seed-stable either way).
      bool overlaps = false;
      for (const NodeCrash& c : plan.crashes) {
        if (c.node == node && start < c.restart_ns && c.crash_ns < end) {
          overlaps = true;
          break;
        }
      }
      if (!overlaps) plan.Crash(node, start, end);
    }
  }
  return plan;
}

// ---------------------------------------------------------------------------
// FaultInjector
// ---------------------------------------------------------------------------

FaultInjector::FaultInjector(net::Fabric* fabric)
    : sim_(fabric->simulation()), fabric_(fabric) {
  links_.resize(fabric_->num_nodes());
  node_down_.assign(fabric_->num_nodes(), false);
  obs::MetricsRegistry& m = sim_->metrics();
  m_dropped_ = m.GetCounter("fault.packets_dropped");
  m_corrupted_ = m.GetCounter("fault.packets_corrupted");
  m_duplicated_ = m.GetCounter("fault.packets_duplicated");
  m_reordered_ = m.GetCounter("fault.packets_reordered");
  m_crashes_ = m.GetCounter("fault.node_crashes");
  m_restarts_ = m.GetCounter("fault.node_restarts");
  DMRPC_CHECK(fabric_->fault_hook() == nullptr)
      << "fabric already has a fault hook";
  fabric_->set_fault_hook(this);
}

FaultInjector::~FaultInjector() {
  if (fabric_->fault_hook() == this) fabric_->set_fault_hook(nullptr);
}

FaultInjector::LinkState& FaultInjector::link(net::NodeId node,
                                              net::LinkDir dir) {
  DMRPC_CHECK_LT(node, links_.size());
  return links_[node][static_cast<size_t>(dir)];
}

void FaultInjector::Schedule(const FaultPlan& plan) {
  const TimeNs now = sim_->Now();
  for (const PacketFault& f : plan.packet_faults) {
    DMRPC_CHECK_GE(f.start_ns, now) << "fault window starts in the past";
    DMRPC_CHECK_LT(f.node, links_.size());
    rules_.push_back(std::make_unique<PacketFault>(f));
    PacketFault* rule = rules_.back().get();
    sim_->At(rule->start_ns, [this, rule] { active_.push_back(rule); });
    sim_->At(rule->end_ns, [this, rule] {
      active_.erase(std::remove(active_.begin(), active_.end(), rule),
                    active_.end());
    });
  }
  for (const LinkDown& d : plan.link_downs) {
    DMRPC_CHECK_GE(d.start_ns, now) << "outage window starts in the past";
    DMRPC_CHECK_LT(d.node, links_.size());
    sim_->At(d.start_ns,
             [this, d] { SetLinkDown(d.node, d.dir, /*down=*/true); });
    sim_->At(d.end_ns,
             [this, d] { SetLinkDown(d.node, d.dir, /*down=*/false); });
  }
  for (const SwitchDown& s : plan.switch_downs) {
    DMRPC_CHECK_GE(s.start_ns, now) << "switch outage starts in the past";
    DMRPC_CHECK_LT(s.switch_id, fabric_->num_switches());
    sim_->At(s.start_ns, [this, id = s.switch_id] {
      SetSwitchDown(id, /*down=*/true);
    });
    sim_->At(s.end_ns, [this, id = s.switch_id] {
      SetSwitchDown(id, /*down=*/false);
    });
  }
  for (const NodeCrash& c : plan.crashes) {
    DMRPC_CHECK_GE(c.crash_ns, now) << "crash scheduled in the past";
    DMRPC_CHECK_LT(c.node, links_.size());
    sim_->At(c.crash_ns, [this, n = c.node] { OnCrash(n); });
    sim_->At(c.restart_ns, [this, n = c.node] { OnRestart(n); });
  }
}

void FaultInjector::AddNodeListener(NodeListener listener) {
  listeners_.push_back(std::move(listener));
}

void FaultInjector::SetLinkDown(net::NodeId node, net::LinkDir dir,
                                bool down) {
  LinkState& st = link(node, dir);
  if (down) {
    st.down_depth++;
  } else {
    DMRPC_CHECK_GT(st.down_depth, 0) << "link up without matching down";
    st.down_depth--;
  }
}

void FaultInjector::SetSwitchDown(net::SwitchId switch_id, bool down) {
  if (switch_down_depth_.size() < fabric_->num_switches()) {
    switch_down_depth_.resize(fabric_->num_switches(), 0);
  }
  int& depth = switch_down_depth_[switch_id];
  if (down) {
    depth++;
    if (depth == 1) {
      fabric_->SetSwitchUp(switch_id, false);
      stats_.switch_outages++;
      if (m_switch_outages_ == nullptr) {
        m_switch_outages_ = sim_->metrics().GetCounter("fault.switch_outages");
      }
      m_switch_outages_->Inc();
      if (sim_->tracer().enabled()) {
        sim_->tracer().Instant("fault", "fault.switch_down", sim_->Now(),
                               switch_id, "{}");
      }
    }
  } else {
    DMRPC_CHECK_GT(depth, 0) << "switch up without matching down";
    depth--;
    if (depth == 0) {
      fabric_->SetSwitchUp(switch_id, true);
      if (sim_->tracer().enabled()) {
        sim_->tracer().Instant("fault", "fault.switch_up", sim_->Now(),
                               switch_id, "{}");
      }
    }
  }
}

void FaultInjector::OnCrash(net::NodeId node) {
  // Overlapping crash windows on one node would need reference-counted
  // state loss; plans must not produce them.
  DMRPC_CHECK(!node_down_[node]) << "node " << node << " crashed twice";
  node_down_[node] = true;
  SetLinkDown(node, net::LinkDir::kUplink, /*down=*/true);
  SetLinkDown(node, net::LinkDir::kDownlink, /*down=*/true);
  stats_.crashes++;
  m_crashes_->Inc();
  if (sim_->tracer().enabled()) {
    sim_->tracer().Instant("fault", "fault.crash", sim_->Now(), node, "{}");
  }
  for (const NodeListener& l : listeners_) l(node, NodeEvent::kCrash);
}

void FaultInjector::OnRestart(net::NodeId node) {
  DMRPC_CHECK(node_down_[node]) << "restart of a node that never crashed";
  node_down_[node] = false;
  SetLinkDown(node, net::LinkDir::kUplink, /*down=*/false);
  SetLinkDown(node, net::LinkDir::kDownlink, /*down=*/false);
  stats_.restarts++;
  m_restarts_->Inc();
  if (sim_->tracer().enabled()) {
    sim_->tracer().Instant("fault", "fault.restart", sim_->Now(), node, "{}");
  }
  for (const NodeListener& l : listeners_) l(node, NodeEvent::kRestart);
}

bool FaultInjector::IsNodeUp(net::NodeId node) const {
  DMRPC_CHECK_LT(node, node_down_.size());
  return !node_down_[node];
}

bool FaultInjector::IsLinkUp(net::NodeId node, net::LinkDir dir) const {
  DMRPC_CHECK_LT(node, links_.size());
  return links_[node][static_cast<size_t>(dir)].down_depth == 0;
}

net::FaultAction FaultInjector::OnPacket(net::NodeId node, net::LinkDir dir,
                                         net::Packet& pkt) {
  net::FaultAction action;
  for (const PacketFault* rule : active_) {
    if (rule->node != node || rule->dir != dir) continue;
    // probability == 1.0 takes no rng draw, so hand-built deterministic
    // plans leave the simulation's random stream untouched.
    if (rule->probability < 1.0 &&
        !sim_->rng().Bernoulli(rule->probability)) {
      continue;
    }
    switch (rule->kind) {
      case FaultKind::kDrop:
        action.drop = true;
        stats_.dropped++;
        m_dropped_->Inc();
        // Later rules cannot resurrect a dropped packet.
        return action;
      case FaultKind::kCorrupt:
        if (!pkt.fcs_bad) {
          pkt.fcs_bad = true;
          stats_.corrupted++;
          m_corrupted_->Inc();
        }
        break;
      case FaultKind::kDuplicate:
        if (!action.duplicate) {
          action.duplicate = true;
          stats_.duplicated++;
          m_duplicated_->Inc();
        }
        break;
      case FaultKind::kReorder:
        if (action.extra_delay_ns == 0) {
          stats_.reordered++;
          m_reordered_->Inc();
        }
        action.extra_delay_ns += rule->reorder_delay_ns;
        break;
    }
  }
  return action;
}

}  // namespace dmrpc::fault
