#include "apps/socialnet.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <utility>

#include "apps/bytes.h"
#include "common/logging.h"
#include "obs/trace.h"
#include "sim/sync.h"

namespace dmrpc::apps {

using core::Payload;
using msvc::ServiceEndpoint;
using rpc::MsgBuffer;
using rpc::ReqContext;

namespace {
constexpr uint32_t kTimelineCap = 100;

MsgBuffer ErrorResp() {
  MsgBuffer resp;
  resp.Append<uint8_t>(1);
  return resp;
}

/// Installs a pure data-mover handler: forward the opaque request bytes
/// to `next`/`next_type` and relay the response.
void InstallMover(ServiceEndpoint* ep, rpc::ReqType my_type,
                  std::string next, rpc::ReqType next_type, TimeNs cpu_ns) {
  ep->RegisterHandler(
      my_type,
      [ep, next = std::move(next), next_type, cpu_ns](
          ReqContext ctx, MsgBuffer req) -> sim::Task<MsgBuffer> {
        co_await ep->Compute(cpu_ns);
        co_await ep->ForwardCost(req.size());
        auto resp = co_await ep->CallService(next, next_type, std::move(req));
        if (!resp.ok()) co_return ErrorResp();
        co_await ep->ForwardCost(resp->size());
        co_return std::move(*resp);
      });
}

/// Rng stream for one app instance. The historical "sn-" cell keeps the
/// historical stream (7) so pre-prefix experiments stay bit-identical;
/// every other prefix gets its own FNV-derived stream, so co-deployed
/// cells draw distinct (but per-seed deterministic) workload mixes.
uint64_t PrefixStream(const std::string& prefix) {
  if (prefix == "sn-") return 7;
  uint64_t h = 14695981039346656037ull;
  for (char c : prefix) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}
}  // namespace

SocialNetApp::SocialNetApp(msvc::Cluster* cluster,
                           const std::vector<net::NodeId>& nodes,
                           SocialNetConfig cfg)
    : cluster_(cluster),
      cfg_(std::move(cfg)),
      rng_(0x50c1a1, PrefixStream(cfg_.service_prefix)) {
  DMRPC_CHECK_GE(nodes.size(), 1u);
  auto node_of = [&](size_t i) { return nodes[i % nodes.size()]; };

  // Front tier (data movers) on the first server.
  ServiceEndpoint* lb = cluster->AddService(Svc("lb"), node_of(0), 9300, 1);
  ServiceEndpoint* proxy =
      cluster->AddService(Svc("proxy"), node_of(0), 9301, 1);
  // Logic tier on the second server.
  ServiceEndpoint* php = cluster->AddService(Svc("php"), node_of(1), 9302, 2);
  ServiceEndpoint* compose =
      cluster->AddService(Svc("compose"), node_of(1), 9303, 2);
  ServiceEndpoint* router =
      cluster->AddService(Svc("router"), node_of(1), 9304, 1);
  cluster->AddService(Svc("uniqueid"), node_of(1), 9305, 1);
  cluster->AddService(Svc("socialgraph"), node_of(1), 9306, 1);
  // Storage tier on the third server.
  cluster->AddService(Svc("hometl"), node_of(2), 9307, 2);
  cluster->AddService(Svc("usertl"), node_of(2), 9308, 2);
  post_storage_ = cluster->AddService(Svc("poststore"), node_of(2), 9309, 2);

  // Static social graph: each user follows `followers_per_user` others.
  for (uint32_t u = 0; u < cfg_.num_users; ++u) {
    std::vector<uint32_t>& fol = followers_[u];
    for (uint32_t k = 0; k < cfg_.followers_per_user; ++k) {
      fol.push_back(rng_.Uniform(cfg_.num_users));
    }
  }

  InstallMovers();
  InstallCompose(compose);
  InstallTimelines();
  InstallPostStorage(post_storage_);
  InstallMetadataServices();
  (void)lb;
  (void)proxy;
  (void)php;
  (void)router;
}

void SocialNetApp::InstallMovers() {
  InstallMover(cluster_->service(Svc("lb")), kLb, Svc("proxy"), kProxy, 120);
  InstallMover(cluster_->service(Svc("proxy")), kProxy, Svc("php"), kPhp, 150);
  InstallMover(cluster_->service(Svc("router")), kRouter, Svc("usertl"),
               kUserTimeline, 120);

  // php-fpm parses only the request kind and dispatches.
  ServiceEndpoint* php = cluster_->service(Svc("php"));
  php->RegisterHandler(
      kPhp,
      [this, php](ReqContext ctx, MsgBuffer req) -> sim::Task<MsgBuffer> {
        ReqKind kind = static_cast<ReqKind>(req.Read<uint8_t>());
        req.SeekTo(0);
        co_await php->Compute(400);  // request parsing / routing
        co_await php->ForwardCost(req.size());
        StatusOr<MsgBuffer> resp = Status::Internal("unrouted");
        switch (kind) {
          case ReqKind::kComposePost:
            resp = co_await php->CallService(Svc("compose"), kCompose,
                                             std::move(req));
            break;
          case ReqKind::kReadHome:
            resp = co_await php->CallService(Svc("hometl"), kHomeTimeline,
                                             std::move(req));
            break;
          case ReqKind::kReadUser:
            resp = co_await php->CallService(Svc("router"), kRouter,
                                             std::move(req));
            break;
        }
        if (!resp.ok()) co_return ErrorResp();
        co_await php->ForwardCost(resp->size());
        co_return std::move(*resp);
      });
}

void SocialNetApp::InstallMetadataServices() {
  ServiceEndpoint* uid = cluster_->service(Svc("uniqueid"));
  uid->RegisterHandler(
      kUniqueId,
      [this, uid](ReqContext ctx, MsgBuffer req) -> sim::Task<MsgBuffer> {
        co_await uid->Compute(150);
        MsgBuffer resp;
        resp.Append<uint8_t>(0);
        resp.Append<uint64_t>(next_post_id_++);
        co_return resp;
      });

  ServiceEndpoint* graph = cluster_->service(Svc("socialgraph"));
  graph->RegisterHandler(
      kSocialGraph,
      [this, graph](ReqContext ctx, MsgBuffer req) -> sim::Task<MsgBuffer> {
        uint32_t user = req.Read<uint32_t>();
        co_await graph->Compute(300);
        MsgBuffer resp;
        resp.Append<uint8_t>(0);
        const std::vector<uint32_t>& fol = followers_[user];
        resp.Append<uint32_t>(static_cast<uint32_t>(fol.size()));
        for (uint32_t f : fol) resp.Append<uint32_t>(f);
        co_return resp;
      });
}

void SocialNetApp::InstallCompose(ServiceEndpoint* ep) {
  ep->RegisterHandler(
      kCompose,
      [this, ep](ReqContext ctx, MsgBuffer req) -> sim::Task<MsgBuffer> {
        req.Read<uint8_t>();  // kind
        uint32_t user = req.Read<uint32_t>();
        Payload media = Payload::DecodeFrom(&req);
        co_await ep->Compute(800);  // text processing, validation

        // Post id from the unique-id service.
        MsgBuffer uid_req;
        auto uid_resp =
            co_await ep->CallService(Svc("uniqueid"), kUniqueId,
                                     std::move(uid_req));
        if (!uid_resp.ok() || uid_resp->Read<uint8_t>() != 0) {
          co_return ErrorResp();
        }
        uint64_t post_id = uid_resp->Read<uint64_t>();

        // Followers from the social graph.
        MsgBuffer g_req;
        g_req.Append<uint32_t>(user);
        auto g_resp = co_await ep->CallService(Svc("socialgraph"), kSocialGraph,
                                               std::move(g_req));
        if (!g_resp.ok() || g_resp->Read<uint8_t>() != 0) {
          co_return ErrorResp();
        }
        uint32_t n_fol = g_resp->Read<uint32_t>();
        std::vector<uint32_t> followers(n_fol);
        for (uint32_t i = 0; i < n_fol; ++i) {
          followers[i] = g_resp->Read<uint32_t>();
        }

        // Store the post (the media payload moves as Ref under DmRPC).
        MsgBuffer store_req;
        store_req.Append<uint64_t>(post_id);
        store_req.Append<uint32_t>(user);
        media.EncodeTo(&store_req);
        auto s_resp = co_await ep->CallService(Svc("poststore"), kStorePost,
                                               std::move(store_req));
        if (!s_resp.ok() || s_resp->Read<uint8_t>() != 0) {
          co_return ErrorResp();
        }

        // Fan out timeline index updates (small messages).
        struct Fan {
          sim::WaitGroup wg;
          int failures = 0;
        };
        auto fan = std::make_shared<Fan>();
        auto update = [ep, fan](std::string svc, uint32_t who,
                                uint64_t pid) -> sim::Task<> {
          MsgBuffer u;
          u.Append<uint32_t>(who);
          u.Append<uint64_t>(pid);
          auto r = co_await ep->CallService(svc, kUpdateTimeline,
                                            std::move(u));
          if (!r.ok() || r->Read<uint8_t>() != 0) fan->failures++;
          fan->wg.Done();
        };
        fan->wg.Add(1 + static_cast<int>(followers.size()));
        cluster_->simulation()->Spawn(update(Svc("usertl"), user, post_id));
        for (uint32_t f : followers) {
          cluster_->simulation()->Spawn(update(Svc("hometl"), f, post_id));
        }
        co_await fan->wg.Wait();
        if (fan->failures > 0) co_return ErrorResp();

        MsgBuffer resp;
        resp.Append<uint8_t>(0);
        resp.Append<uint64_t>(post_id);
        co_return resp;
      });
}

void SocialNetApp::InstallTimelines() {
  // Both timeline services share this handler shape: on read, look up the
  // caller's post ids and fetch the posts from storage.
  auto install_read = [this](const std::string& svc, rpc::ReqType type,
                             std::map<uint32_t, std::vector<uint64_t>>* tl) {
    ServiceEndpoint* ep = cluster_->service(svc);
    ep->RegisterHandler(
        type,
        [this, ep, tl](ReqContext ctx, MsgBuffer req) -> sim::Task<MsgBuffer> {
          req.Read<uint8_t>();  // kind
          uint32_t user = req.Read<uint32_t>();
          co_await ep->Compute(500);  // timeline lookup
          std::vector<uint64_t>& ids = (*tl)[user];
          uint32_t take = std::min<uint32_t>(cfg_.timeline_posts,
                                             static_cast<uint32_t>(ids.size()));
          MsgBuffer fetch;
          fetch.Append<uint32_t>(take);
          for (uint32_t i = 0; i < take; ++i) {
            fetch.Append<uint64_t>(ids[ids.size() - take + i]);
          }
          auto resp = co_await ep->CallService(Svc("poststore"), kGetPosts,
                                               std::move(fetch));
          if (!resp.ok()) co_return ErrorResp();
          co_await ep->ForwardCost(resp->size());
          co_return std::move(*resp);
        });
    ep->RegisterHandler(
        kUpdateTimeline,
        [this, ep, tl](ReqContext ctx, MsgBuffer req) -> sim::Task<MsgBuffer> {
          uint32_t who = req.Read<uint32_t>();
          uint64_t post_id = req.Read<uint64_t>();
          co_await ep->Compute(200);
          std::vector<uint64_t>& ids = (*tl)[who];
          ids.push_back(post_id);
          if (ids.size() > kTimelineCap) {
            ids.erase(ids.begin(), ids.begin() + (ids.size() - kTimelineCap));
          }
          MsgBuffer resp;
          resp.Append<uint8_t>(0);
          co_return resp;
        });
  };
  install_read(Svc("hometl"), kHomeTimeline, &home_timeline_);
  install_read(Svc("usertl"), kUserTimeline, &user_timeline_);
}

void SocialNetApp::InstallPostStorage(ServiceEndpoint* ep) {
  ep->RegisterHandler(
      kStorePost,
      [this, ep](ReqContext ctx, MsgBuffer req) -> sim::Task<MsgBuffer> {
        StoredPost post;
        post.post_id = req.Read<uint64_t>();
        post.author = req.Read<uint32_t>();
        post.media = Payload::DecodeFrom(&req);
        co_await ep->Compute(600);  // index + store insert
        // Under eRPC the media bytes were already copied here with the
        // message; under DmRPC storage keeps only the Ref alive.
        uint64_t id = post.post_id;
        posts_.emplace(id, std::move(post));
        post_order_.push_back(id);
        posts_stored_++;
        while (post_order_.size() > cfg_.max_stored_posts) {
          uint64_t victim = post_order_.front();
          post_order_.pop_front();
          auto it = posts_.find(victim);
          if (it != posts_.end()) {
            (void)co_await ep->dmrpc()->Release(it->second.media);
            posts_.erase(it);
            posts_evicted_++;
          }
        }
        MsgBuffer resp;
        resp.Append<uint8_t>(0);
        co_return resp;
      });

  ep->RegisterHandler(
      kGetPosts,
      [this, ep](ReqContext ctx, MsgBuffer req) -> sim::Task<MsgBuffer> {
        uint32_t n = req.Read<uint32_t>();
        std::vector<uint64_t> ids(n);
        for (uint32_t i = 0; i < n; ++i) ids[i] = req.Read<uint64_t>();
        co_await ep->Compute(300 + 200 * n);  // store lookups
        MsgBuffer resp;
        resp.Append<uint8_t>(0);
        uint32_t found = 0;
        size_t count_pos = resp.size();
        resp.Append<uint32_t>(0);  // patched below
        for (uint64_t id : ids) {
          auto it = posts_.find(id);
          if (it == posts_.end()) continue;  // evicted
          resp.Append<uint64_t>(id);
          it->second.media.EncodeTo(&resp);
          found++;
        }
        resp.OverwriteAt(count_pos, &found, sizeof(found));
        co_return resp;
      });
}

sim::Task<StatusOr<uint64_t>> SocialNetApp::DoMixedRequest(
    ServiceEndpoint* client) {
  double roll = rng_.NextDouble();
  ReqKind kind;
  if (roll < cfg_.read_home_fraction) {
    kind = ReqKind::kReadHome;
  } else if (roll < cfg_.read_home_fraction + cfg_.read_user_fraction) {
    kind = ReqKind::kReadUser;
  } else {
    kind = ReqKind::kComposePost;
  }
  // Composing is spread across users; reads skew towards popular users.
  uint32_t user =
      kind == ReqKind::kComposePost
          ? rng_.Uniform(cfg_.num_users)
          : static_cast<uint32_t>(
                rng_.Zipf(cfg_.num_users, cfg_.read_zipf_skew));
  co_return co_await DoRequest(client, kind, user);
}

sim::Task<StatusOr<uint64_t>> SocialNetApp::DoRequest(
    ServiceEndpoint* client, ReqKind kind, uint32_t user) {
  sim::Simulation* sim = cluster_->simulation();
  // Root of the request's trace (see NestedChainApp::DoRequest); the
  // kind arg lets the analyzer break latency down per request class.
  const obs::TraceContext root = obs::EnsureTraceContext(sim->tracer());
  uint64_t span = 0;
  if (sim->tracer().enabled()) {
    span = sim->tracer().BeginSpan(
        root, "app", "app.request", sim->Now(), client->node(),
        "{\"app\":\"socialnet\",\"kind\":" +
            std::to_string(static_cast<int>(kind)) + "}");
  }
  obs::SetCurrentTraceContext(obs::TraceContext{
      root.trace_id, span != 0 ? span : root.span_id, root.flags});
  auto result = co_await DoRequestInner(client, kind, user);
  if (span != 0) sim->tracer().EndSpan(span, sim->Now());
  co_return result;
}

sim::Task<StatusOr<uint64_t>> SocialNetApp::DoRequestInner(
    ServiceEndpoint* client, ReqKind kind, uint32_t user) {
  MsgBuffer req;
  req.Append<uint8_t>(static_cast<uint8_t>(kind));
  req.Append<uint32_t>(user);
  if (kind == ReqKind::kComposePost) {
    std::vector<uint8_t> media(cfg_.media_bytes);
    FillPattern(media.data(), media.size(), user);
    auto payload = co_await client->dmrpc()->MakePayload(media);
    if (!payload.ok()) co_return payload.status();
    payload->EncodeTo(&req);
  }
  auto resp = co_await client->CallService(Svc("lb"), kLb, std::move(req));
  if (!resp.ok()) co_return resp.status();
  if (resp->Read<uint8_t>() != 0) {
    co_return Status::Internal("socialnet request failed");
  }
  if (kind == ReqKind::kComposePost) {
    resp->Read<uint64_t>();  // post id
    co_return static_cast<uint64_t>(cfg_.media_bytes);
  }
  // Timeline read: materialize every returned post's media.
  uint32_t n = resp->Read<uint32_t>();
  uint64_t bytes = 0;
  for (uint32_t i = 0; i < n; ++i) {
    resp->Read<uint64_t>();  // post id
    Payload media = Payload::DecodeFrom(&*resp);
    auto data = co_await client->dmrpc()->FetchBuf(media);
    if (!data.ok()) co_return data.status();
    if (data->size() != cfg_.media_bytes) {
      co_return Status::Internal("post media truncated");
    }
    bytes += data->size();
  }
  co_return bytes;
}

msvc::RequestFn SocialNetApp::MakeMixedRequestFn(ServiceEndpoint* client) {
  return [this, client]() -> sim::Task<StatusOr<uint64_t>> {
    return DoMixedRequest(client);
  };
}

}  // namespace dmrpc::apps
