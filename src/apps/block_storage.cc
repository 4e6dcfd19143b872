#include "apps/block_storage.h"

#include <utility>

#include "common/logging.h"

namespace dmrpc::apps {

using core::Payload;
using msvc::ServiceEndpoint;
using rpc::MsgBuffer;
using rpc::ReqContext;

namespace {
MsgBuffer ErrorResp(uint8_t code = 1) {
  MsgBuffer resp;
  resp.Append<uint8_t>(code);
  return resp;
}
}  // namespace

BlockStorageApp::BlockStorageApp(msvc::Cluster* cluster,
                                 const std::vector<net::NodeId>& nodes,
                                 BlockStorageConfig cfg)
    : cluster_(cluster), cfg_(cfg) {
  DMRPC_CHECK_GE(nodes.size(), 2u);
  DMRPC_CHECK_GE(cfg_.num_shards, 1);
  DMRPC_CHECK_GE(cfg_.replicas_per_shard, 0);
  auto node_of = [&](size_t i) { return nodes[i % nodes.size()]; };

  size_t slot = 0;
  ServiceEndpoint* gateway =
      cluster->AddService("bs-gateway", node_of(slot++), 9400, 2);
  InstallGateway(gateway);
  for (int shard = 0; shard < cfg_.num_shards; ++shard) {
    for (int pos = 0; pos <= cfg_.replicas_per_shard; ++pos) {
      ServiceEndpoint* ep = cluster->AddService(
          StoreName(shard, pos), node_of(slot++),
          static_cast<net::Port>(9410 + shard * 8 + pos), 2);
      node_state_[{shard, pos}] = NodeState{};
      InstallStorageNode(ep, shard, pos);
    }
  }
}

void BlockStorageApp::InstallGateway(ServiceEndpoint* ep) {
  // Writes enter the chain at the primary (position 0).
  ep->RegisterHandler(
      kGatewayWrite,
      [this, ep](ReqContext ctx, MsgBuffer req) -> sim::Task<MsgBuffer> {
        uint32_t volume = req.Read<uint32_t>();
        uint64_t lba = req.Read<uint64_t>();
        co_await ep->Compute(300);  // routing
        co_await ep->ForwardCost(req.size());
        int shard = ShardOf(volume, lba);
        MsgBuffer fwd;
        fwd.Append<uint32_t>(volume);
        fwd.Append<uint64_t>(lba);
        fwd.Append<uint64_t>(next_version_++);
        fwd.AppendRangeOf(req, req.read_pos(), req.size() - req.read_pos());
        auto resp = co_await ep->CallService(StoreName(shard, 0),
                                             kStoreWrite, std::move(fwd));
        if (!resp.ok()) co_return ErrorResp();
        co_return std::move(*resp);
      });

  // Reads are served by the chain tail (committed data only).
  ep->RegisterHandler(
      kGatewayRead,
      [this, ep](ReqContext ctx, MsgBuffer req) -> sim::Task<MsgBuffer> {
        uint32_t volume = req.Read<uint32_t>();
        uint64_t lba = req.Read<uint64_t>();
        co_await ep->Compute(300);
        int shard = ShardOf(volume, lba);
        MsgBuffer fwd;
        fwd.Append<uint32_t>(volume);
        fwd.Append<uint64_t>(lba);
        auto resp = co_await ep->CallService(
            StoreName(shard, cfg_.replicas_per_shard), kStoreRead,
            std::move(fwd));
        if (!resp.ok()) co_return ErrorResp();
        co_await ep->ForwardCost(resp->size());
        co_return std::move(*resp);
      });
}

void BlockStorageApp::InstallStorageNode(ServiceEndpoint* ep, int shard,
                                         int pos) {
  const bool is_tail = pos == cfg_.replicas_per_shard;

  ep->RegisterHandler(
      kStoreWrite,
      [this, ep, shard, pos, is_tail](
          ReqContext ctx, MsgBuffer req) -> sim::Task<MsgBuffer> {
        uint32_t volume = req.Read<uint32_t>();
        uint64_t lba = req.Read<uint64_t>();
        uint64_t version = req.Read<uint64_t>();
        Payload payload = Payload::DecodeFrom(&req);
        co_await ep->Compute(cfg_.io_path_ns);

        // Persist locally: hold a mapping (DmRPC) or a byte copy (eRPC).
        StoredBlock incoming;
        incoming.version = version;
        incoming.size = payload.size();
        if (payload.is_ref()) {
          auto region = co_await ep->dmrpc()->Map(payload);
          if (!region.ok()) co_return ErrorResp();
          incoming.region =
              std::make_shared<core::MappedRegion>(std::move(*region));
        } else {
          incoming.bytes = payload.inline_data();
          co_await ep->ComputeBytes(incoming.bytes.size(), 100.0);  // copy
        }

        NodeState& state = node_state_[{shard, pos}];
        auto key = std::make_pair(volume, lba);
        auto it = state.blocks.find(key);
        std::shared_ptr<core::MappedRegion> old_region;
        if (it == state.blocks.end()) {
          state.blocks.emplace(key, std::move(incoming));
          blocks_stored_++;
        } else if (it->second.version < version) {
          // Newer write wins; the old mapping is dropped below.
          old_region = std::move(it->second.region);
          it->second = std::move(incoming);
        } else if (incoming.region != nullptr) {
          // Stale write (reordered behind a newer one): drop our mapping.
          old_region = std::move(incoming.region);
        }
        // A read still minting a Ref over the old mapping closes it.
        if (old_region != nullptr && old_region.use_count() == 1) {
          (void)co_await old_region->Close();
        }

        if (!is_tail) {
          // Chain replication: hand the block (Ref or bytes) onward.
          MsgBuffer fwd;
          fwd.Append<uint32_t>(volume);
          fwd.Append<uint64_t>(lba);
          fwd.Append<uint64_t>(version);
          payload.EncodeTo(&fwd);
          co_await ep->ForwardCost(fwd.size());
          auto resp = co_await ep->CallService(StoreName(shard, pos + 1),
                                               kStoreWrite, std::move(fwd));
          if (!resp.ok() || resp->Read<uint8_t>() != 0) {
            co_return ErrorResp();
          }
        } else {
          // The tail is the payload's final consumer: drop the Ref share
          // (the chain's held mappings keep the pages alive).
          ep->Detach(ep->dmrpc()->Release(payload));
        }
        MsgBuffer resp;
        resp.Append<uint8_t>(0);
        co_return resp;
      });

  ep->RegisterHandler(
      kStoreRead,
      [this, ep, shard, pos](ReqContext ctx,
                             MsgBuffer req) -> sim::Task<MsgBuffer> {
        uint32_t volume = req.Read<uint32_t>();
        uint64_t lba = req.Read<uint64_t>();
        co_await ep->Compute(cfg_.io_path_ns);
        NodeState& state = node_state_[{shard, pos}];
        auto it = state.blocks.find({volume, lba});
        if (it == state.blocks.end()) {
          co_return ErrorResp(2);  // no such block
        }
        StoredBlock& block = it->second;
        MsgBuffer resp;
        resp.Append<uint8_t>(0);
        resp.Append<uint64_t>(block.version);
        if (block.region != nullptr) {
          // Mint a fresh Ref over the stored pages: the response is
          // pass-by-reference without copying the block. The pin keeps
          // the mapping alive while CreateRef is suspended.
          std::shared_ptr<core::MappedRegion> pin = block.region;
          auto ref = co_await ep->dmrpc()->dm()->CreateRef(pin->addr(),
                                                           block.size);
          if (pin.use_count() == 1) (void)co_await pin->Close();
          if (!ref.ok()) co_return ErrorResp();
          Payload::MakeRef(std::move(*ref)).EncodeTo(&resp);
        } else {
          co_await ep->ComputeBytes(block.bytes.size(), 100.0);
          Payload::MakeInline(block.bytes).EncodeTo(&resp);
        }
        co_return resp;
      });
}

sim::Task<StatusOr<uint64_t>> BlockStorageApp::WriteBlock(
    ServiceEndpoint* client, uint32_t volume, uint64_t lba,
    const std::vector<uint8_t>& data) {
  auto payload = co_await client->dmrpc()->MakePayload(data);
  if (!payload.ok()) co_return payload.status();
  MsgBuffer req;
  req.Append<uint32_t>(volume);
  req.Append<uint64_t>(lba);
  payload->EncodeTo(&req);
  auto resp = co_await client->CallService("bs-gateway", kGatewayWrite,
                                           std::move(req));
  if (!resp.ok()) co_return resp.status();
  if (resp->Read<uint8_t>() != 0) {
    co_return Status::Internal("write chain failed");
  }
  co_return static_cast<uint64_t>(data.size());
}

sim::Task<StatusOr<std::vector<uint8_t>>> BlockStorageApp::ReadBlock(
    ServiceEndpoint* client, uint32_t volume, uint64_t lba) {
  MsgBuffer req;
  req.Append<uint32_t>(volume);
  req.Append<uint64_t>(lba);
  auto resp = co_await client->CallService("bs-gateway", kGatewayRead,
                                           std::move(req));
  if (!resp.ok()) co_return resp.status();
  uint8_t code = resp->Read<uint8_t>();
  if (code == 2) co_return Status::NotFound("no such block");
  if (code != 0) co_return Status::Internal("read failed");
  resp->Read<uint64_t>();  // version
  Payload payload = Payload::DecodeFrom(&*resp);
  auto data = co_await client->dmrpc()->Fetch(payload);
  if (!data.ok()) co_return data.status();
  client->Detach(client->dmrpc()->Release(payload));
  co_return std::move(*data);
}

msvc::RequestFn BlockStorageApp::MakeWorkloadFn(ServiceEndpoint* client,
                                                uint32_t block_bytes,
                                                double write_fraction) {
  return [this, client, block_bytes,
          write_fraction]() -> sim::Task<StatusOr<uint64_t>> {
    constexpr uint32_t kHotBlocks = 64;
    uint32_t volume = 1;
    uint64_t lba = workload_rng_.Uniform(kHotBlocks);
    if (workload_rng_.NextDouble() < write_fraction) {
      std::vector<uint8_t> data(block_bytes,
                                static_cast<uint8_t>(workload_rng_.Next()));
      co_return co_await WriteBlock(client, volume, lba, data);
    }
    auto data = co_await ReadBlock(client, volume, lba);
    if (data.ok()) co_return static_cast<uint64_t>(data->size());
    if (data.status().IsNotFound()) co_return uint64_t{0};  // cold read
    co_return data.status();
  };
}

}  // namespace dmrpc::apps
