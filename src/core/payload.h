#ifndef DMRPC_CORE_PAYLOAD_H_
#define DMRPC_CORE_PAYLOAD_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "dm/ref.h"
#include "rpc/wire.h"

namespace dmrpc::core {

/// An RPC argument that is either inline bytes (pass-by-value) or a Ref
/// into disaggregated memory (pass-by-reference).
///
/// DmRPC's size-aware transfer (§IV-B) chooses the mode automatically:
/// callers build payloads with DmRpc::MakePayload and never see the two
/// modes; data movers forward payloads untouched; consumers materialize
/// them with DmRpc::Fetch or map them with DmRpc::Map.
class Payload {
 public:
  Payload() = default;

  static Payload MakeInline(const std::vector<uint8_t>& bytes) {
    Payload p;
    p.is_ref_ = false;
    p.data_ = rpc::MsgBuffer(bytes);
    return p;
  }

  /// Wraps an existing message chain without copying its bytes: the
  /// payload shares the chain's slices.
  static Payload MakeInline(rpc::MsgBuffer data) {
    Payload p;
    p.is_ref_ = false;
    p.data_ = std::move(data);
    return p;
  }

  static Payload MakeRef(dm::Ref ref) {
    Payload p;
    p.is_ref_ = true;
    p.ref_ = std::move(ref);
    return p;
  }

  bool is_ref() const { return is_ref_; }

  /// Logical size of the argument data.
  uint64_t size() const { return is_ref_ ? ref_.size : data_.size(); }

  /// Bytes this payload occupies on the wire when forwarded in an RPC --
  /// the quantity pass-by-reference shrinks.
  uint64_t WireBytes() const {
    return 1 + 8 + (is_ref_ ? ref_.WireBytes() : data_.size());
  }

  /// The inline data as a slice chain (no bytes move to access it).
  const rpc::MsgBuffer& inline_data() const { return data_; }
  const dm::Ref& ref() const { return ref_; }

  void EncodeTo(rpc::MsgBuffer* out) const {
    out->Append<uint8_t>(is_ref_ ? 1 : 0);
    if (is_ref_) {
      ref_.EncodeTo(out);
    } else {
      out->Append<uint64_t>(data_.size());
      // Slice fast path: the inline bytes join the outgoing chain by
      // reference; no serialization copy.
      out->AppendRangeOf(data_, 0, data_.size());
    }
  }

  static Payload DecodeFrom(rpc::MsgBuffer* in) {
    Payload p;
    p.is_ref_ = in->Read<uint8_t>() != 0;
    if (p.is_ref_) {
      p.ref_ = dm::Ref::DecodeFrom(in);
    } else {
      uint64_t n = in->Read<uint64_t>();
      // Slice fast path: split the inline bytes out of the incoming
      // chain by reference; no deserialization copy.
      p.data_ = in->ReadChain(n);
    }
    return p;
  }

 private:
  bool is_ref_ = false;
  rpc::MsgBuffer data_;
  dm::Ref ref_;
};

}  // namespace dmrpc::core

#endif  // DMRPC_CORE_PAYLOAD_H_
