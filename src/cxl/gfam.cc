#include "cxl/gfam.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/logging.h"

namespace dmrpc::cxl {

std::deque<dm::FrameId> GfamDevice::TakeAllFree() {
  std::deque<dm::FrameId> out;
  while (pool_.free_frames() > 0) {
    auto f = pool_.PopFree();
    DMRPC_CHECK(f.ok());
    // Granting ownership is not mapping: the frame's count goes back to
    // zero until a host actually maps it (tracked with CXL atomics).
    pool_.DecRef(*f);
    out.push_back(*f);
  }
  return out;
}

sim::Task<> CxlPort::ChargeAccess(uint64_t read_bytes, uint64_t write_bytes) {
  uint64_t total = read_bytes + write_bytes;
  meter_->Charge(mem::MemKind::kCxl, total);
  stats_.bytes_read += read_bytes;
  stats_.bytes_written += write_bytes;
  co_await sim::Delay(memory_.AccessNs(mem::MemKind::kCxl, total));
}

sim::Task<> CxlPort::ReadFrame(dm::FrameId frame, uint32_t offset,
                               uint8_t* dst, uint32_t len) {
  DMRPC_CHECK_LE(offset + len, device_->page_size());
  stats_.loads++;
  std::memcpy(dst, std::as_const(device_->pool()).FrameData(frame) + offset,
              len);
  co_await ChargeAccess(len, 0);
}

sim::Task<> CxlPort::WriteFrame(dm::FrameId frame, uint32_t offset,
                                const uint8_t* src, uint32_t len) {
  DMRPC_CHECK_LE(offset + len, device_->page_size());
  stats_.stores++;
  std::memcpy(device_->pool().FrameData(frame) + offset, src, len);
  co_await ChargeAccess(0, len);
}

sim::Task<> CxlPort::CopyFrame(dm::FrameId src, dm::FrameId dst) {
  uint32_t page = device_->page_size();
  std::memcpy(device_->pool().FrameData(dst),
              std::as_const(device_->pool()).FrameData(src), page);
  stats_.loads++;
  stats_.stores++;
  co_await ChargeAccess(page, page);
}

sim::Task<> CxlPort::WriteFramesBulk(const std::vector<dm::FrameId>& frames,
                                     const uint8_t* src, uint64_t len) {
  uint32_t page = device_->page_size();
  DMRPC_CHECK_LE(len, frames.size() * static_cast<uint64_t>(page));
  uint64_t off = 0;
  for (dm::FrameId frame : frames) {
    stats_.stores++;
    uint32_t chunk = static_cast<uint32_t>(
        std::min<uint64_t>(page, len - off));
    std::memcpy(device_->pool().FrameData(frame), src + off, chunk);
    if (chunk < page) {
      std::memset(device_->pool().FrameData(frame) + chunk, 0, page - chunk);
    }
    off += chunk;
  }
  co_await ChargeAccess(0, len);
}

sim::Task<> CxlPort::ReadFramesBulk(const std::vector<dm::FrameId>& frames,
                                    uint8_t* dst, uint64_t len) {
  uint32_t page = device_->page_size();
  DMRPC_CHECK_LE(len, frames.size() * static_cast<uint64_t>(page));
  uint64_t off = 0;
  for (dm::FrameId frame : frames) {
    stats_.loads++;
    uint32_t chunk = static_cast<uint32_t>(
        std::min<uint64_t>(page, len - off));
    std::memcpy(dst + off, std::as_const(device_->pool()).FrameData(frame),
                chunk);
    off += chunk;
    if (off >= len) break;
  }
  co_await ChargeAccess(len, 0);
}

sim::Task<uint32_t> CxlPort::AtomicIncRef(dm::FrameId frame) {
  stats_.atomics++;
  uint32_t v = device_->pool().IncRef(frame);
  co_await ChargeAccess(sizeof(uint32_t), sizeof(uint32_t));
  co_return v;
}

sim::Task<uint32_t> CxlPort::AtomicDecRef(dm::FrameId frame) {
  stats_.atomics++;
  uint32_t v = device_->pool().DecRef(frame);
  co_await ChargeAccess(sizeof(uint32_t), sizeof(uint32_t));
  co_return v;
}

sim::Task<uint32_t> CxlPort::ReadRefCount(dm::FrameId frame) {
  stats_.atomics++;
  uint32_t v = device_->pool().RefCount(frame);
  co_await ChargeAccess(sizeof(uint32_t), 0);
  co_return v;
}

sim::Task<std::vector<uint32_t>> CxlPort::AtomicAddRefBatch(
    const std::vector<dm::FrameId>& frames, int delta) {
  DMRPC_CHECK(delta == 1 || delta == -1);
  std::vector<uint32_t> out;
  out.reserve(frames.size());
  for (dm::FrameId frame : frames) {
    stats_.atomics++;
    out.push_back(delta > 0 ? device_->pool().IncRef(frame)
                            : device_->pool().DecRef(frame));
  }
  uint64_t bytes = frames.size() * 2 * sizeof(uint32_t);
  co_await ChargeAccess(bytes / 2, bytes / 2);
  co_return out;
}

}  // namespace dmrpc::cxl
