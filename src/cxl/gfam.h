#ifndef DMRPC_CXL_GFAM_H_
#define DMRPC_CXL_GFAM_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "common/units.h"
#include "dm/page_pool.h"
#include "mem/memory_model.h"
#include "sim/simulation.h"
#include "sim/task.h"

namespace dmrpc::cxl {

/// Traffic counters of one host's CXL port.
struct CxlPortStats {
  uint64_t loads = 0;
  uint64_t stores = 0;
  uint64_t atomics = 0;
  uint64_t bytes_read = 0;
  uint64_t bytes_written = 0;
};

/// A G-FAM (Global Fabric-Attached Memory) device: one device physical
/// address space of page frames plus a linear reference-count region,
/// visible to every host on the CXL fabric (CXL 3.0, §II-B2). The device
/// itself has no processing power -- all logic runs in hosts, using
/// ISA-supported atomics on device memory (§V-B).
class GfamDevice {
 public:
  GfamDevice(uint32_t num_frames, uint32_t page_size)
      : pool_(num_frames, page_size) {}

  GfamDevice(const GfamDevice&) = delete;
  GfamDevice& operator=(const GfamDevice&) = delete;

  dm::PagePool& pool() { return pool_; }
  const dm::PagePool& pool() const { return pool_; }
  uint32_t page_size() const { return pool_.page_size(); }
  uint32_t num_frames() const { return pool_.num_frames(); }

  /// Drains the device's initial free list; called once by the
  /// coordinator, which thereafter owns free-frame bookkeeping.
  std::deque<dm::FrameId> TakeAllFree();

 private:
  dm::PagePool pool_;
};

/// One host's window onto the G-FAM device: every load, store, and atomic
/// goes through a port, which charges the modeled CXL latency/bandwidth
/// (memory + switch) into simulated time and the host's bandwidth meter.
class CxlPort {
 public:
  CxlPort(sim::Simulation* sim, GfamDevice* device, mem::MemoryConfig memory,
          mem::BandwidthMeter* meter)
      : sim_(sim), device_(device), memory_(memory), meter_(meter) {}

  CxlPort(const CxlPort&) = delete;
  CxlPort& operator=(const CxlPort&) = delete;

  GfamDevice* device() { return device_; }
  sim::Simulation* simulation() { return sim_; }
  const CxlPortStats& stats() const { return stats_; }

  /// Changes this port's modeled CXL access latency.
  void set_cxl_latency_ns(TimeNs ns) { memory_.cxl_latency_ns = ns; }

  /// Streams `len` bytes from frame `frame` at `offset` into `dst`.
  sim::Task<> ReadFrame(dm::FrameId frame, uint32_t offset, uint8_t* dst,
                        uint32_t len);

  /// Streams `len` bytes from `src` into frame `frame` at `offset`.
  sim::Task<> WriteFrame(dm::FrameId frame, uint32_t offset,
                         const uint8_t* src, uint32_t len);

  /// Copies a whole page device-to-device through this host's port (the
  /// COW copy: the host CPU reads the old page and writes the new one).
  sim::Task<> CopyFrame(dm::FrameId src, dm::FrameId dst);

  /// Streams `len` bytes from `src` across consecutive whole frames --
  /// one pipelined transfer (one latency + bandwidth), the cost model of
  /// a contiguous non-temporal store burst. The last frame may be
  /// partially filled; its tail is zeroed.
  sim::Task<> WriteFramesBulk(const std::vector<dm::FrameId>& frames,
                              const uint8_t* src, uint64_t len);

  /// Streams `len` bytes from consecutive frames into `dst` (pipelined).
  sim::Task<> ReadFramesBulk(const std::vector<dm::FrameId>& frames,
                             uint8_t* dst, uint64_t len);

  /// Atomic fetch-add on a page's reference count; returns the new value.
  sim::Task<uint32_t> AtomicIncRef(dm::FrameId frame);
  sim::Task<uint32_t> AtomicDecRef(dm::FrameId frame);
  /// Atomic read of a page's reference count.
  sim::Task<uint32_t> ReadRefCount(dm::FrameId frame);

  /// Batched atomic add (+1/-1) over many pages' reference counts,
  /// returning the new values. Independent atomics to distinct addresses
  /// pipeline in the CPU's memory system, so the batch costs one CXL
  /// latency plus bandwidth -- not one latency per page. This is what
  /// makes create_ref cheap at large region sizes (Fig. 7).
  sim::Task<std::vector<uint32_t>> AtomicAddRefBatch(
      const std::vector<dm::FrameId>& frames, int delta);

 private:
  sim::Task<> ChargeAccess(uint64_t read_bytes, uint64_t write_bytes);

  sim::Simulation* sim_;
  GfamDevice* device_;
  mem::MemoryConfig memory_;
  mem::BandwidthMeter* meter_;
  CxlPortStats stats_;
};

}  // namespace dmrpc::cxl

#endif  // DMRPC_CXL_GFAM_H_
