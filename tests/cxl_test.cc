#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <vector>

#include "cxl/coordinator.h"
#include "cxl/gfam.h"
#include "cxl/host_dm.h"
#include "net/fabric.h"
#include "sim/simulation.h"

namespace dmrpc::cxl {
namespace {

/// Three compute hosts (0,1,2) + coordinator host (3) + one G-FAM device.
class CxlTest : public ::testing::Test {
 protected:
  static constexpr uint32_t kFrames = 2048;

  CxlTest()
      : sim_(123),
        fabric_(&sim_, net::NetworkConfig{}, 4),
        device_(kFrames, 4096),
        coordinator_(&fabric_, 3, &device_) {
    for (int i = 0; i < 3; ++i) {
      rpcs_.push_back(std::make_unique<rpc::Rpc>(
          &fabric_, static_cast<net::NodeId>(i), 600));
      meters_.push_back(std::make_unique<mem::BandwidthMeter>());
      ports_.push_back(std::make_unique<CxlPort>(
          &sim_, &device_, mem::MemoryConfig{}, meters_.back().get()));
      hosts_.push_back(std::make_unique<HostDmLayer>(
          rpcs_.back().get(), ports_.back().get(), 3, kCoordinatorPort));
    }
  }

  template <typename T>
  T Run(sim::Task<T> task) {
    auto out = std::make_shared<std::optional<T>>();
    auto wrap = [](sim::Task<T> t,
                   std::shared_ptr<std::optional<T>> o) -> sim::Task<> {
      o->emplace(co_await std::move(t));
    };
    sim_.Spawn(wrap(std::move(task), out));
    while (!out->has_value() && sim_.Step()) {
    }
    EXPECT_TRUE(out->has_value());
    return std::move(**out);
  }

  sim::Task<Status> InitAll() {
    for (auto& h : hosts_) {
      Status st = co_await h->Init();
      if (!st.ok()) co_return st;
    }
    co_return Status::OK();
  }

  size_t TotalFreeFrames() const {
    size_t total = coordinator_.free_frames();
    for (const auto& h : hosts_) total += h->local_free_frames();
    return total;
  }

  sim::Simulation sim_;
  net::Fabric fabric_;
  GfamDevice device_;
  Coordinator coordinator_;
  std::vector<std::unique_ptr<rpc::Rpc>> rpcs_;
  std::vector<std::unique_ptr<mem::BandwidthMeter>> meters_;
  std::vector<std::unique_ptr<CxlPort>> ports_;
  std::vector<std::unique_ptr<HostDmLayer>> hosts_;
};

TEST_F(CxlTest, InitReservesFrameBatches) {
  ASSERT_TRUE(Run(InitAll()).ok());
  for (auto& h : hosts_) {
    EXPECT_EQ(h->local_free_frames(), 64u);  // default refill batch
  }
  EXPECT_EQ(coordinator_.free_frames(), kFrames - 3 * 64);
}

TEST_F(CxlTest, StoreLoadRoundTripThroughGfam) {
  ASSERT_TRUE(Run(InitAll()).ok());
  auto st = Run([&]() -> sim::Task<Status> {
    auto va = co_await hosts_[0]->Alloc(10000);
    if (!va.ok()) co_return va.status();
    std::vector<uint8_t> data(10000);
    for (size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<uint8_t>(i * 11);
    }
    (void)co_await hosts_[0]->Write(*va, data.data(), data.size());
    std::vector<uint8_t> back(10000);
    (void)co_await hosts_[0]->Read(*va, back.data(), back.size());
    if (back != data) co_return Status::Internal("mismatch");
    co_return Status::OK();
  }());
  EXPECT_TRUE(st.ok()) << st.ToString();
  // Three demand faults (3 pages).
  EXPECT_EQ(hosts_[0]->stats().page_faults, 3u);
}

TEST_F(CxlTest, LoadOfUnmappedPageIsZeros) {
  ASSERT_TRUE(Run(InitAll()).ok());
  auto st = Run([&]() -> sim::Task<Status> {
    auto va = co_await hosts_[0]->Alloc(4096);
    std::vector<uint8_t> back(4096, 0xee);
    (void)co_await hosts_[0]->Read(*va, back.data(), back.size());
    for (uint8_t b : back) {
      if (b != 0) co_return Status::Internal("expected zero page");
    }
    co_return Status::OK();
  }());
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(hosts_[0]->stats().page_faults, 0u);
}

TEST_F(CxlTest, CrossHostSharingThroughRef) {
  ASSERT_TRUE(Run(InitAll()).ok());
  auto st = Run([&]() -> sim::Task<Status> {
    auto va = co_await hosts_[0]->Alloc(8192);
    std::vector<uint8_t> data(8192, 0x42);
    (void)co_await hosts_[0]->Write(*va, data.data(), data.size());
    auto ref = co_await hosts_[0]->CreateRef(*va, 8192);
    if (!ref.ok()) co_return ref.status();
    // Hosts 1 and 2 both map and read the same pages.
    for (int h : {1, 2}) {
      auto vb = co_await hosts_[h]->MapRef(*ref);
      if (!vb.ok()) co_return vb.status();
      std::vector<uint8_t> back(8192);
      (void)co_await hosts_[h]->Read(*vb, back.data(), back.size());
      if (back != data) co_return Status::Internal("reader mismatch");
      (void)co_await hosts_[h]->Free(*vb);
    }
    co_return Status::OK();
  }());
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST_F(CxlTest, DistributedCowIsolatesWriters) {
  ASSERT_TRUE(Run(InitAll()).ok());
  auto st = Run([&]() -> sim::Task<Status> {
    auto va = co_await hosts_[0]->Alloc(8192);
    std::vector<uint8_t> data(8192, 0x10);
    (void)co_await hosts_[0]->Write(*va, data.data(), data.size());
    auto ref = co_await hosts_[0]->CreateRef(*va, 8192);
    auto v1 = co_await hosts_[1]->MapRef(*ref);
    auto v2 = co_await hosts_[2]->MapRef(*ref);

    // Host 1 writes page 0; host 2 writes page 1.
    std::vector<uint8_t> w1(4096, 0x21), w2(4096, 0x32);
    (void)co_await hosts_[1]->Write(*v1, w1.data(), w1.size());
    (void)co_await hosts_[2]->Write(*v2 + 4096, w2.data(), w2.size());

    std::vector<uint8_t> b0(8192), b1(8192), b2(8192);
    (void)co_await hosts_[0]->Read(*va, b0.data(), 8192);
    (void)co_await hosts_[1]->Read(*v1, b1.data(), 8192);
    (void)co_await hosts_[2]->Read(*v2, b2.data(), 8192);
    for (size_t i = 0; i < 8192; ++i) {
      if (b0[i] != 0x10) co_return Status::Internal("creator corrupted");
      uint8_t e1 = i < 4096 ? 0x21 : 0x10;
      uint8_t e2 = i < 4096 ? 0x10 : 0x32;
      if (b1[i] != e1) co_return Status::Internal("host1 wrong");
      if (b2[i] != e2) co_return Status::Internal("host2 wrong");
    }
    co_return Status::OK();
  }());
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(hosts_[1]->stats().cow_copies, 1u);
  EXPECT_EQ(hosts_[2]->stats().cow_copies, 1u);
}

TEST_F(CxlTest, SoleOwnerWriteFlipsPermissionWithoutCopy) {
  ASSERT_TRUE(Run(InitAll()).ok());
  auto st = Run([&]() -> sim::Task<Status> {
    auto va = co_await hosts_[0]->Alloc(4096);
    std::vector<uint8_t> data(4096, 1);
    (void)co_await hosts_[0]->Write(*va, data.data(), data.size());
    auto ref = co_await hosts_[0]->CreateRef(*va, 4096);
    // Drop the Ref share: the creator becomes the sole owner again.
    (void)co_await hosts_[0]->ReleaseRef(*ref);
    std::vector<uint8_t> w(4096, 2);
    (void)co_await hosts_[0]->Write(*va, w.data(), w.size());
    co_return Status::OK();
  }());
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(hosts_[0]->stats().cow_copies, 0u);
  // Two faults: the demand fault and the permission-flip fault.
  EXPECT_EQ(hosts_[0]->stats().page_faults, 2u);
}

TEST_F(CxlTest, FrameConservationAcrossFullLifecycle) {
  ASSERT_TRUE(Run(InitAll()).ok());
  size_t before = TotalFreeFrames();
  auto st = Run([&]() -> sim::Task<Status> {
    for (int round = 0; round < 5; ++round) {
      auto va = co_await hosts_[0]->Alloc(16384);
      std::vector<uint8_t> data(16384, static_cast<uint8_t>(round));
      (void)co_await hosts_[0]->Write(*va, data.data(), data.size());
      auto ref = co_await hosts_[0]->CreateRef(*va, 16384);
      auto vb = co_await hosts_[1]->MapRef(*ref);
      std::vector<uint8_t> w(5000, 0xff);
      (void)co_await hosts_[1]->Write(*vb + 2000, w.data(), w.size());
      (void)co_await hosts_[0]->Free(*va);
      (void)co_await hosts_[1]->Free(*vb);
      (void)co_await hosts_[1]->ReleaseRef(*ref);
    }
    co_return Status::OK();
  }());
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(TotalFreeFrames(), before);
}

// The device pool never sees a CXL free (hosts keep their own free lists),
// so the host discards a frame's G-FAM bytes when its last share goes.
TEST_F(CxlTest, LastShareDiscardsGfamBytes) {
  ASSERT_TRUE(Run(InitAll()).ok());
  const dm::PagePool& pool = device_.pool();
  auto st = Run([&]() -> sim::Task<Status> {
    auto va = co_await hosts_[0]->Alloc(16384);
    std::vector<uint8_t> data(16384, 0x3c);
    (void)co_await hosts_[0]->Write(*va, data.data(), data.size());
    if (pool.resident_frames() != 4) co_return Status::Internal("not 4");
    auto ref = co_await hosts_[0]->CreateRef(*va, 16384);
    auto vb = co_await hosts_[1]->MapRef(*ref);
    std::vector<uint8_t> w(5000, 0xff);  // COW-copies pages 0 and 1
    (void)co_await hosts_[1]->Write(*vb + 2000, w.data(), w.size());
    if (pool.resident_frames() != 6) co_return Status::Internal("not 6");
    (void)co_await hosts_[0]->Free(*va);  // the Ref still holds all four
    if (pool.resident_frames() != 6) co_return Status::Internal("freed early");
    (void)co_await hosts_[1]->Free(*vb);  // drops the two private copies
    if (pool.resident_frames() != 4) co_return Status::Internal("copies kept");
    std::vector<dm::FrameId> pages = ref->pages;
    (void)co_await hosts_[1]->ReleaseRef(*ref);
    for (dm::FrameId f : pages) {
      if (pool.FrameData(f)[0] != 0) co_return Status::Internal("stale bytes");
    }
    auto put = co_await hosts_[2]->PutRef(data.data(), 9000);
    if (!put.ok()) co_return put.status();
    if (pool.resident_frames() != 3) co_return Status::Internal("put not 3");
    co_return co_await hosts_[2]->ReleaseRef(*put);
  }());
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(pool.resident_frames(), 0u);
  EXPECT_EQ(pool.peak_resident_frames(), 6u);
}

TEST_F(CxlTest, WatermarksExchangeFramesWithCoordinator) {
  ASSERT_TRUE(Run(InitAll()).ok());
  auto st = Run([&]() -> sim::Task<Status> {
    // Allocate enough pages to force refills past the initial batch.
    std::vector<dm::RemoteAddr> vas;
    std::vector<uint8_t> page(4096, 7);
    for (int i = 0; i < 100; ++i) {
      auto va = co_await hosts_[0]->Alloc(4096);
      if (!va.ok()) co_return va.status();
      (void)co_await hosts_[0]->Write(*va, page.data(), page.size());
      vas.push_back(*va);
    }
    for (auto va : vas) (void)co_await hosts_[0]->Free(va);
    co_return Status::OK();
  }());
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_GT(hosts_[0]->stats().coordinator_refills, 1u);
  EXPECT_GT(coordinator_.grants(), 64u);
  // All frames accounted for after the churn.
  EXPECT_EQ(TotalFreeFrames(), kFrames);
}

TEST_F(CxlTest, CxlLatencyKnobSlowsAccesses) {
  ASSERT_TRUE(Run(InitAll()).ok());
  auto time_one = [&](TimeNs latency) -> TimeNs {
    ports_[0]->set_cxl_latency_ns(latency);
    TimeNs start = sim_.Now();
    auto st = Run([&]() -> sim::Task<Status> {
      auto va = co_await hosts_[0]->Alloc(4096);
      std::vector<uint8_t> data(4096, 9);
      for (int i = 0; i < 100; ++i) {
        (void)co_await hosts_[0]->Write(*va, data.data(), data.size());
      }
      (void)co_await hosts_[0]->Free(*va);
      co_return Status::OK();
    }());
    EXPECT_TRUE(st.ok());
    return sim_.Now() - start;
  };
  TimeNs fast = time_one(165);
  TimeNs slow = time_one(565);
  EXPECT_GT(slow, fast + 100 * (565 - 165) / 2);
}

TEST_F(CxlTest, BatchedAtomicsCostOneLatencyNotPerPage) {
  ASSERT_TRUE(Run(InitAll()).ok());
  // create_ref over 16 pages must charge ~one CXL latency for all 16
  // refcount increments (pipelined), not 16 serial latencies.
  auto st = Run([&]() -> sim::Task<Status> {
    auto va = co_await hosts_[0]->Alloc(16 * 4096);
    std::vector<uint8_t> data(16 * 4096, 1);
    (void)co_await hosts_[0]->Write(*va, data.data(), data.size());
    TimeNs start = sim_.Now();
    auto ref = co_await hosts_[0]->CreateRef(*va, data.size());
    TimeNs elapsed = sim_.Now() - start;
    if (!ref.ok()) co_return ref.status();
    // Serial would be >= 16 * 265 ns = 4240 ns of atomics alone.
    if (elapsed >= 16 * 265) {
      co_return Status::Internal("create_ref atomics look serialized: " +
                                 std::to_string(elapsed) + " ns");
    }
    co_return Status::OK();
  }());
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST_F(CxlTest, PortMeterAccountsEveryAccess) {
  ASSERT_TRUE(Run(InitAll()).ok());
  uint64_t before = meters_[0]->bytes(mem::MemKind::kCxl);
  auto st = Run([&]() -> sim::Task<Status> {
    auto va = co_await hosts_[0]->Alloc(4096);
    std::vector<uint8_t> data(4096, 2);
    (void)co_await hosts_[0]->Write(*va, data.data(), data.size());
    (void)co_await hosts_[0]->Read(*va, data.data(), data.size());
    co_return Status::OK();
  }());
  ASSERT_TRUE(st.ok());
  uint64_t moved = meters_[0]->bytes(mem::MemKind::kCxl) - before;
  // One page written + one page read (+ small atomic traffic).
  EXPECT_GE(moved, 2u * 4096);
  EXPECT_LT(moved, 2u * 4096 + 256);
}

TEST_F(CxlTest, GfamExhaustionSurfacesAsOutOfMemory) {
  sim::Simulation sim(9);
  net::Fabric fabric(&sim, net::NetworkConfig{}, 2);
  GfamDevice tiny(32, 4096);
  Coordinator coord(&fabric, 1, &tiny);
  rpc::Rpc rpc(&fabric, 0, 600);
  mem::BandwidthMeter meter;
  CxlPort port(&sim, &tiny, mem::MemoryConfig{}, &meter);
  HostDmConfig cfg;
  cfg.refill_batch = 8;
  cfg.low_watermark = 2;
  HostDmLayer host(&rpc, &port, 1, kCoordinatorPort, cfg);

  std::optional<Status> final;
  auto driver = [&]() -> sim::Task<> {
    (void)co_await host.Init();
    std::vector<uint8_t> page(4096, 1);
    for (int i = 0; i < 64; ++i) {
      auto va = co_await host.Alloc(4096);
      if (!va.ok()) {
        final = va.status();
        co_return;
      }
      Status w = co_await host.Write(*va, page.data(), page.size());
      if (!w.ok()) {
        final = w;
        co_return;
      }
    }
    final = Status::OK();
  };
  sim.Spawn(driver());
  sim.RunFor(10 * kSecond);
  ASSERT_TRUE(final.has_value());
  EXPECT_TRUE(final->IsOutOfMemory()) << final->ToString();
}

}  // namespace
}  // namespace dmrpc::cxl
