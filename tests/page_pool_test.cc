// dm::PagePool: frame identity, FIFO free-list order and refcounts, plus
// the demand-backed host storage behind them (frames hold host bytes only
// while in use; unbacked frames read as zeros).

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <utility>
#include <vector>

#include "common/random.h"
#include "dm/page_pool.h"

namespace dmrpc::dm {
namespace {

bool ReadsAsZeros(const PagePool& pool, FrameId f) {
  const uint8_t* p = pool.FrameData(f);
  return std::all_of(p, p + pool.page_size(), [](uint8_t b) { return b == 0; });
}

TEST(PagePoolTest, StartsAllFree) {
  PagePool pool(16, 4096);
  EXPECT_EQ(pool.free_frames(), 16u);
  EXPECT_EQ(pool.capacity_bytes(), 16u * 4096);
}

TEST(PagePoolTest, PopInitializesRefcountToOne) {
  PagePool pool(4, 4096);
  auto f = pool.PopFree();
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(pool.RefCount(*f), 1u);
  EXPECT_EQ(pool.free_frames(), 3u);
}

TEST(PagePoolTest, PopFifoOrder) {
  PagePool pool(4, 64);
  auto a = pool.PopFree();
  auto b = pool.PopFree();
  EXPECT_EQ(*a, 0u);
  EXPECT_EQ(*b, 1u);
  pool.DecRef(*a);
  pool.PushFree(*a);  // goes to the back
  auto c = pool.PopFree();
  auto d = pool.PopFree();
  EXPECT_EQ(*c, 2u);
  EXPECT_EQ(*d, 3u);
  auto e = pool.PopFree();
  EXPECT_EQ(*e, 0u);  // recycled last
}

TEST(PagePoolTest, ExhaustionReturnsOutOfMemory) {
  PagePool pool(2, 64);
  ASSERT_TRUE(pool.PopFree().ok());
  ASSERT_TRUE(pool.PopFree().ok());
  auto f = pool.PopFree();
  EXPECT_FALSE(f.ok());
  EXPECT_TRUE(f.status().IsOutOfMemory());
}

TEST(PagePoolTest, RefCountingUpDown) {
  PagePool pool(2, 64);
  FrameId f = *pool.PopFree();
  EXPECT_EQ(pool.IncRef(f), 2u);
  EXPECT_EQ(pool.IncRef(f), 3u);
  EXPECT_EQ(pool.DecRef(f), 2u);
  EXPECT_EQ(pool.DecRef(f), 1u);
  EXPECT_EQ(pool.DecRef(f), 0u);
  pool.PushFree(f);
  EXPECT_EQ(pool.free_frames(), 2u);
}

TEST(PagePoolTest, FrameDataIsIsolatedPerFrame) {
  PagePool pool(3, 128);
  FrameId a = *pool.PopFree();
  FrameId b = *pool.PopFree();
  std::fill_n(pool.FrameData(a), 128, 0xaa);
  std::fill_n(pool.FrameData(b), 128, 0xbb);
  EXPECT_EQ(pool.FrameData(a)[0], 0xaa);
  EXPECT_EQ(pool.FrameData(a)[127], 0xaa);
  EXPECT_EQ(pool.FrameData(b)[0], 0xbb);
}

// Seeded random churn against a plain FIFO reference: the frame-id
// sequence must not depend on which frames hold host bytes, and residency
// must track frames in use -- never above its peak, zero once all are free.
TEST(PagePoolTest, ChurnMatchesFifoReferenceAndBoundsResidency) {
  constexpr uint32_t kFrames = 512;
  for (uint64_t seed : {1u, 2u, 3u}) {
    PagePool pool(kFrames, 256);
    std::deque<FrameId> ref_fifo;
    for (FrameId f = 0; f < kFrames; ++f) ref_fifo.push_back(f);
    std::vector<FrameId> live;
    uint32_t peak_live = 0;
    Rng rng(seed);
    for (int step = 0; step < 20000; ++step) {
      // Drift the live set up and down so the FIFO wraps many times.
      bool grow = (step / 2000) % 2 == 0;
      bool pop = live.empty() || (live.size() < kFrames &&
                                  rng.Uniform(100) < (grow ? 70u : 30u));
      if (pop) {
        auto f = pool.PopFree();
        ASSERT_TRUE(f.ok());
        ASSERT_EQ(*f, ref_fifo.front()) << "seed " << seed << " step " << step;
        ref_fifo.pop_front();
        // Only some frames are ever written: the rest stay unbacked.
        if (rng.Uniform(2) == 0) {
          std::fill_n(pool.FrameData(*f), pool.page_size(),
                      static_cast<uint8_t>(*f));
        }
        live.push_back(*f);
      } else {
        size_t i = rng.Uniform(static_cast<uint32_t>(live.size()));
        FrameId f = live[i];
        live[i] = live.back();
        live.pop_back();
        ASSERT_EQ(pool.DecRef(f), 0u);
        pool.PushFree(f);
        ref_fifo.push_back(f);
      }
      peak_live = std::max(peak_live, static_cast<uint32_t>(live.size()));
      ASSERT_LE(pool.resident_frames(), live.size());
      ASSERT_EQ(pool.free_frames(), kFrames - live.size());
    }
    for (FrameId f : live) {
      pool.DecRef(f);
      pool.PushFree(f);
    }
    EXPECT_EQ(pool.resident_frames(), 0u);
    EXPECT_LE(pool.peak_resident_frames(), peak_live);
    EXPECT_GT(pool.peak_resident_frames(), 0u);
  }
}

TEST(PagePoolTest, NeverWrittenAndReleasedFramesReadAsZeros) {
  PagePool pool(2, 4096);
  const PagePool& view = pool;
  FrameId a = *pool.PopFree();
  EXPECT_TRUE(ReadsAsZeros(view, a));
  EXPECT_EQ(pool.resident_frames(), 0u);  // a const read backs nothing

  std::fill_n(pool.FrameData(a), 4096, 0x5a);
  EXPECT_EQ(pool.resident_frames(), 1u);
  pool.DecRef(a);
  pool.PushFree(a);
  EXPECT_EQ(pool.resident_frames(), 0u);

  // Frame 1 reuses a's host block (LIFO recycling), zeroed on reuse.
  FrameId b = *pool.PopFree();
  ASSERT_NE(a, b);
  EXPECT_TRUE(ReadsAsZeros(view, b));
  EXPECT_EQ(pool.FrameData(b)[0], 0);
  EXPECT_EQ(pool.resident_frames(), 1u);

  // And a itself comes back empty.
  FrameId again = *pool.PopFree();
  ASSERT_EQ(again, a);
  EXPECT_TRUE(ReadsAsZeros(view, a));
  EXPECT_EQ(pool.FrameData(a)[4095], 0);
}

TEST(PagePoolTest, ModelledCapacityCostsNoHostBytesUntilWritten) {
  // 2^18 frames of 4 KiB: 1 GiB modelled, nothing backed.
  PagePool pool(1u << 18, 4096);
  EXPECT_EQ(pool.capacity_bytes(), uint64_t{1} << 30);
  EXPECT_EQ(pool.resident_frames(), 0u);
  FrameId f = *pool.PopFree();
  pool.FrameData(f)[7] = 1;
  EXPECT_EQ(pool.resident_frames(), 1u);
  EXPECT_EQ(pool.peak_resident_frames(), 1u);
}

TEST(PagePoolTest, DiscardReleasesBytesButKeepsFrameOffTheFreeList) {
  PagePool pool(4, 512);
  FrameId f = *pool.PopFree();
  std::fill_n(pool.FrameData(f), 512, 0xee);
  pool.DecRef(f);
  pool.Discard(f);
  EXPECT_EQ(pool.resident_frames(), 0u);
  EXPECT_EQ(pool.free_frames(), 3u);
  EXPECT_TRUE(ReadsAsZeros(pool, f));
  // Still owned by the caller: it can be reused without a PopFree.
  pool.IncRef(f);
  EXPECT_EQ(pool.FrameData(f)[0], 0);
}

TEST(PagePoolDeathTest, FrameDataOnAFreeFrameIsFatal) {
  PagePool pool(2, 64);
  FrameId f = *pool.PopFree();
  pool.DecRef(f);
  pool.PushFree(f);
  EXPECT_DEATH(pool.FrameData(f), "on the free list");
  EXPECT_DEATH(std::as_const(pool).FrameData(f), "on the free list");
  EXPECT_DEATH(pool.FrameData(1), "on the free list");  // never popped
}

TEST(PagePoolDeathTest, DoubleFreeIsFatal) {
  PagePool pool(2, 64);
  FrameId f = *pool.PopFree();
  pool.DecRef(f);
  pool.PushFree(f);
  EXPECT_DEATH(pool.PushFree(f), "freed twice");
}

}  // namespace
}  // namespace dmrpc::dm
