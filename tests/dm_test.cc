#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "common/random.h"
#include "dm/ref.h"
#include "dm/va_allocator.h"

namespace dmrpc::dm {
namespace {

// ---------------------------------------------------------------------------
// VaAllocator
// ---------------------------------------------------------------------------

TEST(VaAllocatorTest, AllocationsArePageAlignedAndDisjoint) {
  VaAllocator va(0x1000, 1 << 20, 4096);
  auto a = va.Alloc(100);
  auto b = va.Alloc(5000);
  auto c = va.Alloc(4096);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(*a % 4096, 0u);
  EXPECT_EQ(*b % 4096, 0u);
  EXPECT_EQ(*b, *a + 4096);       // 100 rounds to one page
  EXPECT_EQ(*c, *b + 8192);       // 5000 rounds to two pages
  EXPECT_EQ(va.allocation_count(), 3u);
}

TEST(VaAllocatorTest, ZeroSizeRejected) {
  VaAllocator va(0, 1 << 20, 4096);
  EXPECT_FALSE(va.Alloc(0).ok());
}

TEST(VaAllocatorTest, NullAddressNeverHandedOut) {
  VaAllocator va(0, 1 << 20, 4096);
  auto a = va.Alloc(1);
  ASSERT_TRUE(a.ok());
  EXPECT_NE(*a, kNullRemoteAddr);
}

TEST(VaAllocatorTest, FreeAndReuse) {
  VaAllocator va(0x1000, 1 << 20, 4096);
  RemoteAddr a = *va.Alloc(4096);
  ASSERT_TRUE(va.Free(a).ok());
  RemoteAddr b = *va.Alloc(4096);
  EXPECT_EQ(a, b);  // first fit reuses the hole
}

TEST(VaAllocatorTest, DoubleFreeFails) {
  VaAllocator va(0x1000, 1 << 20, 4096);
  RemoteAddr a = *va.Alloc(4096);
  ASSERT_TRUE(va.Free(a).ok());
  EXPECT_FALSE(va.Free(a).ok());
}

TEST(VaAllocatorTest, FreeUnknownFails) {
  VaAllocator va(0x1000, 1 << 20, 4096);
  EXPECT_FALSE(va.Free(0x5000).ok());
}

TEST(VaAllocatorTest, CoalescingAllowsBigReallocation) {
  VaAllocator va(0x1000, 4096 * 4, 4096);
  RemoteAddr a = *va.Alloc(4096);
  RemoteAddr b = *va.Alloc(4096);
  RemoteAddr c = *va.Alloc(4096);
  RemoteAddr d = *va.Alloc(4096);
  EXPECT_FALSE(va.Alloc(4096).ok());  // full
  // Free in an order that requires both-side coalescing.
  ASSERT_TRUE(va.Free(b).ok());
  ASSERT_TRUE(va.Free(d).ok());
  ASSERT_TRUE(va.Free(c).ok());
  ASSERT_TRUE(va.Free(a).ok());
  auto whole = va.Alloc(4096 * 4);
  ASSERT_TRUE(whole.ok()) << "free ranges failed to coalesce";
  EXPECT_EQ(*whole, 0x1000u);
}

TEST(VaAllocatorTest, ContainsAndRangeSize) {
  VaAllocator va(0x1000, 1 << 20, 4096);
  RemoteAddr a = *va.Alloc(6000);
  EXPECT_TRUE(va.Contains(a));
  EXPECT_TRUE(va.Contains(a + 8191));
  EXPECT_FALSE(va.Contains(a + 8192));
  EXPECT_EQ(*va.RangeSize(a), 8192u);
  EXPECT_FALSE(va.RangeSize(a + 4096).ok());  // not a range start
}

TEST(VaAllocatorTest, ExhaustionReported) {
  VaAllocator va(0x1000, 8192, 4096);
  ASSERT_TRUE(va.Alloc(8192).ok());
  auto more = va.Alloc(1);
  EXPECT_FALSE(more.ok());
  EXPECT_TRUE(more.status().IsOutOfMemory());
}

/// Property: random alloc/free sequences never hand out overlapping
/// ranges and always reclaim everything.
class VaAllocatorFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VaAllocatorFuzzTest, NoOverlapAndFullReclaim) {
  Rng rng(GetParam());
  const uint32_t page = 4096;
  VaAllocator va(0x10000, 1 << 22, page);
  std::map<RemoteAddr, uint64_t> live;
  for (int step = 0; step < 2000; ++step) {
    if (live.empty() || rng.Bernoulli(0.6)) {
      uint64_t size = 1 + rng.Uniform(5 * page);
      auto a = va.Alloc(size);
      if (!a.ok()) continue;  // exhausted is legal
      uint64_t rounded = (size + page - 1) / page * page;
      // Overlap check against all live ranges.
      for (const auto& [addr, len] : live) {
        EXPECT_FALSE(*a < addr + len && addr < *a + rounded)
            << "overlap at step " << step;
      }
      live[*a] = rounded;
    } else {
      auto it = live.begin();
      std::advance(it, rng.Uniform(static_cast<uint32_t>(live.size())));
      EXPECT_TRUE(va.Free(it->first).ok());
      live.erase(it);
    }
  }
  for (const auto& [addr, len] : live) EXPECT_TRUE(va.Free(addr).ok());
  EXPECT_EQ(va.allocated_bytes(), 0u);
  auto whole = va.Alloc((1 << 22) - page);
  EXPECT_TRUE(whole.ok()) << "fragmentation not fully coalesced";
}

INSTANTIATE_TEST_SUITE_P(Seeds, VaAllocatorFuzzTest,
                         ::testing::Values(1, 2, 3, 42, 20240704));

// ---------------------------------------------------------------------------
// Ref
// ---------------------------------------------------------------------------

TEST(RefTest, NetRefRoundTrips) {
  Ref ref;
  ref.backend = Ref::Backend::kNet;
  ref.size = 123456;
  ref.server = 7;
  ref.key = 0xdeadbeef;
  rpc::MsgBuffer buf;
  ref.EncodeTo(&buf);
  Ref out = Ref::DecodeFrom(&buf);
  EXPECT_EQ(out, ref);
}

TEST(RefTest, CxlRefRoundTripsWithPages) {
  Ref ref;
  ref.backend = Ref::Backend::kCxl;
  ref.size = 16384;
  ref.pages = {10, 11, 99, 3};
  rpc::MsgBuffer buf;
  ref.EncodeTo(&buf);
  Ref out = Ref::DecodeFrom(&buf);
  EXPECT_EQ(out, ref);
}

TEST(RefTest, WireBytesIsSmallRegardlessOfSize) {
  Ref ref;
  ref.backend = Ref::Backend::kNet;
  ref.size = 1 << 30;  // 1 GiB of referenced data
  EXPECT_LT(ref.WireBytes(), 64u);

  Ref cxl;
  cxl.backend = Ref::Backend::kCxl;
  cxl.size = 256 * 1024;
  cxl.pages.assign(64, 1);  // 256 KiB / 4 KiB pages
  EXPECT_LT(cxl.WireBytes(), 300u);
}

TEST(RefTest, WireBytesMatchesEncoding) {
  Ref ref;
  ref.backend = Ref::Backend::kCxl;
  ref.size = 8192;
  ref.pages = {1, 2};
  rpc::MsgBuffer buf;
  ref.EncodeTo(&buf);
  EXPECT_EQ(buf.size(), ref.WireBytes());
}

}  // namespace
}  // namespace dmrpc::dm
