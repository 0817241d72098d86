// SPSC rings and packet batches: capacity semantics, bulk operations, FIFO
// order, and real-thread stress tests.
#include <gtest/gtest.h>

#include <numeric>
#include <thread>
#include <vector>

#include "runtime/batch.hpp"
#include "runtime/spsc_ring.hpp"

namespace sprayer::runtime {
namespace {

TEST(SpscRing, FillDrainExactCapacity) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(ring.push(i));
  EXPECT_FALSE(ring.push(99));  // full: no slot wasted
  for (int i = 0; i < 8; ++i) {
    int v = -1;
    EXPECT_TRUE(ring.pop(v));
    EXPECT_EQ(v, i);  // FIFO
  }
  int v;
  EXPECT_FALSE(ring.pop(v));
}

TEST(SpscRing, BulkPartialPushAndPop) {
  SpscRing<int> ring(8);
  std::vector<int> in(12);
  std::iota(in.begin(), in.end(), 0);
  EXPECT_EQ(ring.push_bulk(in), 8u);  // only capacity fits

  std::vector<int> out(5);
  EXPECT_EQ(ring.pop_bulk(out), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(out[i], i);
  EXPECT_EQ(ring.size_approx(), 3u);

  std::vector<int> rest(16);
  EXPECT_EQ(ring.pop_bulk(rest), 3u);
  EXPECT_EQ(rest[0], 5);
}

TEST(SpscRing, RejectsNonPowerOfTwo) {
  EXPECT_THROW(SpscRing<int>(6), std::logic_error);
  EXPECT_THROW(SpscRing<int>(1), std::logic_error);
}

TEST(SpscRing, WrapsManyTimes) {
  SpscRing<u64> ring(4);
  u64 expected = 0;
  for (u64 i = 0; i < 10000; ++i) {
    EXPECT_TRUE(ring.push(i));
    if (i % 3 != 0) {
      u64 v;
      EXPECT_TRUE(ring.pop(v));
      EXPECT_EQ(v, expected++);
    }
    if (ring.size_approx() == 4) {  // drain when full
      u64 v;
      while (ring.pop(v)) EXPECT_EQ(v, expected++);
    }
  }
}

TEST(SpscRing, WrapsAcross2to32IndexBoundary) {
  // Free-running indices are u64; start them just below 2^32 so the test
  // crosses the boundary where a 32-bit index (or a truncating cast in the
  // masking arithmetic) would corrupt FIFO order.
  const u64 start = (1ull << 32) - 5;
  SpscRing<u64> ring(8, start);
  u64 produced = 0;
  u64 consumed = 0;
  for (int round = 0; round < 8; ++round) {  // indices end above 2^32 + 40
    for (int i = 0; i < 6; ++i) EXPECT_TRUE(ring.push(produced++));
    for (int i = 0; i < 6; ++i) {
      u64 v = ~0ull;
      ASSERT_TRUE(ring.pop(v));
      EXPECT_EQ(v, consumed++);
    }
  }
  u64 v;
  EXPECT_FALSE(ring.pop(v));
}

TEST(SpscRing, BulkPartialPrefixAcrossIndexBoundary) {
  const u64 start = (1ull << 32) - 3;
  SpscRing<int> ring(8, start);
  std::vector<int> in(12);
  std::iota(in.begin(), in.end(), 0);
  // Capacity-limited prefix, with the slot positions wrapping both the
  // ring mask and the 2^32 index line.
  EXPECT_EQ(ring.push_bulk(in), 8u);
  EXPECT_EQ(ring.size_approx(), 8u);

  std::vector<int> out(5);
  EXPECT_EQ(ring.pop_bulk(out), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(out[i], i);

  // Push the remainder (partial prefix of a 4-item span into 5 free slots).
  EXPECT_EQ(ring.push_bulk(std::span<const int>{in}.subspan(8)), 4u);
  std::vector<int> rest(16);
  EXPECT_EQ(ring.pop_bulk(rest), 7u);
  for (int i = 0; i < 7; ++i) EXPECT_EQ(rest[i], 5 + i);
  EXPECT_TRUE(ring.empty_approx());
}

TEST(SpscRing, ThreadedProducerConsumerAcrossIndexBoundary) {
  // The stress pair, with indices straddling 2^32 from the start.
  SpscRing<u64> ring(64, (1ull << 32) - 100);
  constexpr u64 kCount = 100000;
  u64 sum_consumed = 0;
  std::thread consumer([&] {
    u64 received = 0;
    while (received < kCount) {
      u64 v;
      if (ring.pop(v)) {
        sum_consumed += v;
        ++received;
      }
    }
  });
  u64 sum_produced = 0;
  for (u64 i = 0; i < kCount; ++i) {
    while (!ring.push(i)) std::this_thread::yield();
    sum_produced += i;
  }
  consumer.join();
  EXPECT_EQ(sum_consumed, sum_produced);
}

TEST(SpscRing, ThreadedProducerConsumer) {
  SpscRing<u64> ring(1024);
  constexpr u64 kCount = 200000;
  u64 sum_consumed = 0;
  std::thread consumer([&] {
    u64 received = 0;
    while (received < kCount) {
      u64 v;
      if (ring.pop(v)) {
        sum_consumed += v;
        ++received;
      }
    }
  });
  u64 sum_produced = 0;
  for (u64 i = 0; i < kCount; ++i) {
    while (!ring.push(i)) std::this_thread::yield();
    sum_produced += i;
  }
  consumer.join();
  EXPECT_EQ(sum_consumed, sum_produced);
}

TEST(PacketBatch, PushIterateClear) {
  PacketBatch batch;
  EXPECT_TRUE(batch.empty());
  // Opaque non-null pointers are fine for container semantics.
  auto fake = [](std::uintptr_t v) {
    return reinterpret_cast<net::Packet*>(v);
  };
  for (std::uintptr_t i = 1; i <= 5; ++i) batch.push(fake(i * 8));
  EXPECT_EQ(batch.size(), 5u);
  u32 count = 0;
  for (net::Packet* p : batch) {
    EXPECT_EQ(p, fake((count + 1) * 8));
    ++count;
  }
  EXPECT_EQ(count, 5u);
  batch.clear();
  EXPECT_TRUE(batch.empty());
}

}  // namespace
}  // namespace sprayer::runtime
