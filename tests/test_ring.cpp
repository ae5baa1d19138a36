#include "util/ring.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

namespace figret::util {
namespace {

TEST(RingCapacity, RoundsUpToPowerOfTwo) {
  EXPECT_EQ(ring_capacity_for(0), 2u);
  EXPECT_EQ(ring_capacity_for(1), 2u);
  EXPECT_EQ(ring_capacity_for(2), 2u);
  EXPECT_EQ(ring_capacity_for(3), 4u);
  EXPECT_EQ(ring_capacity_for(5), 8u);
  EXPECT_EQ(ring_capacity_for(64), 64u);
  EXPECT_EQ(ring_capacity_for(65), 128u);
}

TEST(MpmcRing, SingleThreadedFifoAndBounds) {
  MpmcRing<int> ring(4);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(i));
  EXPECT_FALSE(ring.try_push(99));
  int v = -1;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.try_pop(v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(ring.try_pop(v));
}

TEST(MpmcRing, ManyProducersManyConsumersLoseNothing) {
  // 4 producers push disjoint value ranges, 4 consumers drain; every value
  // must arrive exactly once. The checksum is order-insensitive because MPMC
  // only guarantees per-producer FIFO.
  MpmcRing<std::uint64_t> ring(64);
  constexpr std::uint64_t kPerProducer = 50000;
  constexpr unsigned kProducers = 4;
  constexpr unsigned kConsumers = 4;
  constexpr std::uint64_t kTotal = kPerProducer * kProducers;

  std::atomic<std::uint64_t> consumed{0};
  std::atomic<std::uint64_t> sum{0};
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < kConsumers; ++c)
    threads.emplace_back([&] {
      std::uint64_t v;
      for (;;) {
        if (ring.try_pop(v)) {
          sum.fetch_add(v, std::memory_order_relaxed);
          if (consumed.fetch_add(1, std::memory_order_relaxed) + 1 == kTotal)
            return;
        } else {
          if (consumed.load(std::memory_order_relaxed) >= kTotal) return;
          std::this_thread::yield();
        }
      }
    });
  for (unsigned p = 0; p < kProducers; ++p)
    threads.emplace_back([&, p] {
      const std::uint64_t base = std::uint64_t{p} * kPerProducer;
      for (std::uint64_t i = 0; i < kPerProducer; ++i)
        while (!ring.try_push(base + i)) std::this_thread::yield();
    });
  for (auto& t : threads) t.join();

  EXPECT_EQ(consumed.load(), kTotal);
  // sum of 0..kTotal-1
  const std::uint64_t expected = kTotal * (kTotal - 1) / 2;
  EXPECT_EQ(sum.load(), expected);
}

TEST(MpmcRing, PreservesPerProducerOrder) {
  MpmcRing<std::uint64_t> ring(16);
  constexpr std::uint64_t kItems = 100000;
  std::vector<std::uint64_t> received;
  received.reserve(kItems);
  std::thread consumer([&] {
    std::uint64_t v;
    while (received.size() < kItems)
      if (ring.try_pop(v))
        received.push_back(v);
      else
        std::this_thread::yield();
  });
  for (std::uint64_t i = 0; i < kItems; ++i)
    while (!ring.try_push(i)) std::this_thread::yield();
  consumer.join();
  for (std::uint64_t i = 0; i < kItems; ++i)
    ASSERT_EQ(received[i], i) << "single producer + single consumer is FIFO";
}

}  // namespace
}  // namespace figret::util
