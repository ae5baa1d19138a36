// Bounded lock-free ring for the streaming TE serving loop — the NDN-DPDK
// burst/ringbuffer shape: every slot is pre-allocated at construction, the
// hot path only moves indices and copies PODs, and capacity is a power of two
// so wrap-around is a mask, not a division.
//
// MpmcRing is Vyukov's bounded MPMC queue. Each slot carries a sequence
// number; producers and consumers claim positions with a CAS on their own
// ticket counter and then synchronize on the slot's sequence alone, so a
// reader mid-copy never blocks a writer (and vice versa) — a stalled thread
// parks exactly one slot, never the whole ring.
//
// It is `try_`-only: blocking policy (drop, spin, yield) belongs to the
// caller, mirroring how the serving loop counts overflow instead of waiting.
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace figret::util {

/// Smallest power of two >= n (and >= 2), so index wrap is a bit-mask.
constexpr std::size_t ring_capacity_for(std::size_t n) noexcept {
  return std::bit_ceil(n < 2 ? std::size_t{2} : n);
}

/// Hardware destructive-interference padding. 64 bytes covers x86/ARM lines;
/// std::hardware_destructive_interference_size is avoided because its value
/// is ABI-fragile across GCC versions.
inline constexpr std::size_t kCacheLine = 64;

template <typename T>
class MpmcRing {
 public:
  explicit MpmcRing(std::size_t capacity)
      : mask_(ring_capacity_for(capacity) - 1),
        slots_(ring_capacity_for(capacity)) {
    for (std::size_t i = 0; i < slots_.size(); ++i)
      slots_[i].seq.store(i, std::memory_order_relaxed);
  }

  MpmcRing(const MpmcRing&) = delete;
  MpmcRing& operator=(const MpmcRing&) = delete;

  std::size_t capacity() const noexcept { return mask_ + 1; }

  /// False when the ring is full. Lock-free: a producer that loses the CAS
  /// race retries at the advanced ticket; it never waits on another thread.
  bool try_push(T value) {
    Slot* slot;
    std::size_t pos = enqueue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      slot = &slots_[pos & mask_];
      const std::size_t seq = slot->seq.load(std::memory_order_acquire);
      const auto dif = static_cast<std::intptr_t>(seq) -
                       static_cast<std::intptr_t>(pos);
      if (dif == 0) {
        if (enqueue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed))
          break;
      } else if (dif < 0) {
        return false;  // slot still holds an unconsumed item: ring full
      } else {
        pos = enqueue_pos_.load(std::memory_order_relaxed);
      }
    }
    slot->value = std::move(value);
    slot->seq.store(pos + 1, std::memory_order_release);
    return true;
  }

  /// False when the ring is empty.
  bool try_pop(T& out) {
    Slot* slot;
    std::size_t pos = dequeue_pos_.load(std::memory_order_relaxed);
    for (;;) {
      slot = &slots_[pos & mask_];
      const std::size_t seq = slot->seq.load(std::memory_order_acquire);
      const auto dif = static_cast<std::intptr_t>(seq) -
                       static_cast<std::intptr_t>(pos + 1);
      if (dif == 0) {
        if (dequeue_pos_.compare_exchange_weak(pos, pos + 1,
                                               std::memory_order_relaxed))
          break;
      } else if (dif < 0) {
        return false;  // slot not yet published: ring empty
      } else {
        pos = dequeue_pos_.load(std::memory_order_relaxed);
      }
    }
    out = std::move(slot->value);
    slot->seq.store(pos + mask_ + 1, std::memory_order_release);
    return true;
  }

  /// Approximate (racy) occupancy — monitoring only.
  std::size_t size_approx() const noexcept {
    const std::size_t tail = enqueue_pos_.load(std::memory_order_relaxed);
    const std::size_t head = dequeue_pos_.load(std::memory_order_relaxed);
    return tail >= head ? tail - head : 0;
  }

 private:
  struct Slot {
    std::atomic<std::size_t> seq{0};
    T value{};
  };

  const std::size_t mask_;
  std::vector<Slot> slots_;
  alignas(kCacheLine) std::atomic<std::size_t> enqueue_pos_{0};
  alignas(kCacheLine) std::atomic<std::size_t> dequeue_pos_{0};
};

}  // namespace figret::util
