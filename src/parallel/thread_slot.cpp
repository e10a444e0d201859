#include "parallel/thread_slot.hpp"

#include <atomic>
#include <bit>

namespace apollo::par::detail {

namespace {

constexpr std::uint64_t kAllSlots = (std::uint64_t{1} << kThreadSlots) - 1;
static_assert(kThreadSlots < 64);

/// One bit per slot held by a live thread.
std::atomic<std::uint64_t> g_claimed_slots{0};
std::atomic<std::uint32_t> g_shared_slot{0};

/// Hands the thread's slot back when the thread exits.
struct SlotClaim {
  std::uint64_t bit = 0;
  ~SlotClaim() { g_claimed_slots.fetch_and(~bit, std::memory_order_relaxed); }
};
thread_local SlotClaim t_claim;

}  // namespace

std::uint32_t claim_thread_slot() noexcept {
  std::uint64_t claimed = g_claimed_slots.load(std::memory_order_relaxed);
  std::uint32_t slot = 0;
  for (;;) {
    const std::uint64_t free = ~claimed & kAllSlots;
    if (free == 0) {
      slot = g_shared_slot.fetch_add(1, std::memory_order_relaxed) % kThreadSlots;
      break;
    }
    slot = static_cast<std::uint32_t>(std::countr_zero(free));
    const std::uint64_t bit = std::uint64_t{1} << slot;
    if (g_claimed_slots.compare_exchange_weak(claimed, claimed | bit,
                                              std::memory_order_relaxed)) {
      t_claim.bit = bit;
      break;
    }
  }
  t_thread_slot = slot;
  return slot;
}

}  // namespace apollo::par::detail
