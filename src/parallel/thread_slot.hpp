#pragma once

// A small per-live-thread index for state that each thread writes and other
// threads only read now and then: the stats stripes of a kernel's context,
// the Mode::Adapt lanes of a kernel's online shard, and the staging lanes of
// the sample buffer. Threads alive at the same time hold distinct slots up to
// kThreadSlots; later ones share slots round-robin. A thread claims its slot
// on first use and hands it back when it exits, so a long-running process
// that keeps starting short-lived threads keeps reusing the same few slots.

#include <cstdint>

namespace apollo::par {

/// Distinct slots for threads alive at the same time.
inline constexpr std::uint32_t kThreadSlots = 8;

namespace detail {
inline constexpr std::uint32_t kNoThreadSlot = ~std::uint32_t{0};
/// This thread's slot, claimed on its first thread_slot() call.
inline thread_local std::uint32_t t_thread_slot = kNoThreadSlot;
/// Claim the lowest slot no live thread holds (round-robin once all are
/// held), remember it in t_thread_slot, and free it when the thread exits.
std::uint32_t claim_thread_slot() noexcept;
}  // namespace detail

/// The calling thread's slot in [0, kThreadSlots): one thread-local load once
/// claimed.
[[nodiscard]] inline std::uint32_t thread_slot() noexcept {
  const std::uint32_t slot = detail::t_thread_slot;
  return slot != detail::kNoThreadSlot ? slot : detail::claim_thread_slot();
}

}  // namespace apollo::par
