#pragma once

// KernelHandle: the per-call-site identity an application hands to
// apollo::forall. It names the kernel (loop_id stands in for the paper's
// code address), points at the kernel's interned instruction signature, and
// lets the application pin a static default policy (ARES's hand-assigned
// kernels).
//
// The handle also carries the dispatch fast path: an atomic pointer to this
// kernel's KernelContext, filled in on the first launch. Contexts live for
// the process lifetime (Runtime::reset() clears their state in place), so a
// handle — typically a function-local static — hits the runtime's context
// map at most once, ever.

#include <atomic>
#include <cstdint>
#include <string>

#include "instr/mix.hpp"
#include "instr/signature.hpp"
#include "raja/policy.hpp"

namespace apollo {

class KernelContext;

class KernelHandle {
public:
  /// Interns the kernel's signature on construction, so instruction features
  /// are available before the first prediction and every sample recorded for
  /// this kernel shares one copy of it.
  KernelHandle(std::string loop_id, std::string func, instr::InstructionMix mix,
               std::int64_t bytes_per_iteration,
               raja::PolicyType default_policy = raja::PolicyType::seq_segit_omp_parallel_for_exec)
      : signature_(instr::intern_signature(instr::KernelSignature{
            std::move(loop_id), std::move(func), mix, bytes_per_iteration})),
        default_policy_(default_policy) {}

  [[nodiscard]] const std::string& loop_id() const noexcept { return signature_->loop_id; }
  [[nodiscard]] const std::string& func() const noexcept { return signature_->func; }
  [[nodiscard]] const instr::InstructionMix& mix() const noexcept { return signature_->mix; }
  [[nodiscard]] std::int64_t bytes_per_iteration() const noexcept {
    return signature_->bytes_per_iteration;
  }
  /// The interned signature (never null; outlives the handle).
  [[nodiscard]] const instr::KernelSignature* signature() const noexcept { return signature_; }
  [[nodiscard]] raja::PolicyType default_policy() const noexcept { return default_policy_; }

  /// The cached per-kernel context (nullptr until the first launch resolved
  /// it). Maintained by Runtime::context_for; const because resolution does
  /// not change the kernel's identity.
  [[nodiscard]] KernelContext* cached_context() const noexcept {
    return context_.load(std::memory_order_acquire);
  }
  void cache_context(KernelContext* context) const noexcept {
    context_.store(context, std::memory_order_release);
  }

private:
  const instr::KernelSignature* signature_;
  raja::PolicyType default_policy_;
  mutable std::atomic<KernelContext*> context_{nullptr};
};

}  // namespace apollo
