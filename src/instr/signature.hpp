#pragma once

// Kernel signatures and the process-wide table that interns them.
//
// A signature binds a kernel's stable identity (`loop_id` — the paper uses
// the kernel's code address; we use a string id chosen at the call site) to
// its name, instruction mix, and per-iteration working-set footprint. Each
// KernelHandle interns its signature once, and every training sample the
// runtime records for that kernel points at the interned copy instead of
// carrying its own: the kernel's constants are stored once per kernel, not
// once per launch.

#include <cstdint>
#include <string>

#include "instr/mix.hpp"

namespace apollo::instr {

struct KernelSignature {
  std::string loop_id;       ///< stable identifier (paper: kernel address)
  std::string func;          ///< human-readable function name
  InstructionMix mix;        ///< mnemonic-group counts for the body
  std::int64_t bytes_per_iteration = 0;  ///< streamed bytes/iter (working set)

  /// Table I `func_size`: total instructions in the kernel body.
  [[nodiscard]] std::int64_t func_size() const noexcept { return mix.total(); }

  bool operator==(const KernelSignature&) const = default;
};

/// The process-wide copy of `signature`, keyed by the whole signature: equal
/// signatures share one address, and two kernels that share a loop id but
/// differ in any other field get two. Entries are never freed, so the
/// pointer stays valid for the life of the process — past the KernelHandle
/// that interned it. Thread-safe; one lock and one hash per call.
[[nodiscard]] const KernelSignature* intern_signature(const KernelSignature& signature);

}  // namespace apollo::instr
