#include "instr/signature.hpp"

#include <functional>
#include <mutex>
#include <unordered_set>

namespace apollo::instr {

namespace {

struct SignatureHash {
  std::size_t operator()(const KernelSignature& s) const noexcept {
    std::size_t h = std::hash<std::string>{}(s.loop_id);
    const auto fold = [&h](std::uint64_t v) { h = (h ^ v) * 0x100000001b3ULL; };
    fold(std::hash<std::string>{}(s.func));
    fold(static_cast<std::uint64_t>(s.bytes_per_iteration));
    for (std::size_t m = 0; m < kMnemonicCount; ++m) {
      fold(static_cast<std::uint64_t>(s.mix.count(static_cast<Mnemonic>(m))));
    }
    return h;
  }
};

}  // namespace

const KernelSignature* intern_signature(const KernelSignature& signature) {
  // Node-based, so an entry's address survives rehashing. Leaked on purpose:
  // samples in a static runtime's buffer may point here during exit.
  struct Table {
    std::mutex mutex;
    std::unordered_set<KernelSignature, SignatureHash> entries;
  };
  static auto* const table = new Table();
  const std::lock_guard lock(table->mutex);
  return &*table->entries.insert(signature).first;
}

}  // namespace apollo::instr
