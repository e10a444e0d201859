// Unit tests for instruction-mix features and the kernel signature table.

#include <gtest/gtest.h>

#include <set>

#include "instr/mix.hpp"
#include "instr/signature.hpp"

namespace instr = apollo::instr;

TEST(Mnemonic, NamesAreUniqueAndNonEmpty) {
  std::set<std::string> names;
  for (std::size_t m = 0; m < instr::kMnemonicCount; ++m) {
    const std::string name = instr::mnemonic_name(static_cast<instr::Mnemonic>(m));
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "?");
    names.insert(name);
  }
  EXPECT_EQ(names.size(), instr::kMnemonicCount);
}

TEST(Mnemonic, TableOneSpellings) {
  EXPECT_STREQ(instr::mnemonic_name(instr::Mnemonic::and_), "and");
  EXPECT_STREQ(instr::mnemonic_name(instr::Mnemonic::xor_), "xor");
  EXPECT_STREQ(instr::mnemonic_name(instr::Mnemonic::shl), "shl");
  EXPECT_STREQ(instr::mnemonic_name(instr::Mnemonic::movsd), "movsd");
}

TEST(InstructionMix, StartsEmpty) {
  const instr::InstructionMix mix;
  EXPECT_EQ(mix.total(), 0);
  EXPECT_EQ(mix.flops(), 0);
  EXPECT_EQ(mix.memory_ops(), 0);
  EXPECT_EQ(mix.expensive_ops(), 0);
}

TEST(InstructionMix, SetAddCount) {
  instr::InstructionMix mix;
  mix.set(instr::Mnemonic::add, 5);
  mix.add(instr::Mnemonic::add, 3);
  EXPECT_EQ(mix.count(instr::Mnemonic::add), 8);
  EXPECT_EQ(mix.total(), 8);
}

TEST(InstructionMix, CategoryAccessors) {
  instr::InstructionMix mix;
  mix.set(instr::Mnemonic::add, 2);
  mix.set(instr::Mnemonic::mulpd, 3);
  mix.set(instr::Mnemonic::divsd, 1);
  mix.set(instr::Mnemonic::sqrtsd, 2);
  mix.set(instr::Mnemonic::mov, 4);
  mix.set(instr::Mnemonic::movsd, 5);
  mix.set(instr::Mnemonic::cmp, 7);
  EXPECT_EQ(mix.flops(), 5);
  EXPECT_EQ(mix.expensive_ops(), 3);
  EXPECT_EQ(mix.memory_ops(), 9);
  EXPECT_EQ(mix.total(), 24);
}

TEST(MixBuilder, TotalsMatchRequests) {
  const auto mix = instr::MixBuilder{}.fp(7).div(2).sqrt(1).load(4).store(3).control(6).build();
  EXPECT_EQ(mix.flops(), 7);
  EXPECT_EQ(mix.expensive_ops(), 3);
  EXPECT_EQ(mix.count(instr::Mnemonic::movsd), 4);
  EXPECT_EQ(mix.count(instr::Mnemonic::mov), 3);
  // control(6) distributes across cmp/jb/test and sums to 6.
  EXPECT_EQ(mix.count(instr::Mnemonic::cmp) + mix.count(instr::Mnemonic::jb) +
                mix.count(instr::Mnemonic::test),
            6);
  EXPECT_EQ(mix.total(), 7 + 3 + 4 + 3 + 6);
}

TEST(MixBuilder, MinmaxCompareLogicDistribute) {
  const auto mix = instr::MixBuilder{}.minmax(3).compare(5).logic(7).build();
  EXPECT_EQ(mix.count(instr::Mnemonic::maxsd) + mix.count(instr::Mnemonic::minsd), 3);
  EXPECT_EQ(mix.count(instr::Mnemonic::comisd) + mix.count(instr::Mnemonic::ucomisd), 5);
  EXPECT_EQ(mix.count(instr::Mnemonic::and_) + mix.count(instr::Mnemonic::xor_) +
                mix.count(instr::Mnemonic::sar),
            7);
}

TEST(InternSignature, EqualSignaturesShareOneAddress) {
  const instr::KernelSignature sig{"test:interned", "Interned", instr::MixBuilder{}.fp(4).build(),
                                   32};
  const instr::KernelSignature* first = instr::intern_signature(sig);
  EXPECT_EQ(instr::intern_signature(instr::KernelSignature(sig)), first);
  EXPECT_EQ(*first, sig);
  EXPECT_EQ(first->func_size(), 4);

  // The key is the whole signature: any differing field is another entry.
  auto other_mix = sig;
  other_mix.mix = instr::MixBuilder{}.fp(5).build();
  auto other_func = sig;
  other_func.func = "Renamed";
  auto other_bytes = sig;
  other_bytes.bytes_per_iteration = 64;
  for (const auto& other : {other_mix, other_func, other_bytes}) {
    const instr::KernelSignature* entry = instr::intern_signature(other);
    EXPECT_NE(entry, first);
    EXPECT_EQ(entry->loop_id, "test:interned");
    EXPECT_EQ(*entry, other);
  }
  EXPECT_EQ(instr::intern_signature(sig), first);  // earlier entries stay put
}
