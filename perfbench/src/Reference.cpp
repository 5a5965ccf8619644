//===- perfbench/src/Reference.cpp - Interleaved yardstick ------------------===//

#include "Reference.h"

#include "Harness.h"

#include <cstdlib>
#include <cstring>

using namespace perfbench;

namespace {

/// Every run matches 1 MiB and churns 8192 blocks (16..1039 bytes), in
/// Rounds rounds over one working set.  The input is image-like: long runs
/// of one word between literal stretches, so the match finder both
/// extends and misses.
constexpr size_t WorkingSetBytes = size_t(256) << 10;
constexpr unsigned Rounds = 4;
constexpr unsigned TableBits = 14;
constexpr size_t MaxMatch = 256;
constexpr unsigned BlocksPerRound = 8192 / Rounds;

uint32_t load32(const uint8_t *P) {
  uint32_t V;
  std::memcpy(&V, P, sizeof(V));
  return V;
}

} // namespace

ReferenceKernel::ReferenceKernel(uint64_t Seed)
    : Input(WorkingSetBytes), Table(size_t(1) << TableBits) {
  uint64_t State = mixSeed(Seed, 0xCA11B);
  const auto Next = [&State] {
    State = mixSeed(State, 1);
    return State;
  };
  for (size_t I = 0; I < WorkingSetBytes;) {
    const size_t Run = 8 + Next() % 504;
    const bool Literal = Next() % 3 == 0;
    const uint64_t Word = Next() % 4 == 0 ? 0 : Next();
    for (size_t K = 0; K < Run && I < WorkingSetBytes; ++K, ++I)
      Input[I] = Literal ? static_cast<uint8_t>(Next())
                         : static_cast<uint8_t>(Word >> (8 * (I % 8)));
  }
  for (unsigned B = 0; B < BlocksPerRound; ++B) {
    Sizes.push_back(16 + static_cast<uint32_t>(Next() % 1024));
    Order.push_back(B);
  }
  for (unsigned B = BlocksPerRound - 1; B > 0; --B)
    std::swap(Order[B], Order[Next() % (B + 1)]);
  Expected = once();
}

uint64_t ReferenceKernel::once() {
  uint64_t Sum = 0xcbf29ce484222325ull;
  for (unsigned Round = 0; Round < Rounds; ++Round)
    Sum = round(Sum);
  return Sum;
}

uint64_t ReferenceKernel::round(uint64_t Sum) {
  // LZ-style match finding over the input.
  std::memset(Table.data(), 0xff, Table.size() * sizeof(uint32_t));
  const uint8_t *Data = Input.data();
  for (size_t I = 0; I + 4 + MaxMatch <= WorkingSetBytes;) {
    const uint32_t Hash = (load32(Data + I) * 2654435761u) >> (32 - TableBits);
    const uint32_t Candidate = Table[Hash];
    Table[Hash] = static_cast<uint32_t>(I);
    size_t Length = 0;
    if (Candidate != 0xffffffffu)
      while (Length < MaxMatch && Data[Candidate + Length] == Data[I + Length])
        ++Length;
    if (Length >= 4) {
      Sum = (Sum ^ (I - Candidate) ^ (Length << 32)) * 0x100000001b3ull;
      I += Length;
    } else {
      Sum = (Sum ^ Data[I]) * 0x100000001b3ull;
      ++I;
    }
  }
  // Allocation churn: fill every block, free in a shuffled order.
  std::vector<uint8_t *> Blocks(BlocksPerRound);
  for (unsigned B = 0; B < BlocksPerRound; ++B) {
    Blocks[B] = static_cast<uint8_t *>(std::malloc(Sizes[B]));
    if (!Blocks[B])
      return 0;
    std::memset(Blocks[B], static_cast<int>(B), Sizes[B]);
  }
  for (unsigned B : Order) {
    Sum = (Sum ^ Blocks[B][Sizes[B] - 1]) * 0x100000001b3ull;
    std::free(Blocks[B]);
  }
  return Sum;
}

bool ReferenceKernel::run() {
  const Clock::time_point Start = Clock::now();
  const uint64_t Sum = once();
  Ms.push_back(msBetween(Start, Clock::now()));
  return Sum == Expected;
}
