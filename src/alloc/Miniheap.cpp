//===- alloc/Miniheap.cpp - One-size-class randomized slab -----------------===//

#include "alloc/Miniheap.h"

#include "alloc/SizeClass.h"

#include <bit>
#include <cstddef>
#include <cstring>

using namespace exterminator;

Miniheap::Miniheap(unsigned SizeClassIndex, size_t NumSlots,
                   uint64_t CreationTime, size_t GuardBytes)
    : SizeClassIndex(SizeClassIndex),
      ObjectSize(sizeclass::classSize(SizeClassIndex)),
      ObjectShift(std::countr_zero(ObjectSize)), NumSlots(NumSlots),
      CreationTime(CreationTime) {
  // The layout pin (offsetof needs member access, hence here): none of
  // the fields the lock-free paths read on every call may reach the cache
  // line InUse starts on.
  constexpr size_t InUseLine =
      offsetof(Miniheap, InUse) / CacheLineBytes * CacheLineBytes;
  constexpr auto EndsBeforeInUse = [](size_t Offset, size_t Size) {
    return Offset + Size <= InUseLine;
  };
  static_assert(
      EndsBeforeInUse(offsetof(Miniheap, ObjectSize), sizeof(ObjectSize)) &&
          EndsBeforeInUse(offsetof(Miniheap, Slab), sizeof(Slab)) &&
          EndsBeforeInUse(offsetof(Miniheap, Metadata), sizeof(Metadata)) &&
          EndsBeforeInUse(offsetof(Miniheap, PendingFreeWords),
                          sizeof(PendingFreeWords)),
      "Miniheap::InUse shares a cache line with lock-free-read fields");
  assert(NumSlots > 0 && "miniheap must have at least one slot");
  // Guard regions on both sides absorb forward overflows off the last
  // slot and backward overflows off the first (the sparse address space
  // between real miniheaps plays this role in the paper).
  GuardOffset = GuardBytes;
  const size_t SlabBytes = NumSlots * ObjectSize + 2 * GuardBytes;
  Slab = std::make_unique<uint8_t[]>(SlabBytes);
  std::memset(Slab.get(), 0, SlabBytes);
  InUse.resize(NumSlots);
  Metadata = std::make_unique<SlotMetadata[]>(NumSlots);
  PendingFreeWords =
      std::make_unique<std::atomic<uint64_t>[]>((NumSlots + 63) / 64);
}

bool Miniheap::contains(const void *Ptr) const {
  const uint8_t *Addr = static_cast<const uint8_t *>(Ptr);
  return Addr >= base() && Addr < base() + NumSlots * ObjectSize;
}

std::optional<size_t> Miniheap::slotContaining(const void *Ptr) const {
  if (!contains(Ptr))
    return std::nullopt;
  const uint8_t *Addr = static_cast<const uint8_t *>(Ptr);
  // Object sizes are powers of two: shift instead of divide.
  return static_cast<size_t>(Addr - base()) >> ObjectShift;
}

void Miniheap::markAllocated(size_t Slot) {
  [[maybe_unused]] bool Changed = InUse.set(Slot);
  assert(Changed && "slot was already allocated");
}

void Miniheap::markFree(size_t Slot) {
  [[maybe_unused]] bool Changed = InUse.reset(Slot);
  assert(Changed && "slot was already free");
}
