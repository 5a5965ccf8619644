//===- tests/alloc_test.cpp - Allocator substrate tests ----------------------===//

#include "alloc/BaselineAllocator.h"
#include "alloc/ConcurrentAllocator.h"
#include "alloc/DieHardHeap.h"
#include "alloc/Miniheap.h"
#include "alloc/SizeClass.h"
#include "diefast/DieFastHeap.h"
#include "runtime/ConcurrentStress.h"
#include "support/RandomGenerator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <map>
#include <set>
#include <thread>
#include <utility>
#include <vector>

using namespace exterminator;

//===----------------------------------------------------------------------===//
// Size classes
//===----------------------------------------------------------------------===//

TEST(SizeClass, ClassSizesArePowersOfTwo) {
  for (unsigned C = 0; C < sizeclass::numClasses(); ++C) {
    const size_t Size = sizeclass::classSize(C);
    EXPECT_EQ(Size & (Size - 1), 0u) << "class " << C;
  }
}

TEST(SizeClass, SmallestAndLargest) {
  EXPECT_EQ(sizeclass::classSize(0), sizeclass::MinObjectSize);
  EXPECT_EQ(sizeclass::classSize(sizeclass::numClasses() - 1),
            sizeclass::MaxObjectSize);
}

TEST(SizeClass, FitsBoundaries) {
  EXPECT_FALSE(sizeclass::fits(0));
  EXPECT_TRUE(sizeclass::fits(1));
  EXPECT_TRUE(sizeclass::fits(sizeclass::MaxObjectSize));
  EXPECT_FALSE(sizeclass::fits(sizeclass::MaxObjectSize + 1));
}

// Property sweep: every representable size maps to the smallest class
// that fits it.
class SizeClassSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(SizeClassSweep, RequestFitsItsClassTightly) {
  const size_t Size = GetParam();
  const unsigned Class = sizeclass::classFor(Size);
  EXPECT_GE(sizeclass::classSize(Class), Size);
  if (Class > 0) {
    EXPECT_LT(sizeclass::classSize(Class - 1), Size);
  }
}

INSTANTIATE_TEST_SUITE_P(RepresentativeSizes, SizeClassSweep,
                         ::testing::Values(1, 7, 8, 9, 15, 16, 17, 31, 32,
                                           33, 63, 64, 65, 100, 127, 128,
                                           129, 255, 256, 257, 1000, 1024,
                                           4095, 4096, 65536, 1048576));

//===----------------------------------------------------------------------===//
// Miniheap
//===----------------------------------------------------------------------===//

TEST(Miniheap, LayoutIsContiguous) {
  Miniheap Mini(/*SizeClassIndex=*/2, /*NumSlots=*/16, /*CreationTime=*/0,
                /*GuardBytes=*/64);
  EXPECT_EQ(Mini.objectSize(), 32u);
  for (size_t I = 0; I + 1 < 16; ++I)
    EXPECT_EQ(Mini.slotPointer(I) + 32, Mini.slotPointer(I + 1));
}

TEST(Miniheap, ContainsAndSlotContaining) {
  Miniheap Mini(0, 8, 0, 64);
  EXPECT_TRUE(Mini.contains(Mini.slotPointer(0)));
  EXPECT_TRUE(Mini.contains(Mini.slotPointer(7) + 7));
  EXPECT_FALSE(Mini.contains(Mini.slotPointer(7) + 8)); // guard region
  EXPECT_EQ(Mini.slotContaining(Mini.slotPointer(3) + 5),
            std::optional<size_t>(3));
  int Local;
  EXPECT_FALSE(Mini.contains(&Local));
}

TEST(Miniheap, MarkAllocatedAndFree) {
  Miniheap Mini(1, 8, 0, 0);
  EXPECT_FALSE(Mini.isAllocated(2));
  Mini.markAllocated(2);
  EXPECT_TRUE(Mini.isAllocated(2));
  EXPECT_EQ(Mini.allocatedCount(), 1u);
  Mini.markFree(2);
  EXPECT_FALSE(Mini.isAllocated(2));
}

TEST(Miniheap, SlabStartsZeroed) {
  Miniheap Mini(1, 4, 0, 0);
  for (size_t I = 0; I < 4 * 16; ++I)
    EXPECT_EQ(Mini.base()[I], 0);
}

TEST(Miniheap, MetadataStartsCleared) {
  Miniheap Mini(1, 4, 0, 0);
  for (size_t I = 0; I < 4; ++I) {
    EXPECT_EQ(Mini.slot(I).ObjectId, 0u);
    EXPECT_FALSE(Mini.slot(I).Canaried);
    EXPECT_FALSE(Mini.slot(I).Bad);
  }
}

//===----------------------------------------------------------------------===//
// DieHardHeap
//===----------------------------------------------------------------------===//

static DieHardConfig testConfig(uint64_t Seed = 1) {
  DieHardConfig Config;
  Config.Seed = Seed;
  Config.InitialSlots = 16;
  return Config;
}

TEST(DieHardHeap, AllocateReturnsWritableMemory) {
  DieHardHeap Heap(testConfig());
  void *Ptr = Heap.allocate(100);
  ASSERT_NE(Ptr, nullptr);
  std::memset(Ptr, 0xcd, 100);
  EXPECT_EQ(static_cast<uint8_t *>(Ptr)[99], 0xcd);
}

TEST(DieHardHeap, AllocationsDoNotOverlap) {
  DieHardHeap Heap(testConfig());
  std::vector<std::pair<uint8_t *, size_t>> Objects;
  for (int I = 0; I < 200; ++I) {
    const size_t Size = 16 + (I % 5) * 24;
    uint8_t *Ptr = static_cast<uint8_t *>(Heap.allocate(Size));
    ASSERT_NE(Ptr, nullptr);
    Objects.push_back({Ptr, Size});
  }
  for (size_t A = 0; A < Objects.size(); ++A)
    for (size_t B = A + 1; B < Objects.size(); ++B) {
      const bool Disjoint =
          Objects[A].first + Objects[A].second <= Objects[B].first ||
          Objects[B].first + Objects[B].second <= Objects[A].first;
      EXPECT_TRUE(Disjoint) << A << " overlaps " << B;
    }
}

TEST(DieHardHeap, ZeroSizeAndOversizeRejected) {
  DieHardHeap Heap(testConfig());
  EXPECT_EQ(Heap.allocate(0), nullptr);
  EXPECT_EQ(Heap.allocate(sizeclass::MaxObjectSize + 1), nullptr);
}

TEST(DieHardHeap, ClockCountsAllocations) {
  DieHardHeap Heap(testConfig());
  EXPECT_EQ(Heap.allocationClock(), 0u);
  Heap.allocate(16);
  Heap.allocate(16);
  EXPECT_EQ(Heap.allocationClock(), 2u);
}

TEST(DieHardHeap, ObjectIdsAreSequential) {
  DieHardHeap Heap(testConfig());
  for (uint64_t I = 1; I <= 5; ++I) {
    void *Ptr = Heap.allocate(32);
    auto Ref = Heap.findObject(Ptr);
    ASSERT_TRUE(Ref.has_value());
    EXPECT_EQ(Heap.objectMetadata(*Ref).ObjectId, I);
  }
}

TEST(DieHardHeap, InvalidFreeIsIgnoredAndCounted) {
  DieHardHeap Heap(testConfig());
  int Local = 0;
  Heap.deallocate(&Local);
  EXPECT_EQ(Heap.stats().InvalidFrees, 1u);
  EXPECT_EQ(Heap.stats().Deallocations, 0u);
}

TEST(DieHardHeap, InteriorPointerFreeIsInvalid) {
  DieHardHeap Heap(testConfig());
  uint8_t *Ptr = static_cast<uint8_t *>(Heap.allocate(64));
  Heap.deallocate(Ptr + 8);
  EXPECT_EQ(Heap.stats().InvalidFrees, 1u);
  EXPECT_TRUE(Heap.isLivePointer(Ptr));
}

TEST(DieHardHeap, DoubleFreeIsIgnoredAndCounted) {
  DieHardHeap Heap(testConfig());
  void *Ptr = Heap.allocate(64);
  Heap.deallocate(Ptr);
  Heap.deallocate(Ptr);
  EXPECT_EQ(Heap.stats().Deallocations, 1u);
  EXPECT_EQ(Heap.stats().DoubleFrees, 1u);
}

TEST(DieHardHeap, FreeRecordsTimeAndLiveness) {
  DieHardHeap Heap(testConfig());
  void *Ptr = Heap.allocate(64);
  Heap.allocate(64);
  auto Ref = Heap.findObject(Ptr);
  ASSERT_TRUE(Ref.has_value());
  EXPECT_TRUE(Heap.isLivePointer(Ptr));
  Heap.deallocate(Ptr);
  EXPECT_FALSE(Heap.isLivePointer(Ptr));
  EXPECT_EQ(Heap.objectMetadata(*Ref).FreeTime, 2u);
}

TEST(DieHardHeap, FindObjectMapsInteriorAddresses) {
  DieHardHeap Heap(testConfig());
  uint8_t *Ptr = static_cast<uint8_t *>(Heap.allocate(128));
  auto Ref = Heap.findObject(Ptr + 100);
  ASSERT_TRUE(Ref.has_value());
  EXPECT_EQ(Heap.objectPointer(*Ref), Ptr);
}

TEST(DieHardHeap, FindObjectRejectsForeignAddresses) {
  DieHardHeap Heap(testConfig());
  Heap.allocate(64);
  int Local;
  EXPECT_FALSE(Heap.findObject(&Local).has_value());
  EXPECT_FALSE(Heap.findObject(nullptr).has_value());
}

TEST(DieHardHeap, FindObjectRejectsGuardRegionAddresses) {
  // Guard regions flank each slab; addresses in them share pages with
  // the object region but must not resolve (that is how DieFast probes
  // one-past-the-end pointers safely).
  DieHardHeap Heap(testConfig());
  void *Ptr = Heap.allocate(64);
  auto Ref = Heap.findObject(Ptr);
  ASSERT_TRUE(Ref.has_value());
  const Miniheap &Mini = Heap.miniheap(*Ref);
  const uint8_t *Base = Mini.base();
  const uint8_t *End = Base + Mini.numSlots() * Mini.objectSize();
  EXPECT_FALSE(Heap.findObject(Base - 1).has_value());
  EXPECT_FALSE(Heap.findObject(End).has_value()); // one past the end
  EXPECT_FALSE(Heap.findObject(End + 100).has_value());
  EXPECT_TRUE(Heap.findObject(Base).has_value());
  EXPECT_TRUE(Heap.findObject(End - 1).has_value());
}

TEST(DieHardHeap, FastAndLegacyLookupAgree) {
  // The page directory and the sorted-range fallback are two indexes of
  // the same slabs; they must agree on every probe, hits and misses.
  DieHardConfig Fast = testConfig();
  DieHardConfig Legacy = testConfig();
  Legacy.LegacyHotPath = true;
  DieHardHeap A(Fast), B(Legacy);
  std::vector<void *> FromA, FromB;
  for (int I = 0; I < 300; ++I) {
    const size_t Size = 8u << (I % 5);
    FromA.push_back(A.allocate(Size));
    FromB.push_back(B.allocate(Size));
  }
  for (size_t I = 0; I < FromA.size(); ++I) {
    // Same seed, same stream: the two heaps place identically, so slots
    // found by each lookup must match ref-for-ref.
    auto Ra = A.findObject(FromA[I]);
    auto Rb = B.findObject(FromB[I]);
    ASSERT_TRUE(Ra.has_value());
    ASSERT_TRUE(Rb.has_value());
    EXPECT_EQ(*Ra, *Rb);
    // Interior and guard probes agree between the two index structures.
    auto Ia = A.findObject(static_cast<uint8_t *>(FromA[I]) + 3);
    ASSERT_TRUE(Ia.has_value());
    EXPECT_EQ(*Ia, *Ra);
  }
}

TEST(DieHardHeap, PlacementIsUniformAcrossSlots) {
  // Chi-squared sanity check over a single 64-slot miniheap: reserving
  // and releasing one slot at a time, every slot must be drawn with the
  // same frequency (the uniformity DieHard's guarantees rest on, §3.1).
  // The seed is fixed, so the statistic is deterministic.
  DieHardConfig Config = testConfig(1234);
  Config.InitialSlots = 64;
  DieHardHeap Heap(Config);
  constexpr int PerSlot = 300;
  constexpr int Draws = 64 * PerSlot;
  std::vector<int> Counts(64, 0);
  for (int I = 0; I < Draws; ++I) {
    const ObjectRef Ref = Heap.reserveSlot(0);
    ASSERT_LT(Ref.SlotIndex, 64u);
    ++Counts[Ref.SlotIndex];
    Heap.deallocateResolved(Ref);
  }
  double Chi2 = 0;
  for (int Count : Counts) {
    const double Delta = Count - PerSlot;
    Chi2 += Delta * Delta / PerSlot;
  }
  // 63 degrees of freedom: mean 63, sd ~11.2; 130 is ~6 sigma.
  EXPECT_LT(Chi2, 130.0);
}

TEST(DieHardHeap, PlacementIsUniformAcrossMiniheaps) {
  // Multi-slab uniformity: with live objects pinned and several
  // miniheaps in the class, the offset-table placement must still draw
  // every *free* slot equally often (and never a live one).
  DieHardConfig Config = testConfig(99);
  Config.InitialSlots = 64;
  DieHardHeap Heap(Config);
  std::vector<ObjectRef> Pinned;
  for (int I = 0; I < 100; ++I)
    Pinned.push_back(Heap.reserveSlot(0));
  ASSERT_GE(Heap.classHeapCount(0), 2u);
  const size_t Capacity = Heap.classCapacity(0);
  const size_t FreeSlots = Capacity - Pinned.size();

  // Tally draws by class-global slot index.
  std::vector<size_t> Offsets(Heap.classHeapCount(0), 0);
  for (unsigned H = 1; H < Heap.classHeapCount(0); ++H)
    Offsets[H] =
        Offsets[H - 1] +
        Heap.miniheap(ObjectRef{0, H - 1, 0}).numSlots();
  std::vector<int> Counts(Capacity, 0);
  constexpr int PerSlot = 100;
  const int Draws = static_cast<int>(FreeSlots) * PerSlot;
  for (int I = 0; I < Draws; ++I) {
    const ObjectRef Ref = Heap.reserveSlot(0);
    ++Counts[Offsets[Ref.HeapIndex] + Ref.SlotIndex];
    Heap.deallocateResolved(Ref);
  }
  double Chi2 = 0;
  int FreeSeen = 0;
  for (const ObjectRef &Ref : Pinned)
    EXPECT_EQ(Counts[Offsets[Ref.HeapIndex] + Ref.SlotIndex], 0)
        << "live slot was chosen";
  for (size_t I = 0; I < Capacity; ++I) {
    if (Counts[I] == 0)
      continue; // pinned (checked above) — free slots all get draws
    ++FreeSeen;
    const double Delta = Counts[I] - PerSlot;
    Chi2 += Delta * Delta / PerSlot;
  }
  EXPECT_EQ(FreeSeen, static_cast<int>(FreeSlots));
  // df = FreeSlots - 1; bound at ~6 sigma above the mean.
  const double Df = static_cast<double>(FreeSlots - 1);
  EXPECT_LT(Chi2, Df + 6.0 * std::sqrt(2.0 * Df));
}

TEST(DieHardHeap, FastAndLegacyPlacementSequencesMatch) {
  // Same seed, same draw stream: the offset-table resolve must pick the
  // exact slot the legacy linear walk picked, allocation for allocation.
  DieHardConfig Fast = testConfig(7);
  DieHardConfig Legacy = testConfig(7);
  Legacy.LegacyHotPath = true;
  DieHardHeap A(Fast), B(Legacy);
  for (int I = 0; I < 2000; ++I) {
    ObjectRef Ra, Rb;
    const size_t Size = 8u << (I % 4);
    ASSERT_NE(A.allocateWithRef(Size, Ra), nullptr);
    ASSERT_NE(B.allocateWithRef(Size, Rb), nullptr);
    ASSERT_EQ(Ra, Rb) << "placement diverged at allocation " << I;
  }
}

TEST(DieHardHeap, MultiplierKeepsHeapUnderOccupied) {
  // The heap invariant: live objects never exceed capacity / M (§3.1).
  DieHardConfig Config = testConfig();
  Config.Multiplier = 2.0;
  DieHardHeap Heap(Config);
  for (int I = 0; I < 500; ++I)
    Heap.allocate(32);
  const unsigned Class = sizeclass::classFor(32);
  EXPECT_GE(Heap.classCapacity(Class),
            static_cast<size_t>(Heap.liveObjectCount() * 2));
}

TEST(DieHardHeap, MiniheapsDoubleInSize) {
  DieHardHeap Heap(testConfig());
  for (int I = 0; I < 300; ++I)
    Heap.allocate(32);
  const unsigned Class = sizeclass::classFor(32);
  const unsigned HeapCount = Heap.classHeapCount(Class);
  ASSERT_GE(HeapCount, 2u);
  size_t PrevSlots = 0;
  Heap.forEachMiniheap([&](unsigned C, unsigned /*H*/, const Miniheap &Mini) {
    if (C != Class)
      return;
    if (PrevSlots) {
      EXPECT_EQ(Mini.numSlots(), PrevSlots * 2);
    }
    PrevSlots = Mini.numSlots();
  });
}

TEST(DieHardHeap, PlacementDiffersAcrossSeeds) {
  // Differently-seeded heaps must randomize object placement
  // independently — the foundation of every probabilistic claim.
  DieHardHeap A(testConfig(1)), B(testConfig(2));
  unsigned SameSlot = 0;
  constexpr int N = 64;
  for (int I = 0; I < N; ++I) {
    void *Pa = A.allocate(32);
    void *Pb = B.allocate(32);
    auto Ra = A.findObject(Pa);
    auto Rb = B.findObject(Pb);
    if (Ra->SlotIndex == Rb->SlotIndex && Ra->HeapIndex == Rb->HeapIndex)
      ++SameSlot;
  }
  EXPECT_LT(SameSlot, N / 2);
}

TEST(DieHardHeap, SameSeedIsReproducible) {
  DieHardHeap A(testConfig(77)), B(testConfig(77));
  for (int I = 0; I < 64; ++I) {
    auto Ra = A.findObject(A.allocate(48));
    auto Rb = B.findObject(B.allocate(48));
    EXPECT_EQ(Ra->SlotIndex, Rb->SlotIndex);
    EXPECT_EQ(Ra->HeapIndex, Rb->HeapIndex);
  }
}

TEST(DieHardHeap, PlacementIsRoughlyUniform) {
  // Chi-square-ish check: allocate/free repeatedly in a fixed-capacity
  // class and confirm every slot gets used.
  DieHardHeap Heap(testConfig(5));
  std::map<size_t, int> SlotUse;
  for (int I = 0; I < 2000; ++I) {
    void *Ptr = Heap.allocate(32);
    auto Ref = Heap.findObject(Ptr);
    ++SlotUse[Ref->SlotIndex + 1000 * Ref->HeapIndex];
    Heap.deallocate(Ptr);
  }
  EXPECT_GT(SlotUse.size(), 10u);
}

TEST(DieHardHeap, QuarantineBlocksReuse) {
  DieHardHeap Heap(testConfig());
  void *Ptr = Heap.allocate(32);
  auto Ref = Heap.findObject(Ptr);
  Heap.deallocate(Ptr);
  Heap.quarantine(*Ref);
  // The quarantined slot must never be returned again.
  for (int I = 0; I < 200; ++I)
    EXPECT_NE(Heap.allocate(32), Ptr);
  // Freeing it counts as a double free and changes nothing.
  Heap.deallocate(Ptr);
  EXPECT_EQ(Heap.stats().DoubleFrees, 1u);
}

TEST(DieHardHeap, SiteHashesRecordedFromContext) {
  CallContext Context;
  Context.pushFrame(0xaa);
  DieHardHeap Heap(testConfig(), &Context);
  void *Ptr;
  {
    CallContext::Scope Scope(Context, 0xbb);
    Ptr = Heap.allocate(32);
  }
  auto Ref = Heap.findObject(Ptr);
  const SiteId AllocSite = Heap.objectMetadata(*Ref).AllocSite;
  EXPECT_NE(AllocSite, 0u);
  {
    CallContext::Scope Scope(Context, 0xcc);
    Heap.deallocate(Ptr);
  }
  EXPECT_NE(Heap.objectMetadata(*Ref).FreeSite, 0u);
  EXPECT_NE(Heap.objectMetadata(*Ref).FreeSite, AllocSite);
}

TEST(DieHardHeap, NeighborSlotsAreAddressOrdered) {
  DieHardHeap Heap(testConfig());
  void *Ptr = nullptr;
  // Find an object with both neighbors.
  std::optional<ObjectRef> Mid;
  for (int I = 0; I < 50 && !Mid; ++I) {
    Ptr = Heap.allocate(32);
    auto Ref = Heap.findObject(Ptr);
    if (Ref->SlotIndex > 0 &&
        Ref->SlotIndex + 1 < Heap.miniheap(*Ref).numSlots())
      Mid = Ref;
  }
  ASSERT_TRUE(Mid.has_value());
  auto Prev = Heap.previousSlot(*Mid);
  auto Next = Heap.nextSlot(*Mid);
  ASSERT_TRUE(Prev && Next);
  EXPECT_EQ(Heap.objectPointer(*Prev) + Heap.miniheap(*Mid).objectSize(),
            Heap.objectPointer(*Mid));
  EXPECT_EQ(Heap.objectPointer(*Mid) + Heap.miniheap(*Mid).objectSize(),
            Heap.objectPointer(*Next));
}

// Parameterized: the heap behaves across multipliers.
class MultiplierSweep : public ::testing::TestWithParam<double> {};

TEST_P(MultiplierSweep, OccupancyBoundHolds) {
  DieHardConfig Config = testConfig(3);
  Config.Multiplier = GetParam();
  DieHardHeap Heap(Config);
  std::vector<void *> Live;
  RandomGenerator Rng(9);
  for (int I = 0; I < 400; ++I) {
    Live.push_back(Heap.allocate(64));
    if (Live.size() > 20 && Rng.chance(0.5)) {
      const size_t Pick = Rng.nextBelow(Live.size());
      Heap.deallocate(Live[Pick]);
      Live.erase(Live.begin() + Pick);
    }
  }
  const unsigned Class = sizeclass::classFor(64);
  EXPECT_GE(static_cast<double>(Heap.classCapacity(Class)),
            static_cast<double>(Heap.liveObjectCount()) * GetParam());
}

INSTANTIATE_TEST_SUITE_P(Multipliers, MultiplierSweep,
                         ::testing::Values(1.5, 2.0, 3.0, 4.0));

//===----------------------------------------------------------------------===//
// BaselineAllocator
//===----------------------------------------------------------------------===//

TEST(BaselineAllocator, AllocateAndReuse) {
  BaselineAllocator Alloc;
  void *A = Alloc.allocate(40);
  ASSERT_NE(A, nullptr);
  std::memset(A, 1, 40);
  Alloc.deallocate(A);
  // Freelist reuse: the same chunk comes back for an equal-size request.
  void *B = Alloc.allocate(40);
  EXPECT_EQ(B, A);
}

TEST(BaselineAllocator, DistinctLiveChunks) {
  BaselineAllocator Alloc;
  void *A = Alloc.allocate(32);
  void *B = Alloc.allocate(32);
  EXPECT_NE(A, B);
}

TEST(BaselineAllocator, DoubleFreeDetectedViaHeaderTag) {
  BaselineAllocator Alloc;
  void *A = Alloc.allocate(32);
  Alloc.deallocate(A);
  Alloc.deallocate(A);
  EXPECT_EQ(Alloc.stats().InvalidFrees, 1u);
}

TEST(BaselineAllocator, LargeAllocations) {
  BaselineAllocator Alloc;
  void *Big = Alloc.allocate(500000);
  ASSERT_NE(Big, nullptr);
  std::memset(Big, 0x7e, 500000);
  Alloc.deallocate(Big);
  EXPECT_EQ(Alloc.stats().Deallocations, 1u);
}

TEST(BaselineAllocator, ZeroByteRequestSucceeds) {
  BaselineAllocator Alloc;
  EXPECT_NE(Alloc.allocate(0), nullptr);
}

TEST(BaselineAllocator, ManyCycles) {
  BaselineAllocator Alloc;
  for (int I = 0; I < 10000; ++I) {
    void *Ptr = Alloc.allocate(16 + (I % 7) * 8);
    ASSERT_NE(Ptr, nullptr);
    Alloc.deallocate(Ptr);
  }
  EXPECT_EQ(Alloc.stats().Allocations, 10000u);
  EXPECT_EQ(Alloc.stats().Deallocations, 10000u);
}

//===----------------------------------------------------------------------===//
// ConcurrentAllocator (PR 7 front-end)
//===----------------------------------------------------------------------===//

TEST(ConcurrentAllocator, MagazineOfOneMatchesDirectBackend) {
  // With one-slot magazines and a single cache — the one this thread's
  // frees are buffered in — the front-end refills on every allocation
  // and applies every buffered free, in order, before drawing, so the
  // backend sees the exact operation sequence a direct DieHardHeap would:
  // the placement stream must match slot for slot, and the clocks must
  // agree at the end.
  ConcurrentAllocatorConfig Cfg;
  Cfg.Heap = testConfig(21);
  Cfg.MagazineSize = 1;
  ConcurrentAllocator Front(Cfg);
  ConcurrentAllocator::ThreadCache &Cache = Front.threadCache();
  DieHardHeap Direct(testConfig(21));

  RandomGenerator Ops(777);
  std::vector<std::pair<void *, void *>> Live;
  for (int I = 0; I < 3000; ++I) {
    if (!Live.empty() && Ops.chance(0.4)) {
      const size_t Victim = Ops.nextBelow(Live.size());
      Front.deallocate(Live[Victim].first);
      Direct.deallocate(Live[Victim].second);
      Live.erase(Live.begin() + static_cast<ptrdiff_t>(Victim));
    } else {
      const size_t Size = size_t(8) << Ops.nextBelow(4);
      ObjectRef Ra, Rb;
      void *Pa = Front.allocateFrom(Cache, Size, &Ra);
      void *Pb = Direct.allocateWithRef(Size, Rb);
      ASSERT_NE(Pa, nullptr);
      ASSERT_NE(Pb, nullptr);
      ASSERT_EQ(Ra, Rb) << "placement diverged at op " << I;
      Live.push_back({Pa, Pb});
    }
  }
  EXPECT_EQ(Front.allocationClock(), Direct.allocationClock());
}

TEST(ConcurrentAllocator, MagazineOfOneWithCanariesMatchesDieFast) {
  // Same equivalence with DieFast semantics layered on: the canary seed
  // derivation matches DieFastHeap's, so the canary values agree, and
  // verify/zero-fill/fill draw no placement randomness, so the slot
  // streams stay identical too.
  ConcurrentAllocatorConfig Cfg;
  Cfg.Heap = testConfig(22);
  Cfg.MagazineSize = 1;
  Cfg.DieFastCanaries = true;
  Cfg.CanaryFillProbability = 1.0;
  Cfg.ZeroFillAllocations = true;
  ConcurrentAllocator Front(Cfg);
  ConcurrentAllocator::ThreadCache &Cache = Front.threadCache();

  DieFastConfig Reference;
  Reference.Heap = testConfig(22);
  Reference.CanaryFillProbability = 1.0;
  Reference.ZeroFillAllocations = true;
  DieFastHeap Direct(Reference);

  EXPECT_EQ(Front.canary().value(), Direct.canary().value());

  RandomGenerator Ops(4242);
  std::vector<std::pair<void *, void *>> Live;
  for (int I = 0; I < 2000; ++I) {
    if (!Live.empty() && Ops.chance(0.4)) {
      const size_t Victim = Ops.nextBelow(Live.size());
      Front.deallocate(Live[Victim].first);
      Direct.deallocate(Live[Victim].second);
      Live.erase(Live.begin() + static_cast<ptrdiff_t>(Victim));
    } else {
      const size_t Size = size_t(8) << Ops.nextBelow(4);
      ObjectRef Ra;
      void *Pa = Front.allocateFrom(Cache, Size, &Ra);
      void *Pb = Direct.allocate(Size);
      ASSERT_NE(Pa, nullptr);
      ASSERT_NE(Pb, nullptr);
      const auto Rb = Direct.heap().findObject(Pb);
      ASSERT_TRUE(Rb.has_value());
      ASSERT_EQ(Ra, *Rb) << "placement diverged at op " << I;
      Live.push_back({Pa, Pb});
    }
  }
  EXPECT_EQ(Front.errorsSignalled(), 0u);
  EXPECT_EQ(Direct.errorsSignalled(), 0u);
}

TEST(ConcurrentAllocator, PlacementThroughCachesIsUniform) {
  // Chi-squared uniformity with the magazine machinery in the loop: four
  // caches round-robin allocations of one size class, each slot drawn
  // through batched refills.  Batching changes when draws happen, not
  // their distribution — every slot must still be chosen equally often.
  // Sized so the class never grows (reserved magazines + pending frees
  // stay far under capacity / M).
  ConcurrentAllocatorConfig Cfg;
  Cfg.Heap = testConfig(4321);
  Cfg.Heap.InitialSlots = 256;
  Cfg.MagazineSize = 4;
  ConcurrentAllocator Alloc(Cfg);
  constexpr unsigned NumCaches = 4;
  std::vector<ConcurrentAllocator::ThreadCache *> Caches;
  for (unsigned I = 0; I < NumCaches; ++I)
    Caches.push_back(&Alloc.createCache());

  constexpr int PerSlot = 60;
  constexpr int Draws = 256 * PerSlot;
  std::vector<int> Counts(256, 0);
  for (int I = 0; I < Draws; ++I) {
    ObjectRef Ref;
    void *Ptr = Alloc.allocateFrom(*Caches[I % NumCaches], 8, &Ref);
    ASSERT_NE(Ptr, nullptr);
    ASSERT_EQ(Ref.HeapIndex, 0u) << "class grew unexpectedly";
    ++Counts[Ref.SlotIndex];
    Alloc.deallocate(Ptr);
  }
  double Chi2 = 0;
  for (int Count : Counts) {
    const double Delta = Count - PerSlot;
    Chi2 += Delta * Delta / PerSlot;
  }
  // df = 255; bound at ~6 sigma above the mean.
  const double Df = 255.0;
  EXPECT_LT(Chi2, Df + 6.0 * std::sqrt(2.0 * Df));
}

TEST(ConcurrentAllocator, CrossThreadFreesDrainExactlyOnce) {
  // Four workers with cross-thread handoffs: every allocation is freed
  // exactly once (remote or local), every free is applied exactly once, and
  // after a flush the backend's books balance to zero live objects with
  // no double or invalid frees recorded.
  ConcurrentAllocatorConfig Cfg;
  Cfg.Heap = testConfig(91);
  Cfg.MagazineSize = 16;
  ConcurrentAllocator Alloc(Cfg);

  ConcurrentStressConfig Stress;
  Stress.Threads = 4;
  Stress.OpsPerThread = 8000;
  Stress.ResidentPerThread = 16;
  Stress.CrossFreeFraction = 0.4;
  Stress.Seed = 91;
  const ConcurrentStressResult R = runConcurrentStress(Alloc, Stress);

  EXPECT_EQ(R.PatternFaults, 0u);
  EXPECT_EQ(R.FailedAllocations, 0u);
  EXPECT_EQ(R.Allocations, 4u * 8000u);

  Alloc.flushAll();
  EXPECT_EQ(Alloc.pendingRemoteFrees(), 0u);
  EXPECT_EQ(Alloc.backend().liveObjectCount(), 0u);
  const AllocatorStats &S = Alloc.stats();
  EXPECT_EQ(S.Allocations, R.Allocations);
  EXPECT_EQ(S.Deallocations, R.Allocations);
  EXPECT_EQ(S.DoubleFrees, 0u);
  EXPECT_EQ(S.InvalidFrees, 0u);
}

TEST(ConcurrentAllocator, CanaryStateSurvivesConcurrentChurn) {
  // DieFast semantics under contention: no false corruption reports, and
  // after quiescence every freed-and-applied slot (FreeTime > 0) holds an
  // intact canary — the fill-at-apply path left exactly the state the
  // single-threaded heap would have.
  ConcurrentAllocatorConfig Cfg;
  Cfg.Heap = testConfig(92);
  Cfg.MagazineSize = 16;
  Cfg.DieFastCanaries = true;
  Cfg.CanaryFillProbability = 1.0;
  ConcurrentAllocator Alloc(Cfg);

  ConcurrentStressConfig Stress;
  Stress.Threads = 4;
  Stress.OpsPerThread = 4000;
  Stress.ResidentPerThread = 16;
  Stress.CrossFreeFraction = 0.4;
  Stress.Seed = 92;
  const ConcurrentStressResult R = runConcurrentStress(Alloc, Stress);
  EXPECT_EQ(R.PatternFaults, 0u);
  EXPECT_EQ(R.FailedAllocations, 0u);

  Alloc.flushAll();
  EXPECT_EQ(Alloc.errorsSignalled(), 0u);
  EXPECT_EQ(Alloc.backend().liveObjectCount(), 0u);

  size_t CanariedSlots = 0;
  Alloc.backend().forEachMiniheap([&](unsigned, unsigned, Miniheap &Mini) {
    for (size_t Slot = 0; Slot < Mini.numSlots(); ++Slot) {
      const SlotMetadata &Meta = Mini.slot(Slot);
      if (Meta.FreeTime == 0)
        continue; // Never freed (or never allocated).
      ASSERT_TRUE(Meta.Canaried) << "p = 1 fill skipped an applied slot";
      ASSERT_TRUE(Alloc.canary().verify(Mini.slotPointer(Slot),
                                        Mini.objectSize()))
          << "canary damaged in class " << Mini.objectSize() << " slot "
          << Slot;
      ++CanariedSlots;
    }
  });
  EXPECT_GT(CanariedSlots, 0u);
}

TEST(ConcurrentAllocator, CorruptedCanaryIsQuarantinedOnCachedPath) {
  // A dangling write into a canaried slot must be caught at hand-out even
  // when the slot arrives through a magazine: the slot is quarantined
  // (never returned again) and exactly one error is signalled.
  ConcurrentAllocatorConfig Cfg;
  Cfg.Heap = testConfig(5);
  Cfg.MagazineSize = 4;
  Cfg.DieFastCanaries = true;
  ConcurrentAllocator Alloc(Cfg);
  ConcurrentAllocator::ThreadCache &Cache = Alloc.threadCache();

  void *Doomed = Alloc.allocateFrom(Cache, 16);
  ASSERT_NE(Doomed, nullptr);
  Alloc.deallocate(Doomed);
  Alloc.flushCache(Cache); // Apply the free: the slot is canary-filled now.
  static_cast<uint8_t *>(Doomed)[3] ^= 0xff; // The dangling write.

  std::vector<void *> Kept;
  for (int I = 0; I < 2000 && Alloc.errorsSignalled() == 0; ++I) {
    void *Ptr = Alloc.allocateFrom(Cache, 16);
    ASSERT_NE(Ptr, nullptr);
    ASSERT_NE(Ptr, Doomed) << "corrupted slot was handed out";
    Kept.push_back(Ptr);
  }
  EXPECT_EQ(Alloc.errorsSignalled(), 1u);

  const auto Resolved = Alloc.backend().resolvePointer(Doomed);
  ASSERT_TRUE(Resolved.has_value());
  EXPECT_TRUE(Resolved->Heap->slot(Resolved->Ref.SlotIndex).Bad)
      << "corrupted slot was not quarantined";
  for (void *Ptr : Kept)
    Alloc.deallocate(Ptr);
}

TEST(ConcurrentAllocator, DoubleAndInvalidFreesAreCountedLockFree) {
  // The lock-free free path must detect bad frees without the backend
  // lock: a second free of the same pointer bounces off the pending-free
  // bit, and out-of-heap or mid-object pointers bounce off resolution.
  ConcurrentAllocatorConfig Cfg;
  Cfg.Heap = testConfig(17);
  Cfg.MagazineSize = 8;
  ConcurrentAllocator Alloc(Cfg);
  ConcurrentAllocator::ThreadCache &Cache = Alloc.createCache();

  void *Ptr = Alloc.allocateFrom(Cache, 32);
  ASSERT_NE(Ptr, nullptr);
  Alloc.deallocate(Ptr);
  Alloc.deallocate(Ptr); // Double free: claimed already.
  int Local = 0;
  Alloc.deallocate(&Local); // Outside the heap entirely.
  void *Mid = Alloc.allocateFrom(Cache, 32);
  ASSERT_NE(Mid, nullptr);
  Alloc.deallocate(static_cast<uint8_t *>(Mid) + 8); // Mid-object.
  Alloc.deallocate(Mid);

  const AllocatorStats &S = Alloc.stats();
  EXPECT_EQ(S.DoubleFrees, 1u);
  EXPECT_EQ(S.InvalidFrees, 2u);
  EXPECT_EQ(S.Allocations, 2u);
}

TEST(ConcurrentAllocator, LockAcquisitionsAreAmortizedByMagazines) {
  // The machine-independent decontention witness: the cached mode takes
  // the backend lock ~2/MagazineSize times per alloc/free pair where the
  // global-lock baseline pays exactly 2.  Wall-clock scaling depends on
  // core count; this ratio does not.
  constexpr uint64_t N = 6400;
  constexpr size_t Magazine = 64;

  ConcurrentAllocatorConfig Cached;
  Cached.Heap = testConfig(55);
  Cached.MagazineSize = Magazine;
  ConcurrentAllocator Fast(Cached);
  ConcurrentAllocator::ThreadCache &Cache = Fast.threadCache();
  std::vector<void *> Ptrs;
  Ptrs.reserve(N);
  for (uint64_t I = 0; I < N; ++I) {
    void *Ptr = Fast.allocateFrom(Cache, 16);
    ASSERT_NE(Ptr, nullptr);
    Ptrs.push_back(Ptr);
  }
  for (void *Ptr : Ptrs)
    Fast.deallocate(Ptr);
  Fast.flushCache(Cache);
  // Refills lock once per Magazine allocations; frees lock once per
  // 4 x Magazine (the batch bound), and the flush applies what is left in
  // one acquisition.  Allow slack for growth.
  EXPECT_LT(Fast.backendLockAcquires(), 2 * N / Magazine + 16);
  EXPECT_EQ(Fast.backend().liveObjectCount(), 0u);

  ConcurrentAllocatorConfig Locked = Cached;
  Locked.GlobalLockBaseline = true;
  ConcurrentAllocator Slow(Locked);
  Ptrs.clear();
  for (uint64_t I = 0; I < N; ++I)
    Ptrs.push_back(Slow.allocate(16));
  for (void *Ptr : Ptrs)
    Slow.deallocate(Ptr);
  // One acquisition per operation, exactly.
  EXPECT_EQ(Slow.backendLockAcquires(), 2 * N);
}

TEST(ConcurrentAllocator, FreeOnlyThreadReturnsSlotsAtBoundAndAtExit) {
  // A thread that only frees never refills, so its buffered frees must
  // re-enter the lottery on their own: all at once when the batch reaches
  // 4 x MagazineSize, and the remainder when the thread exits.
  ConcurrentAllocatorConfig Cfg;
  Cfg.Heap = testConfig(33);
  Cfg.MagazineSize = 8;
  ConcurrentAllocator Alloc(Cfg);
  constexpr size_t Bound = 4 * 8;
  constexpr size_t Extra = 5;
  ConcurrentAllocator::ThreadCache &Cache = Alloc.threadCache();
  std::vector<void *> Ptrs;
  for (size_t I = 0; I < Bound + Extra; ++I)
    Ptrs.push_back(Alloc.allocateFrom(Cache, 48));
  Alloc.flushCache(Cache); // Unconsumed magazine slots go back.
  ASSERT_EQ(Alloc.backend().liveObjectCount(), Bound + Extra);

  std::mutex Lock;
  std::condition_variable Turn;
  int Stage = 0;
  const auto AdvanceTo = [&](int Next) {
    {
      std::lock_guard<std::mutex> Guard(Lock);
      Stage = Next;
    }
    Turn.notify_all();
  };
  const auto AwaitStage = [&](int Want) {
    std::unique_lock<std::mutex> Guard(Lock);
    Turn.wait(Guard, [&] { return Stage == Want; });
  };

  std::thread Consumer([&] {
    size_t Next = 0;
    for (; Next < Bound - 1; ++Next)
      Alloc.deallocate(Ptrs[Next]);
    AdvanceTo(1);
    AwaitStage(2);
    Alloc.deallocate(Ptrs[Next++]); // Reaches the bound.
    AdvanceTo(3);
    AwaitStage(4);
    for (; Next < Ptrs.size(); ++Next)
      Alloc.deallocate(Ptrs[Next]);
  });

  AwaitStage(1);
  EXPECT_EQ(Alloc.pendingRemoteFrees(), Bound - 1);
  EXPECT_EQ(Alloc.backend().liveObjectCount(), Bound + Extra)
      << "a free below the bound was applied early";
  AdvanceTo(2);
  AwaitStage(3);
  EXPECT_EQ(Alloc.pendingRemoteFrees(), 0u);
  EXPECT_EQ(Alloc.backend().liveObjectCount(), Extra);
  EXPECT_EQ(Alloc.lockStats().FreesAtBound, Bound);
  AdvanceTo(4);
  Consumer.join(); // Thread exit applies the rest.

  EXPECT_EQ(Alloc.pendingRemoteFrees(), 0u);
  EXPECT_EQ(Alloc.backend().liveObjectCount(), 0u);
  EXPECT_EQ(Alloc.lockStats().FreesAtFlush, Extra);
  const AllocatorStats &S = Alloc.stats();
  EXPECT_EQ(S.Deallocations, Bound + Extra);
  EXPECT_EQ(S.DoubleFrees, 0u);
}

TEST(ConcurrentAllocator, DoubleFreeOfBufferedSlotBouncesOffPendingBit) {
  // A slot still sitting in the freeing thread's batch is not yet free in
  // the backend; a second free must bounce off its pending-free bit
  // rather than be buffered twice.
  ConcurrentAllocatorConfig Cfg;
  Cfg.Heap = testConfig(34);
  Cfg.MagazineSize = 8;
  ConcurrentAllocator Alloc(Cfg);
  ConcurrentAllocator::ThreadCache &Cache = Alloc.threadCache();

  void *Ptr = Alloc.allocateFrom(Cache, 32);
  ASSERT_NE(Ptr, nullptr);
  Alloc.deallocate(Ptr);
  EXPECT_EQ(Alloc.pendingRemoteFrees(), 1u);
  Alloc.deallocate(Ptr);
  EXPECT_EQ(Alloc.pendingRemoteFrees(), 1u) << "double free was buffered";

  Alloc.flushCache(Cache);
  EXPECT_EQ(Alloc.pendingRemoteFrees(), 0u);
  EXPECT_EQ(Alloc.backend().liveObjectCount(), 0u);
  const AllocatorStats &S = Alloc.stats();
  EXPECT_EQ(S.Deallocations, 1u);
  EXPECT_EQ(S.DoubleFrees, 1u);
}

TEST(ConcurrentAllocator, PendingRemoteFreesCountsBufferedFrees) {
  // The count is exact under quiescence: it rises with each buffered
  // free, holds while the magazine still has slots, and returns to zero
  // when the next refill applies the batch before it draws.
  ConcurrentAllocatorConfig Cfg;
  Cfg.Heap = testConfig(35);
  Cfg.MagazineSize = 4;
  ConcurrentAllocator Alloc(Cfg);
  ConcurrentAllocator::ThreadCache &Cache = Alloc.threadCache();

  std::vector<void *> Ptrs;
  for (int I = 0; I < 10; ++I) // Three refills; two slots stay cached.
    Ptrs.push_back(Alloc.allocateFrom(Cache, 64));
  EXPECT_EQ(Alloc.pendingRemoteFrees(), 0u);
  for (size_t I = 0; I < Ptrs.size(); ++I) {
    Alloc.deallocate(Ptrs[I]);
    EXPECT_EQ(Alloc.pendingRemoteFrees(), I + 1);
  }
  void *A = Alloc.allocateFrom(Cache, 64);
  void *B = Alloc.allocateFrom(Cache, 64);
  EXPECT_EQ(Alloc.pendingRemoteFrees(), 10u) << "no refill, no apply";
  EXPECT_EQ(Alloc.backend().liveObjectCount(), 12u);
  void *C = Alloc.allocateFrom(Cache, 64); // Refill: apply, then draw.
  EXPECT_EQ(Alloc.pendingRemoteFrees(), 0u);
  EXPECT_EQ(Alloc.lockStats().FreesAtRefill, 10u);
  EXPECT_EQ(Alloc.stats().Deallocations, 10u);

  for (void *Ptr : {A, B, C})
    Alloc.deallocate(Ptr);
  EXPECT_EQ(Alloc.pendingRemoteFrees(), 3u);
  Alloc.flushAll();
  EXPECT_EQ(Alloc.pendingRemoteFrees(), 0u);
  EXPECT_EQ(Alloc.backend().liveObjectCount(), 0u);
}

TEST(ConcurrentAllocator, ThreadRegistryPrunesDestroyedAllocators) {
  // Every free looks up the calling thread's cache in its registry, so
  // the registry must not keep an entry per allocator the thread ever
  // touched: dead ones go when the next one registers.
  size_t MostEntries = 0;
  std::thread Worker([&] {
    for (uint64_t I = 0; I < 1000; ++I) {
      ConcurrentAllocatorConfig Cfg;
      Cfg.Heap = testConfig(I);
      Cfg.MagazineSize = 1;
      ConcurrentAllocator Alloc(Cfg);
      void *Ptr = Alloc.allocate(16);
      ASSERT_NE(Ptr, nullptr);
      Alloc.deallocate(Ptr);
      MostEntries =
          std::max(MostEntries, ConcurrentAllocator::threadRegistrySize());
    }
  });
  Worker.join();
  // One live allocator at a time, plus the dead predecessor not yet
  // pruned.
  EXPECT_GE(MostEntries, 1u);
  EXPECT_LE(MostEntries, 2u);
}

namespace {

/// Frees its pointer from a thread_local destructor.  Constructed before
/// the thread's first allocation, it is destroyed after the front-end's
/// per-thread registry, so its free arrives with no cache to buffer in.
struct FreeAtThreadExit {
  ConcurrentAllocator *Alloc = nullptr;
  void *Ptr = nullptr;
  ~FreeAtThreadExit() {
    if (Alloc)
      Alloc->deallocate(Ptr);
  }
};
thread_local FreeAtThreadExit LateFree;

} // namespace

TEST(ConcurrentAllocator, FreeAfterThreadRegistryTeardownIsApplied) {
  ConcurrentAllocatorConfig Cfg;
  Cfg.Heap = testConfig(36);
  Cfg.MagazineSize = 8;
  ConcurrentAllocator Alloc(Cfg);
  std::thread Worker([&] {
    LateFree.Alloc = &Alloc; // Registers LateFree's destructor first.
    LateFree.Ptr = Alloc.allocate(64);
    EXPECT_NE(LateFree.Ptr, nullptr);
  });
  Worker.join();
  EXPECT_EQ(Alloc.pendingRemoteFrees(), 0u);
  EXPECT_EQ(Alloc.backend().liveObjectCount(), 0u);
  EXPECT_EQ(Alloc.stats().Deallocations, 1u);
}

TEST(ConcurrentAllocator, ThreadExitFlushesItsCache) {
  // A thread that allocates implicitly (allocate() -> TLS cache) and
  // exits must leave nothing behind: its magazines return to the free
  // pool and its buffered frees are applied, all from the TLS destructor.
  ConcurrentAllocatorConfig Cfg;
  Cfg.Heap = testConfig(31);
  Cfg.MagazineSize = 16;
  ConcurrentAllocator Alloc(Cfg);
  std::thread Worker([&] {
    void *Ptr = Alloc.allocate(64);
    EXPECT_NE(Ptr, nullptr);
    Alloc.deallocate(Ptr);
  });
  Worker.join();
  EXPECT_EQ(Alloc.pendingRemoteFrees(), 0u);
  EXPECT_EQ(Alloc.backend().liveObjectCount(), 0u);
  EXPECT_EQ(Alloc.stats().Allocations, 1u);
  EXPECT_EQ(Alloc.stats().Deallocations, 1u);
}

//===----------------------------------------------------------------------===//
// Page retirement (PR 9)
//===----------------------------------------------------------------------===//

TEST(PageRetirement, RetiredPagesNeverReenterTheLottery) {
  DieHardHeap Heap(testConfig(77));
  // Populate, then retire the page under one victim object.
  std::vector<void *> Ptrs;
  for (int I = 0; I < 32; ++I)
    Ptrs.push_back(Heap.allocate(64));
  const uintptr_t Page = reinterpret_cast<uintptr_t>(Ptrs[5]) & ~uintptr_t(0xfff);
  Heap.retirePage(Page);
  EXPECT_TRUE(Heap.isPageRetired(Page));
  EXPECT_GE(Heap.retiredPageCount(), 1u);

  // Free everything — slots on the retired page go to quarantine, the
  // rest return to the pool.
  for (void *Ptr : Ptrs)
    Heap.deallocate(Ptr);
  EXPECT_GT(Heap.retiredSlotCount(), 0u);

  // No future allocation may land on the retired page.
  for (int I = 0; I < 2000; ++I) {
    void *Ptr = Heap.allocate(64);
    ASSERT_NE(Ptr, nullptr);
    EXPECT_FALSE(Heap.isPageRetired(reinterpret_cast<uintptr_t>(Ptr)))
        << "allocation " << I << " landed on a retired page";
  }
}

TEST(PageRetirement, RetireIsIdempotent) {
  DieHardHeap Heap(testConfig(5));
  void *Ptr = Heap.allocate(64);
  const uintptr_t Page = reinterpret_cast<uintptr_t>(Ptr) & ~uintptr_t(0xfff);
  Heap.deallocate(Ptr);
  const size_t First = Heap.retirePage(Page);
  EXPECT_GT(First, 0u); // the freed slot was quarantined immediately
  EXPECT_EQ(Heap.retirePage(Page), 0u);
  EXPECT_EQ(Heap.retiredPageCount(), 1u);
}

TEST(PageRetirement, ForeignPageRetiresNothing) {
  DieHardHeap Heap(testConfig(6));
  EXPECT_EQ(Heap.retirePage(0x12340000), 0u);
  EXPECT_TRUE(Heap.isPageRetired(0x12340000));
  // The heap still allocates normally.
  EXPECT_NE(Heap.allocate(64), nullptr);
}

TEST(PageRetirement, MagazinePathHonorsRetirement) {
  // The concurrent front-end's magazines pre-draw slots; retirement must
  // hold through refills, buffered-free batches, and cache flushes.
  ConcurrentAllocatorConfig Cfg;
  Cfg.Heap = testConfig(88);
  Cfg.MagazineSize = 8;
  ConcurrentAllocator Front(Cfg);
  ConcurrentAllocator::ThreadCache &Cache = Front.createCache();

  std::vector<void *> Ptrs;
  for (int I = 0; I < 64; ++I)
    Ptrs.push_back(Front.allocateFrom(Cache, 64));
  const uintptr_t Page =
      reinterpret_cast<uintptr_t>(Ptrs[3]) & ~uintptr_t(0xfff);
  Front.backend().retirePage(Page);

  // Buffered frees of retired-page objects are applied into quarantine.
  for (void *Ptr : Ptrs)
    Front.deallocate(Ptr);
  // Flush returns reserved magazine slots: retired ones must not rejoin.
  Front.flushAll();
  EXPECT_GT(Front.backend().retiredSlotCount(), 0u);

  for (int I = 0; I < 2000; ++I) {
    void *Ptr = Front.allocateFrom(Cache, 64);
    ASSERT_NE(Ptr, nullptr);
    EXPECT_FALSE(Front.backend().isPageRetired(
        reinterpret_cast<uintptr_t>(Ptr)))
        << "magazine handed out a retired-page slot at " << I;
  }
}
