//===- alloc/ConcurrentAllocator.cpp - Multithreaded front-end -------------===//

#include "alloc/ConcurrentAllocator.h"

#include "alloc/SizeClass.h"
#include "diefast/CanaryOps.h"

#include <cassert>
#include <unordered_map>

using namespace exterminator;

//===----------------------------------------------------------------------===//
// Thread-exit plumbing
//
// Each thread's first allocation or free against an allocator registers
// the (allocator, cache) pair in a thread_local registry whose destructor
// flushes the cache back — applying its buffered frees — but only if the
// allocator is still alive, which a global registry of live instances
// (keyed by address *and* instance id, so a recycled address cannot
// impersonate a dead allocator) decides under its own lock.  Entries of
// dead allocators are pruned whenever a new one registers, so a
// long-lived thread's per-call lookup scans only what it may still use.
// Lock order here is LiveRegistry -> BackendLock; the allocator
// destructor takes the registry lock alone (to deregister) and the
// backend lock alone (to flush), never nested, so no cycle exists.
//===----------------------------------------------------------------------===//

namespace {

std::mutex &liveRegistryLock() {
  // Leaked on purpose: main-thread TLS destructors run during exit and
  // must still be able to lock this.
  static std::mutex *M = new std::mutex;
  return *M;
}

std::unordered_map<void *, uint64_t> &liveRegistry() {
  static auto *Map = new std::unordered_map<void *, uint64_t>;
  return *Map;
}

std::atomic<uint64_t> NextInstanceId{1};

struct TlsEntry {
  ConcurrentAllocator *Owner;
  uint64_t Instance;
  ConcurrentAllocator::ThreadCache *Cache;
};

/// True while \p E's allocator is alive (liveRegistryLock held).
bool isLive(const TlsEntry &E) {
  auto It = liveRegistry().find(E.Owner);
  return It != liveRegistry().end() && It->second == E.Instance;
}

/// Set once this thread's registry is destroyed: a free arriving later
/// (another thread_local's destructor, say) has no cache to buffer in.
/// Trivially destructible, so it stays readable to the very end.
thread_local bool TlsTornDown = false;

struct TlsRegistry {
  std::vector<TlsEntry> Entries;

  ~TlsRegistry() {
    for (const TlsEntry &E : Entries) {
      std::lock_guard<std::mutex> Lock(liveRegistryLock());
      if (!isLive(E))
        continue; // The allocator died first; it flushed everything.
      E.Owner->flushCache(*E.Cache);
    }
    TlsTornDown = true;
  }
};

thread_local TlsRegistry Tls;

/// Spin bound of lockBackend.  A refill or free batch holds the backend
/// lock for a few microseconds, about what a futex park and wake-up
/// costs the waiter, so a waiter first retries this many times (1 to
/// 10 µs of pause instructions, depending on the core) before it blocks.
constexpr unsigned LockSpinLimit = 200;

/// The CPU's spin-wait hint: frees the sibling hyperthread and keeps the
/// retry loop from flooding the lock's line.
inline void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield" ::: "memory");
#endif
}

/// Adds \p N to a counter only lock holders write: a plain load and
/// store, no locked read-modify-write.
inline void bump(std::atomic<uint64_t> &Counter, uint64_t N = 1) {
  Counter.store(Counter.load(std::memory_order_relaxed) + N,
                std::memory_order_relaxed);
}

/// Buffered frees that trigger an apply under the lock: a thread that
/// frees more than it allocates (a consumer) still returns its slots to
/// the lottery every few refills' worth of operations.
size_t freeBound(const ConcurrentAllocatorConfig &Cfg) {
  return 4 * Cfg.MagazineSize;
}

} // namespace

//===----------------------------------------------------------------------===//
// Construction
//===----------------------------------------------------------------------===//

ConcurrentAllocator::ConcurrentAllocator(const ConcurrentAllocatorConfig &Config,
                                         const CallContext *Context)
    : Cfg(Config), Context(Context), Backend(Config.Heap, Context),
      // Same derived seed as DieFastHeap: the canary stream must be
      // independent of placement, and matching the constant keeps
      // MagazineSize == 1 runs bit-identical to DieFastHeap.
      CanaryRng(Config.Heap.Seed ^ 0xca11a7c0ffee1234ULL),
      HeapCanary(Canary::random(CanaryRng)),
      InstanceId(NextInstanceId.fetch_add(1, std::memory_order_relaxed)) {
  // Lock-free pointer resolution requires that no page be shared by two
  // slabs: guard regions of at least a page guarantee it (4 KiB pages;
  // see DieHardHeap::registerRange).
  assert(Cfg.Heap.GuardBytes >= 4096 &&
         "concurrent front-end requires page-sized guard regions");
  assert(!Cfg.Heap.LegacyHotPath &&
         "the legacy hot path is single-threaded only");
  assert(Cfg.MagazineSize >= 1 && "magazines hold at least one slot");
  std::lock_guard<std::mutex> Lock(liveRegistryLock());
  liveRegistry()[this] = InstanceId;
}

ConcurrentAllocator::~ConcurrentAllocator() {
  {
    // Deregister first: threads exiting from here on skip their flush.
    std::lock_guard<std::mutex> Lock(liveRegistryLock());
    liveRegistry().erase(this);
  }
  flushAll();
}

//===----------------------------------------------------------------------===//
// Caches
//===----------------------------------------------------------------------===//

ConcurrentAllocator::ThreadCache &ConcurrentAllocator::createCache() {
  std::lock_guard<std::mutex> Lock(CacheLock);
  AllCaches.emplace_back(
      new ThreadCache(sizeclass::numClasses(), freeBound(Cfg)));
  return *AllCaches.back();
}

ConcurrentAllocator::ThreadCache &ConcurrentAllocator::threadCache() {
  for (const TlsEntry &E : Tls.Entries)
    if (E.Owner == this && E.Instance == InstanceId)
      return *E.Cache;
  ThreadCache &Fresh = createCache();
  {
    std::lock_guard<std::mutex> Lock(liveRegistryLock());
    std::erase_if(Tls.Entries, [](const TlsEntry &E) { return !isLive(E); });
  }
  Tls.Entries.push_back(TlsEntry{this, InstanceId, &Fresh});
  return Fresh;
}

size_t ConcurrentAllocator::threadRegistrySize() { return Tls.Entries.size(); }

std::unique_lock<std::mutex> ConcurrentAllocator::lockBackend() {
  // The global-lock baseline keeps the plain mutex it stands in for.
  const unsigned SpinLimit = Cfg.GlobalLockBaseline ? 0 : LockSpinLimit;
  std::unique_lock<std::mutex> Lock(BackendLock, std::try_to_lock);
  if (!Lock.owns_lock()) {
    for (unsigned I = 0; I < SpinLimit && !Lock.try_lock(); ++I)
      cpuRelax();
    if (!Lock.owns_lock()) {
      Lock.lock();
      bump(Counters.Parked);
    }
    bump(Counters.Spun);
  }
  bump(Counters.Acquisitions);
  Backend.advanceClockTo(Clock.load(std::memory_order_relaxed));
  return Lock;
}

//===----------------------------------------------------------------------===//
// Allocation
//===----------------------------------------------------------------------===//

void *ConcurrentAllocator::allocate(size_t Size) {
  if (Cfg.GlobalLockBaseline) {
    auto Lock = lockBackend();
    return baselineAllocate(Size);
  }
  return allocateFrom(threadCache(), Size);
}

void *ConcurrentAllocator::allocateFrom(ThreadCache &Cache, size_t Size,
                                        ObjectRef *RefOut) {
  if (!sizeclass::fits(Size))
    return nullptr;
  if (Cfg.GlobalLockBaseline) {
    auto Lock = lockBackend();
    void *Ptr = baselineAllocate(Size);
    if (Ptr && RefOut)
      *RefOut = *Backend.findObject(Ptr);
    return Ptr;
  }

  const unsigned ClassIndex = sizeclass::classFor(Size);
  auto &Magazine = Cache.Magazines[ClassIndex];
  for (;;) {
    if (Magazine.empty())
      refill(Cache, ClassIndex);
    const ThreadCache::CachedSlot Slot = Magazine.back();
    Magazine.pop_back();
    Miniheap &Mini = *Slot.Heap;
    SlotMetadata &Meta = Mini.slot(Slot.Ref.SlotIndex);
    uint8_t *Ptr = Mini.slotPointer(Slot.Ref.SlotIndex);

    // DieFast §3.3 at hand-out: the check runs on the exact slot being
    // returned, lock-free — the slot is reserved, so this thread owns
    // its bytes and metadata exclusively.
    if (Cfg.DieFastCanaries &&
        !canary_ops::prepareReusedSlot(HeapCanary, Meta, Ptr,
                                       Mini.objectSize(), Size,
                                       Cfg.ZeroFillAllocations,
                                       /*LegacyHotPath=*/false)) {
      // Bad-object isolation without the backend lock: the slot stays
      // reserved forever (it is simply never handed out or released), so
      // no bitmap or class counter needs touching.  Its pending-free bit
      // is still set from the free that canaried it, keeping stale frees
      // off the quarantined contents.
      Meta.Bad = true;
      signalError(ErrorSignalKind::CanaryCorruptOnAlloc, Slot.Ref);
      continue;
    }

    // Commit, stamped from the front-end clock.  Mirrors
    // DieHardHeap::commitAllocation, written directly because the
    // backend clock is only re-synced under the lock.
    const uint64_t Id = Clock.fetch_add(1, std::memory_order_relaxed) + 1;
    Meta.ObjectId = Id;
    Meta.FreeTime = 0;
    Meta.AllocSite = Context ? Context->currentSite() : 0;
    Meta.FreeSite = 0;
    Meta.RequestedSize = static_cast<uint32_t>(Size);
    Meta.FrontPad = 0;
    Meta.Canaried = false;
    // The slot is live again: re-arm its pending-free bit so the next
    // free can claim it.  Sequenced before the pointer escapes to the
    // program, so any thread that can free it observes the clear.
    Mini.clearPendingFree(Slot.Ref.SlotIndex);

    Cache.Allocations.fetch_add(1, std::memory_order_relaxed);
    Cache.BytesRequested.fetch_add(Size, std::memory_order_relaxed);
    if (RefOut)
      *RefOut = Slot.Ref;
    return Ptr;
  }
}

void ConcurrentAllocator::refill(ThreadCache &Cache, unsigned ClassIndex) {
  auto Lock = lockBackend();
  // Apply before drawing: every free this thread made up to this point
  // re-enters the uniform lottery before it picks a new slot.  (This
  // ordering is also what makes MagazineSize == 1 bit-identical to the
  // direct backend.)
  applyFrees(Cache, Counters.FreesAtRefill);
  auto &Magazine = Cache.Magazines[ClassIndex];
  while (Magazine.size() < Cfg.MagazineSize) {
    Miniheap *Mini = nullptr;
    const ObjectRef Ref = Backend.reserveSlot(ClassIndex, &Mini);
    Magazine.push_back(ThreadCache::CachedSlot{Ref, Mini});
  }
}

void *ConcurrentAllocator::baselineAllocate(size_t Size) {
  if (!sizeclass::fits(Size))
    return nullptr;
  Backend.tickAllocationClock(Size);
  Clock.fetch_add(1, std::memory_order_relaxed);
  const unsigned ClassIndex = sizeclass::classFor(Size);
  for (;;) {
    Miniheap *Mini = nullptr;
    const ObjectRef Ref = Backend.reserveSlot(ClassIndex, &Mini);
    uint8_t *Ptr = Mini->slotPointer(Ref.SlotIndex);
    if (Cfg.DieFastCanaries &&
        !canary_ops::prepareReusedSlot(HeapCanary, Mini->slot(Ref.SlotIndex),
                                       Ptr, Mini->objectSize(), Size,
                                       Cfg.ZeroFillAllocations,
                                       /*LegacyHotPath=*/false)) {
      Backend.markBad(Ref);
      signalError(ErrorSignalKind::CanaryCorruptOnAlloc, Ref);
      continue;
    }
    Backend.commitAllocation(Ref, Size);
    return Ptr;
  }
}

//===----------------------------------------------------------------------===//
// Deallocation
//===----------------------------------------------------------------------===//

void ConcurrentAllocator::deallocate(void *Ptr) {
  if (!Ptr)
    return;
  if (Cfg.GlobalLockBaseline) {
    auto Lock = lockBackend();
    baselineDeallocate(Ptr);
    return;
  }

  // Lock-free: resolve through the page directory, claim, stamp.
  const auto Resolved = Backend.resolvePointer(Ptr);
  if (!Resolved || static_cast<uint8_t *>(Ptr) != Resolved->SlotStart) {
    // Outside the heap or mid-object: invalid free, counted and ignored
    // (Table 1).
    RemoteInvalidFrees.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Miniheap &Mini = *Resolved->Heap;
  const size_t Slot = Resolved->Ref.SlotIndex;
  if (!Mini.claimPendingFree(Slot)) {
    // The slot is already on its way to (or through) the free pool: a
    // double free, detected without the lock and without touching the
    // slot's memory.
    RemoteDoubleFrees.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  // This claim owns the slot until the batch is applied.  Stamp the free
  // site now — it belongs to this thread's context; FreeTime is stamped
  // when the free is applied, from the re-synced clock.
  Mini.slot(Slot).FreeSite = Context ? Context->currentSite() : 0;
  const CachedSlot Free{Resolved->Ref, &Mini};
  if (TlsTornDown) {
    // This thread's registry is gone: no cache outlives it to buffer in.
    auto Lock = lockBackend();
    applyFree(Free);
    bump(Counters.FreesAtFlush);
    return;
  }
  ThreadCache &Cache = threadCache();
  Cache.Frees.push_back(Free);
  Cache.BufferedFrees.store(Cache.Frees.size(), std::memory_order_relaxed);
  if (Cache.Frees.size() >= freeBound(Cfg)) {
    auto Lock = lockBackend();
    applyFrees(Cache, Counters.FreesAtBound);
  }
}

void ConcurrentAllocator::baselineDeallocate(void *Ptr) {
  ObjectRef Ref;
  if (!Backend.deallocateWithRef(Ptr, Ref))
    return; // Invalid or double free: counted and ignored (Table 1).
  if (!Cfg.DieFastCanaries)
    return;
  Miniheap &Mini = Backend.miniheap(Ref);
  canary_ops::sweepFreedNeighbors(
      Mini, HeapCanary, Ref, [&](const ObjectRef &Corrupt) {
        Backend.quarantine(Corrupt);
        signalError(ErrorSignalKind::CanaryCorruptOnFree, Corrupt);
      });
  canary_ops::canaryFillFreedSlot(Mini, HeapCanary, CanaryRng,
                                  Cfg.CanaryFillProbability, Ref.SlotIndex);
}

void ConcurrentAllocator::applyFree(const CachedSlot &Free) {
  const ObjectRef &Ref = Free.Ref;
  Miniheap &Mini = *Free.Heap;
  // The free site was stamped by the freeing thread; deallocateResolved
  // would otherwise sample the context at apply time.
  [[maybe_unused]] const bool Freed =
      Backend.deallocateResolved(Ref, Mini.slot(Ref.SlotIndex).FreeSite);
  assert(Freed && "pending-free claim is exclusive; a buffered free "
                  "cannot double-free");
  if (!Cfg.DieFastCanaries)
    return;
  canary_ops::sweepFreedNeighbors(
      Mini, HeapCanary, Ref, [&](const ObjectRef &Corrupt) {
        Backend.quarantine(Corrupt);
        signalError(ErrorSignalKind::CanaryCorruptOnFree, Corrupt);
      });
  canary_ops::canaryFillFreedSlot(Mini, HeapCanary, CanaryRng,
                                  Cfg.CanaryFillProbability, Ref.SlotIndex);
}

void ConcurrentAllocator::applyFrees(ThreadCache &Cache,
                                     std::atomic<uint64_t> &AppliedAt) {
  if (Cache.Frees.empty())
    return;
  for (const CachedSlot &Free : Cache.Frees)
    applyFree(Free);
  bump(AppliedAt, Cache.Frees.size());
  Cache.Frees.clear();
  Cache.BufferedFrees.store(0, std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// Flush, stats, errors
//===----------------------------------------------------------------------===//

void ConcurrentAllocator::flushCacheLocked(ThreadCache &Cache) {
  applyFrees(Cache, Counters.FreesAtFlush);
  for (auto &Magazine : Cache.Magazines) {
    for (const ThreadCache::CachedSlot &Slot : Magazine)
      Backend.releaseReserved(Slot.Ref);
    Magazine.clear();
  }
}

void ConcurrentAllocator::flushCache(ThreadCache &Cache) {
  auto Lock = lockBackend();
  flushCacheLocked(Cache);
}

void ConcurrentAllocator::flushAll() {
  std::lock_guard<std::mutex> Caches(CacheLock);
  auto Lock = lockBackend();
  for (auto &Cache : AllCaches)
    flushCacheLocked(*Cache);
}

ConcurrentAllocator::LockStats ConcurrentAllocator::lockStats() const {
  const auto Read = [](const std::atomic<uint64_t> &C) {
    return C.load(std::memory_order_relaxed);
  };
  LockStats S;
  S.Acquisitions = Read(Counters.Acquisitions);
  S.Spun = Read(Counters.Spun);
  S.Parked = Read(Counters.Parked);
  S.FreesAtRefill = Read(Counters.FreesAtRefill);
  S.FreesAtBound = Read(Counters.FreesAtBound);
  S.FreesAtFlush = Read(Counters.FreesAtFlush);
  return S;
}

uint64_t ConcurrentAllocator::pendingRemoteFrees() const {
  std::lock_guard<std::mutex> Caches(CacheLock);
  uint64_t N = 0;
  for (const auto &Cache : AllCaches)
    N += Cache->BufferedFrees.load(std::memory_order_relaxed);
  return N;
}

const AllocatorStats &ConcurrentAllocator::stats() const {
  std::lock_guard<std::mutex> Caches(CacheLock);
  std::lock_guard<std::mutex> Lock(BackendLock);
  AllocatorStats S = Backend.stats();
  S.InvalidFrees += RemoteInvalidFrees.load(std::memory_order_relaxed);
  S.DoubleFrees += RemoteDoubleFrees.load(std::memory_order_relaxed);
  for (const auto &Cache : AllCaches) {
    S.Allocations += Cache->Allocations.load(std::memory_order_relaxed);
    S.BytesRequested += Cache->BytesRequested.load(std::memory_order_relaxed);
  }
  Aggregated = S;
  return Aggregated;
}

void ConcurrentAllocator::signalError(ErrorSignalKind Kind,
                                      const ObjectRef &Where) {
  ErrorsSignalled.fetch_add(1, std::memory_order_relaxed);
  if (OnError)
    OnError(ErrorSignal{Kind, Where,
                        Clock.load(std::memory_order_relaxed)});
}
