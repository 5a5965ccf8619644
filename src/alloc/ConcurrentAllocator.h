//===- alloc/ConcurrentAllocator.h - Multithreaded front-end ---*- C++ -*-===//
//
// Part of the Exterminator reproduction (Novark, Berger & Zorn, PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The concurrent allocator front-end (PR 7): per-thread caches over one
/// shared randomized DieHard backend, preserving the paper's
/// probabilistic guarantees per slot while taking the backend lock off
/// both hot paths.
///
/// The shape is the classic production-allocator split, applied to a
/// randomized heap:
///
///  * **Allocation** pops from a per-thread, per-size-class *magazine*
///    of slots pre-drawn through `DieHardHeap::placeRandomly` — the
///    exact uniform-placement path — in batches under the backend lock.
///    Batching changes *when* draws happen, not their distribution:
///    every draw is still uniform over the free slots at draw time, and
///    the DieFast canary check/zero-fill runs per slot at hand-out, just
///    as in the single-threaded heap.
///
///  * **Deallocation** is lock-free up to a per-thread batch: the pointer
///    resolves through the lock-free page directory, an atomic
///    *pending-free* bit claims the slot (making concurrent double frees
///    detectable without the lock), the freeing thread stamps its free
///    site, and the slot is appended to the freeing thread's own cache.
///    That thread applies its batch under the backend lock at its next
///    refill (before it draws), its flush, its exit, or once the batch
///    holds 4 × MagazineSize frees — so a freed slot re-enters the
///    uniform lottery at one of those points, and never goes into a
///    magazine.  Each thread touches only its own frees under the lock;
///    no refill walks the heap looking for other threads' work.
///
///  * **Pointer lookup** is lock-free end to end: the page directory
///    republishes epoch-style on growth (support/PageTable.h), and slab
///    records are fully written before their directory ids publish.
///    This requires page-sized guard regions (no ambiguous pages), which
///    the constructor asserts.
///
///  * **The backend lock** is held only for a refill's draws, one
///    thread's free batch, or a flush.  Those sections are short, so a
///    thread that finds it taken spins through a bounded number of
///    try_locks with a CPU-relax hint before it parks in the kernel
///    (the global-lock baseline below parks at once, as a plain mutex).
///
/// A `GlobalLockBaseline` mode routes every operation through one mutex
/// around the backend — the pre-PR-7 "just lock it" design — so
/// bench/micro_allocators can measure the scaling win in one binary, the
/// same A/B discipline the LegacyHotPath toggle established in PR 1.
///
/// Object ids come from a front-end atomic clock; the backend clock is
/// re-synchronized to it whenever the lock is taken, so FreeTime stamps
/// and miniheap creation times stay on one timeline.  With MagazineSize
/// == 1 and a single thread allocating and freeing through the same
/// cache, the allocator is bit-identical to driving the backend directly
/// (tests pin this): every buffered free is applied, in order, before the
/// next draw.
///
//===----------------------------------------------------------------------===//

#ifndef EXTERMINATOR_ALLOC_CONCURRENTALLOCATOR_H
#define EXTERMINATOR_ALLOC_CONCURRENTALLOCATOR_H

#include "alloc/Allocator.h"
#include "alloc/DieHardHeap.h"
#include "diefast/Canary.h"
#include "diefast/ErrorSignal.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace exterminator {

/// Tuning knobs for the concurrent front-end.
struct ConcurrentAllocatorConfig {
  /// The shared randomized backend.  GuardBytes must be at least a page
  /// (4096) so pointer lookups never hit an ambiguous page, and
  /// LegacyHotPath must be off.
  DieHardConfig Heap;
  /// Slots per thread-cache magazine (per size class).  1 degenerates to
  /// the direct backend, lock per operation; larger values amortize the
  /// lock over more operations.
  size_t MagazineSize = 32;
  /// Apply DieFast semantics (§3.3) to every slot: canary verify/
  /// quarantine at hand-out, neighbor sweeps and probabilistic canary
  /// fill when a free is applied.  Off = plain DieHard semantics.
  bool DieFastCanaries = false;
  /// Probability p of canary-filling a freed slot (canary mode only).
  double CanaryFillProbability = 1.0;
  /// Zero-fill allocations (§2.1; canary mode only, mirroring
  /// DieFastConfig).
  bool ZeroFillAllocations = true;
  /// Bench baseline: the backend lock around every operation, no caches,
  /// no free batches.  Never enable in production.
  bool GlobalLockBaseline = false;
};

/// Multithreaded malloc/free over one randomized DieHard backend.
///
/// Thread safety: allocate/deallocate/stats may be called from any
/// thread concurrently.  Destruction and backendForTesting require
/// quiescence (no concurrent operations).  The error handler, when set,
/// may be invoked concurrently from multiple threads.
class ConcurrentAllocator : public Allocator {
public:
  /// One thread's private magazines and free batch.  Obtained
  /// implicitly per thread via allocate()/deallocate(), or explicitly via
  /// createCache()/allocateFrom() — the deterministic route tests and
  /// single-threaded drivers use.  Line-aligned: the owner writes its
  /// counters on every operation, so two threads' caches must not share
  /// a line.
  class alignas(CacheLineBytes) ThreadCache {
    friend class ConcurrentAllocator;

    struct CachedSlot {
      ObjectRef Ref;
      Miniheap *Heap;
    };

    ThreadCache(size_t NumClasses, size_t FreeBound) : Magazines(NumClasses) {
      Frees.reserve(FreeBound);
    }

    /// Pre-drawn slots per size class, consumed back-to-front.
    std::vector<std::vector<CachedSlot>> Magazines;
    /// Slots this thread freed (claimed, free site stamped) that are not
    /// yet back in the backend's free pool, in free order.
    std::vector<CachedSlot> Frees;
    /// Frees.size(), published for pendingRemoteFrees().  Counters are
    /// atomic because other threads read them (stats()) while the owner
    /// runs; only the owner writes them.
    std::atomic<uint64_t> BufferedFrees{0};
    std::atomic<uint64_t> Allocations{0};
    std::atomic<uint64_t> BytesRequested{0};
  };

  /// Backend-lock contention and free-batch counters (all written only
  /// while the lock is held).
  struct LockStats {
    /// Acquisitions of the backend lock, both modes.
    uint64_t Acquisitions = 0;
    /// Acquisitions whose first try_lock failed (includes Parked).
    uint64_t Spun = 0;
    /// Acquisitions that exhausted the spin bound and blocked.
    uint64_t Parked = 0;
    /// Buffered frees applied at the owning thread's refill, at the
    /// 4 × MagazineSize bound, and at a flush (explicit, flushAll, or
    /// thread exit).
    uint64_t FreesAtRefill = 0;
    uint64_t FreesAtBound = 0;
    uint64_t FreesAtFlush = 0;
  };

  explicit ConcurrentAllocator(
      const ConcurrentAllocatorConfig &Config = ConcurrentAllocatorConfig(),
      const CallContext *Context = nullptr);
  ~ConcurrentAllocator() override;

  /// Allocates from the calling thread's cache (created on first use and
  /// flushed back automatically at thread exit).
  void *allocate(size_t Size) override;

  /// Resolve, claim and stamp lock-free, then buffer the slot in the
  /// calling thread's cache (applied under the lock at the bound).  Safe
  /// from any thread, including threads that never allocated.
  void deallocate(void *Ptr) override;

  const char *name() const override {
    return Cfg.DieFastCanaries ? "diefast-mt" : "diehard-mt";
  }

  /// Aggregated front-end + backend counters.  Takes both locks; values
  /// are exact under quiescence, a consistent-enough snapshot otherwise.
  const AllocatorStats &stats() const override;

  /// The calling thread's cache for this allocator (created on first
  /// use; registered for flush at thread exit).
  ThreadCache &threadCache();

  /// Creates a cache detached from any thread.  Tests drive several
  /// caches from one thread through allocateFrom to exercise the
  /// magazine machinery deterministically.
  ThreadCache &createCache();

  /// Allocates from an explicit cache.  \p RefOut, when non-null,
  /// receives the slot that was handed out (uniformity tests tally it).
  /// The caller owns the cache's thread affinity: one thread at a time.
  void *allocateFrom(ThreadCache &Cache, size_t Size,
                     ObjectRef *RefOut = nullptr);

  /// Applies \p Cache's buffered frees and returns every magazine slot of
  /// it to the backend free pool.
  void flushCache(ThreadCache &Cache);

  /// Flushes every cache.  Call at quiescence; afterwards the backend's
  /// live count equals the program's live objects exactly.
  void flushAll();

  /// Installs the handler invoked on each detected corruption (canary
  /// mode).  Must be thread-safe; may fire concurrently.
  void setErrorHandler(ErrorSignalHandler Handler) {
    OnError = std::move(Handler);
  }

  /// Corruptions signalled so far.
  uint64_t errorsSignalled() const {
    return ErrorsSignalled.load(std::memory_order_relaxed);
  }

  /// Allocations performed to date (object ids are drawn from this).
  uint64_t allocationClock() const {
    return Clock.load(std::memory_order_relaxed);
  }

  /// Times the backend lock was acquired, across all threads and both
  /// modes.  The bench divides by operations: the cached mode's whole
  /// point is that this grows by ~1/MagazineSize per alloc/free pair (a
  /// refill per MagazineSize allocations, which also applies the
  /// thread's frees; a thread that only frees locks once per 4 ×
  /// MagazineSize) where the global-lock baseline pays 2 — a
  /// machine-independent witness of the decontention that wall-clock
  /// numbers on a small host can understate.
  uint64_t backendLockAcquires() const {
    return Counters.Acquisitions.load(std::memory_order_relaxed);
  }

  /// Lock contention and free-batch counters (lock-free snapshot; exact
  /// under quiescence).
  LockStats lockStats() const;

  /// Frees claimed but still buffered in some thread's cache, not yet
  /// back in the free pool (a hint while threads run; exact under
  /// quiescence).
  uint64_t pendingRemoteFrees() const;

  /// Caches the calling thread has registered for its exit-time flush.
  /// Entries of destroyed allocators are pruned whenever the thread
  /// registers a new one, so this stays at most live + 1 for a thread
  /// that creates and destroys allocators in turn.
  static size_t threadRegistrySize();

  /// The shared backend, for tests and heap-image capture.  Quiescence
  /// required; flushAll() first for exact live accounting.
  DieHardHeap &backend() { return Backend; }
  const DieHardHeap &backend() const { return Backend; }

  const ConcurrentAllocatorConfig &config() const { return Cfg; }
  const Canary &canary() const { return HeapCanary; }

private:
  using CachedSlot = ThreadCache::CachedSlot;

  /// Returns one claimed slot to the backend free pool, with DieFast's
  /// neighbor sweep and canary fill (BackendLock held).
  void applyFree(const CachedSlot &Free);

  /// Applies \p Cache's buffered frees in free order and counts them in
  /// \p AppliedAt (BackendLock held).
  void applyFrees(ThreadCache &Cache, std::atomic<uint64_t> &AppliedAt);

  /// Tops up one magazine under the backend lock: apply the cache's own
  /// buffered frees first, then draw, so every free this thread made is
  /// back in the lottery before it draws.
  void refill(ThreadCache &Cache, unsigned ClassIndex);

  /// flushCache body with BackendLock already held.
  void flushCacheLocked(ThreadCache &Cache);

  /// Baseline-mode operations (BackendLock held): the single-threaded
  /// DieHard/DieFast paths verbatim.
  void *baselineAllocate(size_t Size);
  void baselineDeallocate(void *Ptr);

  void signalError(ErrorSignalKind Kind, const ObjectRef &Where);

  /// Takes the backend lock (spinning briefly before parking), counts
  /// the acquisition, and re-syncs the backend clock to the front-end
  /// clock.
  std::unique_lock<std::mutex> lockBackend();

  ConcurrentAllocatorConfig Cfg;
  const CallContext *Context;
  DieHardHeap Backend;
  /// Canary-mode randomness (fills as frees are applied); seeded exactly
  /// like DieFastHeap's so MagazineSize == 1 reproduces its placements.
  RandomGenerator CanaryRng;
  Canary HeapCanary;
  ErrorSignalHandler OnError;

  /// Serializes every backend mutation: refills, free batches, flushes,
  /// baseline-mode operations.
  mutable std::mutex BackendLock;
  /// Guards AllCaches (creation + stats aggregation).  Lock order:
  /// CacheLock before BackendLock; never the reverse.
  mutable std::mutex CacheLock;
  std::vector<std::unique_ptr<ThreadCache>> AllCaches;

  /// Front-end allocation clock; object ids are fetch_add'ed from it
  /// without the lock.  Every allocating thread read-modify-writes it,
  /// so it gets a cache line of its own, and the lock-held counters
  /// below get another.
  alignas(CacheLineBytes) std::atomic<uint64_t> Clock{0};
  /// LockStats, written under the lock and read lock-free.
  struct alignas(CacheLineBytes) {
    std::atomic<uint64_t> Acquisitions{0}, Spun{0}, Parked{0};
    std::atomic<uint64_t> FreesAtRefill{0}, FreesAtBound{0}, FreesAtFlush{0};
  } Counters;
  std::atomic<uint64_t> ErrorsSignalled{0};
  /// Lock-free-path free errors (the backend's counters only see frees
  /// that reach it).
  std::atomic<uint64_t> RemoteInvalidFrees{0};
  std::atomic<uint64_t> RemoteDoubleFrees{0};

  /// Identifies this instance across reuse of its address (thread-exit
  /// flushes check it against the live-instance registry).
  uint64_t InstanceId;

  /// Aggregation target for stats().
  mutable AllocatorStats Aggregated;
};

} // namespace exterminator

#endif // EXTERMINATOR_ALLOC_CONCURRENTALLOCATOR_H
