//===- runtime/ConcurrentStress.cpp - Contended allocator driver -----------===//

#include "runtime/ConcurrentStress.h"

#include "support/Executor.h"
#include "support/RandomGenerator.h"

#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <thread>

using namespace exterminator;

namespace {

/// One worker's outbox to its neighbor.  A mutex-guarded vector is fine
/// here: handoffs are a fraction of operations, and the allocator under
/// test — not the harness — is what must be lock-free.
struct Mailbox {
  std::mutex Lock;
  std::vector<void *> Pointers;

  void push(void *Ptr) {
    std::lock_guard<std::mutex> Guard(Lock);
    Pointers.push_back(Ptr);
  }

  void drainTo(std::vector<void *> &Out) {
    std::lock_guard<std::mutex> Guard(Lock);
    Out.insert(Out.end(), Pointers.begin(), Pointers.end());
    Pointers.clear();
  }
};

/// One worker's allocation counts, on its own cache line so counting
/// adds no shared-line traffic to the contended window; summed at join.
struct alignas(64) WorkerCounts {
  uint64_t Allocations = 0;
  uint64_t FailedAllocations = 0;
};

/// The stamp written into an object's first 8 bytes at allocation and
/// checked at free: any slot handed to two threads at once scrambles it.
uint64_t stampFor(const void *Ptr, uint64_t Nonce) {
  return (reinterpret_cast<uintptr_t>(Ptr) * 0x9E3779B97F4A7C15ull) ^ Nonce;
}

} // namespace

ConcurrentStressResult
exterminator::runConcurrentStress(Allocator &Alloc,
                                  const ConcurrentStressConfig &Config) {
  const unsigned Threads = Config.Threads ? Config.Threads : 1;
  const uint64_t Nonce = Config.Seed * 0x2545F4914F6CDD1Dull + 1;

  std::vector<Mailbox> Mailboxes(Threads);
  std::vector<WorkerCounts> Counts(Threads);
  // Touched only on a stamp mismatch (and by the caller's sweep after the
  // join), so one shared counter costs nothing on a healthy run.
  std::atomic<uint64_t> PatternFaults{0};
  std::atomic<unsigned> Arrived{0};

  const auto Dispose = [&](void *Ptr) {
    if (stampFor(Ptr, Nonce) !=
        *reinterpret_cast<const uint64_t *>(Ptr))
      PatternFaults.fetch_add(1, std::memory_order_relaxed);
    Alloc.deallocate(Ptr);
  };

  const auto Worker = [&](size_t Index) {
    RandomGenerator Rng(Config.Seed ^ (0xabcd1234fed + Index * 0x1000193));
    std::vector<void *> Resident;
    Resident.reserve(Config.ResidentPerThread + 1);
    std::vector<void *> Inbox;
    Mailbox &Outbox = Mailboxes[(Index + 1) % Threads];
    WorkerCounts &Mine = Counts[Index];

    // Start barrier: align the contended window across workers (yield,
    // not spin — small hosts may timeslice all workers on one core).
    Arrived.fetch_add(1, std::memory_order_acq_rel);
    while (Arrived.load(std::memory_order_acquire) < Threads)
      std::this_thread::yield();

    const auto Route = [&](void *Ptr) {
      if (Threads > 1 && Rng.chance(Config.CrossFreeFraction))
        Outbox.push(Ptr);
      else
        Dispose(Ptr);
    };

    for (uint64_t Op = 0; Op < Config.OpsPerThread; ++Op) {
      // Periodically free what neighbors handed over: these pointers
      // were allocated by another thread's cache, so every disposal here
      // is a genuine cross-thread free.
      if ((Op & 63) == 0) {
        Inbox.clear();
        Mailboxes[Index].drainTo(Inbox);
        for (void *Ptr : Inbox)
          Dispose(Ptr);
      }

      const size_t Size =
          Config.Sizes[Rng.nextBelow(Config.Sizes.size())];
      void *Ptr = Alloc.allocate(Size);
      if (!Ptr) {
        ++Mine.FailedAllocations;
        continue;
      }
      ++Mine.Allocations;
      *reinterpret_cast<uint64_t *>(Ptr) = stampFor(Ptr, Nonce);

      if (Config.ResidentPerThread == 0) {
        Route(Ptr);
        continue;
      }
      Resident.push_back(Ptr);
      if (Resident.size() > Config.ResidentPerThread) {
        // Evict a uniformly random resident (the churn shape).
        const size_t Victim = Rng.nextBelow(Resident.size());
        std::swap(Resident[Victim], Resident.back());
        Route(Resident.back());
        Resident.pop_back();
      }
    }

    // Wind down this worker's own holdings; mailbox stragglers are
    // swept by the caller after the join.
    Inbox.clear();
    Mailboxes[Index].drainTo(Inbox);
    for (void *Ptr : Inbox)
      Dispose(Ptr);
    for (void *Ptr : Resident)
      Dispose(Ptr);
  };

  Executor Pool(Threads);
  const auto Start = std::chrono::steady_clock::now();
  Pool.parallelFor(Threads, Worker);
  const auto End = std::chrono::steady_clock::now();

  // Final handoffs can land after their target drained for the last
  // time; free the stragglers here (cross-thread again, from the caller).
  std::vector<void *> Leftover;
  for (Mailbox &Box : Mailboxes)
    Box.drainTo(Leftover);
  for (void *Ptr : Leftover)
    Dispose(Ptr);

  ConcurrentStressResult Result;
  Result.Seconds = std::chrono::duration<double>(End - Start).count();
  for (const WorkerCounts &Worker : Counts) {
    Result.Allocations += Worker.Allocations;
    Result.FailedAllocations += Worker.FailedAllocations;
  }
  Result.PatternFaults = PatternFaults.load();
  return Result;
}
