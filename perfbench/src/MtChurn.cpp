//===- perfbench/src/MtChurn.cpp - Pinned resident churn --------------------===//
//
// The concurrent front end (ConcurrentAllocator) under resident churn with
// 25% cross-thread frees: the only workload that exercises magazines,
// MPSC remote frees and claim bits (fig7 bypasses all three).
//
// The churn loop is the benchmark's own, with runtime/ConcurrentStress's
// stamp-and-verify scheme, but it adds no shared-line traffic of its own:
// counters live in cache-line-aligned per-worker state and are summed at
// join, and cross-thread handoffs move in batches of 64 pointers.  Workers
// are pinned to distinct CPUs: unpinned two-worker runs flip within one
// process between a serialized and a parallel mode.  alloc.parallelism
// (worker CPU seconds / wall seconds) makes a co-scheduled run visible.
//
// Three kinds of segment take turns, each on its own warm allocators:
// two workers on ConcurrentAllocator, the same two-worker churn on the C
// library's malloc (the reference), and one worker on ConcurrentAllocator.
// The unit of work is one batch of 2048 allocations (plus the frees they
// force) in one worker: p50_rel / p90_rel are the median / p90
// ConcurrentAllocator batch time over the median malloc batch time, both
// with two workers.  rate_per_s is the median over two-worker
// ConcurrentAllocator segments of operations per wall second.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "alloc/ConcurrentAllocator.h"
#include "support/RandomGenerator.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <pthread.h>
#include <sched.h>
#include <thread>
#include <time.h>

using namespace exterminator;
using namespace perfbench;

namespace {

constexpr size_t ResidentPerWorker = 2000;
constexpr unsigned BatchAllocations = 2048;
constexpr double CrossFreeFraction = 0.25;
constexpr size_t HandoffBatch = 64;
constexpr size_t Sizes[] = {16, 24, 48, 100, 256, 1024};
constexpr unsigned Segments = 60;
/// Set-up churn per worker: fills the resident set and the magazines.
constexpr unsigned WarmBatches = 16;

enum CallKind { Allocate, FreeLocal, FreeRemote, NumKinds };

/// Per-call latency histogram, 1 ns buckets (last bucket: overflow).
struct Histogram {
  static constexpr size_t Buckets = 8192;
  std::vector<uint32_t> Counts = std::vector<uint32_t>(Buckets, 0);
  void add(int64_t Ns) {
    ++Counts[static_cast<size_t>(
        std::clamp<int64_t>(Ns, 0, int64_t(Buckets) - 1))];
  }
};

double histogramMedian(const std::vector<const Histogram *> &Parts) {
  uint64_t Total = 0;
  for (const Histogram *H : Parts)
    for (uint32_t C : H->Counts)
      Total += C;
  uint64_t Seen = 0;
  for (size_t B = 0; B < Histogram::Buckets; ++B) {
    for (const Histogram *H : Parts)
      Seen += H->Counts[B];
    if (Total && 2 * Seen >= Total)
      return double(B);
  }
  return 0.0;
}

uint64_t stampFor(const void *Ptr, uint64_t Nonce) {
  return (reinterpret_cast<uintptr_t>(Ptr) * 0x9E3779B97F4A7C15ull) ^ Nonce;
}

double threadCpuSeconds() {
  timespec Ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &Ts);
  return double(Ts.tv_sec) + double(Ts.tv_nsec) * 1e-9;
}

struct alignas(64) Mailbox {
  std::mutex Lock;
  std::vector<void *> Pointers;
};

/// One worker's state; only its worker touches it during a segment.
struct alignas(64) Worker {
  explicit Worker(uint64_t Seed) : Rng(Seed) {}
  RandomGenerator Rng;
  std::vector<void *> Resident, Outbox, Inbox;
  uint64_t Allocations = 0, Frees = 0, RemoteFrees = 0;
  uint64_t StampFaults = 0, FailedAllocations = 0;
  std::vector<double> BatchMs;
  double CpuSeconds = 0;
  Clock::time_point Start, End;
  Histogram Calls[NumKinds];
};

/// One mode (worker count, allocator) with its own allocator.  A
/// reference mode churns through std::malloc/std::free instead.
struct Mode {
  Mode(unsigned Workers, uint64_t Seed, bool Reference = false)
      : Alloc(config(Seed)), Reference(Reference), Boxes(Workers),
        Nonce(mixSeed(Seed, 77) | 1) {
    for (unsigned I = 0; I < Workers; ++I)
      Pool.push_back(std::make_unique<Worker>(mixSeed(Seed, 200 + I)));
  }
  static ConcurrentAllocatorConfig config(uint64_t Seed) {
    ConcurrentAllocatorConfig C;
    C.Heap.Seed = Seed;
    C.MagazineSize = 32;
    return C;
  }
  void *allocate(size_t Size) {
    return Reference ? std::malloc(Size) : Alloc.allocate(Size);
  }
  void deallocate(void *Ptr) {
    if (Reference)
      std::free(Ptr);
    else
      Alloc.deallocate(Ptr);
  }
  ConcurrentAllocator Alloc;
  bool Reference;
  std::vector<Mailbox> Boxes;
  std::vector<std::unique_ptr<Worker>> Pool;
  uint64_t Nonce;
  uint64_t TimedOps = 0;
  double TimedWall = 0, TimedCpu = 0;
  uint64_t LockAcquires = 0;
  /// Operations per wall second of each timed segment.
  std::vector<double> SegmentRates;
};

std::vector<int> allowedCpus() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  std::vector<int> Cpus;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    for (int C = 0; C < CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Set))
        Cpus.push_back(C);
  return Cpus;
}

void pinTo(int Cpu) {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  CPU_SET(Cpu, &Set);
  pthread_setaffinity_np(pthread_self(), sizeof(Set), &Set);
}

/// Frees \p Ptr after verifying its stamp, optionally timing the call.
void dispose(Mode &M, Worker &W, void *Ptr, CallKind Kind, bool Traced) {
  if (*static_cast<const uint64_t *>(Ptr) != stampFor(Ptr, M.Nonce))
    ++W.StampFaults;
  if (Traced) {
    const Clock::time_point T0 = Clock::now();
    M.deallocate(Ptr);
    W.Calls[Kind].add((Clock::now() - T0).count());
  } else {
    M.deallocate(Ptr);
  }
  ++W.Frees;
  W.RemoteFrees += Kind == FreeRemote;
}

void drainInbox(Mode &M, Worker &W, Mailbox &Box, bool Traced) {
  W.Inbox.clear();
  {
    std::lock_guard<std::mutex> Guard(Box.Lock);
    W.Inbox.swap(Box.Pointers);
  }
  for (void *Ptr : W.Inbox)
    dispose(M, W, Ptr, FreeRemote, Traced);
}

/// One batch: BatchAllocations allocations, each evicting a random
/// resident once the resident set is full.
void runBatch(Mode &M, unsigned Index, bool Traced) {
  Worker &W = *M.Pool[Index];
  const unsigned Workers = static_cast<unsigned>(M.Pool.size());
  Mailbox &Next = M.Boxes[(Index + 1) % Workers];
  drainInbox(M, W, M.Boxes[Index], Traced);
  for (unsigned A = 0; A < BatchAllocations; ++A) {
    const size_t Size = Sizes[W.Rng.nextBelow(std::size(Sizes))];
    void *Ptr;
    if (Traced) {
      const Clock::time_point T0 = Clock::now();
      Ptr = M.allocate(Size);
      W.Calls[Allocate].add((Clock::now() - T0).count());
    } else {
      Ptr = M.allocate(Size);
    }
    if (!Ptr) {
      ++W.FailedAllocations;
      continue;
    }
    ++W.Allocations;
    *static_cast<uint64_t *>(Ptr) = stampFor(Ptr, M.Nonce);
    W.Resident.push_back(Ptr);
    if (W.Resident.size() <= ResidentPerWorker)
      continue;
    const size_t Victim = W.Rng.nextBelow(W.Resident.size());
    std::swap(W.Resident[Victim], W.Resident.back());
    void *Evicted = W.Resident.back();
    W.Resident.pop_back();
    if (Workers > 1 && W.Rng.chance(CrossFreeFraction)) {
      W.Outbox.push_back(Evicted);
      if (W.Outbox.size() >= HandoffBatch) {
        std::lock_guard<std::mutex> Guard(Next.Lock);
        Next.Pointers.insert(Next.Pointers.end(), W.Outbox.begin(),
                             W.Outbox.end());
        W.Outbox.clear();
      }
    } else {
      dispose(M, W, Evicted, FreeLocal, Traced);
    }
  }
}

/// Runs every worker of \p M on its own thread, pinned to consecutive
/// CPUs from \p FirstCpu, for \p Seconds
/// (0: WarmBatches batches each, the untimed warm-up).  Adds the timed
/// totals to the mode when \p Timed.
void runSegment(Mode &M, const std::vector<int> &Cpus, unsigned FirstCpu,
                double Seconds, bool Timed, bool Traced) {
  const unsigned Workers = static_cast<unsigned>(M.Pool.size());
  std::atomic<unsigned> Arrived{0};
  std::atomic<bool> Stop{false};
  const uint64_t LocksBefore = M.Alloc.backendLockAcquires();
  const uint64_t OpsAtStart = M.TimedOps;
  std::vector<uint64_t> OpsBefore(Workers);
  for (unsigned I = 0; I < Workers; ++I)
    OpsBefore[I] = M.Pool[I]->Allocations + M.Pool[I]->Frees;

  const auto Body = [&](unsigned Index) {
    if (!Cpus.empty())
      pinTo(Cpus[(FirstCpu + Index) % Cpus.size()]);
    Worker &W = *M.Pool[Index];
    Arrived.fetch_add(1, std::memory_order_acq_rel);
    while (Arrived.load(std::memory_order_acquire) < Workers)
      std::this_thread::yield();
    const double Cpu0 = threadCpuSeconds();
    W.Start = Clock::now();
    for (unsigned Batch = 0;
         Seconds > 0 ? !Stop.load(std::memory_order_relaxed)
                     : Batch < WarmBatches;
         ++Batch) {
      const Clock::time_point B0 = Clock::now();
      runBatch(M, Index, Traced);
      if (Timed)
        W.BatchMs.push_back(msBetween(B0, Clock::now()));
    }
    W.End = Clock::now();
    W.CpuSeconds = threadCpuSeconds() - Cpu0;
  };

  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < Workers; ++I)
    Threads.emplace_back(Body, I);
  if (Seconds > 0) {
    while (Arrived.load(std::memory_order_acquire) < Workers)
      std::this_thread::yield();
    std::this_thread::sleep_for(std::chrono::duration<double>(Seconds));
    Stop.store(true, std::memory_order_relaxed);
  }
  for (std::thread &T : Threads)
    T.join();
  if (!Timed)
    return;

  Clock::time_point First = M.Pool[0]->Start, Last = M.Pool[0]->End;
  for (unsigned I = 0; I < Workers; ++I) {
    Worker &W = *M.Pool[I];
    First = std::min(First, W.Start);
    Last = std::max(Last, W.End);
    M.TimedOps += W.Allocations + W.Frees - OpsBefore[I];
    M.TimedCpu += W.CpuSeconds;
  }
  M.TimedWall += secondsBetween(First, Last);
  M.SegmentRates.push_back(double(M.TimedOps - OpsAtStart) /
                           secondsBetween(First, Last));
  M.LockAcquires += M.Alloc.backendLockAcquires() - LocksBefore;
}

/// Frees everything still held, then checks the allocator's own
/// accounting.  Returns the number of faults found.
uint64_t windDown(Mode &M, uint64_t &Checked) {
  uint64_t Faults = 0;
  for (unsigned I = 0; I < M.Pool.size(); ++I) {
    Worker &W = *M.Pool[I];
    drainInbox(M, W, M.Boxes[I], false);
    for (void *Ptr : W.Outbox)
      dispose(M, W, Ptr, FreeRemote, false);
    for (void *Ptr : W.Resident)
      dispose(M, W, Ptr, FreeLocal, false);
    W.Outbox.clear();
    W.Resident.clear();
  }
  for (unsigned I = 0; I < M.Pool.size(); ++I)
    drainInbox(M, *M.Pool[I], M.Boxes[I], false);
  M.Alloc.flushAll();
  const AllocatorStats &Stats = M.Alloc.stats();
  uint64_t Allocations = 0, Frees = 0;
  for (const auto &W : M.Pool) {
    Faults += W->StampFaults + W->FailedAllocations;
    Checked += W->Frees + W->FailedAllocations;
    Allocations += W->Allocations;
    Frees += W->Frees;
  }
  // Every allocation is freed exactly once, by whichever worker held it.
  if (Allocations != Frees || Stats.Allocations != Stats.Deallocations)
    ++Faults;
  return Faults + Stats.InvalidFrees + Stats.DoubleFrees;
}

} // namespace

Report perfbench::runMtChurn(const Options &Opts) {
  Report Rep;
  const std::vector<int> Cpus = allowedCpus();
  // Three two-worker allocators (segments rotate over them, so one
  // process's heap placement does not set the figure), one one-worker,
  // and the two-worker malloc reference.
  std::vector<std::unique_ptr<Mode>> Modes;
  uint64_t Ignored = 0;
  for (int I = 0; I < 5; ++I) {
    for (auto &M : Modes)
      windDown(*M, Ignored);
    Modes.clear();
    const Clock::time_point Start = Clock::now();
    for (unsigned K = 0; K < 5; ++K) {
      Modes.push_back(std::make_unique<Mode>(K == 3 ? 1 : 2,
                                             mixSeed(Opts.Seed, K), K == 4));
      runSegment(*Modes.back(), Cpus, 0, 0, false, false);
    }
    Rep.SetupSeconds.push_back(secondsBetween(Start, Clock::now()));
  }
  const std::vector<Mode *> Twos = {Modes[0].get(), Modes[1].get(),
                                    Modes[2].get()};
  Mode &One = *Modes[3];
  Mode &Ref = *Modes[4];

  const double SegmentSeconds = Opts.Seconds / Segments;
  // Each round of three segments (ConcurrentAllocator, malloc reference,
  // one worker) runs on one pair of CPUs, so a segment and its reference
  // see the same vCPUs; rounds rotate over the CPUs, so one vCPU that a
  // neighbour tenant contends moves a few rounds, not the median.
  for (unsigned S = 0, K = 0; S < Segments; ++S)
    runSegment(S % 3 == 1 ? Ref : S % 3 == 2 ? One : *Twos[K++ % Twos.size()],
               Cpus, S / 3, SegmentSeconds, true, Opts.Traced);

  uint64_t Checked = 0, Faults = 0;
  for (auto &M : Modes)
    Faults += windDown(*M, Checked);
  Rep.Attempted = Checked;
  Rep.Failed = std::min(Faults, Checked);
  if (Faults)
    std::fprintf(stderr,
                 "perfbench: check failed: %llu stamp, allocation or free "
                 "faults\n",
                 static_cast<unsigned long long>(Faults));

  std::vector<double> Batches, Rates;
  uint64_t Ops = 0, Locks = 0, Frees = 0, Remote = 0;
  double Wall = 0, Cpu = 0;
  for (const Mode *M : Twos) {
    for (const auto &W : M->Pool) {
      Batches.insert(Batches.end(), W->BatchMs.begin(), W->BatchMs.end());
      Frees += W->Frees;
      Remote += W->RemoteFrees;
    }
    Rates.insert(Rates.end(), M->SegmentRates.begin(), M->SegmentRates.end());
    Ops += M->TimedOps;
    Locks += M->LockAcquires;
    Wall += M->TimedWall;
    Cpu += M->TimedCpu;
  }
  std::vector<double> RefBatches;
  for (const auto &W : Ref.Pool)
    RefBatches.insert(RefBatches.end(), W->BatchMs.begin(), W->BatchMs.end());
  Rep.P50Ms = median(Batches);
  Rep.P90Ms = quantile(Batches, 0.9);
  Rep.RefMs = median(RefBatches);
  Rep.P50Rel = Rep.P50Ms / Rep.RefMs;
  Rep.P90Rel = Rep.P90Ms / Rep.RefMs;
  // Median over segments: one segment that shares its CPUs with another
  // tenant moves the figure less than it would move a total.
  Rep.RatePerS = median(Rates);

  Rep.layer("ops_per_s_1t", median(One.SegmentRates), "1/s");
  Rep.layer("alloc.parallelism", Cpu / Wall, "ratio");
  Rep.layer("alloc.lock_acquires_per_op", double(Locks) / double(Ops),
            "ratio");
  Rep.layer("alloc.remote_free_share", double(Remote) / double(Frees),
            "ratio");
  if (Opts.Traced) {
    const auto Median = [](const std::vector<Mode *> &Of, CallKind Kind) {
      std::vector<const Histogram *> Parts;
      for (const Mode *M : Of)
        for (const auto &W : M->Pool)
          Parts.push_back(&W->Calls[Kind]);
      return histogramMedian(Parts);
    };
    Rep.layer("alloc.allocate_ns", Median(Twos, Allocate), "ns");
    Rep.layer("alloc.free_local_ns", Median(Twos, FreeLocal), "ns");
    Rep.layer("alloc.free_remote_ns", Median(Twos, FreeRemote), "ns");
    Rep.layer("alloc.allocate_ns_1t", Median({&One}, Allocate), "ns");
    Rep.layer("alloc.free_local_ns_1t", Median({&One}, FreeLocal), "ns");
  }
  return Rep;
}
