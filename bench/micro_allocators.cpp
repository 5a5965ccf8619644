//===- bench/micro_allocators.cpp - allocator microbenchmarks -------------------===//
//
// Malloc/free hot-path microbenchmarks of the allocator stack: baseline
// (GNU-libc stand-in), DieHard, DieFast, and the correcting allocator
// with a loaded patch table.  These are the per-operation costs
// underlying Figure 7's whole-program overheads.
//
// Every randomized heap runs each scenario twice: once on the PR-1 fast
// paths (offset-table placement, page-directory pointer lookup, SIMD
// canaries, fused verify+zero) and once with DieHardConfig::LegacyHotPath
// plus scalar canary dispatch, which reinstate the original O(n)
// implementation.  Both measurements land in one run, so every speedup
// column is self-contained and machine-checkable.
//
// Scenarios:
//  * hot-pairs      — immediate malloc/free pairs on an empty heap, the
//                     shape of tight allocation loops (all state cached).
//  * resident-churn — 20k-object resident heap, each pair frees and
//                     replaces a pseudo-random resident object: the
//                     long-running-server shape.  Random placement makes
//                     this DRAM-bound, which bounds any algorithmic win.
//  * large-pairs    — 2-8 KiB objects: big enough that §3.3's
//                     per-malloc/per-free canary sweeps dominate, small
//                     enough to stay cache-resident — the SIMD kernels'
//                     scenario.  (Past ~32 KiB both kernels saturate
//                     DRAM bandwidth and converge.)
//  * op:*           — isolated hot-path operations (pointer lookup,
//                     placement, canary fill/verify) for the per-op cost
//                     trajectory.
//  * mt-hot-pairs   — N threads of immediate malloc/free pairs with
//  * mt-churn         cross-thread frees, through the PR-7 concurrent
//                     front-end in both its modes: per-thread caches
//                     ("cached") and one mutex around the backend
//                     ("global-lock").  Alongside wall time the run
//                     records backend lock acquisitions per operation —
//                     the machine-independent decontention witness,
//                     since wall-clock scaling saturates at the host's
//                     core count (recorded in the JSON as
//                     hardware_threads).
//
// Usage:
//   micro_allocators [--json FILE] [--smoke]
//
// --json writes the BENCH_hotpath.json document (schema documented in
// ROADMAP.md); --smoke shrinks the workload for CI smoke runs.
//
//===----------------------------------------------------------------------===//

#include "BenchReport.h"

#include "alloc/BaselineAllocator.h"
#include "alloc/ConcurrentAllocator.h"
#include "correct/CorrectingHeap.h"
#include "heapimage/HeapImageIO.h"
#include "runtime/ConcurrentStress.h"
#include "runtime/Exterminator.h"
#include "workload/EspressoWorkload.h"
#include "workload/SquidWorkload.h"

#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace exterminator;
using namespace benchreport;

namespace {

struct Options {
  uint64_t Scale = 1; // divides every iteration count (--smoke: 16)
  std::string JsonPath;
};

const std::vector<size_t> MixedSizes = {16, 24,  32,  48,  64, 96,
                                        128, 192, 256, 512, 1024};
const std::vector<size_t> LargeSizes = {2048, 4096, 8192};

struct Measurement {
  std::string Scenario;
  std::string Name;
  std::string Mode; // "fast" or "legacy"
  double NsPerOp = 0;
  double OpsPerSec = 0;
};

/// Best-of-5 wall time for \p Fn, normalized per \p Ops operations
/// (minimum over repetitions rejects scheduler noise).
template <typename FnT> double bestNsPerOp(uint64_t Ops, FnT Fn) {
  double Best = 1e30;
  for (int Rep = 0; Rep < 5; ++Rep)
    Best = std::min(Best, timeSeconds(Fn));
  return Best * 1e9 / static_cast<double>(Ops);
}

/// Immediate malloc/free pairs (tight-loop shape).
double hotPairs(Allocator &Heap, const std::vector<size_t> &Sizes,
                uint64_t Ops) {
  return bestNsPerOp(Ops, [&] {
    for (uint64_t It = 0; It < Ops; ++It) {
      void *Ptr = Heap.allocate(Sizes[It % Sizes.size()]);
      Heap.deallocate(Ptr);
    }
  });
}

/// Free-and-replace over a resident live set (server shape).
double residentChurn(Allocator &Heap, const std::vector<size_t> &Sizes,
                     size_t LiveTarget, uint64_t Ops) {
  std::vector<void *> Live;
  Live.reserve(LiveTarget);
  for (size_t I = 0; Live.size() < LiveTarget; ++I)
    if (void *Ptr = Heap.allocate(Sizes[I % Sizes.size()]))
      Live.push_back(Ptr);
  const double Ns = bestNsPerOp(Ops, [&] {
    for (uint64_t It = 0; It < Ops; ++It) {
      const size_t Idx = (It * 0x9E3779B97F4A7C15ull) % Live.size();
      Heap.deallocate(Live[Idx]);
      Live[Idx] = Heap.allocate(Sizes[It % Sizes.size()]);
    }
  });
  for (void *Ptr : Live)
    Heap.deallocate(Ptr);
  return Ns;
}

PatchSet loadedPatches() {
  // A populated patch table: lookups must still be O(1).
  PatchSet Patches;
  for (SiteId Site = 1; Site <= 500; ++Site) {
    Patches.addPad(Site, Site % 64);
    Patches.addDeferral(Site, Site + 1, Site % 128);
  }
  return Patches;
}

DieHardConfig heapConfig(bool Legacy) {
  DieHardConfig Config;
  Config.Seed = 1;
  Config.LegacyHotPath = Legacy;
  return Config;
}

/// Runs \p Scenario for the named allocator in fast or legacy mode.
/// Legacy also pins the canary kernels to the pre-PR-1 scalar code.
Measurement runScenario(const std::string &Scenario, const std::string &Name,
                        bool Legacy, const Options &Opts) {
  canary_dispatch::force(Legacy ? canary_dispatch::Mode::Scalar
                                : canary_dispatch::Mode::Auto);

  const std::vector<size_t> &Sizes =
      Scenario == "large-pairs" ? LargeSizes : MixedSizes;
  uint64_t Ops = Scenario == "large-pairs"      ? 300000
                 : Scenario == "resident-churn" ? 400000
                                                : 1000000;
  Ops /= Opts.Scale;
  const size_t LiveTarget = 20000 / (Scenario == "resident-churn"
                                         ? static_cast<size_t>(Opts.Scale)
                                         : 1);

  auto Measure = [&](Allocator &Heap) {
    return Scenario == "resident-churn"
               ? residentChurn(Heap, Sizes, LiveTarget, Ops)
               : hotPairs(Heap, Sizes, Ops);
  };

  double Ns = 0;
  if (Name == "baseline") {
    BaselineAllocator Heap;
    Ns = Measure(Heap);
  } else if (Name == "diehard") {
    DieHardHeap Heap(heapConfig(Legacy));
    Ns = Measure(Heap);
  } else if (Name == "diefast") {
    DieFastConfig Config;
    Config.Heap = heapConfig(Legacy);
    DieFastHeap Heap(Config);
    Ns = Measure(Heap);
  } else if (Name == "diefast-cumulative") {
    DieFastConfig Config;
    Config.Heap = heapConfig(Legacy);
    Config.CanaryFillProbability = 0.5;
    DieFastHeap Heap(Config);
    Ns = Measure(Heap);
  } else if (Name == "correcting-patched") {
    CallContext Context;
    DieFastConfig Config;
    Config.Heap = heapConfig(Legacy);
    CorrectingHeap Heap(Config, &Context);
    Heap.setPatches(loadedPatches());
    Ns = Measure(Heap);
    Heap.flushDeferrals();
  } else {
    std::fprintf(stderr, "unknown allocator %s\n", Name.c_str());
    std::abort();
  }
  canary_dispatch::force(canary_dispatch::Mode::Auto);

  Measurement M;
  M.Scenario = Scenario;
  M.Name = Name;
  M.Mode = Legacy ? "legacy" : "fast";
  M.NsPerOp = Ns;
  M.OpsPerSec = 1e9 / Ns;
  return M;
}

/// Isolated hot-path operations; each returns fast and legacy ns/op.
std::vector<Measurement> runOpBenches(const Options &Opts) {
  std::vector<Measurement> Out;
  const uint64_t Ops = 2000000 / Opts.Scale;
  const size_t LiveTarget = 20000 / static_cast<size_t>(Opts.Scale);

  auto Record = [&](const std::string &Scenario, const std::string &Name,
                    bool Legacy, double Ns) {
    Out.push_back(Measurement{Scenario, Name, Legacy ? "legacy" : "fast", Ns,
                              1e9 / Ns});
  };

  // Pointer lookup (free-path resolution) over a resident heap: page
  // directory vs sorted-range binary search.
  for (int Legacy = 0; Legacy < 2; ++Legacy) {
    DieHardHeap Heap(heapConfig(Legacy));
    std::vector<void *> Live;
    for (size_t I = 0; Live.size() < LiveTarget; ++I)
      if (void *Ptr = Heap.allocate(MixedSizes[I % MixedSizes.size()]))
        Live.push_back(Ptr);
    volatile size_t Sink = 0;
    const double Ns = bestNsPerOp(Ops, [&] {
      size_t Acc = 0;
      for (uint64_t It = 0; It < Ops; ++It) {
        const size_t Idx = (It * 0x9E3779B97F4A7C15ull) % Live.size();
        Acc += Heap.findObject(Live[Idx])->SlotIndex;
      }
      Sink = Sink + Acc;
    });
    Record("op:pointer-lookup", "diehard", Legacy, Ns);
  }

  // Placement (reserve + resolved free): offset-table resolve vs linear
  // miniheap walk, over a grown multi-slab heap.
  for (int Legacy = 0; Legacy < 2; ++Legacy) {
    DieHardHeap Heap(heapConfig(Legacy));
    std::vector<void *> Live;
    for (size_t I = 0; Live.size() < LiveTarget; ++I)
      if (void *Ptr = Heap.allocate(MixedSizes[I % MixedSizes.size()]))
        Live.push_back(Ptr);
    const double Ns = bestNsPerOp(Ops, [&] {
      for (uint64_t It = 0; It < Ops; ++It) {
        const ObjectRef Ref =
            Heap.reserveSlot(static_cast<unsigned>(It % 8));
        Heap.deallocateResolved(Ref);
      }
    });
    Record("op:placement", "diehard", Legacy, Ns);
  }

  // Canary kernels on cached buffers (SIMD dispatch vs scalar).
  for (size_t Size : {size_t(256), size_t(4096)}) {
    RandomGenerator Rng(7);
    const Canary C = Canary::random(Rng);
    std::vector<uint8_t> Buffer(Size);
    const uint64_t KernelOps = Ops * 256 / Size;
    for (int Legacy = 0; Legacy < 2; ++Legacy) {
      canary_dispatch::force(Legacy ? canary_dispatch::Mode::Scalar
                                    : canary_dispatch::Mode::Auto);
      volatile bool Sink = false;
      const double FillNs = bestNsPerOp(KernelOps, [&] {
        for (uint64_t It = 0; It < KernelOps; ++It)
          C.fill(Buffer.data(), Size);
      });
      const double VerifyNs = bestNsPerOp(KernelOps, [&] {
        bool Ok = true;
        for (uint64_t It = 0; It < KernelOps; ++It)
          Ok &= C.verify(Buffer.data(), Size);
        Sink = Ok;
      });
      Record(fmt("op:canary-fill-%zu", Size), "canary", Legacy, FillNs);
      Record(fmt("op:canary-verify-%zu", Size), "canary", Legacy, VerifyNs);
    }
    canary_dispatch::force(canary_dispatch::Mode::Auto);
  }
  return Out;
}

/// Pairs each op scenario's fast and legacy measurements into a
/// legacy/fast speedup, in first-seen scenario order.
std::vector<std::pair<std::string, double>>
opSpeedups(const std::vector<Measurement> &OpResults) {
  std::vector<std::pair<std::string, double>> Out;
  for (const Measurement &Fast : OpResults) {
    if (Fast.Mode != "fast")
      continue;
    for (const Measurement &Legacy : OpResults)
      if (Legacy.Mode == "legacy" && Legacy.Scenario == Fast.Scenario) {
        Out.emplace_back(Fast.Scenario, Legacy.NsPerOp / Fast.NsPerOp);
        break;
      }
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Contended scenarios (PR 7)
//===----------------------------------------------------------------------===//

struct MtMeasurement {
  std::string Scenario; // "mt-hot-pairs" or "mt-churn"
  unsigned Threads = 1;
  std::string Mode; // "cached" or "global-lock"
  double NsPerOp = 0;
  double OpsPerSec = 0;
  /// Backend lock acquisitions per operation during the measured run:
  /// ~1/(2 MagazineSize) for the cached mode, exactly 1 for global-lock.
  double LockAcquiresPerOp = 0;
  /// Header-stamp mismatches (must be 0: the bench doubles as a
  /// memory-integrity check).
  uint64_t PatternFaults = 0;
};

/// One contended run: N workers over one shared ConcurrentAllocator via
/// runConcurrentStress, best-of-3 wall time (thread startup noise is
/// larger than single-thread loop noise, but so are the run times).
MtMeasurement runMtScenario(const std::string &Scenario, unsigned Threads,
                            bool GlobalLock, const Options &Opts) {
  ConcurrentAllocatorConfig Cfg;
  Cfg.Heap.Seed = 1;
  Cfg.MagazineSize = 32;
  Cfg.GlobalLockBaseline = GlobalLock;

  ConcurrentStressConfig Stress;
  Stress.Threads = Threads;
  Stress.OpsPerThread =
      (Scenario == "mt-churn" ? 100000 : 200000) / Opts.Scale;
  Stress.ResidentPerThread =
      Scenario == "mt-churn" ? 2000 / static_cast<size_t>(Opts.Scale) : 0;
  Stress.CrossFreeFraction = 0.25;
  Stress.Seed = 1;

  MtMeasurement M;
  M.Scenario = Scenario;
  M.Threads = Threads;
  M.Mode = GlobalLock ? "global-lock" : "cached";

  double BestSeconds = 1e30;
  for (int Rep = 0; Rep < 3; ++Rep) {
    ConcurrentAllocator Alloc(Cfg);
    const ConcurrentStressResult R = runConcurrentStress(Alloc, Stress);
    // Allocate + free for every allocation: 2 ops each.
    const uint64_t Ops = 2 * R.Allocations;
    const uint64_t Locks = Alloc.backendLockAcquires(); // before flushAll
    Alloc.flushAll();
    M.PatternFaults += R.PatternFaults;
    if (R.Seconds < BestSeconds) {
      BestSeconds = R.Seconds;
      M.NsPerOp = R.Seconds * 1e9 / static_cast<double>(Ops);
      M.OpsPerSec = static_cast<double>(Ops) / R.Seconds;
      M.LockAcquiresPerOp =
          static_cast<double>(Locks) / static_cast<double>(Ops);
    }
  }
  return M;
}

/// Runs both contended scenarios across the thread sweep in both modes.
std::vector<MtMeasurement> runMtBenches(const Options &Opts) {
  std::vector<MtMeasurement> Out;
  for (const char *Scenario : {"mt-hot-pairs", "mt-churn"})
    for (unsigned Threads : {1u, 2u, 4u, 8u})
      for (bool GlobalLock : {false, true})
        Out.push_back(runMtScenario(Scenario, Threads, GlobalLock, Opts));
  return Out;
}

/// global-lock ns / cached ns at matching (scenario, threads).
std::vector<std::pair<std::string, double>>
mtSpeedups(const std::vector<MtMeasurement> &MtResults) {
  std::vector<std::pair<std::string, double>> Out;
  for (const MtMeasurement &Cached : MtResults) {
    if (Cached.Mode != "cached")
      continue;
    for (const MtMeasurement &Locked : MtResults)
      if (Locked.Mode == "global-lock" &&
          Locked.Scenario == Cached.Scenario &&
          Locked.Threads == Cached.Threads) {
        Out.emplace_back(fmt("%s/%ut", Cached.Scenario.c_str(),
                             Cached.Threads),
                         Locked.NsPerOp / Cached.NsPerOp);
        break;
      }
  }
  return Out;
}

/// Heap-image format footprint: serialized bytes of the same image in
/// the legacy v1 layout and the columnar v2 layout (PR 2), on the
/// example workloads the diagnosis side processes.
struct ImageSizeSample {
  std::string Workload;
  size_t V1Bytes = 0;
  size_t V2Bytes = 0;
  double reduction() const {
    return V2Bytes ? static_cast<double>(V1Bytes) / V2Bytes : 0.0;
  }
};

static std::vector<ImageSizeSample> measureImageSizes() {
  std::vector<ImageSizeSample> Samples;
  ExterminatorConfig Config;
  EspressoWorkload Espresso;
  SquidWorkload Squid;
  struct Case {
    const char *Name;
    Workload *Work;
    uint64_t Input;
  } Cases[] = {{"espresso", &Espresso, 5}, {"squid", &Squid, 1}};
  for (const Case &C : Cases) {
    const HeapImage Image =
        runWorkloadOnce(*C.Work, C.Input, /*HeapSeed=*/11, Config,
                        PatchSet())
            .FinalImage;
    ImageSizeSample Sample;
    Sample.Workload = C.Name;
    Sample.V1Bytes = serializeHeapImageV1(Image).size();
    Sample.V2Bytes = serializeHeapImage(Image).size();
    Samples.push_back(std::move(Sample));
  }
  return Samples;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  for (int I = 1; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    if (Arg == "--json" && I + 1 < Argc) {
      Opts.JsonPath = Argv[++I];
    } else if (Arg == "--smoke") {
      Opts.Scale = 16;
    } else {
      std::fprintf(stderr, "usage: micro_allocators [--json FILE] [--smoke]\n");
      return 2;
    }
  }

  heading("Hot-path microbenchmarks (ns per malloc/free pair)");
  note("canary dispatch (auto): %s", canary_dispatch::activeName());

  const char *Scenarios[] = {"hot-pairs", "resident-churn", "large-pairs"};
  const char *Heaps[] = {"diehard", "diefast", "diefast-cumulative",
                         "correcting-patched"};

  std::vector<Measurement> Results;
  Results.push_back(runScenario("hot-pairs", "baseline", false, Opts));
  Results.push_back(runScenario("resident-churn", "baseline", false, Opts));
  Results.push_back(runScenario("large-pairs", "baseline", false, Opts));

  // speedups[scenario][allocator] = legacy ns / fast ns
  std::vector<std::pair<std::string, std::vector<std::pair<std::string, double>>>>
      Speedups;
  for (const char *Scenario : Scenarios) {
    Speedups.emplace_back(Scenario,
                          std::vector<std::pair<std::string, double>>{});
    for (const char *Name : Heaps) {
      Measurement Fast = runScenario(Scenario, Name, false, Opts);
      Measurement Legacy = runScenario(Scenario, Name, true, Opts);
      Speedups.back().second.emplace_back(Name,
                                          Legacy.NsPerOp / Fast.NsPerOp);
      Results.push_back(std::move(Fast));
      Results.push_back(std::move(Legacy));
    }
  }

  std::vector<Measurement> OpResults = runOpBenches(Opts);

  Table Report({"scenario", "allocator", "mode", "ns/op", "Mops/s"});
  for (const std::vector<Measurement> *Set : {&Results, &OpResults})
    for (const Measurement &M : *Set)
      Report.addRow({M.Scenario, M.Name, M.Mode, fmt("%.1f", M.NsPerOp),
                     fmt("%.2f", M.OpsPerSec / 1e6)});
  Report.print();

  heading("Speedup: fast hot path vs legacy (same binary, same run)");
  Table SpeedupTable({"scenario", "allocator", "speedup"});
  double Headline = 0;
  for (const auto &[Scenario, PerHeap] : Speedups)
    for (const auto &[Name, Speedup] : PerHeap) {
      SpeedupTable.addRow({Scenario, Name, fmt("%.2fx", Speedup)});
      if (Scenario == std::string("large-pairs") &&
          Name == std::string("diefast"))
        Headline = Speedup;
    }
  // Op-level speedups: match each scenario's fast and legacy rows.
  const std::vector<std::pair<std::string, double>> OpSpeedups =
      opSpeedups(OpResults);
  for (const auto &[Scenario, Speedup] : OpSpeedups)
    SpeedupTable.addRow({Scenario, "", fmt("%.2fx", Speedup)});
  SpeedupTable.print();
  note("headline (diefast large-pairs, the canary-bound §3.3 hot path): "
       "%.2fx",
       Headline);
  note("resident-churn is DRAM-bound by design (random placement defeats "
       "locality), so its speedups are memory-limited");

  const std::vector<MtMeasurement> MtResults = runMtBenches(Opts);
  const std::vector<std::pair<std::string, double>> MtSpeedupRows =
      mtSpeedups(MtResults);
  heading("Contended scenarios: per-thread caches vs global lock");
  note("hardware threads on this host: %u (wall-clock scaling saturates "
       "here; lock acquisitions per op do not)",
       std::thread::hardware_concurrency());
  Table MtTable(
      {"scenario", "threads", "mode", "ns/op", "Mops/s", "locks/op"});
  uint64_t MtFaults = 0;
  for (const MtMeasurement &M : MtResults) {
    MtTable.addRow({M.Scenario, fmt("%u", M.Threads), M.Mode,
                    fmt("%.1f", M.NsPerOp), fmt("%.2f", M.OpsPerSec / 1e6),
                    fmt("%.4f", M.LockAcquiresPerOp)});
    MtFaults += M.PatternFaults;
  }
  MtTable.print();
  Table MtSpeedupTable({"scenario/threads", "cached vs global-lock"});
  double MtHeadline = 0;
  for (const auto &[Key, Speedup] : MtSpeedupRows) {
    MtSpeedupTable.addRow({Key, fmt("%.2fx", Speedup)});
    if (Key == std::string("mt-hot-pairs/4t"))
      MtHeadline = Speedup;
  }
  MtSpeedupTable.print();
  note("mt headline (mt-hot-pairs, 4 threads, cached vs global-lock): "
       "%.2fx; pattern faults across all runs: %llu",
       MtHeadline, static_cast<unsigned long long>(MtFaults));

  const std::vector<ImageSizeSample> ImageSizes = measureImageSizes();
  heading("Heap-image footprint: columnar v2 vs legacy v1 (bytes)");
  Table ImageTable({"workload", "v1 bytes", "v2 bytes", "reduction"});
  for (const ImageSizeSample &Sample : ImageSizes)
    ImageTable.addRow({Sample.Workload, fmt("%zu", Sample.V1Bytes),
                       fmt("%zu", Sample.V2Bytes),
                       fmt("%.2fx", Sample.reduction())});
  ImageTable.print();

  if (!Opts.JsonPath.empty()) {
    JsonWriter Json;
    Json.beginObject();
    Json.field("bench", "hotpath");
    Json.field("schema_version", 3);
    Json.beginObject("config");
    Json.field("scale_divisor", Opts.Scale);
    Json.field("canary_dispatch_auto", canary_dispatch::activeName());
    Json.field("hardware_threads",
               static_cast<uint64_t>(std::thread::hardware_concurrency()));
    Json.endObject();
    Json.beginArray("results");
    for (const std::vector<Measurement> *Set : {&Results, &OpResults})
      for (const Measurement &M : *Set) {
        Json.beginObject();
        Json.field("scenario", M.Scenario);
        Json.field("name", M.Name);
        Json.field("mode", M.Mode);
        Json.field("ns_per_op", M.NsPerOp);
        Json.field("ops_per_sec", M.OpsPerSec);
        Json.endObject();
      }
    Json.endArray();
    Json.beginArray("speedups");
    for (const auto &[Scenario, PerHeap] : Speedups)
      for (const auto &[Name, Speedup] : PerHeap) {
        Json.beginObject();
        Json.field("scenario", Scenario);
        Json.field("name", Name);
        Json.field("speedup", Speedup);
        Json.endObject();
      }
    for (const auto &[Scenario, Speedup] : OpSpeedups) {
      Json.beginObject();
      Json.field("scenario", Scenario);
      Json.field("speedup", Speedup);
      Json.endObject();
    }
    Json.endArray();
    Json.beginArray("mt_results");
    for (const MtMeasurement &M : MtResults) {
      Json.beginObject();
      Json.field("scenario", M.Scenario);
      Json.field("threads", static_cast<uint64_t>(M.Threads));
      Json.field("mode", M.Mode);
      Json.field("ns_per_op", M.NsPerOp);
      Json.field("ops_per_sec", M.OpsPerSec);
      Json.field("lock_acquires_per_op", M.LockAcquiresPerOp);
      Json.field("pattern_faults", M.PatternFaults);
      Json.endObject();
    }
    Json.endArray();
    Json.beginArray("mt_speedups");
    for (const auto &[Key, Speedup] : MtSpeedupRows) {
      Json.beginObject();
      Json.field("scenario", Key);
      Json.field("speedup", Speedup);
      Json.endObject();
    }
    Json.endArray();
    Json.field("mt_headline_scenario", "mt-hot-pairs/4t cached vs global-lock");
    Json.field("mt_headline_speedup", MtHeadline);
    Json.beginArray("image_format");
    for (const ImageSizeSample &Sample : ImageSizes) {
      Json.beginObject();
      Json.field("workload", Sample.Workload);
      Json.field("v1_bytes", static_cast<uint64_t>(Sample.V1Bytes));
      Json.field("v2_bytes", static_cast<uint64_t>(Sample.V2Bytes));
      Json.field("reduction", Sample.reduction());
      Json.endObject();
    }
    Json.endArray();
    Json.field("headline_scenario", "large-pairs/diefast");
    Json.field("headline_speedup", Headline);
    Json.endObject();
    if (!Json.writeFile(Opts.JsonPath)) {
      std::fprintf(stderr, "failed to write %s\n", Opts.JsonPath.c_str());
      return 1;
    }
    note("wrote %s", Opts.JsonPath.c_str());
  }
  return 0;
}
