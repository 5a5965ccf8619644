//===- perfbench/src/Fig7.cpp - Warm Figure 7 ladder ------------------------===//
//
// Single-threaded allocator cost (paper Fig. 7).  Every (profile, heap)
// pair runs on a warm heap: set-up builds each heap and runs one untimed
// pass, so first-touch and construction cost lands in setup_s.  Timed
// passes of the rungs are interleaved, with the rung order rotated every
// round, so drift hits every rung alike; per-profile medians are taken.
//
// Untraced runs time two rungs, BaselineAllocator and the full
// Exterminator stack (CorrectingHeap over DieFast over DieHard).  Traced
// runs time the whole ladder BaselineAllocator -> DieHardHeap ->
// DieFastHeap -> CorrectingHeap, one span per (profile, rung, pass), so
// each layer's share is the ratio of adjacent rungs.
//
// The unit of work is one full-stack pass of an allocation-intensive
// program, and its reference unit the baseline pass of the same program:
// p50_rel is the geomean over the five programs of median full-stack pass
// time / median baseline pass time (the paper's normalized runtime,
// slowdown_alloc), p90_rel the same with the p90 full-stack pass.
// p50_ms / p90_ms are the geomeans of the absolute full-stack times,
// rate_per_s the allocator calls per second of those passes.  The
// compute-bound SPEC-like rows are scaled down and visited one per round,
// so they stay a small share of the run.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "alloc/BaselineAllocator.h"
#include "alloc/DieHardHeap.h"
#include "correct/CorrectingHeap.h"
#include "diefast/DieFastHeap.h"
#include "workload/SyntheticSuite.h"

#include <memory>
#include <string>

using namespace exterminator;
using namespace perfbench;

namespace {

/// Operation-count scaling.  Alloc rows are halved so a 10 s run holds
/// over 100 full-stack passes of each (a p90 with 10 passes beyond it);
/// on a warm heap a ~10 ms pass times precisely.  SPEC rows are quartered:
/// compute-bound, they only anchor slowdown_spec.
constexpr unsigned AllocRowDivisor = 2;
constexpr unsigned SpecRowDivisor = 4;

enum Rung { Baseline, DieHard, DieFast, Correcting, NumRungs };
const char *const RungSpan[NumRungs] = {"fig7.baseline", "fig7.diehard",
                                        "fig7.diefast", "fig7.correct"};

/// One program with its warm heaps, one per rung.
struct Row {
  SyntheticProfile Profile;
  uint64_t Input = 0;
  CallContext Context[NumRungs];
  std::unique_ptr<Allocator> Heap[NumRungs];
  const DieHardHeap *Probe[NumRungs] = {};
  std::vector<double> PassMs[NumRungs];
  std::vector<uint8_t> Expected;
  uint64_t CallsPerPass = 0;
};

/// Builds every row's heaps (only the timed rungs) and runs one untimed
/// pass on each.
std::vector<std::unique_ptr<Row>> buildLadder(uint64_t Seed,
                                              bool FullLadder) {
  std::vector<std::unique_ptr<Row>> Rows;
  unsigned Index = 0;
  for (SyntheticProfile Profile : figure7Profiles()) {
    auto R = std::make_unique<Row>();
    Profile.Operations /= Profile.AllocationIntensive ? AllocRowDivisor
                                                      : SpecRowDivisor;
    R->Profile = Profile;
    R->Input = mixSeed(Seed, 100 + Index);
    for (int Rg = 0; Rg < NumRungs; ++Rg) {
      if (!FullLadder && Rg != Baseline && Rg != Correcting)
        continue;
      DieFastConfig Config;
      Config.Heap.Seed = mixSeed(Seed, 1000 + Index * NumRungs + Rg);
      switch (Rg) {
      case Baseline:
        R->Heap[Rg] = std::make_unique<BaselineAllocator>();
        break;
      case DieHard: {
        auto H = std::make_unique<DieHardHeap>(Config.Heap, &R->Context[Rg]);
        R->Probe[Rg] = H.get();
        R->Heap[Rg] = std::move(H);
        break;
      }
      case DieFast: {
        auto H = std::make_unique<DieFastHeap>(Config, &R->Context[Rg]);
        R->Probe[Rg] = &H->heap();
        R->Heap[Rg] = std::move(H);
        break;
      }
      case Correcting: {
        auto H = std::make_unique<CorrectingHeap>(Config, &R->Context[Rg]);
        R->Probe[Rg] = &H->diefast().heap();
        R->Heap[Rg] = std::move(H);
        break;
      }
      }
      SyntheticWorkload Work(Profile);
      AllocatorHandle Handle(*R->Heap[Rg], R->Context[Rg], R->Probe[Rg]);
      const AllocatorStats Before = R->Heap[Rg]->stats();
      const WorkloadResult Warm = Work.run(Handle, R->Input);
      if (Rg == Baseline)
        R->Expected = Warm.Output;
      if (Rg == Correcting) {
        const AllocatorStats &After = R->Heap[Rg]->stats();
        R->CallsPerPass = (After.Allocations - Before.Allocations) +
                          (After.Deallocations - Before.Deallocations);
      }
    }
    Rows.push_back(std::move(R));
    ++Index;
  }
  return Rows;
}

/// One timed pass of \p R on rung \p Rg; checks the program's output
/// against the baseline's.
void timedPass(Row &R, int Rg, Tracer &T, uint64_t Request, Report &Rep) {
  SyntheticWorkload Work(R.Profile);
  AllocatorHandle Handle(*R.Heap[Rg], R.Context[Rg], R.Probe[Rg]);
  const int32_t Span = T.begin(RungSpan[Rg], Request);
  const Clock::time_point Start = Clock::now();
  const WorkloadResult Result = Work.run(Handle, R.Input);
  const Clock::time_point End = Clock::now();
  T.end(Span);
  R.PassMs[Rg].push_back(msBetween(Start, End));
  Rep.check(Result.Status == RunStatusKind::Success &&
                Result.Output == R.Expected,
            "output equals the baseline's");
}

} // namespace

Report perfbench::runFig7(const Options &Opts) {
  Report Rep;
  const bool Full = Opts.Traced;
  std::vector<std::unique_ptr<Row>> Rows;
  for (int I = 0; I < 3; ++I) {
    Rows.clear();
    const Clock::time_point Start = Clock::now();
    Rows = buildLadder(Opts.Seed, Full);
    Rep.SetupSeconds.push_back(secondsBetween(Start, Clock::now()));
  }

  std::vector<Row *> AllocRows, SpecRows;
  for (auto &R : Rows)
    (R->Profile.AllocationIntensive ? AllocRows : SpecRows).push_back(R.get());
  std::vector<int> Rungs = {Baseline, Correcting};
  if (Full)
    Rungs = {Baseline, DieHard, DieFast, Correcting};

  Tracer T(Opts.Traced);
  const Clock::time_point Deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(Opts.Seconds));
  uint64_t Request = 0;
  // Every SPEC row is visited at least once, however short the run.
  for (unsigned Round = 0; Clock::now() < Deadline || Round < SpecRows.size();
       ++Round) {
    std::vector<Row *> Visit = AllocRows;
    Visit.push_back(SpecRows[Round % SpecRows.size()]);
    for (Row *R : Visit) {
      for (size_t K = 0; K < Rungs.size(); ++K)
        timedPass(*R, Rungs[(K + Round) % Rungs.size()], T, Request, Rep);
      ++Request;
    }
  }
  if (!Opts.TracePath.empty() && T.enabled())
    T.writeJsonLines(Opts.TracePath);

  std::vector<double> P50s, P90s, P50Rel, P90Rel, RefMs;
  double CorrectMs = 0, Calls = 0;
  for (Row *R : AllocRows) {
    P50s.push_back(median(R->PassMs[Correcting]));
    P90s.push_back(quantile(R->PassMs[Correcting], 0.9));
    RefMs.push_back(median(R->PassMs[Baseline]));
    P50Rel.push_back(P50s.back() / RefMs.back());
    P90Rel.push_back(P90s.back() / RefMs.back());
    for (double Ms : R->PassMs[Correcting]) {
      CorrectMs += Ms;
      Calls += double(R->CallsPerPass);
    }
  }
  Rep.P50Ms = geomean(P50s);
  Rep.P90Ms = geomean(P90s);
  Rep.P50Rel = geomean(P50Rel);
  Rep.P90Rel = geomean(P90Rel);
  Rep.RefMs = geomean(RefMs);
  Rep.RatePerS = Calls / (CorrectMs / 1e3);

  // Rung ratios: per-profile median over median, then suite geomeans.
  const auto Ratio = [](const Row *R, int Hi, int Lo) {
    return median(R->PassMs[Hi]) / median(R->PassMs[Lo]);
  };
  const auto SuiteGeomean = [&](const std::vector<Row *> &Rows, int Hi,
                                int Lo) {
    std::vector<double> V;
    for (const Row *R : Rows)
      V.push_back(Ratio(R, Hi, Lo));
    return geomean(V);
  };
  Rep.layer("slowdown_alloc", SuiteGeomean(AllocRows, Correcting, Baseline),
            "ratio");
  Rep.layer("slowdown_spec", SuiteGeomean(SpecRows, Correcting, Baseline),
            "ratio");
  for (const Row *R : AllocRows)
    Rep.layer(std::string("alloc.ops.") + R->Profile.Name,
              double(R->CallsPerPass), "count");
  if (Full) {
    const struct {
      const char *Prefix;
      int Hi, Lo;
    } Layers[] = {{"alloc.diehard_x.", DieHard, Baseline},
                  {"diefast.canary_x.", DieFast, DieHard},
                  {"correct.x.", Correcting, DieFast}};
    for (const auto &Layer : Layers) {
      for (const Row *R : AllocRows)
        Rep.layer(std::string(Layer.Prefix) + R->Profile.Name,
                  Ratio(R, Layer.Hi, Layer.Lo), "ratio");
      Rep.layer(std::string(Layer.Prefix) + "suite_alloc",
                SuiteGeomean(AllocRows, Layer.Hi, Layer.Lo), "ratio");
      Rep.layer(std::string(Layer.Prefix) + "suite_spec",
                SuiteGeomean(SpecRows, Layer.Hi, Layer.Lo), "ratio");
    }
  }
  return Rep;
}
