//===- perfbench/src/CumulativeLoop.cpp - Cumulative-mode fleet loop --------===//
//
// Paper §5 cumulative mode over the same three-server mesh as
// correction-loop, but with small frames at a high rate and mostly reads.
// Three simulated users, one PatchClient per server, take turns: each run
// is syncPatches then submitSummary.  A codec or transport change that
// helps large image writes and costs this traffic (or the reverse) shows
// on one loop or the other.
//
// The summaries come, in set-up, from runs of a program with a real
// dangling-pointer bug among 100 allocation x 30 free sites (each
// allocation site's objects die at 6 of them, ~600 pairs): one object is
// freed early and read 40 allocations later, so a run fails when that
// slot was canary-filled (p = 1/2).  A user runs a summary from the
// unpatched pool until its mirror holds a deferral patch, then from the
// pool of runs made with that patch.  The classifier crosses its threshold
// partway through each pass and the patch reaches every server.
//
// Every pass of 60 runs starts a fresh fleet.  After each submission the
// loop waits until all three servers applied the summary (not counted in
// the run's latency, counted in runs_per_s), so every server sees one
// order and runs_to_patch repeats exactly for a seed.  Only whole passes
// enter the figures.  After every run, outside its latency, the loop runs
// the reference kernel once; p50_rel / p90_rel are the median / p90 run
// latency over the kernel's median time.
//
//===----------------------------------------------------------------------===//

#include "Fleet.h"
#include "Harness.h"
#include "Reference.h"

#include "cumulative/CumulativeIsolator.h"
#include "diagnose/DiagnosisPipeline.h"
#include "runtime/Exterminator.h"
#include "support/RandomGenerator.h"

#include <algorithm>
#include <cstring>
#include <thread>

using namespace exterminator;
using namespace perfbench;

namespace {

constexpr unsigned AllocSites = 100;
constexpr unsigned FreeSites = 30;
constexpr unsigned FreeSitesPerObject = 6;
constexpr unsigned Operations = 1200;
constexpr unsigned LiveWindow = 48;
constexpr unsigned BugAllocAt = 400, BugFreeAt = 420, BugReadAt = 460;
constexpr unsigned UnpatchedRuns = 100, PatchedRuns = 60;
constexpr unsigned Users = 3;
constexpr unsigned RunsPerPass = 60;
constexpr double ApplyDeadlineS = 5.0;

/// A program with a premature free: the object allocated at BugAllocAt
/// is freed at BugFreeAt and read at BugReadAt; a changed tag aborts.
class DanglingProgram : public Workload {
public:
  const char *name() const override { return "dangling"; }

  WorkloadResult run(AllocatorHandle &Handle,
                     uint64_t InputSeed) const override {
    WorkloadResult Result;
    RandomGenerator Rng(InputSeed);
    CallContext::Scope Main(Handle.context(), 0x9000);
    struct Live {
      uint8_t *Ptr;
      uint32_t Site;
    };
    std::vector<Live> Window;
    uint8_t *Stale = nullptr;
    uint64_t Checksum = InputSeed;
    const uint64_t Tag = 0x5eed5eed5eed5eedull ^ InputSeed;
    for (unsigned Op = 0; Op < Operations; ++Op) {
      const uint32_t Bytes = 16 + static_cast<uint32_t>(Rng.nextBelow(240));
      const uint32_t Site = static_cast<uint32_t>(Rng.nextBelow(AllocSites));
      auto *P = static_cast<uint8_t *>(Handle.allocate(Bytes, 0x7000 + Site));
      if (!P) {
        Result.Status = RunStatusKind::Abort;
        return Result;
      }
      std::memset(P, static_cast<int>(Op), Bytes);
      Checksum = (Checksum ^ P[Bytes - 1]) * 0x100000001b3ull;
      Window.push_back({P, Site});
      if (Window.size() > LiveWindow) {
        std::swap(Window[Rng.nextBelow(Window.size())], Window.back());
        // Objects of one allocation site die at a few free sites.
        const uint32_t FreeSite =
            (Window.back().Site * 7 +
             static_cast<uint32_t>(Rng.nextBelow(FreeSitesPerObject))) %
            FreeSites;
        Handle.deallocate(Window.back().Ptr, 0x8000 + FreeSite);
        Window.pop_back();
      }
      if (Op == BugAllocAt) {
        Stale = static_cast<uint8_t *>(Handle.allocate(64, 0x7000 + 37));
        std::memcpy(Stale, &Tag, sizeof(Tag));
      } else if (Op == BugFreeAt) {
        Handle.deallocate(Stale, 0x8000 + 11); // the bug: still in use
      } else if (Op == BugReadAt) {
        uint64_t Seen;
        std::memcpy(&Seen, Stale, sizeof(Seen));
        if (Seen != Tag) {
          Result.Status = RunStatusKind::Abort;
          return Result;
        }
      }
    }
    for (const Live &L : Window)
      Handle.deallocate(L.Ptr, 0x8000);
    for (int B = 0; B < 8; ++B)
      Result.Output.push_back(static_cast<uint8_t>(Checksum >> (8 * B)));
    return Result;
  }
};

struct Pools {
  std::vector<RunSummary> Unpatched, Patched;
  uint64_t Trials = 0;
};

std::vector<RunSummary> summaries(uint64_t Seed, unsigned Count,
                                  const PatchSet &Patches, uint64_t Stream,
                                  uint64_t &Trials) {
  ExterminatorConfig Config;
  Config.CanaryFillProbability = 0.5;
  DanglingProgram Program;
  DiagnosisPipeline Summarizer;
  std::vector<RunSummary> Out;
  for (unsigned I = 0; I < Count; ++I) {
    const SingleRunResult Run =
        runWorkloadOnce(Program, mixSeed(Seed, Stream + I),
                        mixSeed(Seed, Stream + 100000 + I), Config, Patches);
    Out.push_back(Summarizer.summarize(Run.FinalImage, Run.failed()));
    Trials += Out.back().OverflowTrials.size() +
              Out.back().DanglingTrials.size();
  }
  return Out;
}

Pools buildPools(uint64_t Seed) {
  Pools P;
  P.Unpatched = summaries(Seed, UnpatchedRuns, PatchSet(), 1000, P.Trials);
  // The patch users would receive: every unpatched run through one local
  // pipeline, in order.  Always all of them, so the set-up's work does
  // not depend on where the seed's classifier crosses its threshold.
  DiagnosisPipeline Local;
  unsigned Streak = 0;
  for (const RunSummary &S : P.Unpatched) {
    Streak = S.Failed ? 0 : Streak + 1;
    Local.submitSummary(S, Streak);
  }
  P.Patched = summaries(Seed, PatchedRuns, Local.patches(), 500000, P.Trials);
  return P;
}

bool allApplied(Fleet &F, uint64_t Runs) {
  const Clock::time_point Start = Clock::now();
  for (;;) {
    bool Done = true;
    for (unsigned I = 0; I < Fleet::Size; ++I)
      Done &= F.server(I).cumulativeRuns() >= Runs;
    if (Done)
      return true;
    if (secondsBetween(Start, Clock::now()) > ApplyDeadlineS)
      return false;
    std::this_thread::yield();
  }
}

bool deferralEverywhere(Fleet &F) {
  for (unsigned I = 0; I < Fleet::Size; ++I)
    if (F.server(I).snapshot().Patches.deferralCount() == 0)
      return false;
  return true;
}

} // namespace

Report perfbench::runCumulativeLoop(const Options &Opts) {
  Report Rep;
  Pools P;
  std::unique_ptr<Fleet> F;
  unsigned FleetIndex = 0;
  const auto NewFleet = [&] {
    F.reset();
    F = std::make_unique<Fleet>(Opts.RunDir + "/fleet" +
                                std::to_string(FleetIndex++));
  };
  ReferenceKernel Kernel(Opts.Seed);
  for (int I = 0; I < 3; ++I) {
    F.reset(); // tear-down of the previous set-up is not set-up
    P = Pools();
    const Clock::time_point Start = Clock::now();
    P = buildPools(Opts.Seed);
    NewFleet();
    Rep.SetupSeconds.push_back(secondsBetween(Start, Clock::now()));
  }

  Tracer T(Opts.Traced);
  std::vector<double> RunMs, PassRates;
  uint64_t RunsToPatch = 0, Replicated = 0, Duplicates = 0, Pairs = 0;
  const Clock::time_point Deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(Opts.Seconds));
  uint64_t Request = 0;
  while (Clock::now() < Deadline) {
    if (!F)
      NewFleet();
    Rep.check(F->ok(), "fleet started");
    CumulativeIsolator Shadow;
    unsigned Streak[Users] = {}, Next[Users] = {}, NextPatched[Users] = {};
    uint64_t PassRunsToPatch = 0;
    const Clock::time_point PassStart = Clock::now();
    unsigned Run = 0;
    std::vector<double> PassRunMs;
    for (; Run < RunsPerPass && F->ok() && Clock::now() < Deadline;
         ++Run, ++Request) {
      const unsigned U = Run % Users;
      PatchClient &Client = F->client(U);
      const int32_t Span = T.begin("run", Request);
      const Clock::time_point Start = Clock::now();
      int32_t Child = T.begin("exchange.sync", Request, Span);
      bool Ok = Client.syncPatches();
      T.end(Child);
      const bool Patched = Client.patches().deferralCount() > 0;
      const RunSummary &S =
          Patched ? P.Patched[(NextPatched[U]++ * Users + U) % P.Patched.size()]
                  : P.Unpatched[(Next[U]++ * Users + U) % P.Unpatched.size()];
      Streak[U] = S.Failed ? 0 : Streak[U] + 1;
      Child = T.begin("exchange.summary_rtt", Request, Span);
      Ok = Ok && Client.submitSummary(S, Streak[U]);
      T.end(Child);
      const Clock::time_point End = Clock::now();
      T.end(Span);
      Ok = Ok && allApplied(*F, Run + 1);
      Rep.check(Ok, "summary applied on every server");
      PassRunMs.push_back(msBetween(Start, End));
      if (!PassRunsToPatch && deferralEverywhere(*F))
        PassRunsToPatch = Run + 1;
      if (Opts.Traced) {
        // The server-side work of this submission, on a shadow isolator.
        int32_t Shade = T.begin("cumulative.add_run", Request);
        Shadow.addRun(S);
        T.end(Shade);
        Shade = T.begin("cumulative.classify", Request);
        Shadow.classifyOverflows();
        Shadow.classifyDanglings();
        T.end(Shade);
      }
      Rep.check(Kernel.run(), "reference kernel checksum");
    }
    // Only whole passes count: a pass's runs grow dearer as the
    // classifier accumulates pairs, so a cut-off pass would skew both.
    if (Run == RunsPerPass) {
      PassRates.push_back(Run / secondsBetween(PassStart, Clock::now()));
      RunMs.insert(RunMs.end(), PassRunMs.begin(), PassRunMs.end());
    }
    Rep.check(!F->settle().empty(), "fleet converged");
    uint64_t PassReplicated = 0, PassDuplicates = 0;
    for (unsigned I = 0; I < Fleet::Size; ++I) {
      const PatchServerStats Stats = F->server(I).stats();
      Rep.check(F->server(I).cumulativeRuns() == Run,
                "every summary applied once");
      PassReplicated += Stats.ReplicatedSummaries;
      PassDuplicates += Stats.DuplicatesSuppressed;
    }
    Rep.check(PassReplicated == (Fleet::Size - 1) * uint64_t(Run),
              "every summary replicated to both peers");
    if (Run == RunsPerPass) {
      RunsToPatch = PassRunsToPatch;
      Pairs = Shadow.sitePosteriors().size();
      Replicated = PassReplicated;
      Duplicates = PassDuplicates;
    }
    F.reset();
  }
  if (!Opts.TracePath.empty() && T.enabled())
    T.writeJsonLines(Opts.TracePath);

  Rep.check(!PassRates.empty(), "at least one whole pass measured");
  Rep.P50Ms = median(RunMs);
  Rep.P90Ms = quantile(RunMs, 0.9);
  Rep.RatePerS = median(PassRates);
  Rep.RefMs = median(Kernel.times());
  Rep.P50Rel = Rep.P50Ms / Rep.RefMs;
  Rep.P90Rel = Rep.P90Ms / Rep.RefMs;
  Rep.layer("cumulative.runs_to_patch", double(RunsToPatch), "count");
  Rep.layer("cumulative.trials_per_summary",
            double(P.Trials) / double(UnpatchedRuns + PatchedRuns), "count");
  if (Opts.Traced) {
    const std::vector<double> Submit = T.spanMs("exchange.summary_rtt");
    const std::vector<double> Add = T.spanMs("cumulative.add_run");
    const std::vector<double> Classify = T.spanMs("cumulative.classify");
    std::vector<double> Residual;
    for (size_t I = 0; I < std::min(Submit.size(), Add.size()); ++I)
      Residual.push_back(Submit[I] - Add[I] - Classify[I]);
    Rep.layer("exchange.sync_ms", median(T.spanMs("exchange.sync")), "ms");
    Rep.layer("exchange.summary_rtt_ms", median(Submit), "ms");
    Rep.layer("cumulative.add_run_ms", median(Add), "ms");
    Rep.layer("cumulative.classify_ms", median(Classify), "ms");
    Rep.layer("exchange.residual_ms", median(Residual), "ms");
    Rep.layer("cumulative.pairs_tracked", double(Pairs), "count");
    Rep.layer("exchange.replicated_summaries", double(Replicated), "count");
    Rep.layer("exchange.duplicates_suppressed", double(Duplicates), "count");
  }
  return Rep;
}
