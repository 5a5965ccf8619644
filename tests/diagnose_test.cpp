//===- tests/diagnose_test.cpp - DiagnosisPipeline tests ----------------------===//
//
// The pipeline is the single ingestion point for diagnosis evidence:
// image sets (§4 isolation) and run summaries (§5 classification) both
// land in one active patch set.  These tests pin the ingestion flow,
// the fallback-image behavior, the §6.2 deferral doubling, and the
// acceptance criterion that v1- and v2-loaded images diagnose
// identically through the pipeline.
//
//===----------------------------------------------------------------------===//

#include "diagnose/DiagnosisPipeline.h"

#include "heapimage/HeapImageIO.h"
#include "TestHelpers.h"
#include "workload/ScriptedBugs.h"

#include <gtest/gtest.h>

using namespace exterminator;
using namespace exterminator::testing_support;

namespace {

// The canonical scripted bugs' frame tokens (workload/ScriptedBugs.h).
constexpr uint32_t SiteA = ScriptedBugSites().Culprit;
constexpr uint32_t SiteB = ScriptedBugSites().Bystander;
constexpr uint32_t SiteF = ScriptedBugSites().Free;

SiteId tokenSite(uint32_t Token) {
  CallContext Context;
  Context.pushFrame(Token);
  return Context.currentSite();
}

std::vector<TraceOp> overflowTrace(uint32_t OverflowBytes) {
  return scriptedOverflowTrace(OverflowBytes);
}

std::vector<TraceOp> danglingTrace() { return scriptedDanglingTrace(); }

} // namespace

//===----------------------------------------------------------------------===//
// Image evidence
//===----------------------------------------------------------------------===//

TEST(DiagnosisPipeline, SubmitImagesMatchesDirectIsolation) {
  const auto Images = imagesFromTrace(overflowTrace(6), 3);
  const IsolationResult Direct = isolateErrors(Images);

  DiagnosisPipeline Pipeline;
  const IsolationResult Piped = Pipeline.submitImages({Images, {}});

  ASSERT_FALSE(Piped.Overflows.empty());
  EXPECT_EQ(Piped.Overflows.front().CulpritAllocSite,
            Direct.Overflows.front().CulpritAllocSite);
  EXPECT_EQ(Piped.Overflows.front().PadBytes,
            Direct.Overflows.front().PadBytes);
  EXPECT_TRUE(Piped.Patches == Direct.Patches);
  EXPECT_TRUE(Pipeline.patches() == Direct.Patches);
}

TEST(DiagnosisPipeline, PatchesAccumulateAcrossSubmissions) {
  DiagnosisPipeline Pipeline;
  Pipeline.submitImages({imagesFromTrace(overflowTrace(6), 3), {}});
  const size_t AfterOverflow = Pipeline.patches().padCount();
  Pipeline.submitImages({imagesFromTrace(danglingTrace(), 3), {}});
  // The second submission adds a deferral without losing the pad.
  EXPECT_EQ(Pipeline.patches().padCount(), AfterOverflow);
  EXPECT_EQ(Pipeline.patches().deferralCount(), 1u);
  EXPECT_GT(Pipeline.patches().padFor(tokenSite(SiteA)), 0u);
  EXPECT_GT(Pipeline.patches().deferralFor(tokenSite(SiteA),
                                           tokenSite(SiteF)),
            0u);
}

TEST(DiagnosisPipeline, SeededPatchesAreKeptAndMerged) {
  DiagnosisPipeline Pipeline;
  PatchSet Seed;
  Seed.addPad(tokenSite(SiteA), 200); // larger than the observed overflow
  Seed.addPad(0x4242, 3);
  Pipeline.seedPatches(Seed);
  Pipeline.submitImages({imagesFromTrace(overflowTrace(6), 3), {}});
  // Max-merge: the seeded 200-byte pad survives the smaller finding,
  // and unrelated seeds are untouched.
  EXPECT_EQ(Pipeline.patches().padFor(tokenSite(SiteA)), 200u);
  EXPECT_EQ(Pipeline.patches().padFor(0x4242), 3u);
}

TEST(DiagnosisPipeline, FallbackImagesUsedWhenPrimaryYieldsNothing) {
  // Primary images with no corruption at all; the dangling evidence only
  // exists in the fallback set.
  std::vector<TraceOp> Clean;
  for (uint32_t I = 0; I < 24; ++I)
    Clean.push_back(TraceOp::alloc(I, 64, SiteB));
  ImageEvidence Evidence;
  Evidence.Primary = imagesFromTrace(Clean, 3);
  Evidence.Fallback = imagesFromTrace(danglingTrace(), 3);

  DiagnosisPipeline Pipeline;
  const IsolationResult Result = Pipeline.submitImages(Evidence);
  ASSERT_FALSE(Result.Danglings.empty());
  EXPECT_EQ(Result.Danglings.front().AllocSite, tokenSite(SiteA));
}

TEST(DiagnosisPipeline, FewerThanTwoImagesYieldNothing) {
  DiagnosisPipeline Pipeline;
  const auto One = imagesFromTrace(overflowTrace(6), 1);
  EXPECT_TRUE(Pipeline.submitImages({One, {}}).Patches.empty());
  EXPECT_TRUE(Pipeline.patches().empty());
}

//===----------------------------------------------------------------------===//
// v1/v2 equivalence through the pipeline (acceptance pin)
//===----------------------------------------------------------------------===//

TEST(DiagnosisPipeline, V1AndV2ImagesDiagnoseIdentically) {
  for (uint32_t OverflowBytes : {6u, 20u}) {
    const auto Captured = imagesFromTrace(overflowTrace(OverflowBytes), 3);

    std::vector<HeapImage> FromV1, FromV2;
    for (const HeapImage &Image : Captured) {
      HeapImage V1, V2;
      ASSERT_TRUE(deserializeHeapImage(serializeHeapImageV1(Image), V1));
      ASSERT_TRUE(deserializeHeapImage(serializeHeapImage(Image), V2));
      FromV1.push_back(std::move(V1));
      FromV2.push_back(std::move(V2));
    }

    DiagnosisPipeline PipeV1, PipeV2;
    const IsolationResult A = PipeV1.submitImages({FromV1, {}});
    const IsolationResult B = PipeV2.submitImages({FromV2, {}});

    ASSERT_FALSE(A.Overflows.empty());
    ASSERT_EQ(A.Overflows.size(), B.Overflows.size());
    for (size_t I = 0; I < A.Overflows.size(); ++I) {
      EXPECT_EQ(A.Overflows[I].CulpritObjectId,
                B.Overflows[I].CulpritObjectId);
      EXPECT_EQ(A.Overflows[I].PadBytes, B.Overflows[I].PadBytes);
      EXPECT_EQ(A.Overflows[I].EvidenceBytes, B.Overflows[I].EvidenceBytes);
      EXPECT_DOUBLE_EQ(A.Overflows[I].Score, B.Overflows[I].Score);
    }
    EXPECT_TRUE(PipeV1.patches() == PipeV2.patches());
  }
}

TEST(DiagnosisPipeline, SummariesFromV1AndV2ImagesAgree) {
  // Cumulative isolation consumes summaries; a summary computed from a
  // v1-loaded image must equal one from the v2 round-trip.
  const auto Images = imagesFromTrace(danglingTrace(), 2);
  DiagnosisPipeline Pipeline;
  for (const HeapImage &Image : Images) {
    HeapImage V1, V2;
    ASSERT_TRUE(deserializeHeapImage(serializeHeapImageV1(Image), V1));
    ASSERT_TRUE(deserializeHeapImage(serializeHeapImage(Image), V2));
    const RunSummary A = Pipeline.summarize(V1, /*Failed=*/true);
    const RunSummary B = Pipeline.summarize(V2, /*Failed=*/true);
    EXPECT_EQ(A.CorruptionObserved, B.CorruptionObserved);
    EXPECT_EQ(A.EndTime, B.EndTime);
    EXPECT_EQ(A.OverflowTrials, B.OverflowTrials);
    EXPECT_EQ(A.DanglingTrials, B.DanglingTrials);
  }
}

//===----------------------------------------------------------------------===//
// Summary evidence
//===----------------------------------------------------------------------===//

TEST(DiagnosisPipeline, SummariesAccumulateInCumulativeState) {
  DiagnosisPipeline Pipeline;
  const auto Images = imagesFromTrace(danglingTrace(), 3);
  for (const HeapImage &Image : Images)
    Pipeline.submitSummary(Pipeline.summarize(Image, /*Failed=*/true),
                           /*CleanStreak=*/0);
  EXPECT_EQ(Pipeline.cumulative().runCount(), 3u);
  EXPECT_EQ(Pipeline.cumulative().failedRunCount(), 3u);
}

TEST(DiagnosisPipeline, SummaryWithoutTrialsChangesNothing) {
  // A clean run carries no trials: ingesting it touches no site's
  // factor, so the findings, the active set and its epoch stay put.
  DiagnosisPipeline Pipeline;
  RunSummary Failing;
  Failing.Failed = true;
  Failing.CorruptionObserved = true;
  Failing.OverflowTrials.push_back(OverflowTrial{0xaaaa, 0.3, true, 8});
  Failing.DanglingTrials.push_back(
      DanglingTrial{0xbbbb, 0xcccc, 0.5, true, 40});
  CumulativeDiagnosis Before;
  for (int I = 0; I < 30; ++I)
    Before = Pipeline.submitSummary(Failing, /*CleanStreak=*/0);
  ASSERT_FALSE(Before.Overflows.empty());
  ASSERT_FALSE(Before.Danglings.empty());
  const PatchSet ActiveBefore = Pipeline.patches();
  const uint64_t EpochBefore = Pipeline.epoch();

  const CumulativeDiagnosis After =
      Pipeline.submitSummary(RunSummary(), /*CleanStreak=*/1);
  ASSERT_EQ(After.Overflows.size(), Before.Overflows.size());
  for (size_t I = 0; I < After.Overflows.size(); ++I) {
    EXPECT_EQ(After.Overflows[I].AllocSite, Before.Overflows[I].AllocSite);
    EXPECT_EQ(After.Overflows[I].LogBayesFactor,
              Before.Overflows[I].LogBayesFactor);
    EXPECT_EQ(After.Overflows[I].PadBytes, Before.Overflows[I].PadBytes);
  }
  ASSERT_EQ(After.Danglings.size(), Before.Danglings.size());
  for (size_t I = 0; I < After.Danglings.size(); ++I) {
    EXPECT_EQ(After.Danglings[I].AllocSite, Before.Danglings[I].AllocSite);
    EXPECT_EQ(After.Danglings[I].FreeSite, Before.Danglings[I].FreeSite);
    EXPECT_EQ(After.Danglings[I].LogBayesFactor,
              Before.Danglings[I].LogBayesFactor);
    EXPECT_EQ(After.Danglings[I].DeferralTicks,
              Before.Danglings[I].DeferralTicks);
  }
  EXPECT_TRUE(Pipeline.patches() == ActiveBefore);
  EXPECT_EQ(Pipeline.epoch(), EpochBefore);
  EXPECT_EQ(Pipeline.cumulative().runCount(), 31u);
}

TEST(DiagnosisPipeline, DeferralDoublingOnContinuedFailure) {
  DiagnosisPipeline Pipeline;
  // Preload an applied deferral, as if an earlier episode patched it.
  PatchSet Applied;
  const SiteId Alloc = tokenSite(SiteA), Free = tokenSite(SiteF);
  Applied.addDeferral(Alloc, Free, 100);
  Pipeline.seedPatches(Applied);

  // A finding for the same pair with a *smaller* deferral while failures
  // continue (CleanStreak == 0) must double the applied value, not
  // regress it (§6.2).
  RunSummary Failing;
  Failing.Failed = true;
  Failing.EndTime = 50;
  DanglingTrial Trial;
  Trial.AllocSite = Alloc;
  Trial.FreeSite = Free;
  Trial.Probability = 0.5; // chance-level X with Y always observed
  Trial.Observed = true;
  Trial.FreeToFailure = 10;
  Failing.DanglingTrials.push_back(Trial);

  // Drive the classifier over the threshold with correlated evidence:
  // failures always observe the canaried pair.
  for (int I = 0; I < 30; ++I)
    Pipeline.submitSummary(Failing, /*CleanStreak=*/0);

  ASSERT_GT(Pipeline.patches().deferralFor(Alloc, Free), 100u);
  EXPECT_GE(Pipeline.patches().deferralFor(Alloc, Free), 201u);
}

//===----------------------------------------------------------------------===//
// Reporting
//===----------------------------------------------------------------------===//

TEST(DiagnosisPipeline, ReportRendersActivePatches) {
  DiagnosisPipeline Pipeline;
  EXPECT_NE(Pipeline.report().find("No errors recorded"), std::string::npos);
  Pipeline.submitImages({imagesFromTrace(overflowTrace(6), 3), {}});
  const std::string Report = Pipeline.report();
  EXPECT_NE(Report.find("heap-buffer-overflow"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Hardware-fault evidence (PR 9)
//===----------------------------------------------------------------------===//

TEST(DiagnosisPipeline, HardwareEvidenceReportsPagesNotPatches) {
  FaultPlan Fault;
  Fault.Kind = FaultKind::RowCluster;
  Fault.TriggerAllocation = 150;
  Fault.PatternSeed = 11;

  DiagnosisPipeline Pipeline;
  const std::vector<HeapImage> Images = scriptedHardwareEvidenceImages(3, Fault);
  const IsolationResult Result = Pipeline.submitImages({Images, {}});

  // Decorrelated physical damage must never be mistaken for a site bug.
  EXPECT_EQ(Result.Patches.padCount(), 0u);
  EXPECT_EQ(Result.Patches.frontPadCount(), 0u);
  EXPECT_EQ(Result.Patches.deferralCount(), 0u);
  ASSERT_FALSE(Result.HardwareFaults.empty());

  // The hardware table is part of the active set and versions it.
  EXPECT_GT(Pipeline.patches().hardwareReportCount(), 0u);
  EXPECT_EQ(Pipeline.patches().padCount(), 0u);
  EXPECT_GE(Pipeline.epoch(), 1u);

  // Re-submitting the same evidence max-merges to a no-op.
  const uint64_t Epoch = Pipeline.epoch();
  Pipeline.submitImages({Images, {}});
  EXPECT_EQ(Pipeline.epoch(), Epoch);

  // The observability plane sees the faults...
  std::vector<MetricSample> Samples;
  Pipeline.collectMetrics(Samples);
  MetricsSnapshot Snap;
  Snap.Samples = Samples;
  const MetricSample *Faults = Snap.find("xterm_hardware_faults_total", "");
  ASSERT_NE(Faults, nullptr);
  EXPECT_GT(Faults->Value, 0.0);
  const MetricSample *Pages =
      Snap.find("xterm_active_patches",
                MetricsRegistry::label("kind", "hardware_page"));
  ASSERT_NE(Pages, nullptr);
  EXPECT_GT(Pages->Value, 0.0);

  // ...and the human-readable report names the failure class.
  EXPECT_NE(Pipeline.report().find("hardware memory fault"),
            std::string::npos);
}
