//===- perfbench/src/CorrectionLoop.cpp - Replicated-mode correction loop ---===//
//
// Per failure: from image evidence in hand to the derived patch being
// visible on every server of a three-server mesh.  Each item is three
// end-of-run heap images of one overflow, each item with its own culprit
// site, so every item creates a new patch.
//
// Images have realistic size (~20k slots): resident bystanders sit outside
// the culprit's 64-byte size class (inside it, isolation fails on most
// items).  At this size the loop is program work - bundle and frame
// coding, isolation, merge - rather than socket round trips, which is all
// the canonical 64-slot scripted images would measure.
//
// Set-up builds the evidence (program runs and capture), feeds it through a
// local DiagnosisPipeline (the reference every server must match), and
// starts the first fleet.  Each measured pass pushes every item through a
// fresh fleet, entering at server i % 3; a pass ends with the three final
// sets checked bit-identical to the reference.  After every item, outside
// its latency, the loop runs the reference kernel once; p50_rel / p90_rel
// are the median / p90 item latency over the kernel's median time.
//
// Traced runs add, per item and outside the loop's own span, a replay of
// the same evidence through encodeSubmitImages -> encodeFrame ->
// decodeFrame -> decodeSubmitImages -> isolateImages -> absorbIsolation on
// a shadow pipeline: the server-internal split of the submit round trip.
// exchange.residual_ms is the round trip minus those spans (transport,
// persistence, replication hand-off).
//
//===----------------------------------------------------------------------===//

#include "Fleet.h"
#include "Harness.h"
#include "Reference.h"

#include "correct/CorrectingHeap.h"
#include "diagnose/DiagnosisPipeline.h"
#include "exchange/WireProtocol.h"
#include "heapimage/HeapImageIO.h"
#include "patch/PatchIO.h"
#include "workload/ScriptedBugs.h"

#include <algorithm>
#include <thread>

using namespace exterminator;
using namespace perfbench;

namespace {

constexpr unsigned Items = 30;
constexpr unsigned ImagesPerItem = 3;
constexpr uint32_t Residents = 7000;
/// Bystander sizes: the 128-, 256- and 512-byte classes (3:3:1), never
/// 64.  With the heap at most half full this gives ~18k slots per image.
constexpr uint32_t ResidentSizes[] = {96, 200, 96, 200, 400, 96, 200};
constexpr uint32_t OverflowBytes = 16;
/// A patch not visible everywhere by then counts as a failed item.
constexpr double VisibleDeadlineS = 5.0;

struct Item {
  ImageEvidence Evidence;
  /// Pads in the reference set once this item is absorbed.
  size_t ExpectedPads = 0;
  size_t RawBytes = 0;
  size_t Slots = 0;
};

struct Corpus {
  std::vector<Item> Items;
  std::vector<uint8_t> FinalSet;
  unsigned PatchedItems = 0;
};

std::vector<TraceOp> itemTrace(unsigned Index) {
  std::vector<TraceOp> Ops;
  for (uint32_t I = 0; I < Residents; ++I) {
    const uint32_t Size = ResidentSizes[I % std::size(ResidentSizes)];
    Ops.push_back(TraceOp::alloc(100000 + I, Size, 0x600 + I % 8));
    TraceOp Fill;
    Fill.OpKind = TraceOp::Kind::Write;
    Fill.Slot = 100000 + I;
    Fill.Length = Size;
    Fill.Value = static_cast<uint8_t>(I * 37);
    Ops.push_back(Fill);
  }
  ScriptedBugSites Sites;
  Sites.Culprit = 0x4000 + Index;
  const std::vector<TraceOp> Bug = scriptedOverflowTrace(OverflowBytes, Sites);
  Ops.insert(Ops.end(), Bug.begin(), Bug.end());
  return Ops;
}

Corpus buildCorpus(uint64_t Seed) {
  Corpus C;
  ExterminatorConfig Config;
  DiagnosisPipeline Reference;
  for (unsigned I = 0; I < Items; ++I) {
    TraceWorkload Work(itemTrace(I));
    Item It;
    for (unsigned K = 0; K < ImagesPerItem; ++K) {
      It.Evidence.Primary.push_back(
          runWorkloadOnce(Work, /*InputSeed=*/1,
                          mixSeed(Seed, I * ImagesPerItem + K), Config,
                          PatchSet())
              .FinalImage);
      It.RawBytes += serializeHeapImage(It.Evidence.Primary.back()).size();
      It.Slots += It.Evidence.Primary.back().totalSlots();
    }
    const size_t Before = Reference.patches().padCount();
    Reference.submitImages(It.Evidence);
    It.ExpectedPads = Reference.patches().padCount();
    C.PatchedItems += It.ExpectedPads > Before;
    C.Items.push_back(std::move(It));
  }
  C.FinalSet = serializePatchSet(Reference.patches());
  return C;
}

/// Median time of capturing item 0's first image from a live heap.
double captureMs(uint64_t Seed) {
  std::vector<double> Ms;
  for (unsigned K = 0; K < 3; ++K) {
    DieFastConfig Config;
    Config.Heap.Seed = mixSeed(Seed, K);
    CallContext Context;
    CorrectingHeap Heap(Config, &Context);
    AllocatorHandle Handle(Heap, Context, &Heap.diefast().heap());
    TraceWorkload(itemTrace(0)).run(Handle, 1);
    const Clock::time_point Start = Clock::now();
    const HeapImage Image = captureHeapImage(Heap.diefast());
    Ms.push_back(msBetween(Start, Clock::now()));
  }
  return median(Ms);
}

/// The layers a submission crosses, in order, as replay span names; each
/// layer's metric is its span name + "_ms".
const char *const ReplayLayers[] = {
    "heapimage.bundle_encode", "codec.frame_encode", "exchange.frame_decode",
    "heapimage.bundle_decode", "isolate.isolate",    "patch.merge"};

/// Replays \p It through the wire and diagnosis layers on \p Shadow, one
/// span per layer; records the frame's size and compression ratio.
bool replay(const Item &It, DiagnosisPipeline &Shadow, Tracer &T,
            uint64_t Request, std::vector<double> &WireKb,
            std::vector<double> &Ratio) {
  std::vector<uint8_t> Payload, Bytes;
  Frame F;
  size_t Consumed = 0;
  ImageEvidence Decoded;
  IsolationResult Result;
  bool Ok = true;
  {
    SpanScope S(T, ReplayLayers[0], Request);
    Payload = encodeSubmitImages(It.Evidence);
  }
  {
    SpanScope S(T, ReplayLayers[1], Request);
    Bytes = encodeFrame(MessageType::SubmitImages, Payload);
  }
  {
    SpanScope S(T, ReplayLayers[2], Request);
    Ok &= decodeFrame(Bytes.data(), Bytes.size(), F, Consumed) ==
          FrameError::None;
  }
  {
    SpanScope S(T, ReplayLayers[3], Request);
    Ok &= decodeSubmitImages(F.Payload, Decoded);
  }
  {
    SpanScope S(T, ReplayLayers[4], Request);
    Result = Shadow.isolateImages(Decoded);
  }
  {
    SpanScope S(T, ReplayLayers[5], Request);
    Shadow.absorbIsolation(Result);
  }
  WireKb.push_back(double(Bytes.size()) / 1024.0);
  Ratio.push_back(double(Bytes.size()) / double(Payload.size()));
  return Ok && Shadow.patches().padCount() == It.ExpectedPads;
}

} // namespace

Report perfbench::runCorrectionLoop(const Options &Opts) {
  Report Rep;
  Corpus C;
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
    C = Corpus();
    const Clock::time_point Start = Clock::now();
    C = buildCorpus(Opts.Seed);
    NewFleet();
    Rep.SetupSeconds.push_back(secondsBetween(Start, Clock::now()));
  }
  if (Opts.Traced)
    Rep.layer("heapimage.capture_ms", captureMs(Opts.Seed), "ms");

  Tracer T(Opts.Traced);
  std::vector<double> LoopMs, PassRates, WireKb, Ratio;
  const Clock::time_point Deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(Opts.Seconds));
  uint64_t Request = 0;
  while (Clock::now() < Deadline) {
    if (!F)
      NewFleet();
    Rep.check(F->ok(), "fleet started");
    DiagnosisPipeline Shadow;
    double PassMs = 0;
    for (unsigned I = 0; I < Items && F->ok(); ++I, ++Request) {
      const Item &It = C.Items[I];
      const unsigned Entry = I % Fleet::Size;
      const int32_t Loop = T.begin("loop", Request);
      const Clock::time_point Start = Clock::now();
      int32_t Span = T.begin("exchange.submit", Request, Loop);
      bool Ok = F->client(Entry).submitImages(It.Evidence);
      T.end(Span);
      const Clock::time_point Submitted = Clock::now();
      Span = T.begin("exchange.visible", Request, Loop);
      for (unsigned Hop = 1; Hop < Fleet::Size && Ok; ++Hop) {
        PatchClient &Peer = F->client((Entry + Hop) % Fleet::Size);
        for (;;) {
          const int32_t Fetch = T.begin("exchange.fetch", Request, Span);
          Ok = Peer.fetchPatches();
          T.end(Fetch);
          if (!Ok || Peer.patches().padCount() >= It.ExpectedPads)
            break;
          if (secondsBetween(Submitted, Clock::now()) > VisibleDeadlineS) {
            Ok = false;
            break;
          }
          std::this_thread::yield();
        }
      }
      T.end(Span);
      const Clock::time_point End = Clock::now();
      T.end(Loop);
      Rep.check(Ok, "patch visible on every server");
      LoopMs.push_back(msBetween(Start, End));
      PassMs += LoopMs.back();
      if (Opts.Traced)
        Rep.check(replay(It, Shadow, T, Request, WireKb, Ratio),
                  "replay matches the reference pipeline");
      Rep.check(Kernel.run(), "reference kernel checksum");
    }
    if (PassMs > 0)
      PassRates.push_back(Items / (PassMs / 1e3));
    Rep.check(F->settle() == C.FinalSet, "final sets equal the reference");
    F.reset();
  }
  if (!Opts.TracePath.empty() && T.enabled())
    T.writeJsonLines(Opts.TracePath);

  Rep.P50Ms = median(LoopMs);
  Rep.P90Ms = quantile(LoopMs, 0.9);
  Rep.RatePerS = median(PassRates);
  Rep.RefMs = median(Kernel.times());
  Rep.P50Rel = Rep.P50Ms / Rep.RefMs;
  Rep.P90Rel = Rep.P90Ms / Rep.RefMs;

  double RawKb = 0, Slots = 0;
  for (const Item &It : C.Items) {
    RawKb += double(It.RawBytes) / 1024.0;
    Slots += double(It.Slots) / ImagesPerItem;
  }
  Rep.layer("heapimage.raw_kb_per_item", RawKb / Items, "KiB");
  Rep.layer("heapimage.slots_per_image", Slots / Items, "count");
  Rep.layer("isolate.patched_items", C.PatchedItems, "count");
  if (Opts.Traced) {
    // Residual: the round trip minus every replayed layer (transport,
    // persistence, replication hand-off), per item.
    const std::vector<double> Submit = T.spanMs("exchange.submit");
    std::vector<double> Residual = Submit;
    for (const char *Layer : ReplayLayers) {
      const std::vector<double> Ms = T.spanMs(Layer);
      for (size_t I = 0; I < std::min(Ms.size(), Residual.size()); ++I)
        Residual[I] -= Ms[I];
      Rep.layer(std::string(Layer) + "_ms", median(Ms), "ms");
    }
    Rep.layer("exchange.submit_rtt_ms", median(Submit), "ms");
    Rep.layer("exchange.visible_ms",
              median(T.spanMs("exchange.visible", /*Self=*/false)), "ms");
    Rep.layer("exchange.fetch_ms", median(T.spanMs("exchange.fetch")), "ms");
    Rep.layer("exchange.residual_ms", median(Residual), "ms");
    Rep.layer("exchange.wire_kb_per_item", median(WireKb), "KiB");
    Rep.layer("codec.ratio", median(Ratio), "ratio");
  }
  return Rep;
}
