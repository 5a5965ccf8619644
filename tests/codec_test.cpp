//===- tests/codec_test.cpp - Codec layer tests ---------------------------===//
//
// Covers the PR 10 codec layer: the LZ block codec and its envelope
// (round trips, incompressibility, and the adversarial-input taxonomy —
// declared-size bombs, truncation sweeps, corrupt back-references), the
// codec-wrapped stream stages, and the delta-encoded image bundles with
// the bundle-ratio pin on replicated espresso dumps.
//
//===----------------------------------------------------------------------===//

#include "codec/BlockCodec.h"
#include "codec/CodecStream.h"
#include "codec/DeltaCodec.h"
#include "diefast/Canary.h"

#include "TestHelpers.h"
#include "heapimage/HeapImageIO.h"
#include "heapimage/ImageBundle.h"
#include "support/Serializer.h"
#include "workload/EspressoWorkload.h"

#include <gtest/gtest.h>

#include <cstring>
#include <random>

using namespace exterminator;
using namespace exterminator::testing_support;

namespace {

/// Compressible bytes: varint-ish structured data with heavy repeats,
/// the shape of real evidence streams.
std::vector<uint8_t> structuredBytes(size_t Size) {
  std::vector<uint8_t> Out;
  Out.reserve(Size);
  uint32_t Site = 0x1000;
  while (Out.size() < Size) {
    for (int I = 0; I < 16 && Out.size() < Size; ++I)
      Out.push_back(static_cast<uint8_t>((Site >> (I % 4) * 8) & 0xff));
    Out.push_back(0x00);
    Out.push_back(0xfe);
    Site += (Out.size() % 7 == 0) ? 8 : 0;
  }
  return Out;
}

/// Incompressible bytes: a seeded uniform byte stream.
std::vector<uint8_t> randomBytes(size_t Size, uint64_t Seed) {
  std::mt19937_64 Rng(Seed);
  std::vector<uint8_t> Out(Size);
  for (uint8_t &B : Out)
    B = static_cast<uint8_t>(Rng());
  return Out;
}

/// End-of-run images of the espresso workload under distinct heap seeds
/// — the replicated dumps §4 isolation actually ships.
std::vector<HeapImage> espressoDumps(unsigned Count) {
  EspressoWorkload Work;
  ExterminatorConfig Config;
  std::vector<HeapImage> Images;
  for (unsigned I = 0; I < Count; ++I)
    Images.push_back(
        runWorkloadOnce(Work, /*InputSeed=*/5, /*HeapSeed=*/11 + I * 7919,
                        Config, PatchSet())
            .FinalImage);
  return Images;
}

/// 64-bit FNV-1a: the golden pins below store a size plus this hash
/// instead of committing kilobytes of fixture bytes.
uint64_t fnv1a64(const std::vector<uint8_t> &Bytes) {
  uint64_t Hash = 0xcbf29ce484222325ull;
  for (uint8_t Byte : Bytes) {
    Hash ^= Byte;
    Hash *= 0x100000001b3ull;
  }
  return Hash;
}

/// Site hashes of the golden fixture, deliberately not in sorted order:
/// the dictionary's first-appearance order is part of the wire bytes.
constexpr SiteId GoldenSites[] = {0x9e3779b9, 0x00000042, 0x7f4a7c15,
                                  0x00001234, 0xdeadbeef};
/// A site only member images reference (joins the union table late).
constexpr SiteId MemberOnlySite = 0x00c0ffee;

/// One deterministic synthetic image of the golden evidence set: image
/// \p K of a replicated dump.  Built from addSlot/add*Run rather than a
/// live capture (slab addresses vary by process).  Four miniheaps, two
/// per size class (16 and 64 bytes), twelve slots each; the logical
/// slots rotate by 5 positions per image, so members permute the base's
/// layout the way differently-seeded heaps do.  Across a three-image v2
/// bundle the logical slots exercise every record kind: virgin runs of
/// zero and of canary fill, CanaryRun contents, full and metadata-only
/// base references, plain records with and without metadata, literal
/// pool runs, and mixed literal/pattern slots.
HeapImage goldenImage(unsigned K) {
  HeapImage Image;
  Image.AllocationTime = 9000 + K;
  Image.CanaryValue = 0xa5c3e100u + 0x1111u * K;
  Image.CanaryFillProbability = 0.5;
  Image.Multiplier = 2.0;
  Image.HeapSeed = 0x1000 + K;
  const uint64_t CanaryWord =
      Canary::fromValue(Image.CanaryValue).patternWord();
  const uint64_t Sizes[] = {16, 16, 64, 64};
  constexpr uint32_t Slots = 12;
  for (uint32_t M = 0; M < 4; ++M) {
    const uint64_t Size = Sizes[M];
    Image.beginMiniheap(M / 2, Size, 0x100000 * (K + 1) + 0x10000 * M,
                        100 * M + K);
    for (uint32_t P = 0; P < Slots; ++P) {
      const uint32_t L = (P + 5 * K) % Slots;
      const uint64_t Id = 1 + M * 16 + L;
      const SiteId Alloc = GoldenSites[(M + L) % 5];
      const SiteId Free = GoldenSites[(M + 2 * L + 1) % 5];
      std::vector<uint8_t> Bytes(Size);
      for (size_t B = 0; B < Size; ++B)
        Bytes[B] = static_cast<uint8_t>(Id * 31 + B * 7);
      switch (L) {
      case 0: case 1: case 2: // virgin, zero fill
        Image.addSlot(0, 0, 0, 0, 0, 0);
        Image.addPatternRun(0, static_cast<uint32_t>(Size));
        break;
      case 3: // virgin, canary fill
        Image.addSlot(0, 0, 0, 0, 0, 0);
        Image.addPatternRun(CanaryWord, static_cast<uint32_t>(Size));
        break;
      case 4: // freed and canaried: CanaryRun; full reference in members
        Image.addSlot(SlotFlagCanaried, Id, Id + 50, Alloc, Free,
                      static_cast<uint32_t>(Size - 3));
        Image.addPatternRun(CanaryWord, static_cast<uint32_t>(Size));
        break;
      case 5: // live, heap-independent bytes: full reference
        Image.addSlot(SlotFlagAllocated, Id, 0, Alloc, 0,
                      static_cast<uint32_t>(Size));
        Image.addLiteralRun(Bytes.data(), Size);
        break;
      case 6: // live, a heap-dependent pointer word: metadata reference
        Bytes[0] = static_cast<uint8_t>(0x40 + K);
        Image.addSlot(SlotFlagAllocated, Id, 0, Alloc, 0,
                      static_cast<uint32_t>(Size - 1));
        Image.addLiteralRun(Bytes.data(), Size);
        break;
      case 7: // mixed runs under canary substitution: full reference
        Image.addSlot(SlotFlagAllocated | SlotFlagCanaried, Id, 0, Alloc,
                      Free, 8);
        Image.addLiteralRun(Bytes.data(), 8);
        if (Size == 16) {
          Image.addPatternRun(CanaryWord, 8);
        } else {
          Image.addPatternRun(0x0202020202020202ull, 24);
          Image.addLiteralRun(Bytes.data() + 32, 8);
          Image.addPatternRun(CanaryWord, 24);
        }
        break;
      case 8: // metadata diverges per image: plain record everywhere
        Image.addSlot(SlotFlagCanaried, Id, Id + 60 + K, Free, Alloc, 4);
        Image.addPatternRun(CanaryWord, static_cast<uint32_t>(Size));
        break;
      case 9: // only in this image (base has no such id): plain record
        Image.addSlot(SlotFlagAllocated, 1000 * (K + 1) + Id, 0,
                      K ? MemberOnlySite : Alloc, 0,
                      static_cast<uint32_t>(Size));
        Image.addLiteralRun(Bytes.data(), Size - 8);
        Image.addPatternRun(0x1111111111111111ull * (K + 1), 8);
        break;
      case 10: // allocated flag without metadata: plain, no HasMeta bit
        Image.addSlot(SlotFlagAllocated, 0, 0, 0, 0, 0);
        Image.addPatternRun(0, static_cast<uint32_t>(Size));
        break;
      default: // bad + corrupted canary: metadata reference
        Bytes[1] = static_cast<uint8_t>(0x90 + K);
        Image.addSlot(SlotFlagAllocated | SlotFlagBad, Id, 0, Free, Alloc,
                      static_cast<uint32_t>(Size / 2));
        Image.addLiteralRun(Bytes.data(), 8);
        Image.addPatternRun(CanaryWord, static_cast<uint32_t>(Size - 8));
        break;
      }
    }
  }
  return Image;
}

std::vector<HeapImage> goldenEvidence() {
  return {goldenImage(0), goldenImage(1), goldenImage(2)};
}

/// A one-image v2 (delta-body) bundle up to its first slot record: the
/// null site table, a header, and one 64-byte miniheap declaring
/// \p NumSlots slots.
ByteWriter forgeDeltaBundle(uint64_t NumSlots) {
  ByteWriter Writer;
  Writer.writeU32(0x58494231); // "XIB1" magic
  Writer.writeU32(ImageBundleFormatV2);
  Writer.writeVarU64(1);       // one image
  Writer.writeVarU64(1);       // site table: just the null site
  Writer.writeU32(0);
  Writer.writeU64(10);         // allocation time
  Writer.writeU32(0x12345679); // canary
  Writer.writeF64(1.0);
  Writer.writeF64(2.0);
  Writer.writeU64(1);     // heap seed
  Writer.writeVarU64(1);  // one miniheap
  Writer.writeVarU64(3);  // size class
  Writer.writeVarU64(64); // object size
  Writer.writeU64(0x1000);
  Writer.writeVarU64(0); // creation time
  Writer.writeVarU64(NumSlots);
  return Writer;
}

} // namespace

//===----------------------------------------------------------------------===//
// LZ block codec
//===----------------------------------------------------------------------===//

TEST(BlockCodec, RoundTripsStructuredData) {
  const std::vector<uint8_t> Raw = structuredBytes(64 * 1024);
  std::vector<uint8_t> Comp;
  const size_t CompSize = lzCompress(Raw.data(), Raw.size(), Comp);
  ASSERT_GT(CompSize, 0u);
  ASSERT_LT(CompSize, Raw.size());

  std::vector<uint8_t> Back(Raw.size());
  ASSERT_TRUE(lzDecompress(Comp.data(), CompSize, Back.data(), Back.size()));
  EXPECT_EQ(Back, Raw);
}

TEST(BlockCodec, RoundTripsAcrossSizes) {
  // Sweep sizes around token/extension boundaries, including ones that
  // end mid-sequence and ones larger than the 64 KiB window.
  for (size_t Size : {size_t(5), size_t(64), size_t(255), size_t(256),
                      size_t(4096), size_t(70000), size_t(200000)}) {
    const std::vector<uint8_t> Raw = structuredBytes(Size);
    std::vector<uint8_t> Comp;
    const size_t CompSize = lzCompress(Raw.data(), Raw.size(), Comp);
    if (CompSize == 0)
      continue; // too small to bother; the envelope stores raw
    ASSERT_LE(CompSize, lzMaxCompressedSize(Raw.size()));
    std::vector<uint8_t> Back(Raw.size());
    ASSERT_TRUE(
        lzDecompress(Comp.data(), CompSize, Back.data(), Back.size()))
        << "size " << Size;
    EXPECT_EQ(Back, Raw) << "size " << Size;
  }
}

TEST(BlockCodec, RandomBytesAreIncompressible) {
  const std::vector<uint8_t> Raw = randomBytes(32 * 1024, 42);
  std::vector<uint8_t> Comp;
  EXPECT_EQ(lzCompress(Raw.data(), Raw.size(), Comp), 0u);
}

TEST(BlockCodec, DecompressRejectsTruncationSweep) {
  const std::vector<uint8_t> Raw = structuredBytes(8 * 1024);
  std::vector<uint8_t> Comp;
  const size_t CompSize = lzCompress(Raw.data(), Raw.size(), Comp);
  ASSERT_GT(CompSize, 0u);
  std::vector<uint8_t> Out(Raw.size());
  for (size_t Cut = 0; Cut < CompSize; ++Cut)
    EXPECT_FALSE(lzDecompress(Comp.data(), Cut, Out.data(), Out.size()))
        << "accepted truncation at " << Cut;
}

TEST(BlockCodec, DecompressRejectsCorruptBackReferences) {
  // Flip every byte in turn: offsets pointing before the output start,
  // lengths running past the declared size, or streams ending early must
  // all fail — and none may crash or write outside Out.
  const std::vector<uint8_t> Raw = structuredBytes(4 * 1024);
  std::vector<uint8_t> Comp;
  const size_t CompSize = lzCompress(Raw.data(), Raw.size(), Comp);
  ASSERT_GT(CompSize, 0u);
  Comp.resize(CompSize);
  std::vector<uint8_t> Out(Raw.size());
  size_t Rejections = 0;
  for (size_t I = 0; I < Comp.size(); ++I) {
    std::vector<uint8_t> Mutated = Comp;
    Mutated[I] ^= 0xff;
    if (!lzDecompress(Mutated.data(), Mutated.size(), Out.data(),
                      Out.size()))
      ++Rejections;
  }
  // A large share of single-byte corruptions must be caught (flips
  // inside literal bytes legitimately decode to different-but-valid
  // output, so it can never be all of them).
  EXPECT_GT(Rejections, Comp.size() / 3);
}

//===----------------------------------------------------------------------===//
// Envelope (encodeCodecBlock / decodeCodecBlock)
//===----------------------------------------------------------------------===//

TEST(CodecEnvelope, RoundTripsCompressibleAndIncompressible) {
  for (const std::vector<uint8_t> &Raw :
       {structuredBytes(16 * 1024), randomBytes(16 * 1024, 7),
        std::vector<uint8_t>{}, std::vector<uint8_t>{0x42}}) {
    const std::vector<uint8_t> Envelope = encodeCodecBlock(Raw);
    std::vector<uint8_t> Back;
    ASSERT_TRUE(decodeCodecBlock(Envelope, Back, 1u << 20));
    EXPECT_EQ(Back, Raw);
  }
}

TEST(CodecEnvelope, CompressibleDataShrinks) {
  const std::vector<uint8_t> Raw = structuredBytes(64 * 1024);
  EXPECT_LT(encodeCodecBlock(Raw).size(), Raw.size());
}

TEST(CodecEnvelope, RejectsDeclaredSizeBomb) {
  // A forged envelope declaring more than the caller's budget must fail
  // before any allocation is sized from the declaration.
  ByteWriter Forged;
  Forged.writeU8(static_cast<uint8_t>(CodecId::Lz));
  Forged.writeVarU64(uint64_t(1) << 40); // a terabyte, declared
  Forged.writeU8(0x00);                  // token bytes, irrelevant
  const uint64_t RejectedBefore = codecStats().RejectedBlocks;
  std::vector<uint8_t> Out;
  EXPECT_FALSE(decodeCodecBlock(Forged.buffer(), Out, 1u << 20));
  EXPECT_GT(codecStats().RejectedBlocks, RejectedBefore);

  // Same declaration under Raw id: body shorter than declared, reject.
  ByteWriter ForgedRaw;
  ForgedRaw.writeU8(static_cast<uint8_t>(CodecId::Raw));
  ForgedRaw.writeVarU64(uint64_t(1) << 40);
  EXPECT_FALSE(decodeCodecBlock(ForgedRaw.buffer(), Out, 1u << 20));
}

TEST(CodecEnvelope, RejectsUnknownCodecId) {
  ByteWriter Forged;
  Forged.writeU8(0x7f);
  Forged.writeVarU64(16);
  std::vector<uint8_t> Out;
  EXPECT_FALSE(decodeCodecBlock(Forged.buffer(), Out, 1u << 20));
}

TEST(CodecEnvelope, RejectsTruncationSweep) {
  const std::vector<uint8_t> Envelope =
      encodeCodecBlock(structuredBytes(8 * 1024));
  std::vector<uint8_t> Out;
  for (size_t Cut = 0; Cut < Envelope.size(); ++Cut) {
    std::vector<uint8_t> Truncated(Envelope.begin(), Envelope.begin() + Cut);
    EXPECT_FALSE(decodeCodecBlock(Truncated, Out, 1u << 20))
        << "accepted truncation at " << Cut;
  }
}

TEST(CodecEnvelope, StatsCountCompressionTraffic) {
  const CodecStatsSnapshot Before = codecStats();
  const std::vector<uint8_t> Raw = structuredBytes(32 * 1024);
  const std::vector<uint8_t> Envelope = encodeCodecBlock(Raw);
  std::vector<uint8_t> Back;
  ASSERT_TRUE(decodeCodecBlock(Envelope, Back, 1u << 20));
  const CodecStatsSnapshot After = codecStats();
  EXPECT_GT(After.CompressCalls, Before.CompressCalls);
  EXPECT_GE(After.CompressInBytes - Before.CompressInBytes, Raw.size());
  EXPECT_GT(After.DecompressCalls, Before.DecompressCalls);
  EXPECT_GE(After.DecompressOutBytes - Before.DecompressOutBytes, Raw.size());
}

//===----------------------------------------------------------------------===//
// Codec stream stages
//===----------------------------------------------------------------------===//

TEST(CodecStream, RoundTripsMultiBlockStream) {
  // Larger than CodecStreamBlockCap so the stream carries several
  // blocks, written in awkward chunk sizes.
  const std::vector<uint8_t> Raw = structuredBytes(3 * CodecStreamBlockCap / 2);
  std::vector<uint8_t> Stream;
  {
    VectorSink Sink(Stream);
    CompressingSink Compressor(Sink);
    size_t Offset = 0, Chunk = 1;
    while (Offset < Raw.size()) {
      const size_t N = std::min(Chunk, Raw.size() - Offset);
      ASSERT_TRUE(Compressor.write(Raw.data() + Offset, N));
      Offset += N;
      Chunk = Chunk * 3 + 1;
    }
    ASSERT_TRUE(Compressor.finish());
  }
  ASSERT_LT(Stream.size(), Raw.size());

  MemorySource Source(Stream);
  DecompressingSource Decompressor(Source);
  std::vector<uint8_t> Back(Raw.size());
  size_t Got = 0;
  while (Got < Back.size()) {
    const size_t N = Decompressor.read(Back.data() + Got, 4096);
    if (N == 0)
      break;
    Got += N;
  }
  ASSERT_EQ(Got, Raw.size());
  EXPECT_EQ(Back, Raw);
  EXPECT_TRUE(Decompressor.finished());
  EXPECT_EQ(Decompressor.read(Back.data(), 1), 0u); // terminator consumed
}

TEST(CodecStream, RejectsTruncationEverywhere) {
  const std::vector<uint8_t> Raw = structuredBytes(CodecStreamBlockCap + 100);
  std::vector<uint8_t> Stream;
  {
    VectorSink Sink(Stream);
    CompressingSink Compressor(Sink);
    ASSERT_TRUE(Compressor.write(Raw.data(), Raw.size()));
    ASSERT_TRUE(Compressor.finish());
  }
  // Every proper prefix must end in failed() or a short stream — never a
  // clean finish with wrong bytes, never a crash.
  for (size_t Cut = 0; Cut < Stream.size(); Cut += 997) {
    MemorySource Source(Stream.data(), Cut);
    DecompressingSource Decompressor(Source);
    std::vector<uint8_t> Back(Raw.size());
    size_t Got = 0;
    for (;;) {
      const size_t N = Decompressor.read(Back.data() + Got,
                                         std::min<size_t>(4096, Raw.size() - Got));
      if (N == 0)
        break;
      Got += N;
      if (Got == Raw.size())
        break;
    }
    EXPECT_TRUE(Decompressor.failed() || Got < Raw.size() ||
                !Decompressor.finished())
        << "clean decode from truncation at " << Cut;
  }
}

TEST(CodecStream, RejectsOversizedDeclaredBlock) {
  // A stream whose first block declares more raw bytes than the cap
  // must fail before allocating that much.
  std::vector<uint8_t> Stream;
  {
    VectorSink Sink(Stream);
    StreamWriter Writer(Sink);
    Writer.writeVarU64(uint64_t(CodecStreamBlockCap) * 16); // bomb
    Writer.writeVarU64(0);                                  // "stored"
  }
  MemorySource Source(Stream);
  DecompressingSource Decompressor(Source);
  uint8_t Byte;
  EXPECT_EQ(Decompressor.read(&Byte, 1), 0u);
  EXPECT_TRUE(Decompressor.failed());
}

//===----------------------------------------------------------------------===//
// Delta-encoded bundles (format v2)
//===----------------------------------------------------------------------===//

TEST(DeltaBundle, RoundTripIsLosslessOnReplicatedDumps) {
  const std::vector<HeapImage> Images = espressoDumps(3);
  const std::vector<uint8_t> Bytes =
      serializeImageBundle(Images, ImageBundleFormatV2);
  std::vector<HeapImage> Decoded;
  ASSERT_TRUE(deserializeImageBundle(Bytes, Decoded));
  ASSERT_EQ(Decoded.size(), Images.size());
  for (size_t I = 0; I < Images.size(); ++I)
    EXPECT_TRUE(Decoded[I] == Images[I]) << "image " << I;
}

TEST(DeltaBundle, RatioAtMostHalfOnReplicatedEspressoDumps) {
  // The acceptance pin: bundle.ratio (delta bundle bytes over the same
  // images shipped as independent v2 files) must be at most 0.5 — the
  // delta codec has to at least halve replicated evidence, where the
  // pre-codec dictionary-only bundle managed 0.997.
  const std::vector<HeapImage> Images = espressoDumps(3);
  size_t IndependentBytes = 0;
  for (const HeapImage &Image : Images)
    IndependentBytes += serializeHeapImage(Image).size();
  const size_t DeltaBytes =
      serializeImageBundle(Images, ImageBundleFormatV2).size();
  const double Ratio =
      static_cast<double>(DeltaBytes) / static_cast<double>(IndependentBytes);
  EXPECT_LE(Ratio, 0.5) << "delta " << DeltaBytes << " B vs independent "
                        << IndependentBytes << " B";

  // And v2 must beat the v1 dictionary-only bundle outright.
  EXPECT_LT(DeltaBytes,
            serializeImageBundle(Images, ImageBundleFormatV1).size());
}

TEST(DeltaBundle, V1StillDecodesAndMatchesV2) {
  const std::vector<HeapImage> Images = espressoDumps(2);
  std::vector<HeapImage> FromV1, FromV2;
  ASSERT_TRUE(deserializeImageBundle(
      serializeImageBundle(Images, ImageBundleFormatV1), FromV1));
  ASSERT_TRUE(deserializeImageBundle(
      serializeImageBundle(Images, ImageBundleFormatV2), FromV2));
  ASSERT_EQ(FromV1.size(), FromV2.size());
  for (size_t I = 0; I < FromV1.size(); ++I)
    EXPECT_TRUE(FromV1[I] == FromV2[I]) << "image " << I;
}

TEST(DeltaBundle, TruncationSweepNeverDecodes) {
  const std::vector<uint8_t> Bytes =
      serializeImageBundle(espressoDumps(2), ImageBundleFormatV2);
  std::vector<HeapImage> Decoded;
  for (size_t Cut = 0; Cut < Bytes.size(); Cut += 509) {
    std::vector<uint8_t> Truncated(Bytes.begin(), Bytes.begin() + Cut);
    EXPECT_FALSE(deserializeImageBundle(Truncated, Decoded))
        << "accepted truncation at " << Cut;
  }
}

TEST(DeltaBundle, CorruptBackReferencesRejectedNotWild) {
  // Byte-flip sweep over a delta bundle: corrupt object-id references
  // must decode as errors (unknown id, size mismatch) or as valid
  // alternate bundles — never crash, hang, or blow the slot budget.
  const std::vector<uint8_t> Bytes =
      serializeImageBundle(espressoDumps(2), ImageBundleFormatV2);
  size_t Rejections = 0;
  for (size_t I = 0; I < Bytes.size(); I += 131) {
    std::vector<uint8_t> Mutated = Bytes;
    Mutated[I] ^= 0xff;
    std::vector<HeapImage> Decoded;
    uint64_t Budget = MaxWireSlots;
    if (!deserializeImageBundle(Mutated, Decoded, Budget))
      ++Rejections;
  }
  EXPECT_GT(Rejections, 0u);
}

TEST(DeltaBundle, RejectsWrappingVirginRunCount) {
  // The delta body's twin of HeapImageIO.RejectsWrappingVirginRunCount:
  // a virgin count of 2^64-1 after one real slot must be rejected
  // before the bulk append sizes any column from it.
  ByteWriter Writer = forgeDeltaBundle(4);
  Writer.writeU8(0xff); // virgin run
  Writer.writeVarU64(1);
  Writer.writeU64(0);
  Writer.writeU8(0xff);             // second virgin run
  Writer.writeVarU64(~uint64_t(0)); // wrapping count
  Writer.writeU64(0);
  std::vector<HeapImage> Out;
  EXPECT_FALSE(deserializeImageBundle(Writer.buffer(), Out));
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0].totalSlots(), 1u);
}

TEST(DeltaBundle, VirginRunPastRemainingSlotsOrBudgetRejected) {
  // A count above the miniheap's remaining slots is rejected before any
  // slot of it is appended...
  ByteWriter Writer = forgeDeltaBundle(4);
  Writer.writeU8(0xff);
  Writer.writeVarU64(1);
  Writer.writeU64(0);
  Writer.writeU8(0xff);
  Writer.writeVarU64(4); // only 3 remain
  Writer.writeU64(0);
  std::vector<HeapImage> Out;
  EXPECT_FALSE(deserializeImageBundle(Writer.buffer(), Out));
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0].totalSlots(), 1u);

  // ...and a miniheap declaring more slots than the budget allows fails
  // at its descriptor, so no virgin record inside it can amplify.
  ByteWriter Big = forgeDeltaBundle(MaxWireSlots + 1);
  Big.writeU8(0xff);
  Big.writeVarU64(MaxWireSlots + 1);
  Big.writeU64(0);
  uint64_t Budget = MaxWireSlots;
  EXPECT_FALSE(deserializeImageBundle(Big.buffer(), Out, Budget));
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0].totalSlots(), 0u);

  // The same record within budget decodes to exactly Count virgin slots.
  ByteWriter Fits = forgeDeltaBundle(5);
  Fits.writeU8(0xff);
  Fits.writeVarU64(5);
  Fits.writeU64(0x0101010101010101ull);
  Budget = 5;
  ASSERT_TRUE(deserializeImageBundle(Fits.buffer(), Out, Budget));
  EXPECT_EQ(Budget, 0u);
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_EQ(Out[0].totalSlots(), 5u);
  EXPECT_EQ(Out[0].runs().size(), 5u);
}

TEST(DeltaBundle, FirstImageMayNotCarryReferences) {
  // The first image has no base; a reference tag there is a forgery.
  // Splice a SlotRefFullTag into the first image's first slot record by
  // re-encoding a single-image bundle and corrupting the tag space —
  // readDeltaImageBody must reject references against a null base.
  const std::vector<HeapImage> One = espressoDumps(1);
  std::vector<uint8_t> Bytes = serializeImageBundle(One, ImageBundleFormatV2);
  // Brute-force: flipping any byte to the full-reference tag must never
  // produce an out-of-bounds copy; most positions must fail cleanly.
  size_t Failures = 0, Trials = 0;
  for (size_t I = 16; I < Bytes.size(); I += 211) {
    std::vector<uint8_t> Mutated = Bytes;
    Mutated[I] = SlotRefFullTag;
    std::vector<HeapImage> Decoded;
    ++Trials;
    if (!deserializeImageBundle(Mutated, Decoded))
      ++Failures;
  }
  EXPECT_GT(Failures, Trials / 2);
}

//===----------------------------------------------------------------------===//
// Compressed bundle file container ("XIC1")
//===----------------------------------------------------------------------===//

TEST(BundleContainer, SaveLoadRoundTripsAndShrinks) {
  const std::vector<HeapImage> Images = espressoDumps(3);
  const std::string Path = ::testing::TempDir() + "/codec_bundle.xib";
  ASSERT_TRUE(saveImageBundle(Images, Path));

  std::vector<uint8_t> FileBytes;
  ASSERT_TRUE(readFileBytes(Path, FileBytes));
  // On-disk container must be smaller than the raw v1 bundle stream —
  // the codec working end to end.
  EXPECT_LT(FileBytes.size(),
            serializeImageBundle(Images, ImageBundleFormatV1).size());

  std::vector<HeapImage> Back;
  ASSERT_TRUE(loadImageBundle(Path, Back));
  ASSERT_EQ(Back.size(), Images.size());
  for (size_t I = 0; I < Images.size(); ++I)
    EXPECT_TRUE(Back[I] == Images[I]) << "image " << I;
  std::remove(Path.c_str());
}

TEST(BundleContainer, BareBundleFilesStillLoad) {
  // Pre-container files (a raw "XIB1" stream on disk) must keep loading.
  const std::vector<HeapImage> Images = espressoDumps(2);
  const std::string Path = ::testing::TempDir() + "/codec_bare.xib";
  ASSERT_TRUE(writeFileBytes(
      Path, serializeImageBundle(Images, ImageBundleFormatV1)));
  std::vector<HeapImage> Back;
  ASSERT_TRUE(loadImageBundle(Path, Back));
  ASSERT_EQ(Back.size(), Images.size());
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Golden wire bytes
//===----------------------------------------------------------------------===//

// Sizes and FNV-1a hashes of the golden evidence encodings, recorded from
// the per-slot accessor encoder that predates the contiguous codec fast
// paths.  The fast paths must reproduce them exactly: any change here is
// a wire-format change.
constexpr size_t GoldenBundleBytes = 2563;
constexpr uint64_t GoldenBundleHash = 0xe1dd99705ecbcacaull;
constexpr size_t GoldenImageBytes = 1244;
constexpr uint64_t GoldenImageHash = 0x3d221e6ec281ad52ull;

TEST(GoldenWireBytes, BundleV2BytesArePinned) {
  const std::vector<HeapImage> Images = goldenEvidence();
  const std::vector<uint8_t> Bytes =
      serializeImageBundle(Images, ImageBundleFormatV2);
  EXPECT_EQ(Bytes.size(), GoldenBundleBytes);
  EXPECT_EQ(fnv1a64(Bytes), GoldenBundleHash) << std::hex << fnv1a64(Bytes);

  std::vector<HeapImage> Decoded;
  ASSERT_TRUE(deserializeImageBundle(Bytes, Decoded));
  ASSERT_EQ(Decoded.size(), Images.size());
  for (size_t I = 0; I < Images.size(); ++I)
    EXPECT_TRUE(Decoded[I] == Images[I]) << "image " << I;
  EXPECT_EQ(serializeImageBundle(Decoded, ImageBundleFormatV2), Bytes);
}

TEST(GoldenWireBytes, SingleImageV2BytesArePinned) {
  const HeapImage Image = goldenImage(1);
  const std::vector<uint8_t> Bytes = serializeHeapImage(Image);
  EXPECT_EQ(Bytes.size(), GoldenImageBytes);
  EXPECT_EQ(fnv1a64(Bytes), GoldenImageHash) << std::hex << fnv1a64(Bytes);

  HeapImage Decoded;
  ASSERT_TRUE(deserializeHeapImage(Bytes, Decoded));
  EXPECT_TRUE(Decoded == Image);
  EXPECT_EQ(serializeHeapImage(Decoded), Bytes);
}

//===----------------------------------------------------------------------===//
// Decoding into reused evidence
//===----------------------------------------------------------------------===//

TEST(BundleReuse, ReusedImagesDecodeExactlyLikeFreshOnes) {
  // A: three espresso dumps (many miniheaps); B: two golden images
  // (fewer images, four miniheaps).  Decoding B into the vector that
  // held A must leave nothing of A behind.
  const std::vector<HeapImage> A = espressoDumps(3);
  const std::vector<HeapImage> B = {goldenImage(0), goldenImage(1)};
  ASSERT_GT(A.front().miniheapCount(), B.front().miniheapCount());
  const std::vector<uint8_t> BytesA = serializeImageBundle(A);
  const std::vector<uint8_t> BytesB = serializeImageBundle(B);
  std::vector<HeapImage> FreshB;
  ASSERT_TRUE(deserializeImageBundle(BytesB, FreshB));

  std::vector<HeapImage> Reused;
  ASSERT_TRUE(deserializeImageBundle(BytesA, Reused));
  ASSERT_TRUE(deserializeImageBundle(BytesB, Reused));
  ASSERT_EQ(Reused.size(), FreshB.size());
  for (size_t I = 0; I < FreshB.size(); ++I)
    EXPECT_TRUE(Reused[I] == FreshB[I]) << "image " << I;

  // A truncated bundle fails cleanly partway through an image; the next
  // valid decodes are exact again, in either direction.
  const std::vector<uint8_t> Truncated(BytesA.begin(),
                                       BytesA.begin() + BytesA.size() / 2);
  EXPECT_FALSE(deserializeImageBundle(Truncated, Reused));
  ASSERT_TRUE(deserializeImageBundle(BytesB, Reused));
  ASSERT_EQ(Reused.size(), FreshB.size());
  for (size_t I = 0; I < FreshB.size(); ++I)
    EXPECT_TRUE(Reused[I] == FreshB[I]) << "image " << I;
  EXPECT_FALSE(deserializeImageBundle(Truncated, Reused));
  ASSERT_TRUE(deserializeImageBundle(BytesA, Reused));
  ASSERT_EQ(Reused.size(), A.size());
  for (size_t I = 0; I < A.size(); ++I)
    EXPECT_TRUE(Reused[I] == A[I]) << "image " << I;
}

TEST(BundleReuse, BaseViewSurvivesGrowingTheImageVector) {
  // Members decode against a view of image 0.  Growing a one-image
  // vector to three must not move image 0 under that view (ASan sees a
  // dangling view as a use-after-free).
  std::vector<HeapImage> Reused;
  ASSERT_TRUE(deserializeImageBundle(serializeImageBundle({goldenImage(2)}),
                                     Reused));
  ASSERT_EQ(Reused.size(), 1u);
  const std::vector<HeapImage> Golden = goldenEvidence();
  ASSERT_TRUE(deserializeImageBundle(serializeImageBundle(Golden), Reused));
  ASSERT_EQ(Reused.size(), Golden.size());
  for (size_t I = 0; I < Golden.size(); ++I)
    EXPECT_TRUE(Reused[I] == Golden[I]) << "image " << I;
}

TEST(BundleReuse, ClearedImageEqualsDefault) {
  HeapImage Image = goldenImage(1);
  Image.clear();
  const HeapImage Default;
  EXPECT_TRUE(Image == Default);
  EXPECT_EQ(Image.SourceFormatVersion, Default.SourceFormatVersion);
  EXPECT_EQ(Image.miniheapCount(), 0u);
  EXPECT_TRUE(Image.runs().empty());
  EXPECT_TRUE(Image.pool().empty());
}
