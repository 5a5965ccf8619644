//===- codec/DeltaCodec.cpp - Base-image delta body codec -------------------===//

#include "codec/DeltaCodec.h"

#include "diefast/Canary.h"

#include <cstring>
#include <optional>

using namespace exterminator;
using namespace exterminator::imagedetail;

/// The canary fill word the image's heap used — the implied word of
/// CanaryRun records and the substitution key of full references.
static uint64_t canaryWordOf(const HeapImage &Image) {
  return Canary::fromValue(Image.CanaryValue).patternWord();
}

/// Metadata equality between member slot \p G and base slot \p BaseSlot
/// — with matching object sizes, the precondition for either reference
/// tag.
static bool metadataMatches(const SlotColumns &Member, uint64_t G,
                            const SlotColumns &Base, uint64_t BaseSlot) {
  return Base.Flags[BaseSlot] == Member.Flags[G] &&
         Base.FreeTimes[BaseSlot] == Member.FreeTimes[G] &&
         Base.AllocSites[BaseSlot] == Member.AllocSites[G] &&
         Base.FreeSites[BaseSlot] == Member.FreeSites[G] &&
         Base.RequestedSizes[BaseSlot] == Member.RequestedSizes[G];
}

/// Run-structure equality under canary substitution: a base pattern run
/// holding the base's canary word is expected to hold the member's
/// canary word in the member.  This is exactly the map the decoder
/// applies, so a match guarantees bit-exact reconstruction
/// (HeapImage::operator== compares run tables, not just bytes).
static bool runsEqualSubstituted(const SlotColumns &Base, uint64_t BaseSlot,
                                 const SlotColumns &Member, uint64_t G,
                                 uint64_t BaseCanaryWord,
                                 uint64_t MemberCanaryWord) {
  const uint32_t BaseFirst = Base.RunBegin[BaseSlot];
  const uint32_t MemberFirst = Member.RunBegin[G];
  const uint32_t NumRuns = Base.runEnd(BaseSlot) - BaseFirst;
  if (Member.runEnd(G) - MemberFirst != NumRuns)
    return false;
  for (uint32_t R = 0; R < NumRuns; ++R) {
    const ContentsRun &RB = Base.Runs[BaseFirst + R];
    const ContentsRun &RM = Member.Runs[MemberFirst + R];
    if (RB.RunKind != RM.RunKind || RB.Length != RM.Length)
      return false;
    if (RB.RunKind == ContentsRun::Pattern) {
      const uint64_t Expected =
          RB.Word == BaseCanaryWord ? MemberCanaryWord : RB.Word;
      if (RM.Word != Expected)
        return false;
    } else if (std::memcmp(Base.Pool + RB.PoolOffset,
                           Member.Pool + RM.PoolOffset, RB.Length) != 0) {
      return false;
    }
  }
  return true;
}

void exterminator::writeDeltaImageBody(StreamWriter &Writer,
                                       const HeapImage &Image,
                                       const SiteDictionary &Sites,
                                       const HeapImageView *Base) {
  const uint64_t CanaryWord = canaryWordOf(Image);
  const SlotColumns Columns(Image);
  std::optional<SlotColumns> BaseColumns;
  uint64_t BaseCanaryWord = 0;
  if (Base) {
    BaseColumns.emplace(Base->image());
    BaseCanaryWord = canaryWordOf(Base->image());
  }
  Writer.writeVarU64(Image.miniheapCount());

  for (const ImageMiniheapInfo &Mini : Image.miniheaps()) {
    writeMiniheapHeader(Writer, Mini);
    const uint64_t End = Mini.FirstSlot + Mini.NumSlots;
    for (uint64_t G = Mini.FirstSlot; G < End; ++G) {
      if (const uint64_t Count = writeVirginRun(Writer, Columns, G, End)) {
        G += Count - 1;
        continue;
      }

      // Reference the base image's slot for this object id when the
      // metadata agrees — the dominant case across replicated dumps.
      const uint64_t ObjectId = Columns.ObjectIds[G];
      if (Base && ObjectId != 0) {
        if (const auto BaseLoc = Base->findById(ObjectId)) {
          const uint64_t BaseSlot = Base->image().globalSlot(*BaseLoc);
          if (Base->image().miniheap(*BaseLoc).ObjectSize == Mini.ObjectSize &&
              metadataMatches(Columns, G, *BaseColumns, BaseSlot)) {
            if (runsEqualSubstituted(*BaseColumns, BaseSlot, Columns, G,
                                     BaseCanaryWord, CanaryWord)) {
              Writer.writeU8(SlotRefFullTag);
              Writer.writeVarU64(ObjectId);
            } else {
              // Heap-dependent bytes (pointers, layout-divergent fills):
              // ship the contents, still elide the metadata.
              Writer.writeU8(SlotRefMetaTag);
              Writer.writeVarU64(ObjectId);
              writeSlotContents(Writer, Columns, G, CanaryWord);
            }
            continue;
          }
        }
      }

      writePlainRecordHeader(Writer, Columns, G, Sites);
      writeSlotContents(Writer, Columns, G, CanaryWord);
    }
  }
}

/// Copies base slot \p BaseSlot's contents runs into \p Image's current
/// slot under canary substitution, preserving run structure exactly (so
/// a decoded bundle re-encodes byte-identically).
static void copyBaseContents(HeapImage &Image, const SlotColumns &Base,
                             uint64_t BaseSlot, uint64_t BaseCanaryWord,
                             uint64_t MemberCanaryWord) {
  for (uint32_t R = Base.RunBegin[BaseSlot]; R < Base.runEnd(BaseSlot);
       ++R) {
    const ContentsRun &Run = Base.Runs[R];
    if (Run.RunKind == ContentsRun::Pattern)
      Image.addPatternRun(Run.Word == BaseCanaryWord ? MemberCanaryWord
                                                     : Run.Word,
                          Run.Length);
    else
      Image.addLiteralRun(Base.Pool + Run.PoolOffset, Run.Length);
  }
}

/// Resolves a reference tag's object id to the base's global slot;
/// false on a corrupt reference (unknown id, size mismatch).
static bool resolveBaseRef(StreamReader &Reader, const HeapImageView &Base,
                           uint64_t ObjectSize, uint64_t &BaseSlotOut) {
  const uint64_t ObjectId = Reader.readVarU64();
  if (Reader.failed() || ObjectId == 0)
    return false;
  const auto BaseLoc = Base.findById(ObjectId);
  if (!BaseLoc || Base.image().miniheap(*BaseLoc).ObjectSize != ObjectSize)
    return false;
  BaseSlotOut = Base.image().globalSlot(*BaseLoc);
  return true;
}

bool exterminator::readDeltaImageBody(StreamReader &Reader, HeapImage &Image,
                                      const std::vector<SiteId> &SiteTable,
                                      const HeapImageView *Base,
                                      uint64_t &SlotBudget) {
  const uint64_t CanaryWord = canaryWordOf(Image);
  std::optional<SlotColumns> BaseColumns;
  uint64_t BaseCanaryWord = 0;
  if (Base) {
    BaseColumns.emplace(Base->image());
    BaseCanaryWord = canaryWordOf(Base->image());
  }
  const uint64_t NumMiniheaps = Reader.readVarU64();
  if (Reader.failed() || NumMiniheaps > MaxMiniheaps)
    return false;

  std::vector<uint8_t> Scratch;
  for (uint64_t M = 0; M < NumMiniheaps; ++M) {
    uint64_t ObjectSize = 0, NumSlots = 0;
    if (!readMiniheapHeader(Reader, Image, SlotBudget, ObjectSize, NumSlots))
      return false;
    for (uint64_t S = 0; S < NumSlots; ++S) {
      const uint8_t Tag = Reader.readU8();
      if (Reader.failed())
        return false;
      if (Tag == VirginRunTag) {
        const uint64_t Count =
            readVirginRun(Reader, Image, ObjectSize, NumSlots - S);
        if (Count == 0)
          return false;
        S += Count - 1;
        continue;
      }
      if (Tag == SlotRefFullTag || Tag == SlotRefMetaTag) {
        if (!Base)
          return false; // The first image has no base to reference.
        uint64_t BaseSlot = 0;
        if (!resolveBaseRef(Reader, *Base, ObjectSize, BaseSlot))
          return false;
        const SlotColumns &B = *BaseColumns;
        Image.addSlot(B.Flags[BaseSlot], B.ObjectIds[BaseSlot],
                      B.FreeTimes[BaseSlot], B.AllocSites[BaseSlot],
                      B.FreeSites[BaseSlot], B.RequestedSizes[BaseSlot]);
        if (Tag == SlotRefFullTag)
          copyBaseContents(Image, B, BaseSlot, BaseCanaryWord, CanaryWord);
        else if (!readSlotContents(Reader, Image, ObjectSize, CanaryWord,
                                   Scratch))
          return false;
        continue;
      }
      if (!readPlainRecordHeader(Reader, Image, Tag, SiteTable) ||
          !readSlotContents(Reader, Image, ObjectSize, CanaryWord, Scratch))
        return false;
    }
  }
  return !Reader.failed();
}
