//===- heapimage/HeapImageIO.cpp - Heap image (de)serialization ------------===//

#include "heapimage/HeapImageIO.h"

#include "heapimage/ImageFormatDetail.h"

using namespace exterminator;
using namespace exterminator::imagedetail;

// Format magics: "XHI1" (legacy array-of-structs) and "XHI2" (columnar).
static constexpr uint32_t ImageMagicV1 = 0x58484931;
static constexpr uint32_t ImageMagicV2 = 0x58484932;

// The slot-record tag constants (VirginRunTag, HasMetaBit, FlagsMask)
// live in ImageFormatDetail.h: the delta body codec shares them.

//===----------------------------------------------------------------------===//
// Shared v2 body codec (ImageFormatDetail.h) — used by this file's
// single-image format and by ImageBundle's multi-image format.
//===----------------------------------------------------------------------===//

imagedetail::SlotColumns::SlotColumns(const HeapImage &Image)
    : Flags(Image.flagsColumn().data()),
      ObjectIds(Image.objectIdColumn().data()),
      FreeTimes(Image.freeTimeColumn().data()),
      AllocSites(Image.allocSiteColumn().data()),
      FreeSites(Image.freeSiteColumn().data()),
      RequestedSizes(Image.requestedSizeColumn().data()),
      RunBegin(Image.runBeginColumn().data()), Runs(Image.runs().data()),
      Pool(Image.pool().data()), NumSlots(Image.totalSlots()),
      NumRuns(static_cast<uint32_t>(Image.runs().size())) {}

void imagedetail::SiteDictionary::collect(const HeapImage &Image) {
  // Intern only where a column's value changes: neighbouring slots of
  // one population share their sites, and re-interning a known site can
  // never reorder the table, so first-appearance order is unchanged.
  // Site 0 is interned at construction.
  const SiteId *Alloc = Image.allocSiteColumn().data();
  const SiteId *Free = Image.freeSiteColumn().data();
  SiteId LastAlloc = 0, LastFree = 0;
  for (size_t G = 0; G < Image.totalSlots(); ++G) {
    if (Alloc[G] != LastAlloc)
      intern(LastAlloc = Alloc[G]);
    if (Free[G] != LastFree)
      intern(LastFree = Free[G]);
  }
}

void imagedetail::writeImageHeader(StreamWriter &Writer,
                                   const HeapImage &Image) {
  Writer.writeU64(Image.AllocationTime);
  Writer.writeU32(Image.CanaryValue);
  Writer.writeF64(Image.CanaryFillProbability);
  Writer.writeF64(Image.Multiplier);
  Writer.writeU64(Image.HeapSeed);
}

void imagedetail::readImageHeader(StreamReader &Reader, HeapImage &Image) {
  Image.AllocationTime = Reader.readU64();
  Image.CanaryValue = Reader.readU32();
  Image.CanaryFillProbability = Reader.readF64();
  Image.Multiplier = Reader.readF64();
  Image.HeapSeed = Reader.readU64();
}

void imagedetail::writeSiteTable(StreamWriter &Writer,
                                 const std::vector<SiteId> &Table) {
  Writer.writeVarU64(Table.size());
  for (SiteId Site : Table)
    Writer.writeU32(Site);
}

bool imagedetail::readSiteTable(StreamReader &Reader,
                                std::vector<SiteId> &TableOut) {
  const uint64_t NumSites = Reader.readVarU64();
  if (Reader.failed() || NumSites == 0 || NumSites > MaxSites)
    return false;
  TableOut.clear();
  TableOut.reserve(std::min(NumSites, ReserveCap));
  for (uint64_t I = 0; I < NumSites && !Reader.failed(); ++I)
    TableOut.push_back(Reader.readU32());
  return !Reader.failed();
}

void imagedetail::writeMiniheapHeader(StreamWriter &Writer,
                                      const ImageMiniheapInfo &Mini) {
  Writer.writeVarU64(Mini.SizeClassIndex);
  Writer.writeVarU64(Mini.ObjectSize);
  Writer.writeU64(Mini.BaseAddress);
  Writer.writeVarU64(Mini.CreationTime);
  Writer.writeVarU64(Mini.NumSlots);
}

bool imagedetail::readMiniheapHeader(StreamReader &Reader, HeapImage &Image,
                                     uint64_t &SlotBudget,
                                     uint64_t &ObjectSizeOut,
                                     uint64_t &NumSlotsOut) {
  const uint64_t SizeClassIndex = Reader.readVarU64();
  const uint64_t ObjectSize = Reader.readVarU64();
  const uint64_t BaseAddress = Reader.readU64();
  const uint64_t CreationTime = Reader.readVarU64();
  const uint64_t NumSlots = Reader.readVarU64();
  if (Reader.failed() || NumSlots > MaxSlotsPerMiniheap ||
      NumSlots > SlotBudget || ObjectSize == 0 ||
      ObjectSize > MaxObjectSizeBound || ObjectSize % 8 != 0)
    return false;
  SlotBudget -= NumSlots;
  Image.beginMiniheap(static_cast<uint32_t>(SizeClassIndex), ObjectSize,
                      BaseAddress, CreationTime);
  Image.reserveSlots(std::min(NumSlots, ReserveCap));
  ObjectSizeOut = ObjectSize;
  NumSlotsOut = NumSlots;
  return true;
}

uint64_t imagedetail::readVirginRun(StreamReader &Reader, HeapImage &Image,
                                    uint64_t ObjectSize, uint64_t Remaining) {
  const uint64_t Count = Reader.readVarU64();
  const uint64_t Word = Reader.readU64();
  // Non-wrapping form (see readSlotContents), checked before the bulk
  // append sizes any column from Count.
  if (Reader.failed() || Count == 0 || Count > Remaining)
    return 0;
  Image.addVirginSlots(Count, Word, static_cast<uint32_t>(ObjectSize));
  return Count;
}

void imagedetail::writePlainRecordHeader(StreamWriter &Writer,
                                         const SlotColumns &Columns,
                                         uint64_t G,
                                         const SiteDictionary &Sites) {
  const bool HasMeta = Columns.hasMetadata(G);
  Writer.writeU8(Columns.Flags[G] | (HasMeta ? HasMetaBit : 0));
  if (!HasMeta)
    return;
  Writer.writeVarU64(Columns.ObjectIds[G]);
  Writer.writeVarU64(Columns.FreeTimes[G]);
  Writer.writeVarU64(Sites.indexOf(Columns.AllocSites[G]));
  Writer.writeVarU64(Sites.indexOf(Columns.FreeSites[G]));
  Writer.writeVarU64(Columns.RequestedSizes[G]);
}

bool imagedetail::readPlainRecordHeader(StreamReader &Reader,
                                        HeapImage &Image, uint8_t Tag,
                                        const std::vector<SiteId> &SiteTable) {
  if (Tag & ~(FlagsMask | HasMetaBit))
    return false;
  uint64_t ObjectId = 0, FreeTime = 0, RequestedSize = 0;
  SiteId AllocSite = 0, FreeSite = 0;
  if (Tag & HasMetaBit) {
    ObjectId = Reader.readVarU64();
    FreeTime = Reader.readVarU64();
    const uint64_t AllocIndex = Reader.readVarU64();
    const uint64_t FreeIndex = Reader.readVarU64();
    RequestedSize = Reader.readVarU64();
    if (Reader.failed() || AllocIndex >= SiteTable.size() ||
        FreeIndex >= SiteTable.size() || RequestedSize > ~uint32_t(0))
      return false;
    AllocSite = SiteTable[AllocIndex];
    FreeSite = SiteTable[FreeIndex];
  }
  Image.addSlot(Tag & FlagsMask, ObjectId, FreeTime, AllocSite, FreeSite,
                static_cast<uint32_t>(RequestedSize));
  return true;
}

void imagedetail::writeSlotContents(StreamWriter &Writer,
                                    const SlotColumns &Columns, uint64_t G,
                                    std::optional<uint64_t> CanaryWord) {
  const uint32_t First = Columns.RunBegin[G];
  const uint32_t End = Columns.runEnd(G);
  Writer.writeVarU64(End - First);
  for (uint32_t R = First; R < End; ++R) {
    const ContentsRun &Run = Columns.Runs[R];
    if (Run.RunKind == ContentsRun::Pattern && Run.Word == CanaryWord) {
      Writer.writeU8(CanaryRunKind);
      Writer.writeVarU64(Run.Length);
      continue;
    }
    Writer.writeU8(Run.RunKind);
    Writer.writeVarU64(Run.Length);
    if (Run.RunKind == ContentsRun::Pattern)
      Writer.writeU64(Run.Word);
    else
      Writer.writeBytes(Columns.Pool + Run.PoolOffset, Run.Length);
  }
}

bool imagedetail::readSlotContents(StreamReader &Reader, HeapImage &Image,
                                   uint64_t ObjectSize,
                                   std::optional<uint64_t> CanaryWord,
                                   std::vector<uint8_t> &Scratch) {
  const uint64_t RunCount = Reader.readVarU64();
  if (Reader.failed() || RunCount > ObjectSize / 8 + 1)
    return false;
  uint64_t Total = 0;
  for (uint64_t R = 0; R < RunCount; ++R) {
    const uint8_t Kind = Reader.readU8();
    const uint64_t Length = Reader.readVarU64();
    // Non-wrapping form: Total + Length could overflow on a corrupt
    // varint and slip past the bound into a huge allocation.
    if (Reader.failed() || Length == 0 || Length > ObjectSize - Total)
      return false;
    if (Kind == ContentsRun::Pattern || (Kind == CanaryRunKind && CanaryWord)) {
      if (Length % 8 != 0)
        return false;
      uint64_t Word = CanaryWord.value_or(0);
      if (Kind == ContentsRun::Pattern) {
        Word = Reader.readU64();
        if (Reader.failed())
          return false;
      }
      Image.addPatternRun(Word, static_cast<uint32_t>(Length));
    } else if (Kind == ContentsRun::Literal) {
      Scratch.resize(Length);
      if (!Reader.readBytes(Scratch.data(), Length))
        return false;
      Image.addLiteralRun(Scratch.data(), Length);
    } else {
      return false;
    }
    Total += Length;
  }
  return Total == ObjectSize;
}

void imagedetail::writeImageBody(StreamWriter &Writer, const HeapImage &Image,
                                 const SiteDictionary &Sites) {
  const SlotColumns Columns(Image);
  Writer.writeVarU64(Image.miniheapCount());
  for (const ImageMiniheapInfo &Mini : Image.miniheaps()) {
    writeMiniheapHeader(Writer, Mini);
    const uint64_t End = Mini.FirstSlot + Mini.NumSlots;
    for (uint64_t G = Mini.FirstSlot; G < End; ++G) {
      if (const uint64_t Count = writeVirginRun(Writer, Columns, G, End)) {
        G += Count - 1;
        continue;
      }
      writePlainRecordHeader(Writer, Columns, G, Sites);
      writeSlotContents(Writer, Columns, G, std::nullopt);
    }
  }
}

bool imagedetail::readImageBody(StreamReader &Reader, HeapImage &Image,
                                const std::vector<SiteId> &SiteTable,
                                uint64_t &SlotBudget) {
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
      if (!readPlainRecordHeader(Reader, Image, Tag, SiteTable) ||
          !readSlotContents(Reader, Image, ObjectSize, std::nullopt, Scratch))
        return false;
    }
  }
  return !Reader.failed();
}

//===----------------------------------------------------------------------===//
// v2 serialization
//===----------------------------------------------------------------------===//

bool exterminator::serializeHeapImage(const HeapImage &Image,
                                      ByteSink &Sink) {
  StreamWriter Writer(Sink);
  Writer.writeU32(ImageMagicV2);
  Writer.writeU32(HeapImageFormatV2);
  writeImageHeader(Writer, Image);

  // Call-site dictionary: a handful of 32-bit site hashes account for
  // every slot, so slots store 1-byte dictionary indexes instead of
  // 5-byte varint hashes.  First-appearance order keeps the encoding
  // deterministic.
  SiteDictionary Sites;
  Sites.collect(Image);
  writeSiteTable(Writer, Sites.table());
  writeImageBody(Writer, Image, Sites);
  return !Writer.failed();
}

std::vector<uint8_t>
exterminator::serializeHeapImage(const HeapImage &Image) {
  std::vector<uint8_t> Buffer;
  VectorSink Sink(Buffer);
  serializeHeapImage(Image, Sink);
  return Buffer;
}

//===----------------------------------------------------------------------===//
// v2 deserialization
//===----------------------------------------------------------------------===//

static bool deserializeV2(StreamReader &Reader, HeapImage &Image) {
  if (Reader.readU32() != HeapImageFormatV2)
    return false;
  readImageHeader(Reader, Image);
  Image.SourceFormatVersion = HeapImageFormatV2;

  std::vector<SiteId> SiteTable;
  if (!readSiteTable(Reader, SiteTable))
    return false;
  uint64_t SlotBudget = MaxTotalSlots;
  return readImageBody(Reader, Image, SiteTable, SlotBudget);
}

//===----------------------------------------------------------------------===//
// v1 compatibility
//===----------------------------------------------------------------------===//

std::vector<uint8_t>
exterminator::serializeHeapImageV1(const HeapImage &Image) {
  ByteWriter Writer;
  Writer.writeU32(ImageMagicV1);
  Writer.writeU64(Image.AllocationTime);
  Writer.writeU32(Image.CanaryValue);
  Writer.writeF64(Image.CanaryFillProbability);
  Writer.writeF64(Image.Multiplier);
  Writer.writeU64(Image.HeapSeed);
  Writer.writeU64(Image.miniheapCount());
  for (uint32_t M = 0; M < Image.miniheapCount(); ++M) {
    const ImageMiniheapInfo &Mini = Image.miniheapInfo(M);
    Writer.writeU32(Mini.SizeClassIndex);
    Writer.writeU64(Mini.ObjectSize);
    Writer.writeU64(Mini.BaseAddress);
    Writer.writeU64(Mini.CreationTime);
    Writer.writeU64(Mini.NumSlots);
    for (uint32_t S = 0; S < Mini.NumSlots; ++S) {
      const ImageLocation Loc{M, S};
      const uint8_t Flags = Image.slotFlags(Loc);
      uint8_t V1Flags = (Flags & SlotFlagAllocated ? 1 : 0) |
                        (Flags & SlotFlagBad ? 2 : 0) |
                        (Flags & SlotFlagCanaried ? 4 : 0);
      Writer.writeU8(V1Flags);
      Writer.writeU64(Image.objectId(Loc));
      Writer.writeU64(Image.allocTime(Loc)); // v1 stored the pair
      Writer.writeU64(Image.freeTime(Loc));
      Writer.writeU32(Image.allocSite(Loc));
      Writer.writeU32(Image.freeSite(Loc));
      Writer.writeU32(Image.requestedSize(Loc));
      Writer.writeBlob(Image.contents(Loc).decode());
    }
  }
  return Writer.buffer();
}

static bool deserializeV1(StreamReader &Reader, HeapImage &Image) {
  Image.AllocationTime = Reader.readU64();
  Image.CanaryValue = Reader.readU32();
  Image.CanaryFillProbability = Reader.readF64();
  Image.Multiplier = Reader.readF64();
  Image.HeapSeed = Reader.readU64();
  Image.SourceFormatVersion = HeapImageFormatV1;
  const uint64_t NumMiniheaps = Reader.readU64();
  if (Reader.failed() || NumMiniheaps > MaxMiniheaps)
    return false;

  std::vector<uint8_t> Contents;
  for (uint64_t M = 0; M < NumMiniheaps; ++M) {
    const uint32_t SizeClassIndex = Reader.readU32();
    const uint64_t ObjectSize = Reader.readU64();
    const uint64_t BaseAddress = Reader.readU64();
    const uint64_t CreationTime = Reader.readU64();
    const uint64_t NumSlots = Reader.readU64();
    // Same shape rules as v2 (including ObjectSize % 8: real captures
    // are power-of-two sized), so a loaded v1 image always re-saves as
    // a loadable v2 file.
    if (Reader.failed() || NumSlots > MaxSlotsPerMiniheap ||
        Image.totalSlots() + NumSlots > MaxTotalSlots || ObjectSize == 0 ||
        ObjectSize > MaxObjectSizeBound || ObjectSize % 8 != 0)
      return false;
    Image.beginMiniheap(SizeClassIndex, ObjectSize, BaseAddress,
                        CreationTime);
    Image.reserveSlots(std::min(NumSlots, ReserveCap));
    for (uint64_t S = 0; S < NumSlots; ++S) {
      const uint8_t V1Flags = Reader.readU8();
      const uint8_t Flags = (V1Flags & 1 ? SlotFlagAllocated : 0) |
                            (V1Flags & 2 ? SlotFlagBad : 0) |
                            (V1Flags & 4 ? SlotFlagCanaried : 0);
      const uint64_t ObjectId = Reader.readU64();
      Reader.readU64(); // AllocTime: redundant with ObjectId, dropped.
      const uint64_t FreeTime = Reader.readU64();
      const SiteId AllocSite = Reader.readU32();
      const SiteId FreeSite = Reader.readU32();
      const uint32_t RequestedSize = Reader.readU32();
      const uint64_t ContentsSize = Reader.readU64();
      if (Reader.failed() || ContentsSize != ObjectSize)
        return false;
      Contents.resize(ContentsSize);
      if (!Reader.readBytes(Contents.data(), ContentsSize))
        return false;
      Image.addSlot(Flags, ObjectId, FreeTime, AllocSite, FreeSite,
                    RequestedSize);
      Image.addSlotBytes(Contents.data(), Contents.size());
    }
  }
  return !Reader.failed();
}

//===----------------------------------------------------------------------===//
// Entry points
//===----------------------------------------------------------------------===//

bool exterminator::deserializeHeapImage(ByteSource &Source,
                                        HeapImage &ImageOut) {
  StreamReader Reader(Source);
  const uint32_t Magic = Reader.readU32();
  if (Reader.failed())
    return false;
  ImageOut.clear();
  if (Magic == ImageMagicV2)
    return deserializeV2(Reader, ImageOut);
  if (Magic == ImageMagicV1)
    return deserializeV1(Reader, ImageOut);
  return false;
}

bool exterminator::deserializeHeapImage(const std::vector<uint8_t> &Buffer,
                                        HeapImage &ImageOut) {
  MemorySource Source(Buffer);
  if (!deserializeHeapImage(Source, ImageOut))
    return false;
  return Source.remaining() == 0;
}

bool exterminator::saveHeapImage(const HeapImage &Image,
                                 const std::string &Path) {
  FileSink Sink(Path);
  if (!Sink.ok())
    return false;
  if (!serializeHeapImage(Image, Sink))
    return false;
  return Sink.close();
}

bool exterminator::loadHeapImage(const std::string &Path,
                                 HeapImage &ImageOut) {
  FileSource Source(Path);
  if (!Source.ok())
    return false;
  if (!deserializeHeapImage(Source, ImageOut))
    return false;
  return Source.exhausted();
}
