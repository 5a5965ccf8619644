//===- heapimage/ImageFormatDetail.h - Shared v2 body codec ----*- C++ -*-===//
//
// Part of the Exterminator reproduction (Novark, Berger & Zorn, PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Internal building blocks shared by the two columnar wire formats: the
/// single-image v2 format (HeapImageIO) and the multi-image bundle format
/// (ImageBundle).  Both encode the same header fields and miniheap/slot
/// body; they differ only in where the call-site dictionary lives — per
/// image for v2, one table across all images for a bundle (replicated
/// dumps share almost all sites, so the bundle amortizes the table).
///
/// Not installed API: only the format translation units (HeapImageIO,
/// ImageBundle) and the codec layer's delta body codec (codec/DeltaCodec)
/// include this.
///
//===----------------------------------------------------------------------===//

#ifndef EXTERMINATOR_HEAPIMAGE_IMAGEFORMATDETAIL_H
#define EXTERMINATOR_HEAPIMAGE_IMAGEFORMATDETAIL_H

#include "heapimage/HeapImage.h"
#include "support/FlatU64Map.h"
#include "support/Serializer.h"

#include <cassert>
#include <optional>
#include <vector>

namespace exterminator {
namespace imagedetail {

// Sanity bounds rejecting absurd values from corrupt headers before any
// allocation is sized from them.  Counts read from a header additionally
// never pre-size more than ReserveCap entries (see reserveSlots calls):
// a forged count with no data behind it then fails at the first record
// read instead of reserving gigabytes up front.
inline constexpr uint64_t MaxMiniheaps = uint64_t(1) << 24;
inline constexpr uint64_t MaxSlotsPerMiniheap = uint64_t(1) << 28;
inline constexpr uint64_t MaxObjectSizeBound = uint64_t(1) << 20;
inline constexpr uint64_t MaxSites = uint64_t(1) << 20;
inline constexpr uint64_t ReserveCap = uint64_t(1) << 16;
/// Virgin-region records amplify (a few bytes expand to Count slots), so
/// the decoded image's total slot count is capped as well — 16M slots is
/// an order of magnitude past any real capture.
inline constexpr uint64_t MaxTotalSlots = uint64_t(1) << 24;

/// Slot-record tag bytes.  A plain record's tag is flags|HasMetaBit with
/// the flags in the low three bits, so the high tag values are free for
/// markers: 0xff collapses a virgin region, and the delta body codec
/// (codec/DeltaCodec.h) claims 0xfe/0xfd for base-image references.
inline constexpr uint8_t VirginRunTag = 0xff;
inline constexpr uint8_t HasMetaBit = 0x80;
inline constexpr uint8_t FlagsMask =
    SlotFlagAllocated | SlotFlagBad | SlotFlagCanaried;

/// The third contents-run kind, legal only in delta bodies
/// (codec/DeltaCodec.h): a pattern run of the image's own canary fill
/// word, carrying only a length.
inline constexpr uint8_t CanaryRunKind = 2;

/// Raw column pointers of one image.  The body encoders read every slot
/// attribute through these instead of the ImageLocation accessor chain
/// (location -> global index -> column, a SlotContents per slot).
/// Valid while the image is not modified.
struct SlotColumns {
  explicit SlotColumns(const HeapImage &Image);

  const uint8_t *Flags;
  const uint64_t *ObjectIds;
  const uint64_t *FreeTimes;
  const SiteId *AllocSites;
  const SiteId *FreeSites;
  const uint32_t *RequestedSizes;
  const uint32_t *RunBegin;
  const ContentsRun *Runs;
  const uint8_t *Pool;
  uint64_t NumSlots;
  uint32_t NumRuns;

  uint32_t runEnd(uint64_t G) const {
    return G + 1 < NumSlots ? RunBegin[G + 1] : NumRuns;
  }

  /// True when slot \p G records any history (a plain record's
  /// HasMetaBit).
  bool hasMetadata(uint64_t G) const {
    return ObjectIds[G] != 0 || FreeTimes[G] != 0 || AllocSites[G] != 0 ||
           FreeSites[G] != 0 || RequestedSizes[G] != 0;
  }

  /// True when slot \p G can join a virgin region run: never allocated,
  /// no recorded history, and contents one repeated word (\p WordOut).
  /// The one predicate both body encoders collapse regions with.
  bool isVirginSlot(uint64_t G, uint64_t &WordOut) const {
    if (Flags[G] != 0 || hasMetadata(G))
      return false;
    if (runEnd(G) - RunBegin[G] != 1)
      return false;
    const ContentsRun &Run = Runs[RunBegin[G]];
    if (Run.RunKind != ContentsRun::Pattern)
      return false;
    WordOut = Run.Word;
    return true;
  }
};

/// First-appearance-order call-site dictionary builder.  Index 0 is
/// always "no site", so the dominant metadata-free slots encode their
/// site references in one byte.
class SiteDictionary {
public:
  SiteDictionary() { intern(0); }

  uint64_t intern(SiteId Site) {
    if (const uint64_t *Known = Index.lookup(keyOf(Site)))
      return *Known;
    Index.emplace(keyOf(Site), Table.size());
    Table.push_back(Site);
    return Table.size() - 1;
  }

  /// Interns every alloc/free site the image references, in slot order
  /// (each slot's alloc site, then its free site).
  void collect(const HeapImage &Image);

  uint64_t indexOf(SiteId Site) const {
    const uint64_t *Known = Index.lookup(keyOf(Site));
    assert(Known && "site was never interned");
    return *Known;
  }
  const std::vector<SiteId> &table() const { return Table; }

private:
  /// FlatU64Map reserves key 0, and site 0 ("no site") is a real entry.
  static uint64_t keyOf(SiteId Site) { return uint64_t(Site) + 1; }

  std::vector<SiteId> Table;
  FlatU64Map<uint64_t> Index;
};

/// Writes the per-image scalar header fields (allocation time, canary,
/// p, M, seed) — everything that differs between replicated dumps.
void writeImageHeader(StreamWriter &Writer, const HeapImage &Image);

/// Reads the scalar header fields written by writeImageHeader.
void readImageHeader(StreamReader &Reader, HeapImage &Image);

/// Writes the dictionary's site table (varint count + 32-bit hashes).
void writeSiteTable(StreamWriter &Writer, const std::vector<SiteId> &Table);

/// Reads a site table; returns false on a malformed or oversized one.
bool readSiteTable(StreamReader &Reader, std::vector<SiteId> &TableOut);

//===----------------------------------------------------------------------===//
// Record codecs shared by the plain body (below) and the delta body
// (codec/DeltaCodec.h).
//===----------------------------------------------------------------------===//

/// Writes one miniheap descriptor.
void writeMiniheapHeader(StreamWriter &Writer, const ImageMiniheapInfo &Mini);

/// Reads a miniheap descriptor, checks it against the shape bounds and
/// \p SlotBudget (decremented by its slot count), and begins the
/// miniheap in \p Image.  Returns false on malformed input.
bool readMiniheapHeader(StreamReader &Reader, HeapImage &Image,
                        uint64_t &SlotBudget, uint64_t &ObjectSizeOut,
                        uint64_t &NumSlotsOut);

/// When slot \p G opens a virgin region, writes one virgin-run record
/// for the whole region (its slots sharing \p G's fill word, stopping
/// before \p End) and returns its slot count; otherwise writes nothing
/// and returns 0.  Inline: the encoders ask this of every slot.
inline uint64_t writeVirginRun(StreamWriter &Writer,
                               const SlotColumns &Columns, uint64_t G,
                               uint64_t End) {
  uint64_t Word = 0, NextWord = 0;
  if (!Columns.isVirginSlot(G, Word))
    return 0;
  // Collapse the whole virgin region (same fill word) to one record —
  // the dominant population of an over-provisioned heap.
  uint64_t Count = 1;
  while (G + Count < End && Columns.isVirginSlot(G + Count, NextWord) &&
         NextWord == Word)
    ++Count;
  Writer.writeU8(VirginRunTag);
  Writer.writeVarU64(Count);
  Writer.writeU64(Word);
  return Count;
}

/// Reads a virgin-run record after its tag and appends its slots in
/// bulk.  The count is checked against \p Remaining — the slots the
/// miniheap has yet to declare, already inside the slot budget — before
/// any column is sized from it.  Returns the count, or 0 on malformed
/// input.
uint64_t readVirginRun(StreamReader &Reader, HeapImage &Image,
                       uint64_t ObjectSize, uint64_t Remaining);

/// Writes slot \p G's plain-record tag and, when it has any, its
/// metadata (site references index \p Sites).
void writePlainRecordHeader(StreamWriter &Writer, const SlotColumns &Columns,
                            uint64_t G, const SiteDictionary &Sites);

/// Reads a plain record's metadata after its \p Tag and appends the slot
/// (contents follow).  Returns false on a malformed tag, an
/// out-of-range dictionary reference, or truncation.
bool readPlainRecordHeader(StreamReader &Reader, HeapImage &Image,
                           uint8_t Tag, const std::vector<SiteId> &SiteTable);

/// Writes slot \p G's contents as run records (varint run count, then per
/// run: kind byte, varint length, repeated word or literal bytes).  With
/// a \p CanaryWord (delta bodies), pattern runs of that word are written
/// as CanaryRun records carrying only their length.
void writeSlotContents(StreamWriter &Writer, const SlotColumns &Columns,
                       uint64_t G, std::optional<uint64_t> CanaryWord);

/// Reads one slot's contents runs into the current slot of \p Image;
/// the total decoded length must be exactly \p ObjectSize.  CanaryRun
/// records are accepted only with a \p CanaryWord (delta bodies), and
/// decode to pattern runs of it.
bool readSlotContents(StreamReader &Reader, HeapImage &Image,
                      uint64_t ObjectSize, std::optional<uint64_t> CanaryWord,
                      std::vector<uint8_t> &Scratch);

/// Writes the image body: miniheap count, then per-miniheap descriptors
/// and slot records (virgin regions collapsed, metadata varint-packed,
/// contents run-encoded).  Site references are indexes into \p Sites,
/// which must already contain every site the image uses.
void writeImageBody(StreamWriter &Writer, const HeapImage &Image,
                    const SiteDictionary &Sites);

/// Reads an image body, resolving site indexes through \p SiteTable.
/// Returns false on malformed input, including out-of-range dictionary
/// references; \p Image must be empty (freshly constructed or clear()ed)
/// apart from its header fields.  \p SlotBudget bounds the slots this
/// body may declare and is decremented by what it consumes — virgin-run
/// records amplify (a dozen wire bytes expand to Count decoded slots), so
/// the budget is what keeps a tiny forged body from materializing
/// gigabytes of columns.  Single-image formats pass MaxTotalSlots; a
/// bundle shares one budget across all its images, and the wire path
/// shrinks it further (MaxWireSlots).
bool readImageBody(StreamReader &Reader, HeapImage &Image,
                   const std::vector<SiteId> &SiteTable,
                   uint64_t &SlotBudget);

} // namespace imagedetail
} // namespace exterminator

#endif // EXTERMINATOR_HEAPIMAGE_IMAGEFORMATDETAIL_H
