//===- support/Serializer.h - Binary serialization -------------*- C++ -*-===//
//
// Part of the Exterminator reproduction (Novark, Berger & Zorn, PLDI 2007).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Little-endian binary readers/writers used by heap images (§3.4) and
/// runtime patch files (§6).  Readers are fail-soft: out-of-bounds reads
/// set a sticky failure flag and return zeros, so callers can validate once
/// at the end instead of after every field (no exceptions, per the LLVM
/// coding standards).
///
/// Two layers:
///
///  * ByteWriter/ByteReader — in-memory buffers, used by the small formats
///    (patch files, run summaries).
///  * ByteSink/ByteSource + StreamWriter/StreamReader — streaming field
///    codecs over an abstract byte stream, used by heap-image format v2 so
///    multi-megabyte images serialize straight to disk without an
///    intermediate buffer.  Both layers share the LEB128 varint encoding
///    the columnar image format leans on.
///
/// Cost model of the streaming layer.  Image and bundle coding issue one
/// field call per slot attribute (~20k slots per image), so the cost per
/// field, not the byte count, sets the codec's speed.  Over the two
/// contiguous endpoints — a VectorSink being written, a MemorySource
/// being read, which is every wire frame and in-memory bundle —
/// StreamWriter/StreamReader bypass the virtual write()/read() and work
/// on the vector or memory range inline: a field costs a bounds check and
/// a copy, and a varint decodes from the pointer instead of one virtual
/// read per byte.  That path does no buffering: bytes land in the vector
/// in write order as each field is written, and a MemorySource's
/// remaining() is exact after every field.  Failing reads take the
/// generic path, so failure is sticky with zeroed output exactly as over
/// any other stream.  File and codec streams keep the virtual calls
/// (their own buffering amortizes them).
///
//===----------------------------------------------------------------------===//

#ifndef EXTERMINATOR_SUPPORT_SERIALIZER_H
#define EXTERMINATOR_SUPPORT_SERIALIZER_H

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

namespace exterminator {

/// Appends little-endian fields to a growable byte buffer.
class ByteWriter {
public:
  void writeU8(uint8_t Value) { Buffer.push_back(Value); }
  void writeU32(uint32_t Value);
  void writeU64(uint64_t Value);
  void writeF64(double Value);
  /// Unsigned LEB128: 1 byte per 7 bits, small values stay small.
  void writeVarU64(uint64_t Value);
  void writeBytes(const void *Data, size_t Size);
  /// Length-prefixed byte string.
  void writeBlob(const std::vector<uint8_t> &Blob);
  void writeString(const std::string &Str);

  const std::vector<uint8_t> &buffer() const { return Buffer; }
  size_t size() const { return Buffer.size(); }

private:
  std::vector<uint8_t> Buffer;
};

/// Reads little-endian fields from a byte buffer with sticky failure.
class ByteReader {
public:
  ByteReader(const uint8_t *Data, size_t Size) : Data(Data), Size(Size) {}
  explicit ByteReader(const std::vector<uint8_t> &Buffer)
      : Data(Buffer.data()), Size(Buffer.size()) {}

  uint8_t readU8();
  uint32_t readU32();
  uint64_t readU64();
  double readF64();
  uint64_t readVarU64();
  bool readBytes(void *Out, size_t Count);
  std::vector<uint8_t> readBlob();
  std::string readString();

  /// True if any read ran past the end of the buffer.
  bool failed() const { return Failed; }
  /// True when the whole buffer has been consumed without failure.
  bool atEnd() const { return !Failed && Offset == Size; }
  size_t remaining() const { return Failed ? 0 : Size - Offset; }

private:
  const uint8_t *Data;
  size_t Size;
  size_t Offset = 0;
  bool Failed = false;
};

//===----------------------------------------------------------------------===//
// Streaming layer
//===----------------------------------------------------------------------===//

/// Abstract byte destination for streaming serialization.
class ByteSink {
public:
  virtual ~ByteSink();
  /// Returns false on write failure (sticky in StreamWriter).
  virtual bool write(const void *Data, size_t Size) = 0;

protected:
  /// Set by a sink that only ever appends to one in-memory vector
  /// (VectorSink): StreamWriter then appends to it inline.
  std::vector<uint8_t> *AppendTarget = nullptr;

private:
  friend class StreamWriter;
};

/// Appends to a caller-owned byte vector.
class VectorSink : public ByteSink {
public:
  explicit VectorSink(std::vector<uint8_t> &Out) : Out(Out) {
    AppendTarget = &Out;
  }
  bool write(const void *Data, size_t Size) override;

private:
  std::vector<uint8_t> &Out;
};

/// Buffered writes to a file; the destructor closes.  Check ok() (or
/// close()'s return) — buffered bytes flush on close.
class FileSink : public ByteSink {
public:
  explicit FileSink(const std::string &Path);
  ~FileSink() override;
  bool write(const void *Data, size_t Size) override;
  /// Flushes and closes; returns false if anything failed.
  bool close();
  bool ok() const { return File != nullptr; }

private:
  std::FILE *File = nullptr;
  bool WriteFailed = false;
};

class MemorySource;

/// Abstract byte origin for streaming deserialization.
class ByteSource {
public:
  virtual ~ByteSource();
  /// Reads up to \p Size bytes; returns the count actually read (short
  /// reads only at end of stream).
  virtual size_t read(void *Out, size_t Size) = 0;

protected:
  /// Set by a source over one contiguous memory range (MemorySource):
  /// StreamReader then reads the range inline.
  MemorySource *Contiguous = nullptr;

private:
  friend class StreamReader;
};

/// Reads from a caller-owned memory range.
class MemorySource : public ByteSource {
public:
  MemorySource(const uint8_t *Data, size_t Size) : Data(Data), Size(Size) {
    Contiguous = this;
  }
  explicit MemorySource(const std::vector<uint8_t> &Buffer)
      : MemorySource(Buffer.data(), Buffer.size()) {}
  // A copy would point Contiguous at the original.
  MemorySource(const MemorySource &) = delete;
  MemorySource &operator=(const MemorySource &) = delete;
  size_t read(void *Out, size_t Size) override;
  /// Bytes not yet consumed (the streaming analogue of ByteReader::atEnd).
  size_t remaining() const { return Size - Offset; }

private:
  friend class StreamReader;

  const uint8_t *Data;
  size_t Size;
  size_t Offset = 0;
};

/// Buffered reads from a file; the destructor closes.
class FileSource : public ByteSource {
public:
  explicit FileSource(const std::string &Path);
  ~FileSource() override;
  size_t read(void *Out, size_t Size) override;
  bool ok() const { return File != nullptr; }
  /// True once the underlying file is exhausted and the buffer drained.
  bool exhausted();

private:
  std::FILE *File = nullptr;
};

/// Little-endian field encoder over any ByteSink with sticky failure.
/// Appends inline when the sink is a VectorSink (see the file comment).
class StreamWriter {
public:
  explicit StreamWriter(ByteSink &Sink)
      : Sink(Sink), Append(Sink.AppendTarget) {}

  void writeU8(uint8_t Value) {
    if (Append)
      Append->push_back(Value);
    else
      writeToSink(&Value, 1);
  }
  void writeU32(uint32_t Value);
  void writeU64(uint64_t Value);
  void writeF64(double Value);
  void writeVarU64(uint64_t Value) {
    if (Value < 0x80)
      writeU8(static_cast<uint8_t>(Value));
    else
      writeLongVarU64(Value);
  }
  void writeBytes(const void *Data, size_t Size) {
    if (Append) {
      const uint8_t *Bytes = static_cast<const uint8_t *>(Data);
      Append->insert(Append->end(), Bytes, Bytes + Size);
    } else {
      writeToSink(Data, Size);
    }
  }

  /// True if any write failed.
  bool failed() const { return Failed; }

private:
  void writeLongVarU64(uint64_t Value);
  /// The generic path: one virtual write, sticky failure.
  void writeToSink(const void *Data, size_t Size);

  ByteSink &Sink;
  /// The VectorSink's vector, or null on the generic path.
  std::vector<uint8_t> *Append;
  bool Failed = false;
};

/// Little-endian field decoder over any ByteSource with sticky failure.
/// Reads inline when the source is a MemorySource (see the file comment).
class StreamReader {
public:
  explicit StreamReader(ByteSource &Source)
      : Source(Source), Memory(Source.Contiguous) {}

  uint8_t readU8() {
    if (Memory && !Failed && Memory->Offset < Memory->Size)
      return Memory->Data[Memory->Offset++];
    uint8_t Value = 0;
    readFromSource(&Value, 1);
    return Value;
  }
  uint32_t readU32();
  uint64_t readU64();
  double readF64();
  uint64_t readVarU64() {
    if (Memory && !Failed && Memory->Offset < Memory->Size &&
        Memory->Data[Memory->Offset] < 0x80)
      return Memory->Data[Memory->Offset++];
    return readLongVarU64();
  }
  bool readBytes(void *Out, size_t Count) {
    if (Memory && !Failed && Count <= Memory->Size - Memory->Offset) {
      // An empty range may have a null Data; memcpy from null is
      // undefined even for zero bytes.
      if (Count)
        std::memcpy(Out, Memory->Data + Memory->Offset, Count);
      Memory->Offset += Count;
      return true;
    }
    return readFromSource(Out, Count);
  }

  bool failed() const { return Failed; }

private:
  /// Multi-byte varints, and every varint off the inline path.
  uint64_t readLongVarU64();
  /// The generic path (and every failing read): one virtual read,
  /// sticky failure with zeroed output.
  bool readFromSource(void *Out, size_t Count);

  ByteSource &Source;
  /// The MemorySource, or null on the generic path.
  MemorySource *Memory;
  bool Failed = false;
};

/// Writes \p Buffer to \p Path crash-safely: the bytes land in a temp
/// file in the same directory, are fsync'ed, and rename() atomically
/// replaces the target — an interruption or I/O failure mid-write leaves
/// any existing file at \p Path intact.  Returns false on failure
/// (without clobbering the old file).
bool writeFileBytes(const std::string &Path,
                    const std::vector<uint8_t> &Buffer);

/// Reads all of \p Path into \p Buffer; returns false on I/O failure.
bool readFileBytes(const std::string &Path, std::vector<uint8_t> &Buffer);

} // namespace exterminator

#endif // EXTERMINATOR_SUPPORT_SERIALIZER_H
