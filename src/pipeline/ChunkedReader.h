//===- pipeline/ChunkedReader.h - Streaming trace ingestion -----*- C++ -*-===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Streaming ingestion for analysis sessions (feedFile). Two byte-source
/// backends sit behind one parse loop:
///
///   mmap     regular files are memory-mapped (io/MappedFile) and parsed
///            zero-copy straight out of the page cache — no refill
///            buffer, no fread copies, and the OS manages residency on
///            multi-hundred-million-event traces. Selected automatically
///            when the path names a regular file (and UseMmap is on).
///   buffered pipes, sockets and mmap-less platforms read in bounded
///            chunks through a refill buffer, so only one chunk of raw
///            bytes is resident at a time.
///
/// Either way events are still delivered in bounded batches (nextChunk),
/// which is what the streaming session keys its publication rounds off.
///
/// Format dispatch matches io/TraceFile (".bin" in any letter case →
/// binary, otherwise text) and reuses the codecs' incremental entry points
/// (parseTextTraceLine, parseBinaryHeader/decodeBinaryEvent), so the two
/// paths cannot drift. The reader is pull-based: each nextChunk() call
/// appends a bounded batch of events to the trace under construction —
/// the seam the ingest-while-analyzing session plugs into.
///
//===----------------------------------------------------------------------===//

#ifndef RAPID_PIPELINE_CHUNKEDREADER_H
#define RAPID_PIPELINE_CHUNKEDREADER_H

#include "io/MappedFile.h"
#include "io/TraceFile.h"
#include "support/Status.h"
#include "trace/TraceBuilder.h"

#include <cstdio>
#include <string>
#include <string_view>

namespace rapid {

/// Tuning knobs for the chunked reader.
struct ChunkedReaderOptions {
  /// Raw bytes read from disk per refill (buffered backend only).
  size_t ChunkBytes = 1 << 20;
  /// Upper bound on events appended per nextChunk() call.
  uint64_t MaxEventsPerChunk = 64 * 1024;
  /// Memory-map regular files and parse zero-copy (the default). Off
  /// forces the buffered backend — tests pin both paths byte-for-byte.
  bool UseMmap = true;
};

/// Pull-based streaming reader for one trace file.
class ChunkedTraceReader {
public:
  explicit ChunkedTraceReader(const std::string &Path,
                              ChunkedReaderOptions Opts = {});
  ~ChunkedTraceReader();

  ChunkedTraceReader(const ChunkedTraceReader &) = delete;
  ChunkedTraceReader &operator=(const ChunkedTraceReader &) = delete;

  /// False once an IO or parse error has occurred; error() explains.
  bool ok() const { return Error.empty(); }
  const std::string &error() const { return Error; }
  /// Structured view of the failure: IoError for open/read problems,
  /// ParseError for malformed bytes, Ok while healthy.
  Status status() const {
    return ok() ? Status::success() : Status(Code, Error);
  }

  /// True when the file is fully consumed (or an error stopped progress).
  bool done() const { return Done || !ok(); }

  /// Parses the next batch of at most MaxEventsPerChunk events, appending
  /// them to the trace under construction. Returns the number of events
  /// appended; 0 means EOF or error.
  uint64_t nextChunk();

  /// The trace built so far (tables may still grow for text inputs;
  /// binary headers carry all tables up front).
  const Trace &current() const {
    return Binary ? BinTrace : Builder.current();
  }

  /// Total events delivered so far.
  uint64_t eventsDelivered() const { return Delivered; }

  /// True when the file was memory-mapped (regular file, UseMmap on):
  /// parsing runs zero-copy over the mapping.
  bool mapped() const { return Mapped; }

  /// Finalizes and returns the trace; call after done().
  Trace take();

private:
  bool refill();            ///< Reads more bytes; false at EOF.
  uint64_t nextTextChunk();
  uint64_t nextBinaryChunk();
  void compactBuffer();
  /// The live unconsumed byte window: the whole mapping (mmap backend) or
  /// the refill buffer (buffered backend); [Pos, view().size()) is live.
  std::string_view view() const {
    return Mapped ? std::string_view(Map.data(), Map.size())
                  : std::string_view(Buf);
  }

  ChunkedReaderOptions Opts;
  std::FILE *File = nullptr;
  bool OwnsFile = true; ///< False for stdin ("-"): never fclose'd.
  MappedFile Map;       ///< mmap backend; valid when Mapped.
  bool Mapped = false;
  bool Binary = false;
  bool Eof = false;  ///< Underlying file exhausted.
  bool Done = false; ///< Eof and buffer drained.
  std::string Error;
  StatusCode Code = StatusCode::IoError; ///< Classification when Error set.
  uint64_t FileSize = UINT64_MAX; ///< From fseek/ftell; MAX if unknown.
  uint64_t TotalRead = 0;         ///< Raw bytes consumed from the file.

  std::string Buf; ///< Buffered backend's refill buffer.
  size_t Pos = 0;  ///< First unconsumed byte of view().

  TraceBuilder Builder; ///< Text: interning appender.
  Trace BinTrace;       ///< Binary: events appended directly.
  uint64_t Delivered = 0;
  uint64_t LineNo = 0; ///< Text: lines consumed (for diagnostics).

  bool HeaderParsed = false; ///< Binary: container header decoded.
  uint64_t RemainingEvents = 0; ///< Binary: records left per the header.
};

/// Convenience wrapper: loads the whole file through the chunked reader.
/// Behaviorally equivalent to loadTraceFile, with bounded raw-byte memory.
TraceLoadResult loadTraceFileChunked(const std::string &Path,
                                     ChunkedReaderOptions Opts = {});

} // namespace rapid

#endif // RAPID_PIPELINE_CHUNKEDREADER_H
