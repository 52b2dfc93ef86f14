//===- serve/WireIngestor.h - Frames -> AnalysisSession ---------*- C++ -*-===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The protocol layer between a FeedSource's byte stream and one
/// AnalysisSession: an incremental FrameDecoder plus the data-plane frame
/// semantics. The ingestor owns the serving layer's *sticky failure*
/// contract: the first malformed frame (decoder desync, bad payload,
/// missing Hello, undeclared ids) freezes the stream with a
/// ValidationError — every later data frame is ignored, never
/// half-applied — while the session's already-analyzed prefix stays
/// queryable and finishable. Control frames (queries) are not handled
/// here: the server answers them before a frame is applied, because only
/// it knows where replies go, and one that reaches the ingestor is a
/// protocol error.
///
/// Single-producer like the session itself: one thread calls ingest()/
/// eof() per ingestor.
///
//===----------------------------------------------------------------------===//

#ifndef RAPID_SERVE_WIREINGESTOR_H
#define RAPID_SERVE_WIREINGESTOR_H

#include "io/WireFormat.h"
#include "support/Status.h"
#include "trace/Event.h"

#include <vector>

namespace rapid {

class AnalysisSession;
class FeedSource;

/// Applies a wire frame stream to a session. Control frames
/// (PartialQuery/TimelineQuery/ListSessions/FinalQuery) freeze the stream.
class WireIngestor {
public:
  explicit WireIngestor(AnalysisSession &S) : S(S) {}

  /// Decodes and applies every complete frame in \p Data. Safe to call
  /// after a failure (bytes are discarded).
  void ingest(const char *Data, size_t N);

  /// The peer hung up: a partially buffered frame becomes the sticky
  /// "disconnected mid-frame" error.
  void eof();

  /// Applies one already-decoded frame. The resumable server path decodes
  /// per-connection (a reconnect starts a fresh decoder while the session
  /// — and this ingestor — persist), so the decoder inside ingest() is
  /// bypassed there.
  void applyFrame(const WireFrameView &F) { apply(F); }

  /// Marks the hello handshake as done when the caller performed it
  /// itself (the resumable server owns Hello/Resume negotiation).
  void noteHello() { SawHello = true; }

  /// Freezes the stream with an externally detected failure (connection
  /// decoder desync, resume-grace expiry, ...).
  void fail(Status S) {
    if (Sticky.ok())
      Sticky = std::move(S);
  }

  bool sawHello() const { return SawHello; }
  /// The client sent Finish: no more data frames are accepted; the
  /// caller finalizes the session and replies.
  bool sawFinish() const { return SawFinish; }
  uint64_t eventsApplied() const { return EventsApplied; }
  uint64_t framesApplied() const { return FramesApplied; }

  /// The next expected Events sequence number — by construction the count
  /// of events applied so far, since frames carry their cumulative start
  /// offset. This is the value a ResumeOk/Ack advertises.
  uint64_t appliedSeq() const { return EventsApplied; }
  /// Frames skipped (fully or partially) by exactly-once dedup after a
  /// resume retransmission.
  uint64_t dupFrames() const { return DupFrames; }

  /// Sticky: first failure freezes ingestion (ok() == false from then on).
  const Status &status() const { return Sticky; }

private:
  void apply(const WireFrameView &F);
  void freeze(StatusCode Code, std::string Message);

  AnalysisSession &S;
  FrameDecoder Dec;
  std::vector<Event> Batch; ///< Reused decode buffer.
  Status Sticky;
  bool SawHello = false;
  bool SawFinish = false;
  uint64_t EventsApplied = 0;
  uint64_t FramesApplied = 0;
  uint64_t DupFrames = 0;
};

/// Blocking convenience pump: reads \p Src until EOF/Finish/failure,
/// applying everything to \p S. Returns the ingestor's sticky status (ok
/// for a clean stream). Does not call S.finish() — the caller owns the
/// session lifecycle. Control frames are protocol errors in this mode.
Status pumpFeedSource(FeedSource &Src, AnalysisSession &S,
                      size_t ChunkBytes = 64 * 1024);

} // namespace rapid

#endif // RAPID_SERVE_WIREINGESTOR_H
