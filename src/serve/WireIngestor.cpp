//===- serve/WireIngestor.cpp - Frames -> AnalysisSession ---------------------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//

#include "serve/WireIngestor.h"

#include "api/AnalysisSession.h"
#include "io/FeedSource.h"

#include <chrono>
#include <thread>

#include <poll.h>

namespace rapid {

void WireIngestor::freeze(StatusCode Code, std::string Message) {
  if (Sticky.ok())
    Sticky = Status(Code, std::move(Message));
}

void WireIngestor::ingest(const char *Data, size_t N) {
  // A dead stream still consumes bytes (so a pumping caller drains to
  // EOF instead of spinning) but applies nothing.
  if (!Sticky.ok())
    return;
  Dec.append(Data, N);
  WireFrameView F;
  int R;
  while ((R = Dec.next(F)) == 1) {
    apply(F);
    if (!Sticky.ok())
      return;
  }
  if (R == -1)
    freeze(StatusCode::ValidationError, Dec.error());
}

void WireIngestor::eof() {
  if (!Sticky.ok())
    return;
  if (Dec.buffered() != 0)
    freeze(StatusCode::ValidationError,
           "peer disconnected mid-frame (" +
               std::to_string(Dec.buffered()) + " bytes of partial frame)");
}

void WireIngestor::apply(const WireFrameView &F) {
  if (!SawHello && F.Type != WireFrame::Hello) {
    freeze(StatusCode::ValidationError,
           std::string("first frame must be hello, got ") +
               wireFrameName(F.Type));
    return;
  }
  switch (F.Type) {
  case WireFrame::Hello: {
    std::string Err;
    if (SawHello)
      freeze(StatusCode::ValidationError, "duplicate hello");
    else if (!wireCheckHello(F.Payload, Err))
      freeze(StatusCode::ValidationError, std::move(Err));
    else
      SawHello = true;
    return;
  }
  case WireFrame::Declare: {
    if (SawFinish) {
      freeze(StatusCode::InvalidState, "declare after finish");
      return;
    }
    Status DS = forEachDeclareEntry(
        F.Payload, [&](WireDeclareKind K, std::string_view Name) {
          switch (K) {
          case WireDeclareKind::Thread:
            S.declareThread(Name);
            break;
          case WireDeclareKind::Lock:
            S.declareLock(Name);
            break;
          case WireDeclareKind::Var:
            S.declareVar(Name);
            break;
          case WireDeclareKind::Loc:
            S.declareLoc(Name);
            break;
          }
          return Status::success();
        });
    if (!DS.ok())
      freeze(DS.Code, DS.Message);
    else
      ++FramesApplied;
    return;
  }
  case WireFrame::Events: {
    if (SawFinish) {
      freeze(StatusCode::InvalidState, "events after finish");
      return;
    }
    Batch.clear();
    uint64_t Seq = 0;
    Status DS = decodeEventsPayload(F.Payload, Seq, Batch);
    if (!DS.ok()) {
      freeze(DS.Code, DS.Message);
      return;
    }
    // Exactly-once over resume retransmissions: the frame declares the
    // cumulative event offset it starts at, and EventsApplied is the
    // offset we have consumed. A frame from the future means the client
    // skipped acknowledged-but-never-sent data — unrecoverable; a frame
    // wholly in the past is a retransmit of applied work and is dropped;
    // a straddling frame (the connection died inside a batch) sheds its
    // already-applied prefix.
    if (Seq > EventsApplied) {
      freeze(StatusCode::ValidationError,
             "events frame starts at sequence " + std::to_string(Seq) +
                 " but only " + std::to_string(EventsApplied) +
                 " events were received (gap)");
      return;
    }
    if (Seq + Batch.size() <= EventsApplied) {
      ++DupFrames;
      return;
    }
    if (Seq < EventsApplied) {
      Batch.erase(Batch.begin(),
                  Batch.begin() + static_cast<ptrdiff_t>(EventsApplied - Seq));
      ++DupFrames;
    }
    Status FS = S.feed(Batch);
    if (!FS.ok()) {
      // Undeclared ids, §2.1 violations, feed-after-finish: all freeze
      // the stream as the serve layer's sticky ValidationError.
      freeze(FS.Code == StatusCode::Ok ? StatusCode::ValidationError : FS.Code,
             FS.Message);
      return;
    }
    EventsApplied += Batch.size();
    ++FramesApplied;
    return;
  }
  case WireFrame::Finish:
    SawFinish = true;
    return;
  case WireFrame::PartialQuery:
  case WireFrame::TimelineQuery:
  case WireFrame::ListSessions:
  case WireFrame::FinalQuery:
    freeze(StatusCode::ValidationError,
           std::string("control frame ") + wireFrameName(F.Type) +
               " on a data-only feed");
    return;
  case WireFrame::Resume:
    // Resume is a handshake frame; by the time frames reach the ingestor
    // the connection is attached, so a mid-stream Resume is a protocol
    // error just like a duplicate Hello.
    freeze(StatusCode::ValidationError, "resume after handshake");
    return;
  case WireFrame::Report:
  case WireFrame::Timeline:
  case WireFrame::SessionList:
  case WireFrame::WireError:
  case WireFrame::ResumeOk:
  case WireFrame::Ack:
  case WireFrame::Welcome:
    freeze(StatusCode::ValidationError,
           std::string("server-only frame ") + wireFrameName(F.Type) +
               " from a client");
    return;
  }
}

Status pumpFeedSource(FeedSource &Src, AnalysisSession &S, size_t ChunkBytes) {
  WireIngestor Ing(S);
  std::vector<char> Buf(ChunkBytes ? ChunkBytes : 1);
  for (;;) {
    const long N = Src.read(Buf.data(), Buf.size());
    if (N == FeedSource::Eof) {
      Ing.eof();
      break;
    }
    if (N == FeedSource::WouldBlock) {
      // Non-blocking fds (and injected EAGAIN faults) land here: wait for
      // readability instead of spinning. Sources without a pollable fd
      // (the shm ring, fault decorators over it) get a short sleep.
      const int Fd = Src.pollFd();
      if (Fd >= 0) {
        pollfd P{Fd, POLLIN, 0};
        (void)::poll(&P, 1, 10);
      } else {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      continue;
    }
    if (N < 0)
      return Src.status();
    Ing.ingest(Buf.data(), static_cast<size_t>(N));
    if (Ing.sawFinish())
      break;
  }
  return Ing.status();
}

} // namespace rapid
