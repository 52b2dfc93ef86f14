//===- serve/RaceServer.cpp - Multi-session race-analysis server --------------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//

#include "serve/RaceServer.h"

#include "api/AnalysisSession.h"
#include "io/FeedSource.h"
#include "io/WireFormat.h"
#include "serve/ReportCanon.h"
#include "serve/WireIngestor.h"
#include "support/Prng.h"
#include "support/ThreadPool.h"
#include "support/TimerWheel.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

namespace rapid {

namespace {

void setNonBlocking(int Fd) {
  const int Flags = ::fcntl(Fd, F_GETFL, 0);
  if (Flags >= 0)
    ::fcntl(Fd, F_SETFL, Flags | O_NONBLOCK);
}

/// Blocking-ish sendAll over a (possibly non-blocking) socket: polls for
/// writability with a hard deadline so a reply to a client that never
/// reads cannot wedge a pool worker forever. Returns false on error or
/// timeout.
bool sendAll(int Fd, const char *Data, size_t N, int DeadlineMs = 5000) {
  const auto Start = std::chrono::steady_clock::now();
  while (N != 0) {
    const ssize_t W = ::send(Fd, Data, N, MSG_NOSIGNAL);
    if (W > 0) {
      Data += W;
      N -= static_cast<size_t>(W);
      continue;
    }
    if (W < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)
      return false;
    const auto Elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                             std::chrono::steady_clock::now() - Start)
                             .count();
    if (Elapsed >= DeadlineMs)
      return false;
    pollfd P{Fd, POLLOUT, 0};
    ::poll(&P, 1, 50);
  }
  return true;
}

std::string reportFramePayload(uint8_t Partial, uint64_t Id,
                               const std::string &Canon) {
  std::string P;
  P.push_back(static_cast<char>(Partial));
  wirePutU64(P, Id);
  P += Canon;
  return P;
}

void stageError(std::string &Out, const Status &S,
                WireErrorCode W = WireErrorCode::Unspecified,
                uint32_t RetryAfterMs = 0) {
  WireErrorInfo E;
  E.Code = S.Code;
  E.Wire = W;
  E.Retryable = wireErrorRetryable(W);
  E.RetryAfterMs = RetryAfterMs;
  E.Message = S.Message;
  wireAppendFrame(Out, WireFrame::WireError, wireErrorPayload(E));
}

/// Bytes per socket read.
constexpr size_t ReadChunkBytes = 64 * 1024;
/// The IO loop's poll tick, and its tick while any connection is parked.
constexpr int PollTickMs = 20;
constexpr int ParkedPollMs = 1;

/// The machine-readable code a sticky ingest status maps to.
WireErrorCode wireCodeFor(const Status &S) {
  switch (S.Code) {
  case StatusCode::ValidationError:
    return WireErrorCode::Malformed;
  case StatusCode::InvalidState:
    return WireErrorCode::InvalidRequest;
  default:
    return WireErrorCode::Unspecified;
  }
}

bool isControlFrame(WireFrame T) {
  return T == WireFrame::PartialQuery || T == WireFrame::TimelineQuery ||
         T == WireFrame::ListSessions || T == WireFrame::FinalQuery;
}

uint64_t nowMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

} // namespace

struct RaceServer::Impl {
  explicit Impl(RaceServerConfig C)
      : Cfg(std::move(C)), Scope(&Reg, "serve."),
        Pool(Cfg.IngestThreads), TokenRng(nowMs() ^ 0x9e3779b97f4a7c15ull) {
    Accepted = Scope.counter("accepted");
    FinishedC = Scope.counter("finished");
    EvictedC = Scope.counter("evicted");
    ParksC = Scope.counter("parks");
    FramesC = Scope.counter("frames");
    EventsC = Scope.counter("events");
    ResumesC = Scope.counter("resumes");
    ShedC = Scope.counter("shed");
    DetachedC = Scope.counter("detached");
    GraceExpiredC = Scope.counter("grace_expired");
    IdleEvictedC = Scope.counter("idle_evicted");
    DupFramesC = Scope.counter("dup_frames");
    Active = Scope.gauge("active");
    ActivePeak = Scope.highWater("active_peak");
    Pool.attachTelemetry(Scope.nest("pool."), nullptr);
  }

  /// The persistent half: one analysis session, alive as long as the
  /// stream logically runs — across any number of connections when the
  /// client negotiated resumability.
  struct Sess {
    uint64_t Id = 0;
    uint64_t Token = 0; ///< Resume token; 0 = not resumable.
    std::unique_ptr<AnalysisSession> S;
    std::unique_ptr<WireIngestor> Ing;

    /// Held while a task (or finalize) touches the session. Cross-session
    /// queries try-lock it.
    std::mutex ProduceM;
    bool ErrorSent = false;  ///< One loud error per stream (under ProduceM).
    bool BudgetHit = false;  ///< MaxSessionEvents tripped (under ProduceM).
    uint64_t AckedSeq = 0;   ///< Last Ack staged (under ProduceM).

    // Guarded by Impl::M:
    uint64_t ConnId = 0;       ///< 0 = detached (grace window running).
    uint64_t DetachedAtMs = 0; ///< nowMs() of the detach, 0 if attached.
    uint64_t LastActivityMs = 0;
    bool Finalizing = false; ///< Claimed by exactly one finalize path.
    uint64_t EventsFed = 0;
    uint64_t Parks = 0;
    uint64_t Resumes = 0;

    // Per-session serve-side observability (serve.session.<id>.*).
    Gauge LagGauge;
    Counter ParkCtr;
  };

  /// The transient half: one accepted socket. Dies with the peer; its
  /// frame decoder dies with it, so torn bytes from a cut connection
  /// never poison the session's ingestor.
  struct Conn {
    uint64_t Id = 0;
    int Fd = -1; ///< Write side; the read side lives in Src.
    std::unique_ptr<FeedSource> Src;
    FrameDecoder Dec;      ///< Task-only.
    std::string Out;       ///< Staged replies (task-only / finalize).
    bool HelloSeen = false;
    bool CloseAfterFlush = false; ///< Shed / replayed: flush Out, close.

    // Guarded by Impl::M:
    std::shared_ptr<Sess> Ss; ///< Null until the handshake binds one.
    enum class St { Streaming, Parked, Finalizing, Done };
    St State = St::Streaming;
    bool TaskInFlight = false;
    bool PeerClosed = false;
    std::string Pending; ///< Bytes read but not yet handed to a task.
  };

  RaceServerConfig Cfg;
  MetricsRegistry Reg; ///< Always enabled (serve.* metrics).
  MetricsScope Scope;
  ThreadPool Pool;
  Prng TokenRng;

  Counter Accepted, FinishedC, EvictedC, ParksC, FramesC, EventsC;
  Counter ResumesC, ShedC, DetachedC, GraceExpiredC, IdleEvictedC, DupFramesC;
  Gauge Active;
  HighWater ActivePeak;

  mutable std::mutex M;
  std::unordered_map<uint64_t, std::shared_ptr<Conn>> Conns;
  std::unordered_map<uint64_t, std::shared_ptr<Sess>> Sessions;
  std::unordered_map<uint64_t, uint64_t> TokenToSess;
  std::vector<SessionSummary> Finished;
  uint64_t NextConnId = 1;
  uint64_t NextSessId = 1;

  TimerWheel Wheel{50, 128}; ///< IO thread only.

  std::thread Io;
  std::atomic<bool> Stopping{false};
  bool Started = false;
  int ListenFd = -1;
  int WakeR = -1, WakeW = -1;

  // ---- Lifecycle ------------------------------------------------------------

  Status start() {
    Status CS = Cfg.Session.validate();
    if (!CS.ok())
      return CS;
    if (Cfg.SocketPath.empty())
      return Status(StatusCode::InvalidConfig,
                    "RaceServerConfig::SocketPath is required");
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    if (Cfg.SocketPath.size() >= sizeof(Addr.sun_path))
      return Status(StatusCode::InvalidConfig,
                    "socket path too long: '" + Cfg.SocketPath + "'");
    std::memcpy(Addr.sun_path, Cfg.SocketPath.c_str(),
                Cfg.SocketPath.size() + 1);
    ::unlink(Cfg.SocketPath.c_str());
    ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (ListenFd < 0)
      return Status(StatusCode::IoError,
                    std::string("socket: ") + std::strerror(errno));
    if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) !=
            0 ||
        ::listen(ListenFd, 64) != 0) {
      Status S(StatusCode::IoError, "binding '" + Cfg.SocketPath +
                                        "': " + std::strerror(errno));
      ::close(ListenFd);
      ListenFd = -1;
      return S;
    }
    setNonBlocking(ListenFd);
    int Pipe[2];
    if (::pipe(Pipe) != 0) {
      ::close(ListenFd);
      ListenFd = -1;
      return Status(StatusCode::IoError,
                    std::string("pipe: ") + std::strerror(errno));
    }
    WakeR = Pipe[0];
    WakeW = Pipe[1];
    setNonBlocking(WakeR);
    setNonBlocking(WakeW);
    Started = true;
    Io = std::thread([this] { ioLoop(); });
    return Status::success();
  }

  /// Clean drain: stop accepting, join the IO thread, let in-flight tasks
  /// finish, apply every connection's buffered bytes, then finalize every
  /// live session (attached or parked in its grace window) and flush the
  /// final reports to peers that still listen.
  void stop() {
    if (!Started)
      return;
    Stopping.store(true, std::memory_order_seq_cst);
    wake();
    Io.join();
    Pool.wait();
    std::vector<std::shared_ptr<Conn>> ConnsLeft;
    std::vector<std::shared_ptr<Sess>> SessLeft;
    {
      std::lock_guard<std::mutex> G(M);
      for (auto &KV : Conns)
        ConnsLeft.push_back(KV.second);
      for (auto &KV : Sessions)
        SessLeft.push_back(KV.second);
    }
    for (const std::shared_ptr<Conn> &C : ConnsLeft) {
      std::shared_ptr<Sess> Ss;
      std::string Bytes;
      {
        std::lock_guard<std::mutex> G(M);
        Ss = C->Ss;
        Bytes.swap(C->Pending);
      }
      if (!Ss || Bytes.empty())
        continue;
      std::lock_guard<std::mutex> PL(Ss->ProduceM);
      C->Dec.append(Bytes.data(), Bytes.size());
      WireFrameView F;
      while (C->Dec.next(F) == 1) {
        if (isControlFrame(F.Type))
          continue; // No replies mid-drain.
        Ss->Ing->applyFrame(F);
        if (!Ss->Ing->status().ok())
          break;
      }
    }
    for (const std::shared_ptr<Sess> &S : SessLeft) {
      {
        std::lock_guard<std::mutex> G(M);
        if (S->Finalizing)
          continue;
        S->Finalizing = true;
      }
      std::shared_ptr<Conn> AC;
      {
        std::lock_guard<std::mutex> G(M);
        if (S->ConnId != 0) {
          auto It = Conns.find(S->ConnId);
          if (It != Conns.end())
            AC = It->second;
        }
      }
      std::lock_guard<std::mutex> PL(S->ProduceM);
      const bool Clean =
          S->Ing->sawFinish() && S->Ing->status().ok() && !S->BudgetHit;
      finalize(*S, AC.get(), Clean);
    }
    for (const std::shared_ptr<Conn> &C : ConnsLeft)
      ::shutdown(C->Fd, SHUT_RDWR);
    {
      std::lock_guard<std::mutex> G(M);
      Conns.clear();
      Sessions.clear();
      TokenToSess.clear();
    }
    ::close(ListenFd);
    ::close(WakeR);
    ::close(WakeW);
    ListenFd = WakeR = WakeW = -1;
    ::unlink(Cfg.SocketPath.c_str());
    Started = false;
  }

  void wake() {
    if (WakeW >= 0) {
      const char B = 0;
      ssize_t Ignored = ::write(WakeW, &B, 1);
      (void)Ignored;
    }
  }

  // ---- IO thread ------------------------------------------------------------

  void ioLoop() {
    std::vector<pollfd> Fds;
    std::vector<std::shared_ptr<Conn>> Polled;
    std::vector<char> Buf(ReadChunkBytes);
    uint64_t LastTickMs = nowMs();
    scheduleHousekeeping();
    while (!Stopping.load(std::memory_order_relaxed)) {
      Fds.clear();
      Polled.clear();
      Fds.push_back({WakeR, POLLIN, 0});
      Fds.push_back({ListenFd, POLLIN, 0});
      bool AnyParked = false;
      {
        std::lock_guard<std::mutex> G(M);
        for (auto &KV : Conns) {
          Conn &C = *KV.second;
          AnyParked |= C.State == Conn::St::Parked;
          if (C.State == Conn::St::Streaming && !C.TaskInFlight &&
              !C.PeerClosed) {
            Fds.push_back({C.Src->pollFd(), POLLIN, 0});
            Polled.push_back(KV.second);
          }
        }
      }
      // A parked connection resumes only from recheckParked() below, and
      // lanes drain half a budget in well under a poll tick: recheck
      // every millisecond while any connection waits on its lanes.
      ::poll(Fds.data(), Fds.size(), AnyParked ? ParkedPollMs : PollTickMs);
      if (Fds[0].revents & POLLIN) {
        char Drain[64];
        while (::read(WakeR, Drain, sizeof(Drain)) > 0)
          ;
      }
      if (Fds[1].revents & POLLIN)
        acceptAll();
      for (size_t I = 0; I != Polled.size(); ++I)
        if (Fds[I + 2].revents & (POLLIN | POLLHUP | POLLERR))
          readConn(Polled[I], Buf);
      recheckParked();
      const uint64_t Now = nowMs();
      Wheel.advance(Now - LastTickMs);
      LastTickMs = Now;
    }
  }

  void acceptAll() {
    for (;;) {
      const int Fd = ::accept(ListenFd, nullptr, nullptr);
      if (Fd < 0)
        return;
      setNonBlocking(Fd);
      auto C = std::make_shared<Conn>();
      C->Fd = Fd;
      {
        std::lock_guard<std::mutex> G(M);
        C->Id = NextConnId++;
        C->Src = makeFdFeedSource(Fd, "unix:client#" + std::to_string(C->Id));
        Conns.emplace(C->Id, C);
        Accepted.add();
      }
    }
  }

  void readConn(const std::shared_ptr<Conn> &C, std::vector<char> &Buf) {
    const long N = C->Src->read(Buf.data(), Buf.size());
    if (N == FeedSource::WouldBlock)
      return;
    std::lock_guard<std::mutex> G(M);
    if (N > 0)
      C->Pending.append(Buf.data(), static_cast<size_t>(N));
    else
      C->PeerClosed = true;
    scheduleLocked(C);
  }

  /// M held. At most one task per connection keeps the session
  /// single-producer; the pool's queue ordering gives consecutive tasks
  /// the happens-before edge.
  void scheduleLocked(const std::shared_ptr<Conn> &C) {
    if (C->TaskInFlight || C->State == Conn::St::Done ||
        C->State == Conn::St::Finalizing)
      return;
    C->TaskInFlight = true;
    Pool.submit([this, C] { process(C); });
  }

  uint64_t sessionLag(Sess &S) {
    const AnalysisSession::Progress P = S.S->progress();
    return P.Published - P.MinLaneConsumed;
  }

  // ---- Handshake ------------------------------------------------------------

  /// Creates and registers a session for \p C (admission-checked). On
  /// shed/failure stages the error on \p C and returns null.
  std::shared_ptr<Sess> openSession(Conn &C, bool Resumable) {
    {
      std::lock_guard<std::mutex> G(M);
      if (Cfg.MaxSessions != 0 && Sessions.size() >= Cfg.MaxSessions) {
        ShedC.add();
        stageError(C.Out,
                   Status(StatusCode::InvalidState,
                          "session limit (" + std::to_string(Cfg.MaxSessions) +
                              ") reached; retry later"),
                   WireErrorCode::Overloaded, Cfg.RetryAfterMs);
        C.CloseAfterFlush = true;
        return nullptr;
      }
    }
    auto Ss = std::make_shared<Sess>();
    Ss->S = std::make_unique<AnalysisSession>(Cfg.Session);
    if (!Ss->S->status().ok()) {
      stageError(C.Out, Ss->S->status(), WireErrorCode::Internal);
      C.CloseAfterFlush = true;
      return nullptr;
    }
    Ss->Ing = std::make_unique<WireIngestor>(*Ss->S);
    Ss->Ing->noteHello(); // The server consumed the Hello itself.
    {
      std::lock_guard<std::mutex> G(M);
      Ss->Id = NextSessId++;
      if (Resumable && Cfg.ResumeGraceMs != 0) {
        do {
          Ss->Token = TokenRng.next() | 1; // Nonzero and (re)drawn if taken.
        } while (TokenToSess.count(Ss->Token));
        TokenToSess.emplace(Ss->Token, Ss->Id);
      }
      Ss->ConnId = C.Id;
      Ss->LastActivityMs = nowMs();
      Ss->LagGauge = Scope.nest("session." + std::to_string(Ss->Id) + ".")
                         .gauge("lag_events");
      Ss->ParkCtr = Scope.nest("session." + std::to_string(Ss->Id) + ".")
                        .counter("parks");
      Sessions.emplace(Ss->Id, Ss);
      C.Ss = Ss;
      Active.add();
      ActivePeak.observe(Sessions.size());
    }
    return Ss;
  }

  /// Resolves a Resume frame on \p C. Returns the re-attached session, or
  /// null with the reply (ResumeOk+Report replay, busy, or unknown-token
  /// error) staged and CloseAfterFlush set.
  std::shared_ptr<Sess> resumeSession(Conn &C, const WireFrameView &F) {
    if (F.Payload.size() != 16) {
      stageError(C.Out,
                 Status(StatusCode::ValidationError,
                        "resume payload must be u64 token | u64 next-seq"),
                 WireErrorCode::Malformed);
      C.CloseAfterFlush = true;
      return nullptr;
    }
    const uint64_t Token = wireGetU64(F.Payload.data());
    std::shared_ptr<Sess> T;
    {
      std::lock_guard<std::mutex> G(M);
      auto It = TokenToSess.find(Token);
      if (It != TokenToSess.end()) {
        auto SIt = Sessions.find(It->second);
        if (SIt != Sessions.end() && !SIt->second->Finalizing) {
          if (SIt->second->ConnId != 0 && SIt->second->ConnId != C.Id) {
            // The token is the capability: the presenting connection is
            // the live one, and the old binding is a killed or zombie
            // socket the poll loop has not reaped yet (a reconnecting
            // client races its own POLLHUP). Latest wins — unbind the
            // stale conn; its hangup (or next orphaned frame) closes it.
            // Making the client wait out a Busy round-trip here would
            // add a retry-after of latency to every fast reconnect.
            auto CIt = Conns.find(SIt->second->ConnId);
            if (CIt != Conns.end()) {
              CIt->second->Ss = nullptr;
              if (CIt->second->State == Conn::St::Parked)
                CIt->second->State = Conn::St::Streaming;
            }
          }
          T = SIt->second;
          T->ConnId = C.Id;
          T->DetachedAtMs = 0;
          T->LastActivityMs = nowMs();
          ++T->Resumes;
          C.Ss = T;
        }
      }
    }
    if (T) {
      ResumesC.add();
      return T;
    }
    // A connection cut between Finish and Report lands here: the summary
    // keeps the token, so the retained report is replayed.
    std::string Canon;
    uint64_t Id = 0, Events = 0;
    bool Found = false;
    {
      std::lock_guard<std::mutex> G(M);
      for (const SessionSummary &Sum : Finished)
        if (Token != 0 && Sum.Token == Token) {
          Canon = Sum.Canon;
          Id = Sum.Id;
          Events = Sum.Events;
          Found = true;
          break;
        }
    }
    if (Found) {
      C.Out += wireResumeOkFrame(Id, Events);
      wireAppendFrame(C.Out, WireFrame::Report,
                      reportFramePayload(0, Id, Canon));
      C.CloseAfterFlush = true;
      return nullptr;
    }
    stageError(C.Out,
               Status(StatusCode::InvalidState,
                      "resume token matches no parked or finished session"),
               WireErrorCode::ResumeUnknown);
    C.CloseAfterFlush = true;
    return nullptr;
  }

  // ---- Data plane -----------------------------------------------------------

  void process(const std::shared_ptr<Conn> &C) {
    std::string Bytes;
    bool Closed;
    std::shared_ptr<Sess> Ss;
    {
      std::lock_guard<std::mutex> G(M);
      Bytes.swap(C->Pending);
      Closed = C->PeerClosed;
      Ss = C->Ss;
    }
    std::unique_lock<std::mutex> PL;
    uint64_t EvBase = 0, FrBase = 0, DupBase = 0;
    auto bind = [&](const std::shared_ptr<Sess> &S) {
      Ss = S;
      PL = std::unique_lock<std::mutex>(Ss->ProduceM);
      EvBase = Ss->Ing->eventsApplied();
      FrBase = Ss->Ing->framesApplied();
      DupBase = Ss->Ing->dupFrames();
    };
    if (Ss)
      bind(Ss);

    if (!Bytes.empty())
      C->Dec.append(Bytes.data(), Bytes.size());
    WireFrameView F;
    int R = 0;
    while (!C->CloseAfterFlush && (R = C->Dec.next(F)) == 1) {
      if (!C->HelloSeen) {
        if (F.Type != WireFrame::Hello) {
          stageError(C->Out,
                     Status(StatusCode::ValidationError,
                            std::string("first frame must be hello, got ") +
                                wireFrameName(F.Type)),
                     WireErrorCode::Malformed);
          C->CloseAfterFlush = true;
          break;
        }
        std::string Err;
        if (!wireCheckHello(F.Payload, Err)) {
          stageError(C->Out, Status(StatusCode::ValidationError, Err),
                     WireErrorCode::Malformed);
          C->CloseAfterFlush = true;
          break;
        }
        C->HelloSeen = true;
        const uint16_t Flags = wireHelloFlags(F.Payload);
        if (Flags & WireHelloAttach)
          continue; // Control-only connection; maybe a Resume follows.
        if (Stopping.load(std::memory_order_relaxed)) {
          stageError(C->Out,
                     Status(StatusCode::InvalidState,
                            "server is draining; retry elsewhere"),
                     WireErrorCode::ShuttingDown, Cfg.RetryAfterMs);
          C->CloseAfterFlush = true;
          break;
        }
        std::shared_ptr<Sess> S =
            openSession(*C, (Flags & WireHelloResumable) != 0);
        if (!S)
          break; // Shed; error staged.
        bind(S);
        // Token 0 tells the client the server has resume disabled.
        if (Flags & WireHelloResumable)
          C->Out += wireWelcomeFrame(Ss->Id, Ss->Token);
        continue;
      }
      if (!Ss) {
        if (F.Type == WireFrame::Resume) {
          std::shared_ptr<Sess> S = resumeSession(*C, F);
          if (!S)
            break; // Replay/busy/unknown staged.
          bind(S);
          C->Out += wireResumeOkFrame(Ss->Id, Ss->Ing->appliedSeq());
          Ss->AckedSeq = Ss->Ing->appliedSeq();
          continue;
        }
        if (isControlFrame(F.Type)) {
          control(*C, nullptr, F);
          continue;
        }
        stageError(C->Out,
                   Status(StatusCode::ValidationError,
                          std::string("frame ") + wireFrameName(F.Type) +
                              " on a connection with no session"),
                   WireErrorCode::InvalidRequest);
        C->CloseAfterFlush = true;
        break;
      }
      if (isControlFrame(F.Type)) {
        control(*C, Ss.get(), F);
        continue;
      }
      Ss->Ing->applyFrame(F);
      if (!Ss->Ing->status().ok())
        break;
    }
    if (R == -1 && !C->CloseAfterFlush) {
      if (Ss)
        Ss->Ing->fail(Status(StatusCode::ValidationError, C->Dec.error()));
      else {
        stageError(C->Out,
                   Status(StatusCode::ValidationError, C->Dec.error()),
                   WireErrorCode::Malformed);
        C->CloseAfterFlush = true;
      }
    }

    bool Final = false, Clean = false;
    if (Ss) {
      const bool Resumable = Ss->Token != 0;
      if (Closed && !Resumable && C->Dec.buffered() != 0)
        Ss->Ing->fail(
            Status(StatusCode::ValidationError,
                   "peer disconnected mid-frame (" +
                       std::to_string(C->Dec.buffered()) +
                       " bytes of partial frame)"));
      EventsC.add(Ss->Ing->eventsApplied() - EvBase);
      FramesC.add(Ss->Ing->framesApplied() - FrBase);
      DupFramesC.add(Ss->Ing->dupFrames() - DupBase);
      if (Cfg.Budgets.MaxSessionEvents != 0 && !Ss->BudgetHit &&
          Ss->Ing->eventsApplied() >= Cfg.Budgets.MaxSessionEvents) {
        Ss->BudgetHit = true;
        stageError(C->Out,
                   Status(StatusCode::InvalidState,
                          "session event budget (" +
                              std::to_string(Cfg.Budgets.MaxSessionEvents) +
                              ") exhausted"),
                   WireErrorCode::BudgetExhausted);
      }
      const Status &St = Ss->Ing->status();
      if (!St.ok() && !Ss->ErrorSent) {
        Ss->ErrorSent = true;
        stageError(C->Out, St, wireCodeFor(St));
      }
      if (Resumable && St.ok() &&
          Ss->Ing->appliedSeq() != Ss->AckedSeq) {
        Ss->AckedSeq = Ss->Ing->appliedSeq();
        C->Out += wireAckFrame(Ss->AckedSeq);
      }
      Clean = Ss->Ing->sawFinish() && St.ok() && !Ss->BudgetHit;
      Final = !St.ok() || Ss->Ing->sawFinish() || Ss->BudgetHit ||
              (Closed && !Resumable);
    }
    flushOut(*C);
    {
      std::lock_guard<std::mutex> G(M);
      if (C->PeerClosed)
        Closed = true;
      if (Ss && !Bytes.empty())
        Ss->LastActivityMs = nowMs();
    }

    if (Ss && Final) {
      bool Mine;
      {
        std::lock_guard<std::mutex> G(M);
        Mine = !Ss->Finalizing;
        Ss->Finalizing = true;
        C->State = Conn::St::Finalizing;
        Ss->EventsFed = Ss->Ing->eventsApplied();
      }
      if (Mine)
        finalize(*Ss, C.get(), Clean);
      closeConn(C);
      wake();
      return;
    }
    if (C->CloseAfterFlush || (Closed && !Ss)) {
      closeConn(C);
      wake();
      return;
    }
    if (Closed && Ss) {
      // Resumable peer vanished mid-stream: park the session for the
      // grace window and let the connection die alone. Unless a Resume
      // already took the session over — then this conn is the stale
      // loser of its own reconnect race and must not detach the fresh
      // binding out from under the live connection.
      bool StillMine;
      {
        std::lock_guard<std::mutex> G(M);
        StillMine = Ss->ConnId == C->Id;
        if (StillMine) {
          Ss->ConnId = 0;
          Ss->DetachedAtMs = nowMs();
        }
        Ss->EventsFed = Ss->Ing->eventsApplied();
      }
      if (StillMine)
        DetachedC.add();
      closeConn(C);
      wake();
      return;
    }
    if (Ss) {
      const uint64_t Lag = sessionLag(*Ss);
      Ss->LagGauge.set(Lag);
      std::lock_guard<std::mutex> G(M);
      Ss->EventsFed = Ss->Ing->eventsApplied();
      if (Cfg.Budgets.MaxLagEvents != 0 && Lag > Cfg.Budgets.MaxLagEvents) {
        if (C->State != Conn::St::Parked) {
          C->State = Conn::St::Parked;
          ++Ss->Parks;
          ParksC.add();
          Ss->ParkCtr.add();
        }
      } else {
        C->State = Conn::St::Streaming;
      }
      C->TaskInFlight = false;
    } else {
      std::lock_guard<std::mutex> G(M);
      C->TaskInFlight = false;
    }
    wake();
  }

  /// IO thread, every tick: resume parked connections whose consumers
  /// caught up to half the budget (hysteresis, so one borderline batch
  /// does not flap park/resume).
  void recheckParked() {
    std::vector<std::shared_ptr<Conn>> Parked;
    {
      std::lock_guard<std::mutex> G(M);
      for (auto &KV : Conns)
        if (KV.second->State == Conn::St::Parked &&
            !KV.second->TaskInFlight && KV.second->Ss)
          Parked.push_back(KV.second);
    }
    for (const std::shared_ptr<Conn> &C : Parked) {
      const uint64_t Lag = sessionLag(*C->Ss);
      C->Ss->LagGauge.set(Lag);
      if (Lag <= Cfg.Budgets.MaxLagEvents / 2) {
        std::lock_guard<std::mutex> G(M);
        if (C->State == Conn::St::Parked)
          C->State = Conn::St::Streaming;
      }
    }
  }

  // ---- Housekeeping (timer wheel, IO thread) --------------------------------

  void scheduleHousekeeping() {
    Wheel.schedule(100, [this] {
      housekeeping();
      scheduleHousekeeping();
    });
  }

  void housekeeping() {
    const uint64_t Now = nowMs();
    std::vector<std::shared_ptr<Sess>> Expired;
    std::vector<std::pair<std::shared_ptr<Sess>, std::shared_ptr<Conn>>> Idle;
    {
      std::lock_guard<std::mutex> G(M);
      for (auto &KV : Sessions) {
        Sess &S = *KV.second;
        if (S.Finalizing)
          continue;
        if (S.ConnId == 0) {
          if (S.DetachedAtMs != 0 &&
              Now - S.DetachedAtMs >= Cfg.ResumeGraceMs) {
            S.Finalizing = true;
            Expired.push_back(KV.second);
          }
          continue;
        }
        if (Cfg.IdleTimeoutMs != 0 &&
            Now - S.LastActivityMs >= Cfg.IdleTimeoutMs) {
          auto CIt = Conns.find(S.ConnId);
          if (CIt != Conns.end() && !CIt->second->TaskInFlight &&
              CIt->second->State != Conn::St::Done &&
              CIt->second->State != Conn::St::Finalizing) {
            S.Finalizing = true;
            CIt->second->State = Conn::St::Finalizing;
            Idle.emplace_back(KV.second, CIt->second);
          }
        }
      }
      if (Cfg.RosterMax != 0 && Finished.size() > Cfg.RosterMax)
        Finished.erase(Finished.begin(),
                       Finished.end() - static_cast<ptrdiff_t>(Cfg.RosterMax));
    }
    for (const std::shared_ptr<Sess> &S : Expired) {
      GraceExpiredC.add();
      std::lock_guard<std::mutex> PL(S->ProduceM);
      S->Ing->fail(Status(StatusCode::IoError,
                          "resume grace window expired with the session "
                          "detached"));
      finalize(*S, nullptr, /*Clean=*/false);
    }
    for (auto &P : Idle) {
      IdleEvictedC.add();
      std::lock_guard<std::mutex> PL(P.first->ProduceM);
      P.first->Ing->fail(
          Status(StatusCode::InvalidState,
                 "session idle past " + std::to_string(Cfg.IdleTimeoutMs) +
                     " ms; evicted"));
      finalize(*P.first, P.second.get(), /*Clean=*/false);
      closeConn(P.second);
    }
  }

  // ---- Finalization ---------------------------------------------------------

  /// S.ProduceM held; the caller claimed S.Finalizing under M (or is the
  /// single-threaded stop() drain). Finishes the session, retains the
  /// summary, stages the report on \p C if it still listens.
  void finalize(Sess &S, Conn *C, bool Clean) {
    AnalysisResult R = S.S->finish();
    SessionSummary Sum;
    Sum.Id = S.Id;
    Sum.Events = R.EventsIngested;
    Sum.CleanFinish = Clean;
    Sum.Token = S.Token;
    Sum.DupFrames = S.Ing->dupFrames();
    Sum.Outcome = !S.Ing->status().ok() ? S.Ing->status() : R.firstError();
    if (S.BudgetHit && Sum.Outcome.ok())
      Sum.Outcome = Status(StatusCode::InvalidState, "event budget exhausted");
    Sum.Canon = canonicalReport(R, S.S->trace());
    if (C) {
      bool PC;
      {
        std::lock_guard<std::mutex> G(M);
        PC = C->PeerClosed;
      }
      if (!PC) {
        if (Sum.Canon.size() + 16 <= WireMaxPayload)
          wireAppendFrame(C->Out, WireFrame::Report,
                          reportFramePayload(0, S.Id, Sum.Canon));
        else
          stageError(C->Out,
                     Status(StatusCode::AnalysisError,
                            "final report exceeds the frame cap"),
                     WireErrorCode::Internal);
        flushOut(*C);
      }
    }
    {
      std::lock_guard<std::mutex> G(M);
      Sum.Parks = S.Parks;
      Sum.Resumes = S.Resumes;
      S.EventsFed = S.Ing->eventsApplied();
      Finished.push_back(std::move(Sum));
      Sessions.erase(S.Id);
      if (S.Token != 0)
        TokenToSess.erase(S.Token);
      Active.sub();
      if (Clean)
        FinishedC.add();
      else
        EvictedC.add();
    }
  }

  void closeConn(const std::shared_ptr<Conn> &C) {
    ::shutdown(C->Fd, SHUT_RDWR);
    std::lock_guard<std::mutex> G(M);
    C->State = Conn::St::Done;
    C->TaskInFlight = false;
    C->Ss.reset();
    Conns.erase(C->Id);
  }

  /// Task-exclusive (or finalize-path) on C.
  void flushOut(Conn &C) {
    if (C.Out.empty())
      return;
    if (!sendAll(C.Fd, C.Out.data(), C.Out.size())) {
      std::lock_guard<std::mutex> G(M);
      C.PeerClosed = true;
    }
    C.Out.clear();
  }

  // ---- Control plane --------------------------------------------------------

  /// Runs inside C's task (Self's ProduceM held when non-null) when a
  /// query frame arrives. Replies are staged into C.Out.
  void control(Conn &C, Sess *Self, const WireFrameView &F) {
    switch (F.Type) {
    case WireFrame::PartialQuery:
    case WireFrame::TimelineQuery: {
      uint64_t Target = Self ? Self->Id : 0;
      if (!F.Payload.empty()) {
        if (F.Payload.size() != 8) {
          stageError(C.Out,
                     Status(StatusCode::ValidationError,
                            "query payload must be empty or a u64"),
                     WireErrorCode::InvalidRequest);
          return;
        }
        Target = wireGetU64(F.Payload.data());
      } else if (!Self) {
        stageError(C.Out,
                   Status(StatusCode::InvalidState,
                          "no session on this connection; query by id"),
                   WireErrorCode::InvalidRequest);
        return;
      }
      if (Self && Target == Self->Id) {
        stageQueryReply(C, *Self, F.Type);
        return;
      }
      std::shared_ptr<Sess> T;
      {
        std::lock_guard<std::mutex> G(M);
        auto It = Sessions.find(Target);
        if (It != Sessions.end() && !It->second->Finalizing)
          T = It->second;
      }
      if (!T) {
        stageError(C.Out,
                   Status(StatusCode::InvalidState,
                          "session " + std::to_string(Target) +
                              " is not live (try final-query if finished)"),
                   WireErrorCode::InvalidRequest);
        return;
      }
      // Try-lock with a bounded retry: the target's producer may be mid-
      // batch. "busy" beats a cross-session lock cycle.
      for (int Attempt = 0; Attempt != 200; ++Attempt) {
        if (T->ProduceM.try_lock()) {
          std::lock_guard<std::mutex> TL(T->ProduceM, std::adopt_lock);
          stageQueryReply(C, *T, F.Type);
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
      stageError(C.Out,
                 Status(StatusCode::InvalidState,
                        "session " + std::to_string(Target) +
                            " is busy; retry"),
                 WireErrorCode::Busy, Cfg.RetryAfterMs);
      return;
    }
    case WireFrame::ListSessions: {
      std::string Roster;
      {
        std::lock_guard<std::mutex> G(M);
        Roster += "sessions active " + std::to_string(Sessions.size()) +
                  " finished " + std::to_string(Finished.size()) + "\n";
        for (auto &KV : Sessions) {
          const Sess &L = *KV.second;
          const char *State = "streaming";
          if (L.ConnId == 0) {
            State = "detached";
          } else {
            auto CIt = Conns.find(L.ConnId);
            if (CIt != Conns.end()) {
              if (CIt->second->State == Conn::St::Parked)
                State = "parked";
              else if (CIt->second->State == Conn::St::Finalizing)
                State = "finalizing";
            }
          }
          Roster += "session " + std::to_string(L.Id) + " state " + State +
                    " events " + std::to_string(L.EventsFed) + " parks " +
                    std::to_string(L.Parks) + "\n";
        }
        for (const SessionSummary &Sum : Finished)
          Roster += "finished " + std::to_string(Sum.Id) + " events " +
                    std::to_string(Sum.Events) + " parks " +
                    std::to_string(Sum.Parks) + " clean " +
                    (Sum.CleanFinish ? "1" : "0") + " status " +
                    Sum.Outcome.str() + "\n";
      }
      wireAppendFrame(C.Out, WireFrame::SessionList, Roster);
      return;
    }
    case WireFrame::FinalQuery: {
      if (F.Payload.size() != 8) {
        stageError(C.Out,
                   Status(StatusCode::ValidationError,
                          "final-query payload must be a u64"),
                   WireErrorCode::InvalidRequest);
        return;
      }
      const uint64_t Target = wireGetU64(F.Payload.data());
      std::string Canon;
      bool Found = false;
      {
        std::lock_guard<std::mutex> G(M);
        for (const SessionSummary &Sum : Finished)
          if (Sum.Id == Target) {
            Canon = Sum.Canon;
            Found = true;
            break;
          }
      }
      if (!Found) {
        stageError(C.Out,
                   Status(StatusCode::InvalidState,
                          "session " + std::to_string(Target) +
                              " has no retained final report"),
                   WireErrorCode::InvalidRequest);
        return;
      }
      wireAppendFrame(C.Out, WireFrame::Report,
                      reportFramePayload(0, Target, Canon));
      return;
    }
    default:
      stageError(C.Out,
                 Status(StatusCode::ValidationError,
                        std::string("unexpected control frame ") +
                            wireFrameName(F.Type)),
                 WireErrorCode::InvalidRequest);
      return;
    }
  }

  /// Stages a partial-report or timeline reply about \p T into \p C.Out.
  /// Caller holds T.ProduceM (and the conn's own session lock; they may
  /// be the same).
  void stageQueryReply(Conn &C, Sess &T, WireFrame Kind) {
    if (Kind == WireFrame::PartialQuery) {
      AnalysisResult PR = T.S->partialResult();
      const std::string Canon = canonicalReport(PR, T.S->trace());
      if (Canon.size() + 16 > WireMaxPayload) {
        stageError(C.Out,
                   Status(StatusCode::AnalysisError,
                          "partial report exceeds the frame cap"),
                   WireErrorCode::Internal);
        return;
      }
      wireAppendFrame(C.Out, WireFrame::Report,
                      reportFramePayload(1, T.Id, Canon));
      return;
    }
    const std::string Json = T.S->exportTimeline();
    if (Json.size() > WireMaxPayload) {
      stageError(C.Out,
                 Status(StatusCode::AnalysisError,
                        "timeline exceeds the frame cap"),
                 WireErrorCode::Internal);
      return;
    }
    wireAppendFrame(C.Out, WireFrame::Timeline, Json);
  }
};

RaceServer::RaceServer(RaceServerConfig Config)
    : I(std::make_unique<Impl>(std::move(Config))) {}

RaceServer::~RaceServer() { I->stop(); }

Status RaceServer::start() { return I->start(); }

void RaceServer::stop() { I->stop(); }

const std::string &RaceServer::socketPath() const { return I->Cfg.SocketPath; }

std::vector<SessionSummary> RaceServer::finishedSessions() const {
  std::lock_guard<std::mutex> G(I->M);
  return I->Finished;
}

uint64_t RaceServer::activeSessions() const {
  std::lock_guard<std::mutex> G(I->M);
  return I->Sessions.size();
}

std::vector<MetricSample> RaceServer::metrics() const {
  return I->Reg.snapshotPrefix("serve.");
}

} // namespace rapid
