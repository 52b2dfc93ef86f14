//===- serve/ResumableSender.h - Exactly-once resumable sending -*- C++ -*-===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The client side of the serving layer's fault-tolerance protocol
/// (docs/SERVING.md, "Reconnect and resume"), written once for both
/// clients: serve/WireClient (tests, tools) and the LD_PRELOAD interposer
/// (examples/interpose/). A ResumableSender owns one Unix-socket
/// connection to race_serverd. After a resumable handshake it delivers
/// every Declare, Events and Finish frame exactly once across connection
/// loss:
///
///   - retries of the handshake (Hello with the Resumable flag, Welcome
///     reply) and of a reconnect back off exponentially with jitter, or
///     for exactly the retry-after hint of a retryable WireError; only a
///     retry right after the server answered a Resume goes at once;
///   - Events frames carry sequence numbers and stay in a spill buffer
///     until an Ack or ResumeOk reports them applied;
///   - on a dead socket one loop reconnects, sends Hello(attach) +
///     Resume(token, next-seq), and retransmits the declares, the unacked
///     spill and a sent Finish. Every failure in that loop, one during the
///     retransmit included, spends one attempt of the outage's budget.
///
/// A Welcome with token 0 means the server has resume disabled: frames
/// are then sent once, and a lost connection is an error, never a second
/// session.
///
/// Header-only on purpose: the interposer is a preloaded shared object
/// and must not link the static rapid library, so this file includes only
/// header-only code (the inline half of io/WireFormat.h, support/Status.h,
/// support/Prng.h). CI checks that librace_interpose.so has no undefined
/// rapid:: symbols.
///
//===----------------------------------------------------------------------===//

#ifndef RAPID_SERVE_RESUMABLESENDER_H
#define RAPID_SERVE_RESUMABLESENDER_H

#include "io/WireFormat.h"
#include "support/Prng.h"
#include "support/Status.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <deque>
#include <string>
#include <string_view>
#include <thread>
#include <utility>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace rapid {

/// Bounded reconnect policy of a resumable sender.
struct WireRetryPolicy {
  int MaxAttempts = 8;     ///< Connect/resume attempts per outage.
  uint64_t JitterSeed = 1; ///< Deterministic backoff jitter stream.
};

/// Deterministic client-side fault injection: kill the connection (close
/// the fd mid-send) \p Kills times, at seeded byte offsets spaced
/// [MinGapBytes, MaxGapBytes] apart. Zero Kills disables the plan. Same
/// seed, same kill schedule — the reconnect tests are exact replays.
struct WireFaultPlan {
  uint64_t Seed = 1;
  int Kills = 0;
  uint64_t MinGapBytes = 512;
  uint64_t MaxGapBytes = 16384;
};

/// First reconnect delay in ms (doubling per attempt) and its cap.
inline constexpr uint64_t WireBackoffBaseMs = 2;
inline constexpr uint64_t WireBackoffMaxMs = 500;
/// Cap on the unacknowledged Events bytes a resumable sender keeps.
inline constexpr size_t WireSpillMaxBytes = 8u << 20;

/// One blocking connection to race_serverd, resumable after handshake().
class ResumableSender {
public:
  ResumableSender() = default;
  ~ResumableSender() { close(); }

  ResumableSender(const ResumableSender &) = delete;
  ResumableSender &operator=(const ResumableSender &) = delete;

  // ---- The connection -------------------------------------------------------

  /// Connects to \p SocketPath, retrying for up to \p RetryMs (covers
  /// "server still binding"; 0 = one attempt). Closes any previous
  /// connection first.
  Status connect(const std::string &SocketPath, int RetryMs = 0) {
    close();
    Path = SocketPath;
    sockaddr_un Addr{};
    Addr.sun_family = AF_UNIX;
    if (Path.size() >= sizeof(Addr.sun_path))
      return Status(StatusCode::InvalidConfig,
                    "socket path too long: '" + Path + "'");
    std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
    const auto Start = std::chrono::steady_clock::now();
    for (;;) {
      const int S = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (S < 0)
        return Status(StatusCode::IoError,
                      std::string("socket: ") + std::strerror(errno));
      if (::connect(S, reinterpret_cast<const sockaddr *>(&Addr),
                    sizeof(Addr)) == 0) {
        Fd = S;
        return Status::success();
      }
      const int E = errno;
      ::close(S);
      if (std::chrono::steady_clock::now() - Start >=
          std::chrono::milliseconds(RetryMs))
        return Status(StatusCode::IoError, "connecting to '" + Path +
                                               "': " + std::strerror(E));
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }

  /// Writes all of \p Bytes. The connection stays open on failure.
  Status sendBytes(std::string_view Bytes) {
    if (Fd < 0)
      return Status(StatusCode::InvalidState, "client is not connected");
    while (!Bytes.empty()) {
      const ssize_t W = ::send(Fd, Bytes.data(), Bytes.size(), MSG_NOSIGNAL);
      if (W < 0) {
        if (errno == EINTR)
          continue;
        return Status(StatusCode::IoError,
                      std::string("send: ") + std::strerror(errno));
      }
      Bytes.remove_prefix(static_cast<size_t>(W));
    }
    return Status::success();
  }

  /// Blocks until one complete frame arrives (or \p TimeoutMs passes /
  /// the peer hangs up / the stream desyncs).
  Status readFrame(WireFrame &Type, std::string &Payload,
                   int TimeoutMs = 10000) {
    if (Fd < 0)
      return Status(StatusCode::InvalidState, "client is not connected");
    const auto Deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(TimeoutMs);
    char Buf[4096];
    for (;;) {
      WireFrameView F;
      const int R = Dec.next(F);
      if (R == 1) {
        Type = F.Type;
        Payload.assign(F.Payload.data(), F.Payload.size());
        return Status::success();
      }
      if (R == -1)
        return Status(StatusCode::ValidationError, Dec.error());
      if (std::chrono::steady_clock::now() >= Deadline)
        return Status(StatusCode::IoError, "timed out waiting for a frame");
      pollfd P{Fd, POLLIN, 0};
      if (::poll(&P, 1, 100) <= 0)
        continue;
      const ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
      if (N == 0)
        return Status(StatusCode::IoError, "peer closed before a full frame");
      if (N < 0) {
        if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)
          continue;
        return Status(StatusCode::IoError,
                      std::string("recv: ") + std::strerror(errno));
      }
      Dec.append(Buf, static_cast<size_t>(N));
    }
  }

  void close() {
    if (Fd >= 0) {
      ::close(Fd);
      Fd = -1;
    }
    Dec = FrameDecoder();
  }

  // ---- The resumable session ------------------------------------------------

  /// Opens a resumable session on \p SocketPath (reusing an open
  /// connection): Hello(Resumable), then Welcome. Retryable refusals
  /// (overloaded, draining) are retried within \p P's attempt budget.
  Status handshake(const std::string &SocketPath, int RetryMs,
                   WireRetryPolicy P) {
    Path = SocketPath;
    Policy = P;
    Jitter.reseed(P.JitterSeed);
    return attach(/*Fresh=*/true, RetryMs);
  }

  /// Installs a deterministic kill schedule (before or mid-stream).
  void setFaultPlan(const WireFaultPlan &P) {
    Plan = P;
    KillRng.reseed(P.Seed);
    KillsLeft = P.Kills;
    scheduleKill();
  }

  /// Sends Declare frames, replayed on every resume (interning dedupes,
  /// so the replay is idempotent).
  Status sendDeclares(std::string Frames) {
    if (Frames.empty())
      return Status::success();
    if (Token != 0)
      DeclareLog += Frames;
    return deliver(Frames);
  }

  /// Sends one Events frame, which must start at sequence nextSeq(), and
  /// spills it until the server acknowledges it. Past WireSpillMaxBytes
  /// of unacked frames it sends nothing and returns InvalidState.
  Status sendEvents(std::string Frame) {
    const uint64_t End = NextSeq + wireEventsInFrame(Frame);
    if (Token == 0) {
      NextSeq = End;
      return deliver(Frame);
    }
    if (SpillBytes + Frame.size() > WireSpillMaxBytes)
      return Status(StatusCode::InvalidState,
                    "resume spill buffer overflow (" +
                        std::to_string(SpillBytes) + " bytes unacked)");
    NextSeq = End;
    SpillBytes += Frame.size();
    Spill.emplace_back(End, std::move(Frame));
    return deliver(Spill.back().second);
  }

  /// Sends Finish, re-sent after any resume (the server treats it
  /// idempotently).
  Status sendFinish() {
    FinishSent = true;
    return deliver(wireFinishFrame());
  }

  /// Blocks up to \p TimeoutMs for the final Report payload, resuming
  /// across connection loss.
  Status awaitReport(std::string &Payload, int TimeoutMs = 20000) {
    const auto Deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(TimeoutMs);
    while (!HasReport) {
      if (!ServerError.ok())
        return ServerError;
      const auto Left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            Deadline - std::chrono::steady_clock::now())
                            .count();
      if (Left <= 0)
        return Status(StatusCode::IoError, "timed out waiting for the report");
      if (Fd < 0) {
        Status S = attach(/*Fresh=*/false, 0);
        if (!S.ok())
          return S;
        continue;
      }
      WireFrame T;
      std::string P;
      Status S = readFrame(T, P, static_cast<int>(Left));
      if (S.ok())
        onFrame(T, P);
      else if (S.Code == StatusCode::IoError)
        close(); // A hangup resumes on the next lap; a timeout ends it.
      else
        return S;
    }
    HasReport = false;
    Payload = std::move(Report);
    return Status::success();
  }

  /// Stops resuming: forgets the token, the declare log and the spill, so
  /// later frames are sent once and a lost connection ends the session.
  void dropResume() {
    Token = 0;
    DeclareLog.clear();
    Spill.clear();
    SpillBytes = 0;
  }

  uint64_t token() const { return Token; }
  /// Successful resume round-trips (the pins compare this with the fault
  /// plan's kill count and the server's resume count).
  uint64_t reconnects() const { return Reconnects; }
  /// Events sent so far: the sequence number of the next Events frame.
  uint64_t nextSeq() const { return NextSeq; }
  size_t spillBytes() const { return SpillBytes; }

private:
  /// Sends \p Bytes, which the replay state already holds, on the live
  /// connection; after a loss the resume's retransmit carries them.
  Status deliver(std::string_view Bytes) {
    if (!ServerError.ok())
      return ServerError;
    pollInput();
    if (Fd >= 0 && transmit(Bytes).ok())
      return Status::success();
    return attach(/*Fresh=*/false, 0);
  }

  /// A fresh handshake or a resume, within one outage's attempt budget.
  Status attach(bool Fresh, int RetryMs) {
    if (!ServerError.ok())
      return ServerError;
    if (!Fresh && Token == 0)
      return Status(StatusCode::IoError,
                    "connection lost, and the server granted no resume token");
    Status Last(StatusCode::IoError, "no connection attempts allowed");
    bool Reached = true; // The server answered the last attempt's Resume.
    for (int Attempt = 0; Attempt < Policy.MaxAttempts; ++Attempt) {
      if (!Reached || HintMs != 0)
        backoff(Attempt);
      const uint64_t Resumed = Reconnects;
      Last = attachOnce(Fresh, RetryMs);
      Reached = Reconnects != Resumed;
      // A Report salvaged from a dying connection also ends the outage:
      // the session is finished and there is nothing left to send.
      if (Last.ok() || HasReport)
        return Status::success();
      close();
      if (!ServerError.ok())
        return ServerError;
    }
    return Last;
  }

  Status attachOnce(bool Fresh, int RetryMs) {
    Status S = Fd >= 0 ? Status::success() : connect(Path, RetryMs);
    if (S.ok())
      S = transmit(Fresh ? wireHelloFrame(WireHelloResumable)
                         : wireHelloFrame(WireHelloAttach) +
                               wireResumeFrame(Token, NextSeq));
    WireFrame T = WireFrame::Hello;
    std::string P;
    if (S.ok())
      S = readFrame(T, P, 5000);
    if (!S.ok())
      return S;
    if (T != (Fresh ? WireFrame::Welcome : WireFrame::ResumeOk) ||
        P.size() != 16) {
      S = onFrame(T, P); // A WireError: fatal, or a retry-after hint.
      return S.ok() ? Status(StatusCode::ValidationError,
                             "unexpected frame type " +
                                 std::to_string(static_cast<int>(T)) +
                                 " in the handshake")
                    : S;
    }
    if (Fresh) {
      Token = wireGetU64(P.data() + 8);
      return Status::success();
    }
    ++Reconnects;
    acknowledge(wireGetU64(P.data() + 8));
    return retransmit();
  }

  /// Replays, on a resumed connection, everything the server may lack.
  Status retransmit() {
    Status S = transmit(DeclareLog);
    // By index: a failed transmit may trim the spill's front.
    for (size_t I = 0; S.ok() && I != Spill.size(); ++I)
      S = transmit(Spill[I].second);
    if (S.ok() && FinishSent)
      S = transmit(wireFinishFrame());
    return S;
  }

  /// sendBytes under the fault plan. Any failure closes the connection;
  /// a real one first handles what the server sent before hanging up (a
  /// replayed Report, say), an injected kill just drops the socket.
  Status transmit(std::string_view Bytes) {
    const bool Kill = KillsLeft > 0 && Bytes.size() > NextKillAt - SentBytes;
    if (Kill)
      Bytes = Bytes.substr(0, NextKillAt - SentBytes);
    Status S = sendBytes(Bytes);
    if (S.ok()) {
      SentBytes += Bytes.size();
      if (!Kill)
        return S;
      --KillsLeft;
      scheduleKill();
      S = Status(StatusCode::IoError, "injected connection kill");
    } else {
      pollInput();
    }
    close();
    return S;
  }

  /// Handles, without blocking, whatever the server has sent.
  void pollInput() {
    char Buf[4096];
    bool Hangup = false;
    while (Fd >= 0) {
      pollfd P{Fd, POLLIN, 0};
      if (::poll(&P, 1, 0) <= 0)
        break;
      const ssize_t N = ::recv(Fd, Buf, sizeof(Buf), MSG_DONTWAIT);
      if (N > 0) {
        Dec.append(Buf, static_cast<size_t>(N));
        continue;
      }
      if (N < 0 && errno == EINTR)
        continue;
      Hangup = N == 0;
      break;
    }
    WireFrameView F;
    while (Fd >= 0 && Dec.next(F) == 1)
      onFrame(F.Type, F.Payload);
    if (Hangup)
      close();
  }

  /// The one handler for server frames. Returns the error a WireError
  /// carried: a fatal one is also kept sticky, a retryable one closes the
  /// connection and sets the next backoff to its retry-after hint.
  Status onFrame(WireFrame T, std::string_view P) {
    switch (T) {
    case WireFrame::Ack:
      if (P.size() == 8)
        acknowledge(wireGetU64(P.data()));
      return Status::success();
    case WireFrame::Report:
      HasReport = true;
      Report.assign(P.data(), P.size());
      return Status::success();
    case WireFrame::WireError: {
      WireErrorInfo E;
      if (!wireParseError(P, E) || E.Message.empty())
        E.Message = "server error frame without a message";
      const Status S(E.Code == StatusCode::Ok ? StatusCode::InvalidState
                                              : E.Code,
                     E.Message);
      if (E.Retryable)
        HintMs = E.RetryAfterMs;
      else
        ServerError = S;
      close();
      return S;
    }
    default:
      return Status::success(); // Welcome/ResumeOk replays and the like.
    }
  }

  /// Drops every spilled frame the server has applied.
  void acknowledge(uint64_t Applied) {
    while (!Spill.empty() && Spill.front().first <= Applied) {
      SpillBytes -= Spill.front().second.size();
      Spill.pop_front();
    }
  }

  void backoff(int Attempt) {
    uint64_t DelayMs =
        HintMs != 0 ? HintMs
                    : std::min(WireBackoffMaxMs,
                               WireBackoffBaseMs << std::min(Attempt, 20));
    HintMs = 0;
    DelayMs += Jitter.nextBelow(DelayMs / 2 + 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(DelayMs));
  }

  void scheduleKill() {
    const uint64_t Span = Plan.MaxGapBytes >= Plan.MinGapBytes
                              ? Plan.MaxGapBytes - Plan.MinGapBytes
                              : 0;
    NextKillAt = SentBytes + Plan.MinGapBytes + KillRng.nextBelow(Span + 1);
  }

  int Fd = -1;
  FrameDecoder Dec;
  std::string Path;
  WireRetryPolicy Policy;
  Prng Jitter{1};
  uint32_t HintMs = 0; ///< Retry-after hint for the next backoff.

  uint64_t Token = 0;   ///< Welcome's resume token; 0 = not resumable.
  uint64_t NextSeq = 0; ///< Events sent so far (next frame's start).
  uint64_t Reconnects = 0;
  bool FinishSent = false;
  std::string DeclareLog; ///< Every declare frame, replayed on resume.
  /// Unacked Events frames: (end seq, framed bytes), in sequence order.
  std::deque<std::pair<uint64_t, std::string>> Spill;
  size_t SpillBytes = 0;
  Status ServerError; ///< Sticky non-retryable WireError from the server.
  bool HasReport = false;
  std::string Report; ///< Report read ahead of awaitReport.

  // Fault injection.
  WireFaultPlan Plan;
  Prng KillRng{1};
  int KillsLeft = 0;
  uint64_t SentBytes = 0;
  uint64_t NextKillAt = 0;
};

} // namespace rapid

#endif // RAPID_SERVE_RESUMABLESENDER_H
