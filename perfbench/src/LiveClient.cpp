//===- LiveClient.cpp - The benchmark's own wire client -------------------===//
//
// Part of rapidpp's benchmark (perfbench/).
//
//===----------------------------------------------------------------------===//

#include "LiveClient.h"

#include "Spans.h"

#include "trace/Trace.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>

using namespace perfbench;
using namespace rapid;

/// Whole-stream deadline: a healthy run finishes in well under a second.
static constexpr int StreamTimeoutMs = 60000;

LiveClient::~LiveClient() {
  if (Fd >= 0)
    ::close(Fd);
}

static Status ioError(const char *What) {
  return Status(StatusCode::IoError,
                std::string(What) + ": " + std::strerror(errno));
}

template <typename AckFn>
Status LiveClient::readFrames(int TimeoutMs, AckFn &&OnAck) {
  pollfd P{Fd, POLLIN, 0};
  const int R = ::poll(&P, 1, TimeoutMs);
  if (R < 0)
    return errno == EINTR ? Status::success() : ioError("poll");
  if (R == 0)
    return Status::success();
  char Buf[64 * 1024];
  const ssize_t N = ::recv(Fd, Buf, sizeof(Buf), MSG_DONTWAIT);
  if (N < 0)
    return errno == EAGAIN || errno == EINTR ? Status::success()
                                             : ioError("recv");
  if (N == 0)
    return Status(StatusCode::IoError, "server closed the connection");
  Dec.append(Buf, static_cast<size_t>(N));
  WireFrameView F;
  int D;
  while ((D = Dec.next(F)) == 1) {
    switch (F.Type) {
    case WireFrame::Welcome:
      if (F.Payload.size() != 16)
        return Status(StatusCode::ValidationError, "short Welcome payload");
      SessionId = wireGetU64(F.Payload.data());
      GotWelcome = true;
      break;
    case WireFrame::Ack:
      if (F.Payload.size() != 8)
        return Status(StatusCode::ValidationError, "short Ack payload");
      OnAck(wireGetU64(F.Payload.data()));
      break;
    case WireFrame::Report:
      if (F.Payload.size() < 9)
        return Status(StatusCode::ValidationError, "short Report payload");
      Canon.assign(F.Payload.data() + 9, F.Payload.size() - 9);
      ReportNs = nowNs();
      GotReport = true;
      break;
    case WireFrame::WireError: {
      WireErrorInfo E;
      wireParseError(F.Payload, E);
      return Status(E.Code == StatusCode::Ok ? StatusCode::IoError : E.Code,
                    std::string("server error (") +
                        wireErrorCodeName(E.Wire) + "): " + E.Message);
    }
    default:
      return Status(StatusCode::ValidationError,
                    std::string("unexpected frame ") + wireFrameName(F.Type));
    }
  }
  if (D < 0)
    return Status(StatusCode::ValidationError, Dec.error());
  return Status::success();
}

Status LiveClient::connect(const std::string &Path, int RetryMs) {
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path))
    return Status(StatusCode::InvalidConfig, "socket path too long: " + Path);
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  const auto Give = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(RetryMs);
  for (;;) {
    Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (Fd < 0)
      return ioError("socket");
    if (::connect(Fd, reinterpret_cast<const sockaddr *>(&Addr),
                  sizeof(Addr)) == 0)
      break;
    ::close(Fd);
    Fd = -1;
    if (std::chrono::steady_clock::now() >= Give)
      return ioError("connect");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const std::string Hello = wireHelloFrame(WireHelloResumable);
  if (::send(Fd, Hello.data(), Hello.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(Hello.size()))
    return ioError("send hello");
  const auto Deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(StreamTimeoutMs);
  while (!GotWelcome) {
    if (std::chrono::steady_clock::now() >= Deadline)
      return Status(StatusCode::IoError, "no Welcome from the server");
    Status S = readFrames(100, [](uint64_t) {});
    if (!S.ok())
      return S;
  }
  return Status::success();
}

Status LiveClient::stream(const Trace &T, uint64_t BatchEvents,
                          SpanRecorder &Spans, uint32_t Parent) {
  // The whole client stream in one buffer, with the byte offset where
  // each Events frame ends and the sequence number it ends at.
  std::string Out = encodeDeclareFrames(T);
  struct Mark {
    size_t EndOff;
    uint64_t EndSeq;
  };
  std::vector<Mark> Marks;
  uint64_t Seq = 0;
  for (const std::string &F : encodeEventFrames(T, BatchEvents)) {
    Out += F;
    Seq = std::min<uint64_t>(T.size(), Seq + BatchEvents);
    Marks.push_back({Out.size(), Seq});
  }
  wireAppendFrame(Out, WireFrame::Finish, {});

  std::deque<std::pair<uint64_t, uint64_t>> Unacked; // (end seq, sent ns)
  auto OnAck = [&](uint64_t Applied) {
    const uint64_t Now = nowNs();
    while (!Unacked.empty() && Unacked.front().first <= Applied) {
      LagMs.push_back((Now - Unacked.front().second) / 1e6);
      Unacked.pop_front();
    }
  };

  uint32_t SendSpan = Spans.begin("serve.client.send", Parent);
  uint32_t WaitSpan = 0;
  size_t Written = 0, NextMark = 0;
  const auto Deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(StreamTimeoutMs);
  while (!GotReport) {
    if (std::chrono::steady_clock::now() >= Deadline)
      return Status(StatusCode::IoError, "timed out waiting for the report");
    if (Written != Out.size()) {
      pollfd P{Fd, POLLOUT | POLLIN, 0};
      if (::poll(&P, 1, 1000) < 0 && errno != EINTR)
        return ioError("poll");
      if (P.revents & POLLOUT) {
        const ssize_t N = ::send(Fd, Out.data() + Written, Out.size() - Written,
                                 MSG_NOSIGNAL | MSG_DONTWAIT);
        if (N < 0 && errno != EAGAIN && errno != EINTR)
          return ioError("send");
        if (N > 0) {
          Written += static_cast<size_t>(N);
          const uint64_t Now = nowNs();
          for (; NextMark != Marks.size() && Marks[NextMark].EndOff <= Written;
               ++NextMark)
            Unacked.push_back({Marks[NextMark].EndSeq, Now});
          if (Written == Out.size()) {
            FinishSentNs = Now;
            Spans.end(SendSpan);
            WaitSpan = Spans.begin("serve.client.finish_to_report", Parent);
          }
        }
      }
      if (!(P.revents & (POLLIN | POLLHUP | POLLERR)))
        continue;
    }
    Status S = readFrames(Written == Out.size() ? 1000 : 0, OnAck);
    if (!S.ok())
      return S;
  }
  // The Report covers every event: frames the server never acked
  // separately were applied by the time it was sent.
  OnAck(T.size());
  Spans.end(WaitSpan);
  return Status::success();
}
