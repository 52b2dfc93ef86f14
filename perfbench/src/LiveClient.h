//===- LiveClient.h - The benchmark's own wire client -----------*- C++ -*-===//
//
// Part of rapidpp's benchmark (perfbench/).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A resumable-protocol client written against io/WireFormat alone, so the
/// benchmark can time what serve/WireClient hides: when each Events frame
/// left the socket and when the Ack covering it came back. It streams one
/// trace as fast as the socket accepts it (a closed loop: a parked session
/// blocks its sender, as it would block an interposed program), then sends
/// Finish and waits for the Report.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_LIVECLIENT_H
#define PERFBENCH_LIVECLIENT_H

#include "io/WireFormat.h"
#include "support/Status.h"

#include <cstdint>
#include <string>
#include <vector>

namespace rapid {
class Trace;
}

namespace perfbench {

class SpanRecorder;

class LiveClient {
public:
  LiveClient() = default;
  ~LiveClient();
  LiveClient(const LiveClient &) = delete;
  LiveClient &operator=(const LiveClient &) = delete;

  /// Connects to \p Path (retrying for up to \p RetryMs while the server
  /// binds) and performs the resumable Hello -> Welcome handshake.
  rapid::Status connect(const std::string &Path, int RetryMs);

  /// Streams \p T (Declare frames, then Events frames of \p BatchEvents
  /// records, then Finish) and waits for the final Report. Spans go under
  /// \p Parent when \p Spans is enabled.
  rapid::Status stream(const rapid::Trace &T, uint64_t BatchEvents,
                       SpanRecorder &Spans, uint32_t Parent);

  /// The server's id for this client's session (from Welcome).
  uint64_t sessionId() const { return SessionId; }
  /// The canonical report listing of the final Report frame.
  const std::string &report() const { return Canon; }
  /// steady-clock ns when the Finish frame's last byte was written and
  /// when the Report frame arrived.
  uint64_t finishSentNs() const { return FinishSentNs; }
  uint64_t reportNs() const { return ReportNs; }
  /// Per Events frame: milliseconds from its last byte being written to
  /// the first Ack (or the Report) covering it.
  const std::vector<double> &appliedLagMs() const { return LagMs; }

private:
  /// Reads what is available (waiting up to \p TimeoutMs) and handles
  /// every complete frame; \p OnAck gets each Ack's applied sequence.
  template <typename AckFn>
  rapid::Status readFrames(int TimeoutMs, AckFn &&OnAck);

  int Fd = -1;
  rapid::FrameDecoder Dec;
  std::string Canon;
  uint64_t SessionId = 0;
  uint64_t FinishSentNs = 0;
  uint64_t ReportNs = 0;
  bool GotWelcome = false;
  bool GotReport = false;
  std::vector<double> LagMs;
};

} // namespace perfbench

#endif // PERFBENCH_LIVECLIENT_H
