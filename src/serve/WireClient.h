//===- serve/WireClient.h - Blocking wire-protocol client -------*- C++ -*-===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small blocking client for the serving protocol (io/WireFormat.h):
/// connect to a race_serverd socket, push hello/declare/events frames,
/// issue control queries, read reply frames. This is the test harness's
/// and tooling's side of the protocol. Its resumable mode forwards to
/// serve/ResumableSender.h, the header-only core the LD_PRELOAD
/// interposer (examples/interpose/) sends through as well.
///
//===----------------------------------------------------------------------===//

#ifndef RAPID_SERVE_WIRECLIENT_H
#define RAPID_SERVE_WIRECLIENT_H

#include "io/WireFormat.h"
#include "serve/ResumableSender.h"
#include "support/Status.h"

#include <cstdint>
#include <string>

namespace rapid {

class Trace;

/// Blocking protocol client over a Unix-domain socket.
class WireClient {
public:
  /// Connects, retrying for up to \p RetryMs (covers "server still
  /// binding" in tests; 0 = one attempt).
  Status connectUnix(const std::string &Path, int RetryMs = 0) {
    return Link.connect(Path, RetryMs);
  }

  /// Raw bytes (already-framed), for malformed-input tests.
  Status sendBytes(const std::string &Bytes) { return Link.sendBytes(Bytes); }

  Status sendHello() { return sendBytes(wireHelloFrame()); }
  /// Declare frames for every table of \p T followed by Events frames —
  /// exactly encodeTraceFrames(), pushed down this connection.
  Status sendTrace(const Trace &T, uint64_t BatchEvents = 8192);
  Status sendFinish() { return sendBytes(wireFinishFrame()); }

  /// Empty payload = this connection's own session.
  Status sendPartialQuery();
  Status sendPartialQuery(uint64_t SessionId);
  Status sendTimelineQuery(uint64_t SessionId);
  Status sendListSessions();
  Status sendFinalQuery(uint64_t SessionId);

  /// Blocks until one complete frame arrives (or \p TimeoutMs passes /
  /// the peer hangs up / the stream desyncs).
  Status readFrame(WireFrame &Type, std::string &Payload,
                   int TimeoutMs = 10000) {
    return Link.readFrame(Type, Payload, TimeoutMs);
  }

  void close() { Link.close(); }

  // ---- Resumable mode -------------------------------------------------------
  //
  // connectResumable() negotiates a sequence-numbered session (Hello with
  // the Resumable flag, Welcome reply). From then on sendDeclares/
  // sendEvents/sendFinishReliable survive connection loss, and
  // awaitReport() rides reconnects transparently, so the caller sees
  // exactly the frames a fault-free run would produce. The protocol and
  // its limits are ResumableSender's.

  /// Connects and performs the resumable handshake.
  Status connectResumable(const std::string &Path, int RetryMs = 0,
                          WireRetryPolicy Policy = WireRetryPolicy()) {
    return Link.handshake(Path, RetryMs, Policy);
  }

  /// Installs a deterministic kill schedule (before or mid-stream).
  void setFaultPlan(const WireFaultPlan &Plan) { Link.setFaultPlan(Plan); }

  /// Declare frames for every table of \p T, replayed on every resume.
  Status sendDeclares(const Trace &T);
  /// Sequence-numbered Events frames, spilled until acknowledged.
  Status sendEvents(const Trace &T, uint64_t BatchEvents = 8192);
  /// Finish, resent after any resume.
  Status sendFinishReliable() { return Link.sendFinish(); }
  /// Blocks for the final Report payload, reconnecting as needed.
  Status awaitReport(std::string &Payload, int TimeoutMs = 20000) {
    return Link.awaitReport(Payload, TimeoutMs);
  }

  uint64_t sessionToken() const { return Link.token(); }
  /// Successful resume round-trips (the e2e pin asserts this matches the
  /// fault plan's kill count).
  uint64_t reconnects() const { return Link.reconnects(); }

private:
  Status sendU64Frame(WireFrame T, uint64_t V);

  ResumableSender Link;
};

} // namespace rapid

#endif // RAPID_SERVE_WIRECLIENT_H
