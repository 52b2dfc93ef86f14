//===- io/WireFormat.h - Length-prefixed serve-layer frames -----*- C++ -*-===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wire protocol of the live-attach serving layer (src/serve/): a
/// stream of length-prefixed frames carrying name declarations, binary
/// event batches, and mid-stream control queries into an AnalysisSession,
/// plus the server's report/error replies. One frame is
///
///   u32 payload-length (LE) | u8 frame-type | payload bytes
///
/// Event records reuse the 13-byte shape of the binary trace container
/// (io/BinaryFormat.h): u8 kind, u32 thread, u32 target, u32 loc, all LE.
/// Ids are never negotiated: the client declares names (Declare frames)
/// and mirrors the server's interning order locally — both sides assign
/// sequential ids per table in declaration order, so an id is just "the
/// k-th name I declared of this kind" and no round trip is needed.
///
/// The encode helpers and the incremental FrameDecoder are header-only on
/// purpose: the LD_PRELOAD interposer (examples/interpose/) speaks this
/// protocol from inside arbitrary processes and must not link the static
/// rapid library into a shared object. Trace-coupled conveniences
/// (encodeTraceFrames, decodeEventsPayload) live in WireFormat.cpp and
/// are only for rapid-linking code (server, tests, tools).
///
//===----------------------------------------------------------------------===//

#ifndef RAPID_IO_WIREFORMAT_H
#define RAPID_IO_WIREFORMAT_H

#include "support/Status.h"

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace rapid {

class Trace;
struct Event;

/// Frame types. Client → server: Hello first, then any mix of Declare/
/// Events/queries, optionally ending in Finish. Server → client: Report,
/// Timeline, SessionList, WireError. Fault-tolerance handshake (v2):
/// Welcome answers a resumable Hello with the session's resume token;
/// Resume re-attaches a reconnecting client; ResumeOk tells it how much
/// the server already applied; Ack lets it trim its spill buffer.
enum class WireFrame : uint8_t {
  Hello = 1,         ///< Magic + version + flags; first client frame.
  Declare = 2,       ///< Name declarations (ids implied by order).
  Events = 3,        ///< u64 seq | u32 count | 13-byte event records.
  PartialQuery = 4,  ///< partialResult(); empty = own session, u64 = by id.
  TimelineQuery = 5, ///< exportTimeline(); empty = own session, u64 = by id.
  Finish = 6,        ///< Finalize own session; server replies Report.
  Report = 7,        ///< u8 partial | u64 session id | canonical listing.
  Timeline = 8,      ///< Perfetto JSON for the queried session.
  WireError = 9,     ///< u8 status | u8 code | u8 flags | u32 retry | msg.
  ListSessions = 10, ///< Ask for the live/finished session roster.
  SessionList = 11,  ///< Text roster reply (docs/SERVING.md).
  FinalQuery = 12,   ///< u64 session id; Report of a *finished* session.
  Resume = 13,       ///< u64 token | u64 next seq; re-attach a session.
  ResumeOk = 14,     ///< u64 session id | u64 applied seq.
  Ack = 15,          ///< u64 applied seq; spill-trim watermark.
  Welcome = 16,      ///< u64 session id | u64 token (resumable hellos).
};

/// Stable display name for diagnostics ("hello", "events", ...).
const char *wireFrameName(WireFrame T);

inline constexpr uint32_t WireHelloMagic = 0x52505356u; // "RPSV"
inline constexpr uint16_t WireVersion = 2;

/// Hello flag bits (the u16 after the version; zero = plain one-shot
/// stream, exactly the v1 behaviour).
inline constexpr uint16_t WireHelloResumable = 1u << 0; ///< Wants Welcome +
                                                        ///< seq/ack/resume.
inline constexpr uint16_t WireHelloAttach = 1u << 1; ///< No new session; the
                                                     ///< next frame is Resume.
/// Hard per-frame payload cap; a length above this is malformed, so a
/// garbage prefix can never make the decoder buffer gigabytes.
inline constexpr uint32_t WireMaxPayload = 1u << 20;
inline constexpr size_t WireFrameHeaderSize = 5;
/// u8 kind + u32 thread + u32 target + u32 loc.
inline constexpr size_t WireEventRecordSize = 13;

/// Which name table a Declare entry interns into.
enum class WireDeclareKind : uint8_t { Thread = 0, Lock = 1, Var = 2, Loc = 3 };

/// Machine-readable WireError codes. A v1 WireError carried only a raw
/// StatusCode byte, which made client retry policy guesswork; v2 appends
/// one of these plus an explicit retryable bit, so a client can tell
/// "back off and try again" (overload, busy producer, draining shutdown)
/// from "give up" (malformed stream, exhausted budget, unknown token).
enum class WireErrorCode : uint8_t {
  Unspecified = 0,     ///< Legacy/unclassified error.
  Malformed = 1,       ///< Protocol violation; the stream is dead.
  InvalidRequest = 2,  ///< Bad query payload / unknown session.
  BudgetExhausted = 3, ///< MaxSessionEvents tripped; prefix finalized.
  Overloaded = 4,      ///< Admission control shed the session. Retryable.
  Busy = 5,            ///< Producer holds the session lock. Retryable.
  ResumeUnknown = 6,   ///< Resume token matches no parked session.
  ShuttingDown = 7,    ///< Server is draining; try elsewhere. Retryable.
  Internal = 8,        ///< Server-side failure (report too large, ...).
};

/// Stable display name ("overloaded", "busy", ...).
inline const char *wireErrorCodeName(WireErrorCode C) {
  switch (C) {
  case WireErrorCode::Unspecified:
    return "unspecified";
  case WireErrorCode::Malformed:
    return "malformed";
  case WireErrorCode::InvalidRequest:
    return "invalid-request";
  case WireErrorCode::BudgetExhausted:
    return "budget-exhausted";
  case WireErrorCode::Overloaded:
    return "overloaded";
  case WireErrorCode::Busy:
    return "busy";
  case WireErrorCode::ResumeUnknown:
    return "resume-unknown";
  case WireErrorCode::ShuttingDown:
    return "shutting-down";
  case WireErrorCode::Internal:
    return "internal";
  }
  return "unknown";
}

/// The default retry classification per code (the encoded flag byte may
/// override it, but in-tree senders never do).
inline bool wireErrorRetryable(WireErrorCode C) {
  return C == WireErrorCode::Overloaded || C == WireErrorCode::Busy ||
         C == WireErrorCode::ShuttingDown;
}

/// WireError flag bits.
inline constexpr uint8_t WireErrorFlagRetryable = 1u << 0;

/// A decoded (or to-be-encoded) WireError payload:
///   u8 status code | u8 error code | u8 flags | u32 retry-after ms | message
/// Byte 0 stays the raw StatusCode so v1-era consumers that only look at
/// the first byte keep working.
struct WireErrorInfo {
  StatusCode Code = StatusCode::Ok;
  WireErrorCode Wire = WireErrorCode::Unspecified;
  bool Retryable = false;
  uint32_t RetryAfterMs = 0;
  std::string Message;
};

// ---- Little-endian scalar helpers (header-only; interposer-safe) -----------

inline void wirePutU16(std::string &B, uint16_t V) {
  B.push_back(static_cast<char>(V & 0xff));
  B.push_back(static_cast<char>((V >> 8) & 0xff));
}
inline void wirePutU32(std::string &B, uint32_t V) {
  for (int I = 0; I != 4; ++I)
    B.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}
inline void wirePutU64(std::string &B, uint64_t V) {
  for (int I = 0; I != 8; ++I)
    B.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}
inline uint16_t wireGetU16(const char *P) {
  const unsigned char *U = reinterpret_cast<const unsigned char *>(P);
  return static_cast<uint16_t>(U[0] | (U[1] << 8));
}
inline uint32_t wireGetU32(const char *P) {
  const unsigned char *U = reinterpret_cast<const unsigned char *>(P);
  return static_cast<uint32_t>(U[0]) | (static_cast<uint32_t>(U[1]) << 8) |
         (static_cast<uint32_t>(U[2]) << 16) |
         (static_cast<uint32_t>(U[3]) << 24);
}
inline uint64_t wireGetU64(const char *P) {
  return static_cast<uint64_t>(wireGetU32(P)) |
         (static_cast<uint64_t>(wireGetU32(P + 4)) << 32);
}

// ---- Frame/payload building (header-only; interposer-safe) -----------------

/// Appends one complete frame to \p Out.
inline void wireAppendFrame(std::string &Out, WireFrame T,
                            std::string_view Payload) {
  wirePutU32(Out, static_cast<uint32_t>(Payload.size()));
  Out.push_back(static_cast<char>(T));
  Out.append(Payload.data(), Payload.size());
}

/// The mandatory first client frame. \p Flags is a WireHello* bit set
/// (zero = plain v1-style one-shot stream).
inline std::string wireHelloFrame(uint16_t Flags = 0) {
  std::string P;
  wirePutU32(P, WireHelloMagic);
  wirePutU16(P, WireVersion);
  wirePutU16(P, Flags);
  std::string Out;
  wireAppendFrame(Out, WireFrame::Hello, P);
  return Out;
}

/// The flag bits of a (size-checked) Hello payload.
inline uint16_t wireHelloFlags(std::string_view Payload) {
  return Payload.size() >= 8 ? wireGetU16(Payload.data() + 6) : 0;
}

/// Encodes a WireError payload (the frame itself is appended by the
/// caller, typically via wireAppendFrame).
inline std::string wireErrorPayload(const WireErrorInfo &E) {
  std::string P;
  P.push_back(static_cast<char>(E.Code));
  P.push_back(static_cast<char>(E.Wire));
  P.push_back(static_cast<char>(E.Retryable ? WireErrorFlagRetryable : 0));
  wirePutU32(P, E.RetryAfterMs);
  P += E.Message;
  return P;
}

/// Decodes a WireError payload. Tolerates the v1 shape (status byte +
/// message only): the error code comes back Unspecified, not retryable.
inline bool wireParseError(std::string_view Payload, WireErrorInfo &Out) {
  if (Payload.empty())
    return false;
  Out = WireErrorInfo();
  Out.Code = static_cast<StatusCode>(Payload[0]);
  if (Payload.size() >= 7) {
    Out.Wire = static_cast<WireErrorCode>(Payload[1]);
    Out.Retryable = (static_cast<uint8_t>(Payload[2]) &
                     WireErrorFlagRetryable) != 0;
    Out.RetryAfterMs = wireGetU32(Payload.data() + 3);
    Out.Message.assign(Payload.data() + 7, Payload.size() - 7);
  } else {
    Out.Message.assign(Payload.data() + 1, Payload.size() - 1);
  }
  return true;
}

/// Starts an Events payload: the frame's cumulative start sequence (how
/// many events the producer sent before this frame) and its record count.
/// The seq is what makes retransmission after a reconnect exactly-once —
/// the ingestor skips records it already applied.
inline void wireEventsHeader(std::string &Payload, uint64_t Seq,
                             uint32_t Count) {
  wirePutU64(Payload, Seq);
  wirePutU32(Payload, Count);
}

/// The events in a complete Events frame (frame header, u64 seq, u32
/// count, then the records).
inline uint64_t wireEventsInFrame(std::string_view Frame) {
  const size_t Header = WireFrameHeaderSize + 12;
  return Frame.size() >= Header ? (Frame.size() - Header) / WireEventRecordSize
                                : 0;
}

/// The payload-less Finish frame.
inline std::string wireFinishFrame() {
  std::string Out;
  wireAppendFrame(Out, WireFrame::Finish, std::string_view());
  return Out;
}

/// u64 payload frames of the resume handshake.
inline std::string wireResumeFrame(uint64_t Token, uint64_t NextSeq) {
  std::string P, Out;
  wirePutU64(P, Token);
  wirePutU64(P, NextSeq);
  wireAppendFrame(Out, WireFrame::Resume, P);
  return Out;
}
inline std::string wireResumeOkFrame(uint64_t SessionId, uint64_t Applied) {
  std::string P, Out;
  wirePutU64(P, SessionId);
  wirePutU64(P, Applied);
  wireAppendFrame(Out, WireFrame::ResumeOk, P);
  return Out;
}
inline std::string wireAckFrame(uint64_t Applied) {
  std::string P, Out;
  wirePutU64(P, Applied);
  wireAppendFrame(Out, WireFrame::Ack, P);
  return Out;
}
inline std::string wireWelcomeFrame(uint64_t SessionId, uint64_t Token) {
  std::string P, Out;
  wirePutU64(P, SessionId);
  wirePutU64(P, Token);
  wireAppendFrame(Out, WireFrame::Welcome, P);
  return Out;
}

/// Appends one declaration entry (u8 kind | u32 length | bytes) to a
/// Declare payload under construction.
inline void wireDeclareEntry(std::string &Payload, WireDeclareKind K,
                             std::string_view Name) {
  Payload.push_back(static_cast<char>(K));
  wirePutU32(Payload, static_cast<uint32_t>(Name.size()));
  Payload.append(Name.data(), Name.size());
}

/// Appends one 13-byte event record to an Events payload under
/// construction (after the leading header — see wireEventsHeader).
inline void wireEventRecord(std::string &Payload, uint8_t Kind,
                            uint32_t Thread, uint32_t Target, uint32_t Loc) {
  Payload.push_back(static_cast<char>(Kind));
  wirePutU32(Payload, Thread);
  wirePutU32(Payload, Target);
  wirePutU32(Payload, Loc);
}

/// One decoded frame. The payload view aliases the decoder's buffer and
/// is valid only until the next append()/next() call.
struct WireFrameView {
  WireFrame Type = WireFrame::Hello;
  std::string_view Payload;
};

/// Incremental frame splitter: append() arbitrary byte chunks, next()
/// yields complete frames. Malformed input (unknown type, payload above
/// WireMaxPayload) is sticky: every later call keeps returning -1, so a
/// desynchronized stream can never be half-interpreted.
class FrameDecoder {
public:
  void append(const char *Data, size_t N) { Buf.append(Data, N); }

  /// 1 = \p F filled and consumed, 0 = need more bytes, -1 = malformed
  /// (error() describes why; the decoder is permanently dead).
  int next(WireFrameView &F) {
    if (!Err.empty())
      return -1;
    const size_t Avail = Buf.size() - Pos;
    if (Avail < WireFrameHeaderSize) {
      compact();
      return 0;
    }
    const uint32_t Len = wireGetU32(Buf.data() + Pos);
    const uint8_t Type = static_cast<uint8_t>(Buf[Pos + 4]);
    if (Len > WireMaxPayload) {
      Err = "frame payload length " + std::to_string(Len) +
            " exceeds the " + std::to_string(WireMaxPayload) + "-byte cap";
      return -1;
    }
    if (Type < static_cast<uint8_t>(WireFrame::Hello) ||
        Type > static_cast<uint8_t>(WireFrame::Welcome)) {
      Err = "unknown frame type " + std::to_string(Type);
      return -1;
    }
    if (Avail < WireFrameHeaderSize + Len) {
      compact();
      return 0;
    }
    F.Type = static_cast<WireFrame>(Type);
    F.Payload = std::string_view(Buf.data() + Pos + WireFrameHeaderSize, Len);
    Pos += WireFrameHeaderSize + Len;
    return 1;
  }

  /// Bytes buffered but not yet consumed as frames — nonzero after EOF
  /// means the peer died mid-frame.
  size_t buffered() const { return Buf.size() - Pos; }

  const std::string &error() const { return Err; }

private:
  void compact() {
    if (Pos) {
      Buf.erase(0, Pos);
      Pos = 0;
    }
  }

  std::string Buf;
  size_t Pos = 0;
  std::string Err;
};

// ---- Trace-coupled helpers (WireFormat.cpp; rapid-linking code only) -------

/// Checks a Hello payload; false fills \p Error.
bool wireCheckHello(std::string_view Payload, std::string &Error);

/// Encodes \p T as a complete client stream: one Declare frame per name
/// table (threads, locks, vars, locs, in table order, so the server's
/// interning reproduces the trace's ids exactly) followed by Events
/// frames of at most \p BatchEvents records, sequence-numbered starting
/// at \p StartSeq. No Hello, no Finish — the caller brackets the stream.
std::string encodeTraceFrames(const Trace &T, uint64_t BatchEvents = 8192,
                              uint64_t StartSeq = 0);

/// The Declare half of encodeTraceFrames alone.
std::string encodeDeclareFrames(const Trace &T);

/// The Events half of encodeTraceFrames as one string per frame, so a
/// resuming client can spill and retransmit frame-by-frame. Frame i's
/// payload starts at sequence StartSeq + i * BatchEvents.
std::vector<std::string> encodeEventFrames(const Trace &T,
                                           uint64_t BatchEvents = 8192,
                                           uint64_t StartSeq = 0);

/// Appends the decoded records of an Events payload to \p Out and yields
/// the frame's start sequence in \p Seq. Returns a ValidationError Status
/// on a count/size mismatch or an event kind outside the §2.1 alphabet;
/// ids are *not* range-checked here (the session's feed validates them
/// against the declared tables).
Status decodeEventsPayload(std::string_view Payload, uint64_t &Seq,
                           std::vector<Event> &Out);

/// Invokes \p Fn(kind, name) -> Status for each entry of a Declare
/// payload, stopping at the first non-ok. Returns ValidationError on
/// truncated entries or kinds outside the four name tables.
template <typename Fn>
Status forEachDeclareEntry(std::string_view Payload, Fn &&F) {
  size_t Pos = 0;
  while (Pos != Payload.size()) {
    if (Payload.size() - Pos < 5)
      return Status(StatusCode::ValidationError, "truncated declaration entry");
    const uint8_t Kind = static_cast<uint8_t>(Payload[Pos]);
    if (Kind > static_cast<uint8_t>(WireDeclareKind::Loc))
      return Status(StatusCode::ValidationError,
                    "unknown declaration kind " + std::to_string(Kind));
    const uint32_t Len = wireGetU32(Payload.data() + Pos + 1);
    if (Payload.size() - Pos - 5 < Len)
      return Status(StatusCode::ValidationError,
                    "declaration name overruns the frame");
    Status S = F(static_cast<WireDeclareKind>(Kind),
                 std::string_view(Payload.data() + Pos + 5, Len));
    if (!S.ok())
      return S;
    Pos += 5 + Len;
  }
  return Status::success();
}

} // namespace rapid

#endif // RAPID_IO_WIREFORMAT_H
