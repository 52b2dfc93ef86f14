//===- serve/WireClient.cpp - Blocking wire-protocol client -------------------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//

#include "serve/WireClient.h"

#include "trace/Trace.h"

namespace rapid {

Status WireClient::sendTrace(const Trace &T, uint64_t BatchEvents) {
  return sendBytes(encodeTraceFrames(T, BatchEvents));
}

Status WireClient::sendU64Frame(WireFrame T, uint64_t V) {
  std::string Out, P;
  wirePutU64(P, V);
  wireAppendFrame(Out, T, P);
  return sendBytes(Out);
}

Status WireClient::sendPartialQuery() {
  std::string Out;
  wireAppendFrame(Out, WireFrame::PartialQuery, std::string_view());
  return sendBytes(Out);
}

Status WireClient::sendPartialQuery(uint64_t SessionId) {
  return sendU64Frame(WireFrame::PartialQuery, SessionId);
}

Status WireClient::sendTimelineQuery(uint64_t SessionId) {
  return sendU64Frame(WireFrame::TimelineQuery, SessionId);
}

Status WireClient::sendListSessions() {
  std::string Out;
  wireAppendFrame(Out, WireFrame::ListSessions, std::string_view());
  return sendBytes(Out);
}

Status WireClient::sendFinalQuery(uint64_t SessionId) {
  return sendU64Frame(WireFrame::FinalQuery, SessionId);
}

Status WireClient::sendDeclares(const Trace &T) {
  return Link.sendDeclares(encodeDeclareFrames(T));
}

Status WireClient::sendEvents(const Trace &T, uint64_t BatchEvents) {
  for (std::string &Frame : encodeEventFrames(T, BatchEvents, Link.nextSeq())) {
    Status S = Link.sendEvents(std::move(Frame));
    if (!S.ok())
      return S;
  }
  return Status::success();
}

} // namespace rapid
