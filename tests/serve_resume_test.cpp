//===- tests/serve_resume_test.cpp - Fault tolerance: resume + degradation ----===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
// The fault-tolerance contract of the serving layer, pinned in-process:
//
//   1. kill-and-resume — a resumable client whose connection is killed
//      N times mid-stream (deterministic seeded byte offsets) still
//      produces a final report byte-identical to an uninterrupted run:
//      no event duplicated, none lost (the sequence dedup + spill
//      retransmission is exactly-once);
//   2. determinism — the same fault seed yields the same kill schedule
//      and the same report, run after run;
//   3. graceful degradation — a saturated --max-sessions server sheds
//      Hellos with a *retryable* overloaded error carrying a retry-after
//      hint, and a backing-off client completes once capacity frees;
//   4. bounded grace — a detached resumable session whose client never
//      returns is finalized (prefix retained) when the grace window
//      expires; a Resume with an unknown token is rejected loudly;
//   5. idle eviction and roster GC run off the server's timer wheel;
//   6. the client's limits are loud: a lost connection without a resume
//      token fails instead of opening a second session, and an unacked
//      backlog past the spill cap fails instead of growing or hanging
//      (while an acked stream of the same length completes).
//
//===----------------------------------------------------------------------===//

#include "api/AnalysisSession.h"
#include "gen/Workloads.h"
#include "io/WireFormat.h"
#include "serve/RaceServer.h"
#include "serve/ReportCanon.h"
#include "serve/WireClient.h"
#include "trace/TraceBuilder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace rapid;

namespace {

AnalysisConfig hbWcpConfig() {
  AnalysisConfig Cfg;
  Cfg.addDetector(DetectorKind::Hb);
  Cfg.addDetector(DetectorKind::Wcp);
  return Cfg;
}

std::string directCanon(const AnalysisConfig &Cfg, const Trace &T) {
  AnalysisSession S(Cfg);
  EXPECT_TRUE(S.declareTablesFrom(T).ok());
  EXPECT_TRUE(S.feed(T.events()).ok());
  AnalysisResult R = S.finish();
  EXPECT_TRUE(R.ok()) << R.firstError().str();
  return canonicalReport(R, S.trace());
}

std::string tempPath(const std::string &Name) {
  return ::testing::TempDir() + "rapidpp_resume_" + Name;
}

bool eventually(const std::function<bool()> &Pred) {
  for (int I = 0; I < 500; ++I) {
    if (Pred())
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return Pred();
}

/// The CI chaos matrix varies the kill schedule via RAPID_FAULT_SEED;
/// locally the default seed keeps the run reproducible bit-for-bit.
uint64_t faultSeed() {
  if (const char *S = std::getenv("RAPID_FAULT_SEED"))
    return std::strtoull(S, nullptr, 10);
  return 7;
}

uint64_t metricValue(const std::vector<MetricSample> &Ms,
                     const std::string &Name) {
  for (const MetricSample &M : Ms)
    if (M.Name == Name)
      return M.Value;
  return 0;
}

class ServeResumeTest : public ::testing::Test {
protected:
  RaceServerConfig baseConfig(const std::string &Tag) {
    RaceServerConfig Cfg;
    Cfg.Session = hbWcpConfig();
    Cfg.SocketPath = tempPath(Tag + ".sock");
    Cfg.IngestThreads = 2;
    return Cfg;
  }

  /// Full resumable round trip under a fault plan; returns the final
  /// canonical report (and the client's reconnect count via \p Out).
  std::string runFaulty(const RaceServerConfig &Cfg, const Trace &T,
                        const WireFaultPlan &Plan, uint64_t *OutReconnects) {
    WireClient C;
    WireRetryPolicy Pol;
    Pol.JitterSeed = Plan.Seed;
    // Kills that land inside a retransmit spend the same outage's attempt
    // budget, so the budget must cover every kill.
    Pol.MaxAttempts = std::max(Pol.MaxAttempts, Plan.Kills + 1);
    EXPECT_TRUE(C.connectResumable(Cfg.SocketPath, 2000, Pol).ok());
    EXPECT_NE(C.sessionToken(), 0u);
    C.setFaultPlan(Plan);
    EXPECT_TRUE(C.sendDeclares(T).ok());
    EXPECT_TRUE(C.sendEvents(T, 257).ok());
    EXPECT_TRUE(C.sendFinishReliable().ok());
    std::string Payload;
    Status S = C.awaitReport(Payload);
    EXPECT_TRUE(S.ok()) << S.str();
    if (Payload.size() < 9)
      return std::string();
    EXPECT_EQ(Payload[0], 0); // final, not partial
    if (OutReconnects)
      *OutReconnects = C.reconnects();
    return Payload.substr(9);
  }
};

// ---- 1. Kill-and-resume: byte-identical to the uninterrupted run -----------

TEST_F(ServeResumeTest, KilledConnectionResumesToByteIdenticalReport) {
  Trace T = makeWorkload(workloadSpec("mergesort"));
  // Three sparse kills, then sixteen dense ones: gaps shorter than one
  // 257-event frame (and than the declares) put kills inside the
  // retransmits, so one outage spends many attempts of a single budget.
  WireFaultPlan Sparse, Dense;
  Sparse.Kills = 3;
  Sparse.MinGapBytes = 1024;
  Sparse.MaxGapBytes = 8192;
  Dense.Kills = 16;
  Dense.MinGapBytes = 256;
  Dense.MaxGapBytes = 1024;
  for (WireFaultPlan Plan : {Sparse, Dense}) {
    SCOPED_TRACE(std::to_string(Plan.Kills) + " kills");
    Plan.Seed = faultSeed();
    RaceServerConfig Cfg = baseConfig("kill" + std::to_string(Plan.Kills));
    const std::string Want = directCanon(Cfg.Session, T);
    RaceServer Server(Cfg);
    ASSERT_TRUE(Server.start().ok());

    uint64_t Reconnects = 0;
    const std::string Got = runFaulty(Cfg, T, Plan, &Reconnects);

    // Byte-identical despite the mid-stream connection kills: the
    // retransmitted overlap was deduplicated, nothing was lost.
    EXPECT_EQ(Got, Want);
    EXPECT_GE(Reconnects, 1u);
    EXPECT_LE(Reconnects, static_cast<uint64_t>(Plan.Kills));

    ASSERT_TRUE(
        eventually([&] { return Server.finishedSessions().size() == 1; }));
    SessionSummary Done = Server.finishedSessions()[0];
    EXPECT_TRUE(Done.CleanFinish);
    EXPECT_TRUE(Done.Outcome.ok()) << Done.Outcome.str();
    EXPECT_EQ(Done.Events, T.size()); // exactly once: no dup, no loss
    EXPECT_EQ(Done.Resumes, Reconnects);
    EXPECT_NE(Done.Token, 0u);
    EXPECT_EQ(Done.Canon, Want);
    EXPECT_GE(metricValue(Server.metrics(), "resumes"), Reconnects);
    Server.stop();
  }
}

// ---- 2. Determinism: same seed, same schedule, same report -----------------

TEST_F(ServeResumeTest, SameSeedSameKillScheduleSameReport) {
  Trace T = makeWorkload(workloadSpec("mergesort"));
  WireFaultPlan Plan;
  Plan.Seed = faultSeed();
  Plan.Kills = 2;
  Plan.MinGapBytes = 700;
  Plan.MaxGapBytes = 4096;

  std::string Canon[2];
  uint64_t Reconnects[2] = {0, 0};
  for (int Run = 0; Run != 2; ++Run) {
    RaceServerConfig Cfg = baseConfig("det" + std::to_string(Run));
    RaceServer Server(Cfg);
    ASSERT_TRUE(Server.start().ok());
    Canon[Run] = runFaulty(Cfg, T, Plan, &Reconnects[Run]);
    Server.stop();
  }
  ASSERT_FALSE(Canon[0].empty());
  EXPECT_EQ(Canon[0], Canon[1]);
  EXPECT_EQ(Reconnects[0], Reconnects[1])
      << "the seeded kill schedule must replay identically";
  EXPECT_EQ(Canon[0], directCanon(hbWcpConfig(), T));
}

TEST_F(ServeResumeTest, KillOnTheFinishFrameStillFinishes) {
  Trace T = makeWorkload(workloadSpec("mergesort"));
  RaceServerConfig Cfg = baseConfig("finkill");
  RaceServer Server(Cfg);
  ASSERT_TRUE(Server.start().ok());

  WireClient C;
  ASSERT_TRUE(C.connectResumable(Cfg.SocketPath, 2000).ok());
  ASSERT_TRUE(C.sendDeclares(T).ok());
  ASSERT_TRUE(C.sendEvents(T, 257).ok());
  ASSERT_TRUE(eventually(
      [&] { return metricValue(Server.metrics(), "events") == T.size(); }));
  // Every event is applied; the kill lands on the Finish frame's first
  // byte, so the resume must replay Finish though nothing else is missing.
  WireFaultPlan Plan;
  Plan.Kills = 1;
  Plan.MinGapBytes = 0;
  Plan.MaxGapBytes = 0;
  C.setFaultPlan(Plan);
  ASSERT_TRUE(C.sendFinishReliable().ok());
  std::string Payload;
  const Status S = C.awaitReport(Payload, 5000);
  ASSERT_TRUE(S.ok()) << S.str();
  EXPECT_EQ(C.reconnects(), 1u);
  ASSERT_GE(Payload.size(), 9u);
  EXPECT_EQ(Payload.substr(9), directCanon(Cfg.Session, T));
  Server.stop();
}

// ---- 3. Overload: retryable shed, then recovery ----------------------------

TEST_F(ServeResumeTest, SaturatedServerShedsRetryablyAndBackoffRecovers) {
  Trace T = makeWorkload(workloadSpec("mergesort"));
  RaceServerConfig Cfg = baseConfig("shed");
  Cfg.MaxSessions = 1;
  Cfg.RetryAfterMs = 50;
  const std::string Want = directCanon(Cfg.Session, T);
  RaceServer Server(Cfg);
  ASSERT_TRUE(Server.start().ok());

  // Occupy the only slot.
  WireClient A;
  ASSERT_TRUE(A.connectUnix(Cfg.SocketPath, 2000).ok());
  ASSERT_TRUE(A.sendHello().ok());
  ASSERT_TRUE(eventually([&] { return Server.activeSessions() == 1; }));

  // A second plain Hello is shed with a *retryable* overloaded error
  // carrying the configured retry-after hint.
  {
    WireClient B;
    ASSERT_TRUE(B.connectUnix(Cfg.SocketPath, 2000).ok());
    ASSERT_TRUE(B.sendHello().ok());
    WireFrame Type;
    std::string Payload;
    ASSERT_TRUE(B.readFrame(Type, Payload).ok());
    ASSERT_EQ(Type, WireFrame::WireError);
    WireErrorInfo E;
    ASSERT_TRUE(wireParseError(Payload, E));
    EXPECT_EQ(E.Wire, WireErrorCode::Overloaded);
    EXPECT_TRUE(E.Retryable);
    EXPECT_EQ(E.RetryAfterMs, 50u);
    EXPECT_TRUE(wireErrorRetryable(E.Wire));
  }
  EXPECT_GE(metricValue(Server.metrics(), "shed"), 1u);

  // A resumable client keeps backing off against the saturated server
  // and completes once the slot frees.
  std::thread Release([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    A.sendFinish();
    WireFrame Type;
    std::string Payload;
    A.readFrame(Type, Payload);
    A.close();
  });
  WireClient C;
  WireRetryPolicy Pol;
  Pol.MaxAttempts = 40;
  Status CS = C.connectResumable(Cfg.SocketPath, 2000, Pol);
  Release.join();
  ASSERT_TRUE(CS.ok()) << CS.str();
  ASSERT_TRUE(C.sendDeclares(T).ok());
  ASSERT_TRUE(C.sendEvents(T).ok());
  ASSERT_TRUE(C.sendFinishReliable().ok());
  std::string Payload;
  ASSERT_TRUE(C.awaitReport(Payload).ok());
  ASSERT_GE(Payload.size(), 9u);
  EXPECT_EQ(Payload.substr(9), Want);
  Server.stop();
}

// ---- 4. Grace expiry and unknown tokens ------------------------------------

TEST_F(ServeResumeTest, GraceExpiryFinalizesDetachedSessionPrefix) {
  Trace T = makeWorkload(workloadSpec("mergesort"));
  RaceServerConfig Cfg = baseConfig("grace");
  Cfg.ResumeGraceMs = 200;
  RaceServer Server(Cfg);
  ASSERT_TRUE(Server.start().ok());

  WireClient C;
  ASSERT_TRUE(C.connectResumable(Cfg.SocketPath, 2000).ok());
  ASSERT_NE(C.sessionToken(), 0u);
  ASSERT_TRUE(C.sendDeclares(T).ok());
  ASSERT_TRUE(C.sendEvents(T, 511).ok());
  // Client dies without Finish and never resumes: the server parks the
  // session for the grace window, then finalizes the received prefix.
  C.close();

  ASSERT_TRUE(eventually([&] { return Server.finishedSessions().size() == 1; }));
  SessionSummary Done = Server.finishedSessions()[0];
  EXPECT_FALSE(Done.CleanFinish);
  EXPECT_EQ(Done.Outcome.Code, StatusCode::IoError);
  EXPECT_NE(Done.Outcome.Message.find("grace window expired"),
            std::string::npos)
      << Done.Outcome.str();
  EXPECT_FALSE(Done.Canon.empty()); // the prefix report is retained
  EXPECT_GE(metricValue(Server.metrics(), "grace_expired"), 1u);
  EXPECT_GE(metricValue(Server.metrics(), "detached"), 1u);
  EXPECT_EQ(Server.activeSessions(), 0u);
  Server.stop();
}

TEST_F(ServeResumeTest, ResumeWithUnknownTokenIsRejectedLoudly) {
  RaceServerConfig Cfg = baseConfig("unknown");
  RaceServer Server(Cfg);
  ASSERT_TRUE(Server.start().ok());

  WireClient C;
  ASSERT_TRUE(C.connectUnix(Cfg.SocketPath, 2000).ok());
  std::string Bytes = wireHelloFrame(WireHelloAttach);
  Bytes += wireResumeFrame(/*Token=*/0xdeadbeefcafeull, /*NextSeq=*/0);
  ASSERT_TRUE(C.sendBytes(Bytes).ok());
  WireFrame Type;
  std::string Payload;
  ASSERT_TRUE(C.readFrame(Type, Payload).ok());
  ASSERT_EQ(Type, WireFrame::WireError);
  WireErrorInfo E;
  ASSERT_TRUE(wireParseError(Payload, E));
  EXPECT_EQ(E.Wire, WireErrorCode::ResumeUnknown);
  EXPECT_FALSE(E.Retryable);
  EXPECT_STREQ(wireErrorCodeName(E.Wire), "resume-unknown");
  Server.stop();
}

// ---- 5. Idle eviction and roster GC ----------------------------------------

TEST_F(ServeResumeTest, IdleSessionsAreEvictedAndRosterIsTrimmed) {
  Trace T = makeWorkload(workloadSpec("mergesort"));
  RaceServerConfig Cfg = baseConfig("gc");
  Cfg.IdleTimeoutMs = 200;
  Cfg.RosterMax = 2;
  Cfg.ResumeGraceMs = 0; // plain disconnects finalize immediately
  RaceServer Server(Cfg);
  ASSERT_TRUE(Server.start().ok());

  // Three clean sessions; the roster GC must trim retention to the
  // newest two.
  uint64_t Ids[3] = {0, 0, 0};
  for (int I = 0; I != 3; ++I) {
    WireClient C;
    ASSERT_TRUE(C.connectUnix(Cfg.SocketPath, 2000).ok());
    ASSERT_TRUE(C.sendHello().ok());
    ASSERT_TRUE(C.sendTrace(T).ok());
    ASSERT_TRUE(C.sendFinish().ok());
    WireFrame Type;
    std::string Payload;
    ASSERT_TRUE(C.readFrame(Type, Payload).ok());
    ASSERT_EQ(Type, WireFrame::Report);
    ASSERT_GE(Payload.size(), 9u);
    Ids[I] = wireGetU64(Payload.data() + 1);
  }
  // Wait for the *exact* trimmed roster, not just its size: the roster
  // briefly reads [1, 2] while session 3's summary is still landing.
  ASSERT_TRUE(eventually([&] {
    std::vector<SessionSummary> Kept = Server.finishedSessions();
    return Kept.size() == 2 && Kept[0].Id == Ids[1] && Kept[1].Id == Ids[2];
  })) << "roster never trimmed to the newest two summaries";

  // An idle connection (hello, then silence) is evicted by the timer
  // wheel once IdleTimeoutMs passes.
  WireClient Idle;
  ASSERT_TRUE(Idle.connectUnix(Cfg.SocketPath, 2000).ok());
  ASSERT_TRUE(Idle.sendHello().ok());
  ASSERT_TRUE(eventually([&] { return Server.activeSessions() == 1; }));
  ASSERT_TRUE(eventually([&] { return Server.activeSessions() == 0; }));
  EXPECT_GE(metricValue(Server.metrics(), "idle_evicted"), 1u);
  ASSERT_TRUE(eventually([&] {
    for (const SessionSummary &S : Server.finishedSessions())
      if (!S.CleanFinish &&
          S.Outcome.Message.find("idle past") != std::string::npos)
        return true;
    return false;
  }));
  Server.stop();
}

// ---- 6. Loud client limits ------------------------------------------------

TEST_F(ServeResumeTest, LostConnectionWithoutResumeTokenFailsInOneSession) {
  Trace T = makeWorkload(workloadSpec("mergesort"));
  RaceServerConfig Cfg = baseConfig("notoken");
  Cfg.ResumeGraceMs = 0; // resume disabled: Welcome carries token 0
  RaceServer Server(Cfg);
  ASSERT_TRUE(Server.start().ok());

  WireClient C;
  ASSERT_TRUE(C.connectResumable(Cfg.SocketPath, 2000).ok());
  ASSERT_EQ(C.sessionToken(), 0u);
  WireFaultPlan Plan;
  Plan.Seed = faultSeed();
  Plan.Kills = 1;
  Plan.MinGapBytes = 12 << 10; // past the declares, inside the events
  Plan.MaxGapBytes = 14 << 10;
  C.setFaultPlan(Plan);
  ASSERT_TRUE(C.sendDeclares(T).ok());
  const Status S = C.sendEvents(T, 257);
  EXPECT_EQ(S.Code, StatusCode::IoError) << S.str();
  EXPECT_NE(S.Message.find("no resume token"), std::string::npos) << S.str();
  C.close();

  // One session, torn mid-stream: no fresh session replaying a gapped
  // suffix behind it.
  ASSERT_TRUE(eventually([&] {
    return !Server.finishedSessions().empty() && Server.activeSessions() == 0;
  }));
  EXPECT_EQ(Server.finishedSessions().size(), 1u);
  Server.stop();
}

/// Comfortably more than the 8 MB spill cap of 13-byte event records.
Trace pastSpillCapTrace() {
  TraceBuilder B;
  const ThreadId Th = B.declareThread("T0");
  const VarId V = B.declareVar("x");
  const LocId L = B.declareLoc("L0");
  B.reserve(700000);
  for (int I = 0; I != 700000; ++I)
    B.appendWrite(Th, V, L);
  return B.take();
}

TEST_F(ServeResumeTest, AcksKeepLongStreamsUnderTheSpillCap) {
  // The same past-the-cap stream against a real server: its Acks trim
  // the spill as frames apply, so the session completes.
  const Trace T = pastSpillCapTrace();
  RaceServerConfig Cfg = baseConfig("longstream");
  RaceServer Server(Cfg);
  ASSERT_TRUE(Server.start().ok());
  WireClient C;
  ASSERT_TRUE(C.connectResumable(Cfg.SocketPath, 2000).ok());
  ASSERT_TRUE(C.sendDeclares(T).ok());
  const Status S = C.sendEvents(T);
  ASSERT_TRUE(S.ok()) << S.str();
  ASSERT_TRUE(C.sendFinishReliable().ok());
  std::string Payload;
  ASSERT_TRUE(C.awaitReport(Payload).ok());
  ASSERT_TRUE(eventually([&] { return Server.finishedSessions().size() == 1; }));
  EXPECT_EQ(Server.finishedSessions()[0].Events, T.size());
  Server.stop();
}

TEST_F(ServeResumeTest, SpillOverflowFailsLoudlyWithoutHanging) {
  // A listener that grants a resume token, then reads and discards every
  // byte without ever acknowledging one.
  const std::string Path = tempPath("spill.sock");
  ::unlink(Path.c_str());
  const int Listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(Listener, 0);
  sockaddr_un Addr{};
  Addr.sun_family = AF_UNIX;
  ASSERT_LT(Path.size(), sizeof(Addr.sun_path));
  std::copy(Path.begin(), Path.end(), Addr.sun_path);
  ASSERT_EQ(::bind(Listener, reinterpret_cast<const sockaddr *>(&Addr),
                   sizeof(Addr)),
            0);
  ASSERT_EQ(::listen(Listener, 1), 0);
  std::thread Sink([Listener] {
    const int S = ::accept(Listener, nullptr, nullptr);
    if (S < 0)
      return;
    const size_t HelloSize = wireHelloFrame(WireHelloResumable).size();
    char Buf[1 << 16];
    size_t Got = 0;
    for (;;) {
      const ssize_t N = ::recv(S, Buf, sizeof(Buf), 0);
      if (N <= 0)
        break;
      if (Got < HelloSize && Got + static_cast<size_t>(N) >= HelloSize) {
        const std::string W = wireWelcomeFrame(/*SessionId=*/1, /*Token=*/42);
        ::send(S, W.data(), W.size(), MSG_NOSIGNAL);
      }
      Got += static_cast<size_t>(N);
    }
    ::close(S);
  });

  const Trace T = pastSpillCapTrace();
  WireClient C;
  Status S = C.connectResumable(Path, 2000);
  EXPECT_TRUE(S.ok()) << S.str();
  EXPECT_EQ(C.sessionToken(), 42u);
  if (S.ok()) {
    S = C.sendEvents(T);
    EXPECT_EQ(S.Code, StatusCode::InvalidState) << S.str();
    EXPECT_NE(S.Message.find("resume spill buffer overflow"),
              std::string::npos)
        << S.str();
  }
  C.close();
  ::shutdown(Listener, SHUT_RDWR); // wakes an accept that never got a peer
  Sink.join();
  ::close(Listener);
  ::unlink(Path.c_str());
}

} // namespace
