//===- tests/serve_e2e_test.cpp - Live-attach end-to-end pin ------------------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
// The serving layer's whole-stack pin, run against the real binaries:
//
//   1. race_serverd accepts an *interposed* pthread program — the demo
//      runs under LD_PRELOAD=librace_interpose.so, streaming its modeled
//      trace into a live session while also recording the identical
//      stream to a text file. At least one mid-stream partialResult is
//      captured and asserted to be an exact per-lane prefix of the final
//      report; the final report must be bit-for-bit identical to an
//      offline `race_cli <recording> --report-out` run. Live attach adds
//      nothing and loses nothing.
//
//   2. race_serverd sustains >= 8 concurrent sessions under deliberately
//      small lag budgets with a slowed lane: a ninth over-budget blaster
//      is *parked* (backpressure), not OOM'd or silently truncated — its
//      event count at finalize equals what was sent.
//
// Binary locations arrive via RACE_SERVERD / RACE_CLI / RACE_INTERPOSE /
// RACE_DEMO (wired by CMake through `cmake -E env`); when absent (e.g.
// running the gtest binary by hand) the tests skip.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "io/WireFormat.h"
#include "serve/WireClient.h"
#include "trace/Trace.h"
#include "trace/TraceBuilder.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace rapid;

namespace {

const char *envOrNull(const char *Name) {
  const char *V = std::getenv(Name);
  return V && *V ? V : nullptr;
}

std::string tempPath(const std::string &Name) {
  return ::testing::TempDir() + "rapidpp_e2e_" + Name;
}

/// fork/exec with extra environment entries; returns the child pid.
/// \p StdoutPath, when nonempty, redirects the child's stdout there.
pid_t spawn(const std::vector<std::string> &Argv,
            const std::vector<std::pair<std::string, std::string>> &Env = {},
            const std::string &StdoutPath = std::string()) {
  pid_t P = fork();
  if (P != 0)
    return P;
  for (const auto &KV : Env)
    setenv(KV.first.c_str(), KV.second.c_str(), 1);
  if (!StdoutPath.empty() && !std::freopen(StdoutPath.c_str(), "w", stdout))
    _exit(126);
  std::vector<char *> A;
  A.reserve(Argv.size() + 1);
  for (const std::string &S : Argv)
    A.push_back(const_cast<char *>(S.c_str()));
  A.push_back(nullptr);
  execv(A[0], A.data());
  std::fprintf(stderr, "execv(%s) failed\n", A[0]);
  _exit(127);
}

int waitFor(pid_t P) {
  int St = 0;
  while (waitpid(P, &St, 0) < 0 && errno == EINTR)
    ;
  return WIFEXITED(St) ? WEXITSTATUS(St) : 128 + WTERMSIG(St);
}

/// RAII for the daemon: SIGTERM + reap on scope exit.
struct Daemon {
  pid_t Pid = -1;
  ~Daemon() {
    if (Pid > 0) {
      kill(Pid, SIGTERM);
      waitFor(Pid);
    }
  }
};

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

/// Splits a canonical listing into per-lane `race ...` line sequences.
std::vector<std::vector<std::string>> raceLinesPerLane(const std::string &C) {
  std::vector<std::vector<std::string>> Lanes;
  std::istringstream In(C);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.rfind("lane ", 0) == 0)
      Lanes.emplace_back();
    else if (Line.rfind("race ", 0) == 0 && !Lanes.empty())
      Lanes.back().push_back(Line);
  }
  return Lanes;
}

uint64_t canonEvents(const std::string &Canon) {
  std::istringstream In(Canon);
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("events ", 0) == 0)
      return std::strtoull(Line.c_str() + 7, nullptr, 10);
  return 0;
}

void expectCanonIsPrefix(const std::string &Partial, const std::string &Final,
                         const std::string &Label) {
  auto P = raceLinesPerLane(Partial), F = raceLinesPerLane(Final);
  ASSERT_EQ(P.size(), F.size()) << Label;
  for (size_t L = 0; L != P.size(); ++L) {
    ASSERT_LE(P[L].size(), F[L].size()) << Label << " lane " << L;
    for (size_t I = 0; I != P[L].size(); ++I)
      EXPECT_EQ(P[L][I], F[L][I]) << Label << " lane " << L << " race " << I;
  }
  EXPECT_LE(canonEvents(Partial), canonEvents(Final)) << Label;
}

/// One control query returning the roster text. Retries transient "busy"
/// errors (a producer holding its session lock).
bool roster(WireClient &C, std::string &Out) {
  for (int Try = 0; Try < 50; ++Try) {
    if (!C.sendListSessions().ok())
      return false;
    WireFrame Type;
    if (!C.readFrame(Type, Out).ok())
      return false;
    if (Type == WireFrame::SessionList)
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return false;
}

/// The live session that has actually ingested events — the *producer's*
/// session, as opposed to a control connection's idle one (every accepted
/// connection owns a session, so "first live" would be ambiguous).
uint64_t liveSessionWithEvents(const std::string &Roster) {
  std::istringstream In(Roster);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.rfind("session ", 0) != 0)
      continue;
    size_t At = Line.find(" events ");
    if (At != std::string::npos &&
        std::strtoull(Line.c_str() + At + 8, nullptr, 10) > 0)
      return std::strtoull(Line.c_str() + 8, nullptr, 10);
  }
  return 0;
}

struct Paths {
  const char *Serverd = envOrNull("RACE_SERVERD");
  const char *Cli = envOrNull("RACE_CLI");
  const char *Interpose = envOrNull("RACE_INTERPOSE");
  const char *Demo = envOrNull("RACE_DEMO");
  bool complete() const { return Serverd && Cli && Interpose && Demo; }
};

} // namespace

TEST(ServeE2eTest, InterposedDemoMatchesOfflineReplayBitForBit) {
  Paths P;
  if (!P.complete())
    GTEST_SKIP() << "RACE_SERVERD/RACE_CLI/RACE_INTERPOSE/RACE_DEMO not set";

  std::string Sock = tempPath("live.sock");
  std::string Rec = tempPath("live_rec.txt");
  std::string Off = tempPath("live_off.txt");
  std::remove(Rec.c_str());
  std::remove(Off.c_str());

  Daemon Server;
  Server.Pid = spawn({P.Serverd, "--socket", Sock, "--hb", "--wcp", "--quiet"});
  ASSERT_GT(Server.Pid, 0);

  // The control connection doubles as the "server is up" probe.
  WireClient Ctl;
  ASSERT_TRUE(Ctl.connectUnix(Sock, 10000).ok()) << "server did not come up";
  ASSERT_TRUE(Ctl.sendHello().ok());

  // A long-enough run that mid-stream queries land while it is live.
  pid_t Demo = spawn({P.Demo}, {{"LD_PRELOAD", P.Interpose},
                                {"RACE_SERVER", Sock},
                                {"RACE_RECORD", Rec},
                                {"RACE_FLUSH_MS", "20"},
                                {"RACE_DEMO_THREADS", "4"},
                                {"RACE_DEMO_ITERS", "600"},
                                {"RACE_DEMO_SLEEP_US", "3000"}});
  ASSERT_GT(Demo, 0);

  // Find the demo's live session, then capture a nonempty mid-stream
  // partial report (retrying through "busy" and empty-prefix states).
  uint64_t Sid = 0;
  std::string PartialCanon;
  for (int Try = 0; Try < 600 && PartialCanon.empty(); ++Try) {
    std::string R;
    ASSERT_TRUE(roster(Ctl, R));
    if (Sid == 0)
      Sid = liveSessionWithEvents(R);
    if (Sid != 0) {
      ASSERT_TRUE(Ctl.sendPartialQuery(Sid).ok());
      WireFrame Type;
      std::string Payload;
      ASSERT_TRUE(Ctl.readFrame(Type, Payload).ok());
      if (Type == WireFrame::Report && Payload.size() > 9 && Payload[0] == 1) {
        std::string Canon = Payload.substr(9);
        if (canonEvents(Canon) > 0)
          PartialCanon = Canon;
      } // WireError ("busy"/"not live") and empty partials: retry.
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(waitFor(Demo), 0);
  ASSERT_FALSE(PartialCanon.empty())
      << "no mid-stream partial captured while the demo ran";
  ASSERT_NE(Sid, 0u);

  // The demo exited; its interposer sent Finish and drained the final
  // report. Wait until the roster shows the finished session, then fetch
  // the retained canonical report.
  std::string FinalCanon;
  for (int Try = 0; Try < 600 && FinalCanon.empty(); ++Try) {
    ASSERT_TRUE(Ctl.sendFinalQuery(Sid).ok());
    WireFrame Type;
    std::string Payload;
    ASSERT_TRUE(Ctl.readFrame(Type, Payload).ok());
    if (Type == WireFrame::Report && Payload.size() > 9 && Payload[0] == 0)
      FinalCanon = Payload.substr(9);
    else
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_FALSE(FinalCanon.empty()) << "final report never became queryable";

  // The partial is an exact prefix; the planted race was found live.
  expectCanonIsPrefix(PartialCanon, FinalCanon, "live partial vs final");
  EXPECT_NE(FinalCanon.find("race racy "), std::string::npos)
      << "the demo's planted race is missing from the live report:\n"
      << FinalCanon;

  // Offline replay of the recorded stream must reproduce the live report
  // byte for byte.
  ASSERT_FALSE(slurp(Rec).empty()) << "interposer recorded nothing";
  int Rc = waitFor(spawn(
      {P.Cli, Rec, "--hb", "--wcp", "--report-out", Off}));
  ASSERT_EQ(Rc, 0) << "offline race_cli failed";
  std::string OfflineCanon = slurp(Off);
  ASSERT_FALSE(OfflineCanon.empty());
  EXPECT_EQ(FinalCanon, OfflineCanon)
      << "live and offline reports diverged";

  std::remove(Rec.c_str());
  std::remove(Off.c_str());
}

TEST(ServeE2eTest, NineConcurrentSessionsWithBudgetsAndBackpressure) {
  Paths P;
  if (!P.complete())
    GTEST_SKIP() << "RACE_SERVERD/RACE_CLI/RACE_INTERPOSE/RACE_DEMO not set";

  std::string Sock = tempPath("fleet.sock");
  Daemon Server;
  // A slowed lane plus a tiny lag budget: every producer can outrun its
  // session, and the blaster definitely will. The slow lane must be
  // *decisively* slower than a preempted ingest task (2 ms/event vs a
  // burst-fed socket) or the park becomes a scheduling race on loaded
  // hosts. The small stream batch keeps partial queries prompt: a
  // consumer holds its snapshot lock for a whole batch.
  Server.Pid = spawn({P.Serverd, "--socket", Sock, "--hb", "--quiet",
                      "--debug-slow-us", "2000", "--stream-batch", "32",
                      "--budget-lag", "64"});
  ASSERT_GT(Server.Pid, 0);

  // A small racy trace every producer sends; the blaster sends it many
  // times over (several thousand events against a 64-event budget).
  TraceBuilder B;
  for (int I = 0; I < 8; ++I) {
    std::string L = "L" + std::to_string(I);
    B.write("T0", "x", L + "a").write("T1", "x", L + "b");
    B.acquire("T0", "m", L + "c").write("T0", "y", L + "d");
    B.release("T0", "m", L + "e");
    B.acquire("T1", "m", L + "f").write("T1", "y", L + "g");
    B.release("T1", "m", L + "h");
  }
  Trace Small = testutil::takeValid(B);
  TraceBuilder BigB;
  for (int I = 0; I < 400; ++I) {
    std::string L = "L" + std::to_string(I);
    BigB.write("T0", "x", L + "a").write("T1", "x", L + "b");
  }
  Trace Big = testutil::takeValid(BigB);

  constexpr int Normals = 8;
  std::vector<std::unique_ptr<WireClient>> Clients;
  for (int I = 0; I < Normals + 1; ++I) {
    auto C = std::make_unique<WireClient>();
    ASSERT_TRUE(C->connectUnix(Sock, 10000).ok()) << "client " << I;
    ASSERT_TRUE(C->sendHello().ok());
    Clients.push_back(std::move(C));
  }
  // All nine connected before anything finishes: stream without Finish.
  for (int I = 0; I < Normals; ++I)
    ASSERT_TRUE(Clients[I]->sendTrace(Small, 8).ok());
  WireClient &Blaster = *Clients[Normals];
  ASSERT_TRUE(Blaster.sendTrace(Big, 16).ok());

  // Roster must show all nine live at once, and the blaster (or any
  // over-budget producer) must park — backpressure, not buffering.
  WireClient Ctl;
  ASSERT_TRUE(Ctl.connectUnix(Sock, 10000).ok());
  ASSERT_TRUE(Ctl.sendHello().ok());
  bool SawNine = false, SawPark = false;
  for (int Try = 0; Try < 600 && !(SawNine && SawPark); ++Try) {
    std::string R;
    ASSERT_TRUE(roster(Ctl, R));
    if (R.find("sessions active 10") != std::string::npos ||
        R.find("sessions active 9") != std::string::npos)
      SawNine = true;
    std::istringstream In(R);
    std::string Line;
    while (std::getline(In, Line)) {
      if (Line.rfind("session ", 0) != 0)
        continue;
      size_t At = Line.find(" parks ");
      if (At != std::string::npos &&
          std::strtoull(Line.c_str() + At + 7, nullptr, 10) > 0)
        SawPark = true;
      if (Line.find("state parked") != std::string::npos)
        SawPark = true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(SawNine) << "never saw >= 9 concurrent sessions";
  EXPECT_TRUE(SawPark) << "no session ever parked under a 64-event budget";

  // Finish everyone; every session — the blaster included — must deliver
  // a clean final report with its complete event count.
  for (auto &C : Clients)
    ASSERT_TRUE(C->sendFinish().ok());
  for (int I = 0; I <= Normals; ++I) {
    WireFrame Type;
    std::string Payload;
    ASSERT_TRUE(Clients[I]->readFrame(Type, Payload, 120000).ok())
        << "client " << I;
    ASSERT_EQ(Type, WireFrame::Report) << "client " << I << ": "
                                       << Payload.substr(1);
    EXPECT_EQ(Payload[0], 0);
    std::string Canon = Payload.substr(9);
    uint64_t Want = I == Normals ? Big.size() : Small.size();
    EXPECT_EQ(canonEvents(Canon), Want)
        << "client " << I << " lost events under backpressure";
  }
}

TEST(ServeE2eTest, SigtermDrainsBufferedFramesAndReportsPrefix) {
  Paths P;
  if (!P.complete())
    GTEST_SKIP() << "RACE_SERVERD/RACE_CLI/RACE_INTERPOSE/RACE_DEMO not set";

  std::string Sock = tempPath("drain.sock");
  std::string Out = tempPath("drain_stdout.txt");
  std::remove(Out.c_str());

  // No --quiet: the drained session summaries land on the redirected
  // stdout and are this test's oracle.
  Daemon Server;
  Server.Pid = spawn({P.Serverd, "--socket", Sock, "--hb", "--wcp"}, {}, Out);
  ASSERT_GT(Server.Pid, 0);

  TraceBuilder B;
  for (int I = 0; I < 200; ++I) {
    std::string L = "L" + std::to_string(I);
    B.write("T0", "x", L + "a").write("T1", "x", L + "b");
  }
  Trace T = testutil::takeValid(B);

  // Stream the whole trace but never Finish: at SIGTERM the session is
  // live with everything in flight.
  WireClient C;
  ASSERT_TRUE(C.connectUnix(Sock, 10000).ok()) << "server did not come up";
  ASSERT_TRUE(C.sendHello().ok());
  ASSERT_TRUE(C.sendTrace(T, 64).ok());

  // Wait until the roster shows the full stream ingested (the drain
  // guarantee covers bytes the IO thread has *read*; bytes still in the
  // kernel socket buffer at SIGTERM are legitimately part of the lost
  // tail, so pin the deterministic case: everything already in).
  WireClient Ctl;
  ASSERT_TRUE(Ctl.connectUnix(Sock, 10000).ok());
  ASSERT_TRUE(Ctl.sendHello().ok());
  const std::string AllIn = " events " + std::to_string(T.size());
  bool SawAll = false;
  for (int Try = 0; Try < 600 && !SawAll; ++Try) {
    std::string R;
    ASSERT_TRUE(roster(Ctl, R));
    SawAll = R.find(AllIn) != std::string::npos;
    if (!SawAll)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(SawAll) << "stream never fully ingested";

  // Clean drain: buffered whole frames are applied, the live session is
  // finalized as an eviction (clean=0), and the daemon exits 0.
  ASSERT_EQ(kill(Server.Pid, SIGTERM), 0);
  EXPECT_EQ(waitFor(Server.Pid), 0) << "daemon did not exit cleanly";
  Server.Pid = -1;

  std::string Stdout = slurp(Out);
  ASSERT_NE(Stdout.find("session "), std::string::npos)
      << "no drained-session summary on stdout:\n"
      << Stdout;
  // Every byte we sent was whole frames, so the drain must apply the
  // complete stream — partialResult() semantics: a prefix, never a
  // truncation mid-frame. The producer's summary line carries the count.
  EXPECT_NE(Stdout.find("events=" + std::to_string(T.size())),
            std::string::npos)
      << "drained session lost buffered events:\n"
      << Stdout;
  EXPECT_NE(Stdout.find("clean=0"), std::string::npos)
      << "an unfinished session must finalize as an eviction:\n"
      << Stdout;

  std::remove(Out.c_str());
}
