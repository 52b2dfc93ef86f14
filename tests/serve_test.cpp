//===- tests/serve_test.cpp - Serving layer: transports, protocol, server -----===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
// Three legs of the serving layer's contract, pinned in-process:
//
//   1. transport equivalence — the same wire stream pumped through a
//      socket, a FIFO, and a shared-memory ring produces a canonical
//      report bit-for-bit identical to feeding the trace directly;
//   2. sticky failure — the first malformed frame (missing hello, bad
//      kind, undeclared ids, oversized length, truncation at EOF)
//      freezes the stream with a ValidationError, later frames are
//      ignored, and the already-analyzed prefix stays finishable;
//   3. server discipline — RaceServer finalizes on Finish *and* on
//      disconnect, parks over-budget producers instead of buffering or
//      dropping (events complete, parks counted), enforces the hard
//      event budget loudly, and answers mid-stream partial queries with
//      exact prefixes of the final report.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "api/AnalysisSession.h"
#include "gen/Workloads.h"
#include "hb/HbDetector.h"
#include "io/FaultInjector.h"
#include "io/FeedSource.h"
#include "io/ShmRing.h"
#include "io/WireFormat.h"
#include "serve/RaceServer.h"
#include "serve/ReportCanon.h"
#include "serve/WireClient.h"
#include "serve/WireIngestor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace rapid;

namespace {

AnalysisConfig hbWcpConfig() {
  AnalysisConfig Cfg;
  Cfg.addDetector(DetectorKind::Hb);
  Cfg.addDetector(DetectorKind::Wcp);
  return Cfg;
}

/// The offline ground truth: feed \p T directly, canonicalize.
std::string directCanon(const AnalysisConfig &Cfg, const Trace &T) {
  AnalysisSession S(Cfg);
  EXPECT_TRUE(S.declareTablesFrom(T).ok());
  EXPECT_TRUE(S.feed(T.events()).ok());
  AnalysisResult R = S.finish();
  EXPECT_TRUE(R.ok()) << R.firstError().str();
  return canonicalReport(R, S.trace());
}

/// Hello + declares + events + finish: one session's complete stream.
std::string fullWireStream(const Trace &T, uint64_t BatchEvents = 8192) {
  std::string Bytes = wireHelloFrame();
  Bytes += encodeTraceFrames(T, BatchEvents);
  wireAppendFrame(Bytes, WireFrame::Finish, {});
  return Bytes;
}

/// Pumps \p Src into a fresh session and canonicalizes the outcome.
std::string pumpToCanon(const AnalysisConfig &Cfg, FeedSource &Src) {
  AnalysisSession S(Cfg);
  EXPECT_TRUE(pumpFeedSource(Src, S).ok()) << Src.name();
  AnalysisResult R = S.finish();
  EXPECT_TRUE(R.ok()) << R.firstError().str();
  return canonicalReport(R, S.trace());
}

std::string tempPath(const std::string &Name) {
  return ::testing::TempDir() + "rapidpp_serve_" + Name;
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

/// The torn-merge check at the wire level: every lane's race lines in
/// \p Partial must be an exact prefix of the same lane's in \p Final.
void expectCanonIsPrefix(const std::string &Partial, const std::string &Final,
                         const std::string &Label) {
  auto P = raceLinesPerLane(Partial), F = raceLinesPerLane(Final);
  ASSERT_EQ(P.size(), F.size()) << Label;
  for (size_t L = 0; L != P.size(); ++L) {
    ASSERT_LE(P[L].size(), F[L].size()) << Label << " lane " << L;
    for (size_t I = 0; I != P[L].size(); ++I)
      EXPECT_EQ(P[L][I], F[L][I]) << Label << " lane " << L << " race " << I;
  }
}

/// An HB lane that sleeps 1 ms after every event while \p Gate is closed:
/// decisively behind any producer, yet never blocked, so opening the gate
/// lets it drain at full speed.
DetectorFactory throttledHb(std::shared_ptr<std::atomic<bool>> Gate) {
  class ThrottledHb : public HbDetector {
  public:
    ThrottledHb(const Trace &Tr, std::shared_ptr<std::atomic<bool>> G)
        : HbDetector(Tr), Gate(std::move(G)) {}
    void processEvent(const Event &E, EventIdx I) override {
      HbDetector::processEvent(E, I);
      if (!Gate->load(std::memory_order_acquire))
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

  private:
    std::shared_ptr<std::atomic<bool>> Gate;
  };
  return [Gate](const Trace &Tr) {
    return std::make_unique<ThrottledHb>(Tr, Gate);
  };
}

/// Opens a throttledHb gate on scope exit, so a failed ASSERT still lets
/// the server's finish() drain the lane at full speed.
struct GateOpener {
  std::shared_ptr<std::atomic<bool>> G;
  ~GateOpener() { G->store(true, std::memory_order_release); }
};

/// True once the server has parked some connection.
bool serverParked(const RaceServer &Server) {
  for (const MetricSample &M : Server.metrics())
    if (M.Name == "parks" && M.Value > 0)
      return true;
  return false;
}

/// Retries \p Pred for up to five seconds (server-side transitions are
/// asynchronous: eviction happens on the IO thread after the poll tick).
bool eventually(const std::function<bool()> &Pred) {
  for (int I = 0; I < 500; ++I) {
    if (Pred())
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return Pred();
}

// ---- 1. Transport round trips ---------------------------------------------

class FeedRoundTripTest : public ::testing::Test {
protected:
  void SetUp() override {
    T = makeWorkload(workloadSpec("mergesort"));
    Want = directCanon(hbWcpConfig(), T);
    // Small batches force many Events frames — the interesting framing.
    Bytes = fullWireStream(T, 257);
    ASSERT_FALSE(Want.empty());
  }
  Trace T;
  std::string Want;
  std::string Bytes;
};

TEST_F(FeedRoundTripTest, SocketMatchesDirectFeedBitForBit) {
  int Sv[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, Sv), 0);
  // Writer thread: socketpair buffers are finite, so a single-threaded
  // write-all-then-pump could deadlock on a large stream.
  std::thread Writer([&] {
    size_t Off = 0;
    while (Off < Bytes.size()) {
      ssize_t N = ::write(Sv[0], Bytes.data() + Off, Bytes.size() - Off);
      if (N <= 0)
        break;
      Off += static_cast<size_t>(N);
    }
    ::close(Sv[0]);
  });
  auto Src = makeFdFeedSource(Sv[1], "unix:test");
  EXPECT_EQ(pumpToCanon(hbWcpConfig(), *Src), Want);
  Writer.join();
}

TEST_F(FeedRoundTripTest, FifoMatchesDirectFeedBitForBit) {
  std::string Path = tempPath("roundtrip.fifo");
  std::remove(Path.c_str());
  ASSERT_EQ(mkfifo(Path.c_str(), 0600), 0) << Path;
  std::thread Writer([&] {
    std::FILE *F = std::fopen(Path.c_str(), "wb"); // Blocks for a reader.
    ASSERT_NE(F, nullptr);
    ASSERT_EQ(std::fwrite(Bytes.data(), 1, Bytes.size(), F), Bytes.size());
    std::fclose(F);
  });
  Status Err;
  auto Src = openFeedSource("fifo:" + Path, Err);
  ASSERT_NE(Src, nullptr) << Err.str();
  EXPECT_EQ(pumpToCanon(hbWcpConfig(), *Src), Want);
  Writer.join();
  std::remove(Path.c_str());
}

TEST_F(FeedRoundTripTest, ShmRingMatchesDirectFeedBitForBit) {
  std::string Path = tempPath("roundtrip.ring");
  ShmRing Producer;
  // A ring far smaller than the stream: the producer must wrap and block
  // on the consumer repeatedly, exercising the watermark discipline.
  ASSERT_TRUE(Producer.create(Path, 4096).ok());
  ShmRing Consumer;
  ASSERT_TRUE(Consumer.attach(Path).ok());
  std::thread Writer([&] {
    ASSERT_TRUE(Producer.write(Bytes.data(), Bytes.size()));
    Producer.close();
  });
  auto Src = makeShmRingFeedSource(std::move(Consumer), "shm:" + Path);
  EXPECT_EQ(pumpToCanon(hbWcpConfig(), *Src), Want);
  Writer.join();
  std::remove(Path.c_str());
}

// Deterministic delivery faults (io/FaultInjector.h) over a real socket:
// short reads, spurious EAGAIN, and tiny delays reshape every read, yet
// the report must stay bit-for-bit identical — the decorator perturbs
// delivery, never content, and the pump's retry discipline absorbs it.
TEST_F(FeedRoundTripTest, FaultySocketDeliveryStillMatchesBitForBit) {
  int Sv[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, Sv), 0);
  std::thread Writer([&] {
    size_t Off = 0;
    while (Off < Bytes.size()) {
      ssize_t N = ::write(Sv[0], Bytes.data() + Off, Bytes.size() - Off);
      if (N <= 0)
        break;
      Off += static_cast<size_t>(N);
    }
    ::close(Sv[0]);
  });
  FaultStats Stats;
  FaultyFeedConfig FC;
  FC.Seed = 41;
  FC.ShortReadPermille = 500;
  FC.WouldBlockPermille = 200;
  FC.DelayPermille = 100;
  FC.MaxDelayUs = 50;
  FC.Stats = &Stats;
  auto Src = makeFaultyFeedSource(makeFdFeedSource(Sv[1], "unix:test"), FC);
  // Small chunks force many reads, so the per-read schedule gets enough
  // draws to fire every fault class for this seed.
  AnalysisSession S(hbWcpConfig());
  ASSERT_TRUE(pumpFeedSource(*Src, S, /*ChunkBytes=*/1024).ok());
  AnalysisResult R = S.finish();
  ASSERT_TRUE(R.ok()) << R.firstError().str();
  EXPECT_EQ(canonicalReport(R, S.trace()), Want);
  Writer.join();
  // The schedule is seeded, so the faults deterministically happened.
  EXPECT_GT(Stats.ShortReads, 0u);
  EXPECT_GT(Stats.WouldBlocks, 0u);
}

// The same fault schedule over the shm ring (no pollable fd: the pump's
// WouldBlock path must spin-sleep, not poll).
TEST_F(FeedRoundTripTest, FaultyShmRingDeliveryStillMatchesBitForBit) {
  std::string Path = tempPath("faulty.ring");
  ShmRing Producer;
  ASSERT_TRUE(Producer.create(Path, 4096).ok());
  ShmRing Consumer;
  ASSERT_TRUE(Consumer.attach(Path).ok());
  std::thread Writer([&] {
    ASSERT_TRUE(Producer.write(Bytes.data(), Bytes.size()));
    Producer.close();
  });
  FaultyFeedConfig FC;
  FC.Seed = 43;
  FC.ShortReadPermille = 400;
  FC.WouldBlockPermille = 150;
  auto Src = makeFaultyFeedSource(
      makeShmRingFeedSource(std::move(Consumer), "shm:" + Path), FC);
  EXPECT_EQ(pumpToCanon(hbWcpConfig(), *Src), Want);
  Writer.join();
  std::remove(Path.c_str());
}

// A mid-frame cut freezes the stream exactly like a torn disconnect: the
// whole-frame prefix is applied, the tail is a loud ValidationError.
TEST_F(FeedRoundTripTest, CutFeedFreezesWithTornFrameErrorPrefixApplied) {
  int Sv[2];
  ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, Sv), 0);
  std::thread Writer([&] {
    size_t Off = 0;
    while (Off < Bytes.size()) {
      ssize_t N = ::write(Sv[0], Bytes.data() + Off, Bytes.size() - Off);
      if (N <= 0)
        break;
      Off += static_cast<size_t>(N);
    }
    ::close(Sv[0]);
  });
  FaultStats Stats;
  FaultyFeedConfig FC;
  FC.Seed = 47;
  FC.CutAfterBytes = Bytes.size() - 2; // inside the trailing Finish frame
  FC.Stats = &Stats;
  auto Src = makeFaultyFeedSource(makeFdFeedSource(Sv[1], "unix:test"), FC);
  AnalysisSession S(hbWcpConfig());
  Status Pumped = pumpFeedSource(*Src, S);
  EXPECT_EQ(Pumped.Code, StatusCode::ValidationError);
  EXPECT_NE(Pumped.Message.find("disconnected mid-frame"), std::string::npos)
      << Pumped.str();
  AnalysisResult R = S.finish();
  EXPECT_EQ(R.EventsIngested, T.size()) << "whole-frame prefix must survive";
  EXPECT_EQ(Stats.Cuts, 1u);
  Writer.join();
  ::close(Sv[1]);
}

// ---- 2. Sticky protocol failures ------------------------------------------

class WireIngestorTest : public ::testing::Test {
protected:
  WireIngestorTest() : S(hbWcpConfig()), Ing(S) {}
  void ingest(const std::string &Bytes) { Ing.ingest(Bytes.data(), Bytes.size()); }
  /// A valid one-thread declare + one-event stream prefix.
  std::string declareOneThread() {
    std::string P;
    wireDeclareEntry(P, WireDeclareKind::Thread, "T0");
    std::string Out;
    wireAppendFrame(Out, WireFrame::Declare, P);
    return Out;
  }
  AnalysisSession S;
  WireIngestor Ing;
};

TEST_F(WireIngestorTest, DataBeforeHelloFreezes) {
  ingest(declareOneThread());
  EXPECT_EQ(Ing.status().Code, StatusCode::ValidationError);
  // Sticky: a valid hello afterwards does not unfreeze.
  ingest(wireHelloFrame());
  EXPECT_FALSE(Ing.sawHello());
  EXPECT_EQ(Ing.status().Code, StatusCode::ValidationError);
}

TEST_F(WireIngestorTest, BadEventKindFreezesWithoutApplying) {
  ingest(wireHelloFrame());
  ingest(declareOneThread());
  std::string P;
  wireEventsHeader(P, /*Seq=*/0, /*Count=*/1);
  wireEventRecord(P, /*Kind=*/9, 0, 0, 0); // 9 is not an EventKind.
  std::string F;
  wireAppendFrame(F, WireFrame::Events, P);
  ingest(F);
  EXPECT_EQ(Ing.status().Code, StatusCode::ValidationError);
  EXPECT_EQ(Ing.eventsApplied(), 0u);
}

TEST_F(WireIngestorTest, UndeclaredIdsFreeze) {
  ingest(wireHelloFrame());
  std::string P;
  wireEventsHeader(P, /*Seq=*/0, /*Count=*/1);
  wireEventRecord(P, /*Kind=*/0, /*Thread=*/5, /*Target=*/0, /*Loc=*/0);
  std::string F;
  wireAppendFrame(F, WireFrame::Events, P);
  ingest(F);
  EXPECT_EQ(Ing.status().Code, StatusCode::ValidationError);
}

TEST_F(WireIngestorTest, UnknownFrameTypeAndOversizedLengthFreeze) {
  {
    AnalysisSession S2(hbWcpConfig());
    WireIngestor I2(S2);
    std::string Hello = wireHelloFrame();
    I2.ingest(Hello.data(), Hello.size());
    std::string F;
    wirePutU32(F, 1);
    F.push_back(static_cast<char>(99)); // No such frame type.
    F.push_back('x');
    I2.ingest(F.data(), F.size());
    EXPECT_EQ(I2.status().Code, StatusCode::ValidationError);
  }
  {
    AnalysisSession S3(hbWcpConfig());
    WireIngestor I3(S3);
    std::string F;
    wirePutU32(F, WireMaxPayload + 1); // Length alone must desync.
    F.push_back(static_cast<char>(WireFrame::Events));
    I3.ingest(F.data(), F.size());
    EXPECT_EQ(I3.status().Code, StatusCode::ValidationError);
  }
}

TEST_F(WireIngestorTest, ControlFramesFreezeADataOnlyFeed) {
  // The server answers queries before frames reach an ingestor; one that
  // gets this far (a plain feed source) is a protocol error, never a
  // silently dropped frame.
  for (WireFrame Type : {WireFrame::PartialQuery, WireFrame::TimelineQuery,
                         WireFrame::ListSessions, WireFrame::FinalQuery}) {
    AnalysisSession S2(hbWcpConfig());
    WireIngestor I2(S2);
    std::string Bytes = wireHelloFrame() + declareOneThread();
    wireAppendFrame(Bytes, Type, "");
    I2.ingest(Bytes.data(), Bytes.size());
    EXPECT_EQ(I2.status().Code, StatusCode::ValidationError)
        << wireFrameName(Type);
    EXPECT_EQ(I2.status().Message, std::string("control frame ") +
                                       wireFrameName(Type) +
                                       " on a data-only feed");
  }
}

TEST_F(WireIngestorTest, TruncationAtEofFreezesButPrefixSurvives) {
  Trace T = makeWorkload(workloadSpec("mergesort"));
  std::string Bytes = wireHelloFrame() + encodeTraceFrames(T, 64);
  // Keep a valid prefix of whole frames, then 3 bytes of a torn frame.
  size_t Keep = Bytes.size() / 2;
  ingest(Bytes.substr(0, Keep));
  ASSERT_TRUE(Ing.status().ok()) << Ing.status().str();
  uint64_t Applied = Ing.eventsApplied();
  Ing.eof();
  // Whether the cut landed on a frame boundary or not, EOF without Finish
  // must not pass silently... a boundary cut is a clean disconnect story
  // for the *server*, but the ingestor only flags a *torn* frame.
  if (!Ing.status().ok()) {
    EXPECT_EQ(Ing.status().Code, StatusCode::ValidationError);
  }
  // The analyzed prefix stays finishable either way.
  AnalysisResult R = S.finish();
  uint64_t Total = 0;
  for (const auto &L : R.Lanes) {
    EXPECT_TRUE(L.LaneStatus.ok());
    Total = L.EventsConsumed;
  }
  EXPECT_EQ(Total, Applied);
  // Later data after the freeze (or EOF) is ignored.
  std::string More = encodeTraceFrames(T, 64);
  ingest(More);
  EXPECT_EQ(Ing.eventsApplied(), Applied);
}

// ---- 3. RaceServer ---------------------------------------------------------

class RaceServerTest : public ::testing::Test {
protected:
  RaceServerConfig baseConfig(const std::string &Tag) {
    RaceServerConfig Cfg;
    Cfg.Session = hbWcpConfig();
    Cfg.SocketPath = tempPath(Tag + ".sock");
    Cfg.IngestThreads = 2;
    return Cfg;
  }
};

TEST_F(RaceServerTest, CleanSessionMatchesOfflineAndPartialIsPrefix) {
  Trace T = makeWorkload(workloadSpec("mergesort"));
  RaceServerConfig Cfg = baseConfig("clean");
  std::string Want = directCanon(Cfg.Session, T);
  RaceServer Server(Cfg);
  ASSERT_TRUE(Server.start().ok());

  WireClient C;
  ASSERT_TRUE(C.connectUnix(Cfg.SocketPath, 2000).ok());
  ASSERT_TRUE(C.sendHello().ok());
  ASSERT_TRUE(C.sendTrace(T, 511).ok());

  // Mid-stream partial of our own session: a Report frame with the
  // partial flag, and an exact prefix of the final listing.
  ASSERT_TRUE(C.sendPartialQuery().ok());
  WireFrame Type;
  std::string Payload;
  ASSERT_TRUE(C.readFrame(Type, Payload).ok());
  ASSERT_EQ(Type, WireFrame::Report);
  ASSERT_GE(Payload.size(), 9u);
  EXPECT_EQ(Payload[0], 1); // partial
  std::string PartialCanon = Payload.substr(9);

  ASSERT_TRUE(C.sendFinish().ok());
  ASSERT_TRUE(C.readFrame(Type, Payload).ok());
  ASSERT_EQ(Type, WireFrame::Report);
  ASSERT_GE(Payload.size(), 9u);
  EXPECT_EQ(Payload[0], 0); // final
  uint64_t Id = wireGetU64(Payload.data() + 1);
  std::string FinalCanon = Payload.substr(9);

  EXPECT_EQ(FinalCanon, Want);
  expectCanonIsPrefix(PartialCanon, FinalCanon, "live partial");

  ASSERT_TRUE(eventually([&] { return Server.finishedSessions().size() == 1; }));
  std::vector<SessionSummary> Done = Server.finishedSessions();
  EXPECT_EQ(Done[0].Id, Id);
  EXPECT_TRUE(Done[0].CleanFinish);
  EXPECT_TRUE(Done[0].Outcome.ok()) << Done[0].Outcome.str();
  EXPECT_EQ(Done[0].Events, T.size());
  EXPECT_EQ(Done[0].Canon, Want);

  // The retained report stays queryable from a fresh connection, and the
  // roster lists the finished session.
  WireClient Q;
  ASSERT_TRUE(Q.connectUnix(Cfg.SocketPath, 2000).ok());
  ASSERT_TRUE(Q.sendHello().ok());
  ASSERT_TRUE(Q.sendFinalQuery(Id).ok());
  ASSERT_TRUE(Q.readFrame(Type, Payload).ok());
  ASSERT_EQ(Type, WireFrame::Report);
  EXPECT_EQ(Payload.substr(9), Want);
  ASSERT_TRUE(Q.sendListSessions().ok());
  ASSERT_TRUE(Q.readFrame(Type, Payload).ok());
  ASSERT_EQ(Type, WireFrame::SessionList);
  EXPECT_NE(Payload.find("finished " + std::to_string(Id)), std::string::npos)
      << Payload;
  Server.stop();
}

TEST_F(RaceServerTest, DisconnectMidFrameEvictsWithTornFrameError) {
  Trace T = makeWorkload(workloadSpec("mergesort"));
  RaceServerConfig Cfg = baseConfig("evict");
  RaceServer Server(Cfg);
  ASSERT_TRUE(Server.start().ok());

  std::string Bytes = wireHelloFrame() + encodeTraceFrames(T, 128);
  WireClient C;
  ASSERT_TRUE(C.connectUnix(Cfg.SocketPath, 2000).ok());
  // Cut inside the last frame: whole frames apply, the tail is torn.
  ASSERT_TRUE(C.sendBytes(Bytes.substr(0, Bytes.size() - 7)).ok());
  C.close();

  ASSERT_TRUE(eventually([&] { return Server.finishedSessions().size() == 1; }));
  SessionSummary Done = Server.finishedSessions()[0];
  EXPECT_FALSE(Done.CleanFinish);
  EXPECT_EQ(Done.Outcome.Code, StatusCode::ValidationError);
  EXPECT_NE(Done.Outcome.Message.find("disconnected mid-frame"),
            std::string::npos)
      << Done.Outcome.str();
  EXPECT_GT(Done.Events, 0u); // The whole-frame prefix was applied.
  EXPECT_LT(Done.Events, T.size());
  EXPECT_EQ(Server.activeSessions(), 0u);
  Server.stop();
}

TEST_F(RaceServerTest, MalformedFrameGetsStickyErrorNotUb) {
  RaceServerConfig Cfg = baseConfig("sticky");
  RaceServer Server(Cfg);
  ASSERT_TRUE(Server.start().ok());

  WireClient C;
  ASSERT_TRUE(C.connectUnix(Cfg.SocketPath, 2000).ok());
  ASSERT_TRUE(C.sendHello().ok());
  std::string P;
  wireEventsHeader(P, /*Seq=*/0, /*Count=*/1);
  wireEventRecord(P, /*Kind=*/9, 0, 0, 0);
  std::string F;
  wireAppendFrame(F, WireFrame::Events, P);
  ASSERT_TRUE(C.sendBytes(F).ok());

  WireFrame Type;
  std::string Payload;
  ASSERT_TRUE(C.readFrame(Type, Payload).ok());
  EXPECT_EQ(Type, WireFrame::WireError);
  ASSERT_GE(Payload.size(), 1u);
  EXPECT_EQ(static_cast<StatusCode>(Payload[0]), StatusCode::ValidationError);

  ASSERT_TRUE(eventually([&] { return Server.finishedSessions().size() == 1; }));
  EXPECT_EQ(Server.finishedSessions()[0].Outcome.Code,
            StatusCode::ValidationError);
  Server.stop();
}

TEST_F(RaceServerTest, OverBudgetProducerIsParkedNotDropped) {
  // Deterministic backpressure: while the gate is closed the lane crawls
  // (one bounded 1 ms sleep per event — ~1k events/s against a ~2k-event
  // trace fed in one burst), so whenever the ingest-side lag check runs
  // it sees the lag far over the tiny budget and parks the connection.
  // A merely-*slow* lane (tens of µs per event) would lose the race
  // against a preempted ingest task on a loaded ctest -j host. Bounded
  // sleeps keep the lane decisively behind without ever blocking it, so
  // the gate can still release it. progress() (which the lag check
  // calls) reads each lane's consumed count without the lane's snapshot
  // lock, so the check sees the lag while a batch is in flight. The contract
  // under test: parks > 0, yet every event is eventually analyzed —
  // backpressure, not loss.
  Trace T = makeWorkload(workloadSpec("mergesort"));
  RaceServerConfig Cfg = baseConfig("park");
  auto Gate = std::make_shared<std::atomic<bool>>(false);
  Cfg.Session = AnalysisConfig();
  Cfg.Session.StreamBatchEvents = 64;
  Cfg.Session.addDetector(throttledHb(Gate), "throttled-HB");
  Cfg.Budgets.MaxLagEvents = 64;
  RaceServer Server(Cfg);
  ASSERT_TRUE(Server.start().ok());
  // Whatever happens below (including a failed ASSERT returning early),
  // open the gate before the server tears down so finish() drains the
  // lane at full speed instead of 1 ms per leftover event.
  GateOpener Opener{Gate};

  WireClient C;
  ASSERT_TRUE(C.connectUnix(Cfg.SocketPath, 2000).ok());
  ASSERT_TRUE(C.sendHello().ok());
  ASSERT_TRUE(C.sendTrace(T, 32).ok());
  // Hold Finish back until the park actually happened — with Finish in
  // the same byte burst the first ingest task would go straight to
  // finalize and the backpressure path would never be exercised.
  const bool Parked = eventually([&] { return serverParked(Server); });
  if (!Parked) {
    std::string Dump;
    for (const MetricSample &M : Server.metrics())
      Dump += M.Name + "=" + std::to_string(M.Value) + " ";
    for (const SessionSummary &S : Server.finishedSessions())
      Dump += "\nfinished id=" + std::to_string(S.Id) +
              " events=" + std::to_string(S.Events) +
              " clean=" + std::to_string(S.CleanFinish) +
              " status=" + S.Outcome.str();
    FAIL() << "no park observed; server state: " << Dump;
  }
  // Park observed — release the gated lane so the session can drain and
  // finish; the resume path (lag back under half budget) runs from here.
  Gate->store(true, std::memory_order_release);
  ASSERT_TRUE(C.sendFinish().ok());

  WireFrame Type;
  std::string Payload;
  ASSERT_TRUE(C.readFrame(Type, Payload, /*TimeoutMs=*/120000).ok());
  ASSERT_EQ(Type, WireFrame::Report);

  ASSERT_TRUE(eventually([&] { return Server.finishedSessions().size() == 1; }));
  SessionSummary Done = Server.finishedSessions()[0];
  EXPECT_TRUE(Done.CleanFinish);
  EXPECT_EQ(Done.Events, T.size()) << "backpressure must not drop events";
  EXPECT_GT(Done.Parks, 0u) << "the slow consumer never parked";
  Server.stop();
}

// A lane that throws mid-stream stops for good. It must not keep a parked
// client parked: once the healthy lane catches up, the connection resumes,
// and the Report carries the failed lane's status. The Report read is
// bounded, so a client left parked fails the test instead of hanging it.
TEST_F(RaceServerTest, FailedLaneDoesNotParkTheClientForever) {
  Trace T = makeWorkload(workloadSpec("mergesort"));
  RaceServerConfig Cfg = baseConfig("failed-lane");
  auto Gate = std::make_shared<std::atomic<bool>>(false);
  Cfg.Session = AnalysisConfig();
  Cfg.Session.StreamBatchEvents = 64;
  Cfg.Session.addDetector(throttledHb(Gate), "throttled-HB");
  Cfg.Session.addDetector(testutil::hbThrowingAt(100), "MidBoom");
  Cfg.Budgets.MaxLagEvents = 64;
  RaceServer Server(Cfg);
  ASSERT_TRUE(Server.start().ok());
  GateOpener Opener{Gate};

  WireClient C;
  ASSERT_TRUE(C.connectUnix(Cfg.SocketPath, 2000).ok());
  ASSERT_TRUE(C.sendHello().ok());
  ASSERT_TRUE(C.sendTrace(T, 32).ok());
  // The throttled lane guarantees the park; Finish waits for it (see
  // OverBudgetProducerIsParkedNotDropped).
  ASSERT_TRUE(eventually([&] { return serverParked(Server); }));
  Gate->store(true, std::memory_order_release);
  ASSERT_TRUE(C.sendFinish().ok());

  WireFrame Type;
  std::string Payload;
  Status Read = C.readFrame(Type, Payload, /*TimeoutMs=*/10000);
  ASSERT_TRUE(Read.ok()) << "no report: the client stayed parked ("
                         << Read.str() << ")";
  ASSERT_EQ(Type, WireFrame::Report);
  ASSERT_GE(Payload.size(), 9u);
  const std::string Canon = Payload.substr(9);
  EXPECT_NE(Canon.find("lane-status analysis-error: detector exploded at "
                       "event 100"),
            std::string::npos)
      << Canon;
  EXPECT_NE(Canon.find("lane-status ok"), std::string::npos) << Canon;

  ASSERT_TRUE(eventually([&] { return Server.finishedSessions().size() == 1; }));
  EXPECT_EQ(Server.finishedSessions()[0].Events, T.size());
  Server.stop();
}

TEST_F(RaceServerTest, HardEventBudgetFreezesLoudly) {
  Trace T = makeWorkload(workloadSpec("mergesort"));
  RaceServerConfig Cfg = baseConfig("budget");
  Cfg.Budgets.MaxSessionEvents = 100;
  RaceServer Server(Cfg);
  ASSERT_TRUE(Server.start().ok());

  WireClient C;
  ASSERT_TRUE(C.connectUnix(Cfg.SocketPath, 2000).ok());
  ASSERT_TRUE(C.sendHello().ok());
  ASSERT_TRUE(C.sendTrace(T, 64).ok());

  WireFrame Type;
  std::string Payload;
  ASSERT_TRUE(C.readFrame(Type, Payload).ok());
  EXPECT_EQ(Type, WireFrame::WireError);
  ASSERT_GE(Payload.size(), 1u);
  EXPECT_EQ(static_cast<StatusCode>(Payload[0]), StatusCode::InvalidState);
  EXPECT_NE(Payload.find("budget"), std::string::npos);

  ASSERT_TRUE(eventually([&] { return Server.finishedSessions().size() == 1; }));
  SessionSummary Done = Server.finishedSessions()[0];
  EXPECT_FALSE(Done.CleanFinish);
  EXPECT_EQ(Done.Outcome.Code, StatusCode::InvalidState);
  Server.stop();
}

TEST_F(RaceServerTest, MetricsCoverTheSessionLifecycle) {
  Trace T = makeWorkload(workloadSpec("mergesort"));
  RaceServerConfig Cfg = baseConfig("metrics");
  RaceServer Server(Cfg);
  ASSERT_TRUE(Server.start().ok());
  {
    WireClient C;
    ASSERT_TRUE(C.connectUnix(Cfg.SocketPath, 2000).ok());
    ASSERT_TRUE(C.sendHello().ok());
    ASSERT_TRUE(C.sendTrace(T).ok());
    ASSERT_TRUE(C.sendFinish().ok());
    WireFrame Type;
    std::string Payload;
    ASSERT_TRUE(C.readFrame(Type, Payload).ok());
  }
  ASSERT_TRUE(eventually([&] { return Server.finishedSessions().size() == 1; }));
  uint64_t Accepted = 0, Events = 0, Finished = 0;
  // metrics() returns the serve.* subtree with the prefix stripped.
  for (const MetricSample &M : Server.metrics()) {
    if (M.Name == "accepted")
      Accepted = M.Value;
    else if (M.Name == "events")
      Events = M.Value;
    else if (M.Name == "finished")
      Finished = M.Value;
  }
  EXPECT_EQ(Accepted, 1u);
  EXPECT_EQ(Finished, 1u);
  EXPECT_EQ(Events, T.size());
  Server.stop();
}

} // namespace
