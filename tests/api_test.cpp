//===- tests/api_test.cpp - Session API: streaming, config, statuses ----------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
// The session API's contract has three legs, pinned here:
//
//   1. equivalence — a streaming session is the oracle's pass spread
//      over time: for every mode (sequential, windowed, var-sharded) and
//      detector, the final report is bit-identical to
//      the session-free oracles (runDetector; runDetectorWindowed's plain
//      loop in windowed mode), on 100 seeded random traces per detector,
//      whether events arrive as one trace, as push batches, through
//      mid-stream table growth (growable state; never a restart), or from
//      a file (binary and text chunks both overlap analysis). Windowed/var-sharded
//      partial snapshots must additionally be torn-merge free: every
//      mid-stream report is a prefix of the final one;
//   2. session protocol — mid-stream partial reports, feed-after-finish
//      and double-finish rejection, empty-session preconditions, all as
//      structured Status codes rather than strings;
//   3. config validation — every inconsistent AnalysisConfig combination
//      is rejected up front with InvalidConfig.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "api/AnalysisSession.h"
#include "gen/RandomTraceGen.h"
#include "hb/HbDetector.h"
#include "io/TraceFile.h"
#include "pipeline/ChunkedReader.h"
#include "trace/TraceBuilder.h"
#include "trace/TraceValidator.h"
#include "trace/Window.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <thread>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace rapid;
using testutil::expectSameReport;
using testutil::oracleLane;

namespace {

constexpr DetectorKind kAllKinds[] = {DetectorKind::Hb, DetectorKind::Wcp,
                                      DetectorKind::FastTrack,
                                      DetectorKind::Eraser};

AnalysisConfig allDetectorConfig(RunMode Mode) {
  AnalysisConfig Cfg;
  Cfg.Mode = Mode;
  for (DetectorKind K : kAllKinds)
    Cfg.addDetector(K);
  return Cfg;
}

/// Varied trace shapes, mirroring the differential harness.
RandomTraceParams fuzzParams(uint64_t Seed, bool ForkJoin) {
  RandomTraceParams P;
  P.Seed = Seed;
  P.NumThreads = 2 + Seed % 5;
  P.NumLocks = 1 + Seed % 4;
  P.NumVars = 1 + (Seed * 3) % 9;
  P.OpsPerThread = 25 + (Seed * 11) % 50;
  P.MaxLockNesting = 1 + Seed % 3;
  P.AcquirePercent = 10 + (Seed * 5) % 25;
  P.WritePercent = 30 + (Seed * 13) % 40;
  P.WithForkJoin = ForkJoin;
  return P;
}

/// Checks every lane of \p R against a fresh sequential run over \p T.
void expectLanesMatchSequential(const AnalysisResult &R, const Trace &T,
                                const std::string &Label) {
  ASSERT_EQ(R.Lanes.size(), std::size(kAllKinds)) << Label;
  for (size_t L = 0; L != R.Lanes.size(); ++L) {
    ASSERT_TRUE(R.Lanes[L].LaneStatus.ok())
        << Label << ": " << R.Lanes[L].LaneStatus.str();
    std::unique_ptr<Detector> D = makeDetectorFactory(kAllKinds[L])(T);
    RunResult Want = runDetector(*D, T);
    EXPECT_EQ(R.Lanes[L].DetectorName, Want.DetectorName) << Label;
    EXPECT_EQ(R.Lanes[L].EventsConsumed, T.size()) << Label;
    expectSameReport(R.Lanes[L].Report, Want.Report, T,
                     Label + "/" + Want.DetectorName);
  }
}

std::string tempPath(const std::string &Name) {
  return ::testing::TempDir() + "rapidpp_api_" + Name;
}

/// Torn-merge detector: \p Partial must be an exact prefix of \p Final's
/// instance sequence (same fields, same order). Windowed sessions merge
/// whole retired windows; var-sharded sessions merge below the fully
/// checked frontier — either way a mid-stream report may only ever grow
/// into the final one, never reorder or lose findings.
void expectReportIsPrefix(const RaceReport &Partial, const RaceReport &Final,
                          const std::string &Label) {
  ASSERT_LE(Partial.instances().size(), Final.instances().size()) << Label;
  for (size_t I = 0; I != Partial.instances().size(); ++I) {
    const RaceInstance &P = Partial.instances()[I];
    const RaceInstance &F = Final.instances()[I];
    ASSERT_TRUE(P.EarlierIdx == F.EarlierIdx && P.LaterIdx == F.LaterIdx &&
                P.EarlierLoc == F.EarlierLoc && P.LaterLoc == F.LaterLoc &&
                P.Var == F.Var)
        << Label << ": instance #" << I << " diverges mid-stream";
  }
}

class ApiStreamFuzzTest : public ::testing::TestWithParam<uint64_t> {};

} // namespace

// ---- Streaming vs batch, bit for bit ----------------------------------------

// 50 seeds x {no-forkjoin, forkjoin} = 100 distinct traces, each analyzed
// by all four detectors: a sequential-mode session fed the whole trace
// must reproduce runDetector exactly, per lane.
TEST_P(ApiStreamFuzzTest, SessionWholeTraceMatchesBatchBitForBit) {
  for (bool ForkJoin : {false, true}) {
    Trace T = randomTrace(fuzzParams(GetParam(), ForkJoin));
    ASSERT_TRUE(validateTrace(T).ok());
    AnalysisSession S(allDetectorConfig(RunMode::Sequential));
    ASSERT_TRUE(S.declareTablesFrom(T).ok());
    ASSERT_TRUE(S.feed(T.events()).ok());
    AnalysisResult R = S.finish();
    ASSERT_TRUE(R.Overall.ok()) << R.Overall.str();
    EXPECT_TRUE(R.Streamed);
    EXPECT_EQ(R.EventsIngested, T.size());
    expectLanesMatchSequential(R, T,
                               "whole-trace seed " +
                                   std::to_string(GetParam()) +
                                   " fj=" + std::to_string(ForkJoin));
  }
}

// Same equivalence with events arriving in small push batches against
// pre-declared tables, forcing many publication rounds (batch granularity
// 7 events) — the consumers genuinely run behind the producer here.
TEST_P(ApiStreamFuzzTest, SessionPushBatchesMatchBatchBitForBit) {
  Trace T = randomTrace(fuzzParams(GetParam() ^ 0x9e37, GetParam() % 2 == 0));
  AnalysisConfig Cfg = allDetectorConfig(RunMode::Sequential);
  Cfg.StreamBatchEvents = 7;
  AnalysisSession S(Cfg);
  ASSERT_TRUE(S.declareTablesFrom(T).ok());
  std::vector<Event> Batch;
  for (EventIdx I = 0; I != T.size(); ++I) {
    Batch.push_back(T.event(I));
    if (Batch.size() == 13 || I + 1 == T.size()) {
      ASSERT_TRUE(S.feed(Batch).ok());
      Batch.clear();
    }
  }
  AnalysisResult R = S.finish();
  ASSERT_TRUE(R.Overall.ok()) << R.Overall.str();
  expectLanesMatchSequential(R, T,
                             "push seed " + std::to_string(GetParam()));
}

// Windowed sessions stream: windows dispatch onto the pool as their event
// range publishes, and the merged result must equal runDetectorWindowed's
// plain loop bit for bit — with every mid-stream partial a prefix of the
// final report (no torn merges). 50 seeds x 4 detectors, varied window
// and push-batch sizes.
TEST_P(ApiStreamFuzzTest, WindowedSessionStreamsBitForBit) {
  uint64_t Seed = GetParam();
  Trace T = randomTrace(fuzzParams(Seed ^ 0x77aa, Seed % 2 == 0));
  AnalysisConfig Cfg = allDetectorConfig(RunMode::Windowed);
  Cfg.WindowEvents = 8 + Seed % 57;
  Cfg.StreamBatchEvents = 1 + Seed % 9;
  Cfg.Threads = 1 + Seed % 3;
  AnalysisSession S(Cfg);
  ASSERT_TRUE(S.declareTablesFrom(T).ok());
  std::vector<AnalysisResult> Partials;
  std::vector<Event> Batch;
  for (EventIdx I = 0; I != T.size(); ++I) {
    Batch.push_back(T.event(I));
    if (Batch.size() == 17 || I + 1 == T.size()) {
      ASSERT_TRUE(S.feed(Batch).ok());
      Batch.clear();
      if (I % 64 == 63)
        Partials.push_back(S.partialResult());
    }
  }
  AnalysisResult R = S.finish();
  ASSERT_TRUE(R.ok()) << R.firstError().str();
  EXPECT_TRUE(R.Streamed);
  EXPECT_EQ(R.NumShards, splitIntoWindows(T, Cfg.WindowEvents).size())
      << "window count";
  ASSERT_EQ(R.Lanes.size(), std::size(kAllKinds));
  for (size_t L = 0; L != R.Lanes.size(); ++L) {
    RunResult Want = oracleLane(Cfg, L, T);
    std::string Label =
        "windowed seed " + std::to_string(Seed) + "/" + Want.DetectorName;
    EXPECT_EQ(R.Lanes[L].DetectorName, Want.DetectorName) << Label;
    EXPECT_EQ(R.Lanes[L].EventsConsumed, T.size()) << Label;
    expectSameReport(R.Lanes[L].Report, Want.Report, T, Label);
    for (const AnalysisResult &Mid : Partials) {
      ASSERT_TRUE(Mid.Partial);
      expectReportIsPrefix(Mid.Lanes[L].Report, R.Lanes[L].Report, Label);
    }
  }
}

// Var-sharded sessions stream too: the capture clock pass runs behind
// ingestion and shard checks replay published AccessLog prefixes; the
// merged result must equal plain sequential runDetector, bit for bit.
TEST_P(ApiStreamFuzzTest, VarShardedSessionStreamsBitForBit) {
  uint64_t Seed = GetParam();
  Trace T = randomTrace(fuzzParams(Seed ^ 0x1c3f, Seed % 2 == 1));
  AnalysisConfig Cfg = allDetectorConfig(RunMode::VarSharded);
  Cfg.VarShards = 1 + Seed % 7;
  Cfg.StreamBatchEvents = 1 + Seed % 11;
  Cfg.Threads = 1 + Seed % 3;
  AnalysisSession S(Cfg);
  ASSERT_TRUE(S.declareTablesFrom(T).ok());
  std::vector<AnalysisResult> Partials;
  std::vector<Event> Batch;
  for (EventIdx I = 0; I != T.size(); ++I) {
    Batch.push_back(T.event(I));
    if (Batch.size() == 13 || I + 1 == T.size()) {
      ASSERT_TRUE(S.feed(Batch).ok());
      Batch.clear();
      if (I % 64 == 63)
        Partials.push_back(S.partialResult());
    }
  }
  AnalysisResult R = S.finish();
  ASSERT_TRUE(R.ok()) << R.firstError().str();
  EXPECT_TRUE(R.Streamed);
  EXPECT_EQ(R.VarShards, Cfg.VarShards);
  ASSERT_EQ(R.Lanes.size(), std::size(kAllKinds));
  for (size_t L = 0; L != R.Lanes.size(); ++L) {
    RunResult Want = oracleLane(Cfg, L, T);
    std::string Label =
        "var-sharded seed " + std::to_string(Seed) + "/" + Want.DetectorName;
    EXPECT_EQ(R.Lanes[L].DetectorName, Want.DetectorName) << Label;
    EXPECT_EQ(R.Lanes[L].EventsConsumed, T.size()) << Label;
    expectSameReport(R.Lanes[L].Report, Want.Report, T, Label);
    for (const AnalysisResult &Mid : Partials)
      expectReportIsPrefix(Mid.Lanes[L].Report, R.Lanes[L].Report, Label);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ApiStreamFuzzTest,
                         ::testing::Range<uint64_t>(1, 51));

// ---- Table growth mid-stream (growable state, no restarts) ------------------

TEST(ApiSessionTest, LateDeclarationsGrowLanesAndStayBitForBit) {
  AnalysisConfig Cfg = allDetectorConfig(RunMode::Sequential);
  Cfg.StreamBatchEvents = 1; // Publish/consume as eagerly as possible.
  AnalysisSession S(Cfg);
  ThreadId T0 = S.declareThread("T0");
  ThreadId T1 = S.declareThread("T1");
  VarId X = S.declareVar("x");
  LocId L1 = S.declareLoc("L1"), L2 = S.declareLoc("L2");
  ASSERT_TRUE(S.feed(Event(EventKind::Write, T0, X.value(), L1)).ok());
  ASSERT_TRUE(S.feed(Event(EventKind::Write, T1, X.value(), L2)).ok());

  // Wait until some lane actually consumed under the old tables, so the
  // upcoming declaration is a genuine mid-stream growth for it.
  for (int Spin = 0; Spin != 5000; ++Spin) {
    AnalysisResult Mid = S.partialResult();
    ASSERT_TRUE(Mid.Partial);
    uint64_t MaxConsumed = 0;
    for (const LaneReport &L : Mid.Lanes)
      MaxConsumed = std::max(MaxConsumed, L.EventsConsumed);
    if (MaxConsumed == 2)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  VarId Y = S.declareVar("y");
  LocId L3 = S.declareLoc("L3"), L4 = S.declareLoc("L4");
  ASSERT_TRUE(S.feed(Event(EventKind::Write, T0, Y.value(), L3)).ok());
  ASSERT_TRUE(S.feed(Event(EventKind::Read, T1, Y.value(), L4)).ok());
  AnalysisResult R = S.finish();
  ASSERT_TRUE(R.Overall.ok()) << R.Overall.str();

  // Bit-for-bit against batch runs over the final ingested trace; both
  // the x and y races must be present (HB sees 2 write-write/write-read
  // pairs).
  const Trace &T = S.trace();
  ASSERT_EQ(T.size(), 4u);
  expectLanesMatchSequential(R, T, "late declarations");
  EXPECT_GT(R.Lanes[0].Report.numDistinctPairs(), 1u);
}

// Late declarations in the streamed batch modes: tables grow after a lane
// already consumed events. Growable detector state admits the new ids in
// place — the windowed builder keeps its window set, the capture pass
// keeps its log and checkers — so no lane restarts and the final report
// still matches the oracle over the final trace, bit for bit.
TEST(ApiSessionTest, StreamedBatchModesGrowOnLateDeclarations) {
  for (RunMode Mode : {RunMode::Windowed, RunMode::VarSharded}) {
    AnalysisConfig Cfg = allDetectorConfig(Mode);
    Cfg.StreamBatchEvents = 1; // Publish/consume as eagerly as possible.
    Cfg.Threads = 2;
    if (Mode == RunMode::Windowed)
      Cfg.WindowEvents = 1; // Every event closes a window.
    else
      Cfg.VarShards = 3;
    AnalysisSession S(Cfg);
    ThreadId T0 = S.declareThread("T0");
    ThreadId T1 = S.declareThread("T1");
    VarId X = S.declareVar("x");
    LocId L1 = S.declareLoc("L1"), L2 = S.declareLoc("L2");
    ASSERT_TRUE(S.feed(Event(EventKind::Write, T0, X.value(), L1)).ok());
    ASSERT_TRUE(S.feed(Event(EventKind::Write, T1, X.value(), L2)).ok());

    // Wait until some lane consumed under the old tables, so the upcoming
    // declaration is a genuine mid-stream growth for it.
    bool Progressed = false;
    for (int Spin = 0; Spin != 5000 && !Progressed; ++Spin) {
      AnalysisResult Mid = S.partialResult();
      ASSERT_TRUE(Mid.Partial);
      for (const LaneReport &L : Mid.Lanes)
        Progressed = Progressed || L.EventsConsumed == 2;
      if (!Progressed)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(Progressed) << runModeName(Mode);

    VarId Y = S.declareVar("y");
    LocId L3 = S.declareLoc("L3"), L4 = S.declareLoc("L4");
    ASSERT_TRUE(S.feed(Event(EventKind::Write, T0, Y.value(), L3)).ok());
    ASSERT_TRUE(S.feed(Event(EventKind::Read, T1, Y.value(), L4)).ok());
    AnalysisResult R = S.finish();
    ASSERT_TRUE(R.ok()) << R.firstError().str();

    const Trace &T = S.trace();
    ASSERT_EQ(T.size(), 4u);
    for (size_t L = 0; L != R.Lanes.size(); ++L) {
      RunResult Want = oracleLane(Cfg, L, T);
      std::string Label = std::string("late decls ") + runModeName(Mode) +
                          "/" + Want.DetectorName;
      EXPECT_EQ(R.Lanes[L].DetectorName, Want.DetectorName) << Label;
      expectSameReport(R.Lanes[L].Report, Want.Report, T, Label);
      if (Mode == RunMode::VarSharded) { // 1-event windows see no races.
        EXPECT_GT(R.Lanes[L].Report.numDistinctPairs(), 0u) << Label;
      }
    }
  }
}

// Torn-merge stress: a producer thread pushes batches while this thread
// hammers partialResult(). Every snapshot must be well-formed — lanes ok,
// races confined to the consumed prefix, instance counts monotone — and a
// prefix of the final report. Run under TSan in CI, this also pins the
// publication protocol data-race-free for the streamed batch modes.
TEST(ApiSessionTest, StreamedBatchModesPartialResultStressUnderIngestion) {
  for (RunMode Mode : {RunMode::Windowed, RunMode::VarSharded}) {
    Trace T = randomTrace(fuzzParams(41, true));
    AnalysisConfig Cfg;
    Cfg.Mode = Mode;
    Cfg.addDetector(DetectorKind::Hb);
    Cfg.addDetector(DetectorKind::FastTrack);
    Cfg.StreamBatchEvents = 8;
    Cfg.Threads = 2;
    if (Mode == RunMode::Windowed)
      Cfg.WindowEvents = 16;
    else
      Cfg.VarShards = 4;
    AnalysisSession S(Cfg);
    ASSERT_TRUE(S.declareTablesFrom(T).ok());

    // The session contract: feeds come from one thread; partialResult may
    // run concurrently with both the producer and the consumers.
    std::thread Producer([&] {
      std::vector<Event> Batch;
      for (EventIdx I = 0; I != T.size(); ++I) {
        Batch.push_back(T.event(I));
        if (Batch.size() == 23 || I + 1 == T.size()) {
          ASSERT_TRUE(S.feed(Batch).ok());
          Batch.clear();
          std::this_thread::yield();
        }
      }
    });
    std::vector<AnalysisResult> Snaps;
    for (int Spin = 0; Spin != 200; ++Spin) {
      Snaps.push_back(S.partialResult());
      std::this_thread::yield();
    }
    Producer.join();
    Snaps.push_back(S.partialResult());
    AnalysisResult R = S.finish();
    ASSERT_TRUE(R.ok()) << R.firstError().str();

    std::vector<size_t> LastCount(R.Lanes.size(), 0);
    for (const AnalysisResult &Mid : Snaps) {
      ASSERT_TRUE(Mid.Partial);
      ASSERT_TRUE(Mid.Overall.ok()) << Mid.Overall.str();
      ASSERT_EQ(Mid.Lanes.size(), R.Lanes.size());
      for (size_t L = 0; L != Mid.Lanes.size(); ++L) {
        const LaneReport &Lane = Mid.Lanes[L];
        ASSERT_TRUE(Lane.LaneStatus.ok()) << Lane.LaneStatus.str();
        EXPECT_LE(Lane.EventsConsumed, Mid.EventsIngested);
        for (const RaceInstance &Inst : Lane.Report.instances())
          EXPECT_LT(Inst.LaterIdx, Mid.EventsIngested);
        EXPECT_GE(Lane.Report.instances().size(), LastCount[L])
            << "mid-stream reports must only grow";
        LastCount[L] = Lane.Report.instances().size();
        expectReportIsPrefix(Lane.Report, R.Lanes[L].Report,
                             std::string("stress ") + runModeName(Mode));
      }
    }
    // And the final result still matches the oracle bit for bit.
    for (size_t L = 0; L != R.Lanes.size(); ++L)
      expectSameReport(R.Lanes[L].Report, oracleLane(Cfg, L, T).Report, T,
                       std::string("stress final ") + runModeName(Mode));
  }
}

// ---- File ingestion ---------------------------------------------------------

TEST(ApiSessionTest, FeedFileBinaryStreamsBitForBit) {
  Trace T = randomTrace(fuzzParams(17, true));
  std::string Path = tempPath("stream.bin");
  ASSERT_EQ(saveTraceFile(T, Path), "");
  AnalysisConfig Cfg = allDetectorConfig(RunMode::Sequential);
  Cfg.StreamBatchEvents = 16; // Many publication rounds per file.
  AnalysisSession S(Cfg);
  ASSERT_TRUE(S.feedFile(Path).ok());
  AnalysisResult R = S.finish();
  ASSERT_TRUE(R.Overall.ok()) << R.Overall.str();
  expectLanesMatchSequential(R, S.trace(), "feedFile binary");
  std::remove(Path.c_str());
}

TEST(ApiSessionTest, FeedFileTextMatchesBatchBitForBit) {
  Trace T = randomTrace(fuzzParams(23, false));
  std::string Path = tempPath("stream.txt");
  ASSERT_EQ(saveTraceFile(T, Path), "");
  AnalysisSession S(allDetectorConfig(RunMode::Sequential));
  ASSERT_TRUE(S.feedFile(Path).ok());
  AnalysisResult R = S.finish();
  ASSERT_TRUE(R.Overall.ok()) << R.Overall.str();
  expectLanesMatchSequential(R, S.trace(), "feedFile text");
  std::remove(Path.c_str());
}

// Lanes analyze while feedFile is still reading: the producer parses,
// validates and publishes without holding the session mutex, and every
// detector exists before the first chunk, so neither the lanes nor
// progress()/partialResult() wait for ingestion to end. A FIFO (the
// reader's buffered backend) holds the producer mid-file: the test writes
// exactly one refill's worth of bytes, which holds more than one event
// chunk, so the first chunk publishes and the next read blocks until the
// writer closes. Polling runs on a helper thread against a deadline, and
// the writer is always closed, so a regression fails by timeout instead
// of hanging.
TEST(ApiSessionTest, LanesAnalyzeWhileFeedFileWaitsOnAPipe) {
  const ChunkedReaderOptions Reader;
  const uint64_t FirstChunk = Reader.MaxEventsPerChunk;
  // Complete lines filling exactly one refill: the reader's first read
  // returns without waiting for the writer to close, and EOF never cuts a
  // line.
  const std::string Line = "T0|r(x)|L1\n";
  std::string Text;
  uint64_t Lines = 0;
  while (Text.size() + 2 * Line.size() <= Reader.ChunkBytes) {
    Text += Lines % 2 ? "T1|" : "T0|";
    Text += Lines % 256 == 0 ? "w(x)" : "r(x)";
    Text += "|L1\n";
    ++Lines;
  }
  // The last line's location name pads the text to exactly ChunkBytes.
  const std::string Head = "T0|r(x)|L";
  Text += Head + std::string(Reader.ChunkBytes - Text.size() - Head.size() - 1,
                             '1') +
          "\n";
  ++Lines;
  ASSERT_EQ(Text.size(), Reader.ChunkBytes);
  ASSERT_GT(Lines, FirstChunk);

  const std::string Path = tempPath("feed.fifo");
  std::remove(Path.c_str());
  ASSERT_EQ(::mkfifo(Path.c_str(), 0600), 0) << std::strerror(errno);
  // O_RDWR never blocks on a FIFO (Linux), and the pipe keeps a reader
  // while the session's reader probes and reopens the path, so writes
  // cannot fail with EPIPE. It is the only writer: closing it is EOF.
  const int Fd = ::open(Path.c_str(), O_RDWR);
  ASSERT_GE(Fd, 0) << std::strerror(errno);

  AnalysisSession S(allDetectorConfig(RunMode::Sequential));
  Status Fed;
  std::thread Producer([&] { Fed = S.feedFile(Path); });
  bool Written = true;
  for (size_t Off = 0; Off != Text.size() && Written;) {
    const ssize_t N = ::write(Fd, Text.data() + Off, Text.size() - Off);
    Written = N > 0;
    Off += Written ? static_cast<size_t>(N) : 0;
  }

  std::atomic<bool> GiveUp{false};
  bool CaughtUp = false;
  AnalysisSession::Progress Seen;
  AnalysisResult Mid;
  std::promise<void> PollerDone;
  std::future<void> PollerExited = PollerDone.get_future();
  std::thread Poller([&] {
    while (!GiveUp.load()) {
      Seen = S.progress();
      if (Seen.MinLaneConsumed >= FirstChunk) {
        Mid = S.partialResult();
        CaughtUp = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    PollerDone.set_value();
  });
  const bool InTime = PollerExited.wait_for(std::chrono::seconds(10)) ==
                      std::future_status::ready;
  GiveUp = true;
  ::close(Fd); // EOF: ends feedFile, and with it any wait on the producer.
  Poller.join();
  Producer.join();
  std::remove(Path.c_str());

  ASSERT_TRUE(Written) << std::strerror(errno);
  ASSERT_TRUE(InTime && CaughtUp)
      << "lanes consumed " << Seen.MinLaneConsumed << " of " << Seen.Published
      << " published events while feedFile waited on the pipe";
  EXPECT_EQ(Seen.Published, FirstChunk);
  EXPECT_TRUE(Mid.Partial);
  EXPECT_TRUE(Mid.Overall.ok()) << Mid.Overall.str();
  EXPECT_EQ(Mid.EventsIngested, FirstChunk);
  ASSERT_TRUE(Fed.ok()) << Fed.str();
  AnalysisResult R = S.finish();
  ASSERT_TRUE(R.Overall.ok()) << R.Overall.str();
  ASSERT_EQ(S.trace().size(), Lines);
  expectLanesMatchSequential(R, S.trace(), "feedFile fifo");
  ASSERT_EQ(Mid.Lanes.size(), R.Lanes.size());
  for (size_t L = 0; L != R.Lanes.size(); ++L) {
    EXPECT_EQ(Mid.Lanes[L].EventsConsumed, FirstChunk);
    expectReportIsPrefix(Mid.Lanes[L].Report, R.Lanes[L].Report,
                         "feedFile fifo partial");
  }
}

TEST(ApiSessionTest, FeedFileFailuresAreStructured) {
  {
    AnalysisSession S(allDetectorConfig(RunMode::Sequential));
    Status St = S.feedFile("/nonexistent/dir/trace.bin");
    EXPECT_EQ(St.Code, StatusCode::IoError) << St.str();
    EXPECT_NE(St.Message.find("cannot open"), std::string::npos) << St.str();
    AnalysisResult R = S.finish();
    EXPECT_EQ(R.Overall.Code, StatusCode::IoError);
    EXPECT_FALSE(R.ok());
  }
  {
    std::string Path = tempPath("bad.txt");
    std::FILE *F = std::fopen(Path.c_str(), "wb");
    ASSERT_NE(F, nullptr);
    std::fputs("T0|w(x)|L1\nT1|frobnicate(x)|L2\n", F);
    std::fclose(F);
    AnalysisSession S(allDetectorConfig(RunMode::Sequential));
    Status St = S.feedFile(Path);
    EXPECT_EQ(St.Code, StatusCode::ParseError) << St.str();
    EXPECT_NE(St.Message.find("line 2"), std::string::npos) << St.str();
    AnalysisResult R = S.finish();
    EXPECT_EQ(R.Overall.Code, StatusCode::ParseError);
    std::remove(Path.c_str());
  }
}

// Ill-formed traces must never reach live detector lanes (their lock
// handling assumes the §2.1 axioms): the session validates event by
// event before publication, freezes ingestion at the first violation
// with a sticky ValidationError, and keeps the valid prefix analyzed.
TEST(ApiSessionTest, IllFormedTracesFreezeIngestionWithValidationError) {
  {
    // Push feed: a release without a matching acquire.
    AnalysisSession S(allDetectorConfig(RunMode::Sequential));
    ThreadId T0 = S.declareThread("T0");
    ThreadId T1 = S.declareThread("T1");
    VarId X = S.declareVar("x");
    LockId L = S.declareLock("l");
    LocId Loc = S.declareLoc("L1");
    ASSERT_TRUE(S.feed(Event(EventKind::Write, T0, X.value(), Loc)).ok());
    ASSERT_TRUE(S.feed(Event(EventKind::Write, T1, X.value(), Loc)).ok());
    Status Bad = S.feed(Event(EventKind::Release, T0, L.value(), Loc));
    EXPECT_EQ(Bad.Code, StatusCode::ValidationError) << Bad.str();
    EXPECT_NE(Bad.Message.find("does not hold"), std::string::npos)
        << Bad.str();
    // Sticky: further feeds rejected, finish reports the error, and the
    // valid prefix was still analyzed.
    EXPECT_EQ(S.feed(Event(EventKind::Write, T0, X.value(), Loc)).Code,
              StatusCode::ValidationError);
    AnalysisResult R = S.finish();
    EXPECT_EQ(R.Overall.Code, StatusCode::ValidationError);
    EXPECT_FALSE(R.ok());
    EXPECT_EQ(R.EventsIngested, 2u);
    for (const LaneReport &Lane : R.Lanes) {
      EXPECT_TRUE(Lane.LaneStatus.ok()) << Lane.LaneStatus.str();
      EXPECT_EQ(Lane.EventsConsumed, 2u) << Lane.DetectorName;
    }
    EXPECT_GT(R.Lanes[0].Report.numDistinctPairs(), 0u)
        << "the valid racy prefix must still be reported";
  }
  {
    // Same through feedFile on a text trace.
    std::string Path = tempPath("ill.txt");
    std::FILE *F = std::fopen(Path.c_str(), "wb");
    ASSERT_NE(F, nullptr);
    std::fputs("T0|w(x)|L1\nT0|rel(l)|L2\n", F);
    std::fclose(F);
    AnalysisSession S(allDetectorConfig(RunMode::Sequential));
    Status St = S.feedFile(Path);
    EXPECT_EQ(St.Code, StatusCode::ValidationError) << St.str();
    AnalysisResult R = S.finish();
    EXPECT_EQ(R.Overall.Code, StatusCode::ValidationError);
    EXPECT_EQ(R.EventsIngested, 1u);
    std::remove(Path.c_str());
  }
}

// ---- Mid-stream partial reports ---------------------------------------------

namespace {

/// Feeds a racy prefix to a \p Mode session, waits (bounded) for every
/// lane to consume it and show the race, and checks the partial snapshot
/// already carries it — before any finish(). A var-sharded lane's partial
/// report trails its clock pass until the shard drains catch up, so the
/// wait covers the race becoming visible, not just consumption.
void expectPartialSurfacesRace(RunMode Mode) {
  SCOPED_TRACE(runModeName(Mode));
  TraceBuilder B;
  for (int I = 0; I != 20; ++I)
    B.write(I % 2 ? "T1" : "T0", "x");
  Trace Prefix = testutil::takeValid(B);

  AnalysisConfig Cfg = allDetectorConfig(Mode);
  if (Mode == RunMode::VarSharded)
    Cfg.VarShards = 3;
  Cfg.StreamBatchEvents = 4;
  AnalysisSession S(Cfg);
  ASSERT_TRUE(S.declareTablesFrom(Prefix).ok());
  ASSERT_TRUE(S.feed(Prefix.events()).ok());

  auto surfaced = [&](const AnalysisResult &Mid) {
    for (const LaneReport &L : Mid.Lanes)
      if (L.EventsConsumed != Prefix.size() ||
          L.Report.numDistinctPairs() == 0)
        return false;
    return true;
  };
  AnalysisResult Mid;
  for (int Spin = 0; Spin != 5000; ++Spin) {
    Mid = S.partialResult();
    ASSERT_TRUE(Mid.Overall.ok()) << Mid.Overall.str();
    ASSERT_TRUE(Mid.Partial);
    if (surfaced(Mid))
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(Mid.EventsIngested, Prefix.size());
  for (const LaneReport &L : Mid.Lanes) {
    EXPECT_EQ(L.EventsConsumed, Prefix.size())
        << L.DetectorName << " did not catch up with the published prefix";
    EXPECT_GT(L.Report.numDistinctPairs(), 0u)
        << L.DetectorName << " saw no race mid-stream";
  }

  // The session keeps accepting events after the snapshot.
  ThreadId T0 = S.declareThread("T0");
  VarId X = S.declareVar("x");
  LocId L = S.declareLoc("tail");
  ASSERT_TRUE(S.feed(Event(EventKind::Read, T0, X.value(), L)).ok());
  AnalysisResult R = S.finish();
  ASSERT_TRUE(R.Overall.ok());
  EXPECT_FALSE(R.Partial);
  EXPECT_EQ(R.EventsIngested, Prefix.size() + 1);
  expectLanesMatchSequential(R, S.trace(), "after partials");
}

} // namespace

TEST(ApiSessionTest, PartialReportsSurfaceRacesMidStream) {
  for (RunMode Mode : {RunMode::Sequential, RunMode::VarSharded})
    expectPartialSurfacesRace(Mode);
}

// ---- Session protocol: structured state errors ------------------------------

TEST(ApiSessionTest, FeedAfterFinishAndDoubleFinishAreRejected) {
  AnalysisSession S(allDetectorConfig(RunMode::Sequential));
  ThreadId T0 = S.declareThread("T0");
  VarId X = S.declareVar("x");
  LocId L = S.declareLoc("L");
  ASSERT_TRUE(S.feed(Event(EventKind::Write, T0, X.value(), L)).ok());
  AnalysisResult R = S.finish();
  ASSERT_TRUE(R.Overall.ok());
  EXPECT_TRUE(S.finished());

  Status Fed = S.feed(Event(EventKind::Write, T0, X.value(), L));
  EXPECT_EQ(Fed.Code, StatusCode::InvalidState) << Fed.str();
  EXPECT_EQ(S.feedFile("x.bin").Code, StatusCode::InvalidState);

  AnalysisResult Again = S.finish();
  EXPECT_EQ(Again.Overall.Code, StatusCode::InvalidState) << "double finish";
  EXPECT_FALSE(Again.ok());

  AnalysisResult Partial = S.partialResult();
  EXPECT_EQ(Partial.Overall.Code, StatusCode::InvalidState);
}

TEST(ApiSessionTest, IngestPreconditionsAreEnforced) {
  Trace T = randomTrace(fuzzParams(3, false));
  {
    // declareTablesFrom demands an empty session.
    AnalysisSession S(allDetectorConfig(RunMode::Sequential));
    S.declareThread("T0");
    EXPECT_EQ(S.declareTablesFrom(T).Code, StatusCode::InvalidState);
  }
  {
    // Events with undeclared ids reject the whole batch atomically.
    AnalysisSession S(allDetectorConfig(RunMode::Sequential));
    ThreadId T0 = S.declareThread("T0");
    LocId L = S.declareLoc("L");
    std::vector<Event> Batch = {Event(EventKind::Write, T0, /*var=*/0, L)};
    Status St = S.feed(Batch);
    EXPECT_EQ(St.Code, StatusCode::ValidationError) << St.str();
    EXPECT_EQ(S.eventsFed(), 0u);
    AnalysisResult R = S.finish();
    EXPECT_TRUE(R.Overall.ok()) << "a rejected batch must not poison the "
                                   "session";
  }
}

// ---- Batch modes through the session ----------------------------------------

TEST(ApiSessionTest, WindowedAndVarShardedSessionsMatchOracles) {
  Trace T = randomTrace(fuzzParams(29, true));
  for (DetectorKind K : kAllKinds) {
    DetectorFactory Make = makeDetectorFactory(K);
    {
      AnalysisConfig Cfg;
      Cfg.addDetector(K);
      Cfg.Mode = RunMode::Windowed;
      Cfg.WindowEvents = 64;
      Cfg.Threads = 1;
      AnalysisSession S(Cfg);
      ASSERT_TRUE(S.declareTablesFrom(T).ok());
      ASSERT_TRUE(S.feed(T.events()).ok());
      AnalysisResult R = S.finish();
      ASSERT_TRUE(R.ok()) << R.firstError().str();
      EXPECT_TRUE(R.Streamed) << "windowed sessions stream since PR 4";
      RunResult Want = runDetectorWindowed(Make, T, 64);
      EXPECT_EQ(R.Lanes[0].DetectorName, Want.DetectorName);
      EXPECT_GT(R.NumShards, 1u);
      expectSameReport(R.Lanes[0].Report, Want.Report, T,
                       std::string("windowed session/") +
                           detectorKindName(K));
    }
    {
      AnalysisConfig Cfg;
      Cfg.addDetector(K);
      Cfg.Mode = RunMode::VarSharded;
      Cfg.VarShards = 4;
      AnalysisSession S(Cfg);
      ASSERT_TRUE(S.declareTablesFrom(T).ok());
      ASSERT_TRUE(S.feed(T.events()).ok());
      AnalysisResult R = S.finish();
      ASSERT_TRUE(R.ok()) << R.firstError().str();
      EXPECT_EQ(R.VarShards, 4u);
      std::unique_ptr<Detector> D = Make(T);
      RunResult Want = runDetector(*D, T);
      expectSameReport(R.Lanes[0].Report, Want.Report, T,
                       std::string("var-sharded session/") +
                           detectorKindName(K));
    }
  }
}

// ---- Config validation ------------------------------------------------------

TEST(AnalysisConfigTest, ValidationRejectsInconsistentCombinations) {
  auto expectInvalid = [](const AnalysisConfig &Cfg, const char *Label) {
    Status St = Cfg.validate();
    EXPECT_EQ(St.Code, StatusCode::InvalidConfig) << Label;
    EXPECT_FALSE(St.Message.empty()) << Label;
  };
  expectInvalid(AnalysisConfig(), "no detectors");
  {
    AnalysisConfig Cfg;
    Cfg.Detectors.push_back(DetectorSpec()); // Custom without factory.
    expectInvalid(Cfg, "custom without factory");
  }
  {
    AnalysisConfig Cfg;
    Cfg.addDetector(DetectorKind::Hb);
    Cfg.Detectors.back().Make = makeDetectorFactory(DetectorKind::Wcp);
    expectInvalid(Cfg, "kind plus factory is ambiguous");
  }
  {
    AnalysisConfig Cfg = allDetectorConfig(RunMode::Windowed);
    expectInvalid(Cfg, "windowed without WindowEvents");
  }
  {
    AnalysisConfig Cfg = allDetectorConfig(RunMode::Sequential);
    Cfg.WindowEvents = 100;
    expectInvalid(Cfg, "WindowEvents outside windowed mode");
  }
  {
    AnalysisConfig Cfg = allDetectorConfig(RunMode::VarSharded);
    expectInvalid(Cfg, "var-sharded without VarShards");
  }
  {
    AnalysisConfig Cfg = allDetectorConfig(RunMode::Sequential);
    Cfg.VarShards = 2;
    expectInvalid(Cfg, "VarShards outside var-sharded mode");
  }
  {
    AnalysisConfig Cfg = allDetectorConfig(RunMode::Sequential);
    Cfg.StreamBatchEvents = 0;
    expectInvalid(Cfg, "zero stream batch");
  }

  // The same statuses flow through the entry points.
  AnalysisResult R = analyzeTrace(AnalysisConfig(), Trace());
  EXPECT_EQ(R.Overall.Code, StatusCode::InvalidConfig);
  AnalysisSession S{AnalysisConfig()};
  EXPECT_EQ(S.status().Code, StatusCode::InvalidConfig);
  EXPECT_EQ(S.feed(Event()).Code, StatusCode::InvalidConfig);
  EXPECT_EQ(S.finish().Overall.Code, StatusCode::InvalidConfig);

  // Invalid configs in the pool-backed modes too: no streaming engine is
  // started, and finish()/partialResult() must report the config error,
  // not touch a pool that was never created.
  for (RunMode Mode : {RunMode::Windowed, RunMode::VarSharded}) {
    AnalysisConfig Cfg = allDetectorConfig(Mode); // Missing window/shards.
    AnalysisSession Bad(Cfg);
    EXPECT_EQ(Bad.status().Code, StatusCode::InvalidConfig)
        << runModeName(Mode);
    EXPECT_EQ(Bad.partialResult().Overall.Code, StatusCode::InvalidConfig);
    AnalysisResult Fin = Bad.finish();
    EXPECT_EQ(Fin.Overall.Code, StatusCode::InvalidConfig)
        << runModeName(Mode);
    EXPECT_TRUE(Fin.Lanes.empty());
  }
}

// A lane that throws fails alone with a structured status, in every mode:
// one detector throws from its constructor, one from its 40th event. The
// healthy lane still equals its oracle, and windowed lanes name the first
// window that failed.
TEST(ApiSessionTest, ThrowingLaneFailsAloneInStreamingSessions) {
  Trace T = randomTrace(fuzzParams(7, false));
  ASSERT_GT(T.size(), 128u);
  for (RunMode Mode :
       {RunMode::Sequential, RunMode::Windowed, RunMode::VarSharded}) {
    const std::string Label = runModeName(Mode);
    AnalysisConfig Cfg;
    Cfg.Mode = Mode;
    Cfg.StreamBatchEvents = 16;
    if (Mode == RunMode::Windowed)
      Cfg.WindowEvents = 64;
    if (Mode == RunMode::VarSharded)
      Cfg.VarShards = 2;
    Cfg.addDetector(DetectorKind::Hb);
    Cfg.addDetector(
        [](const Trace &) -> std::unique_ptr<Detector> {
          throw std::runtime_error("detector exploded");
        },
        "Boom");
    Cfg.addDetector(testutil::hbThrowingAt(40), "MidBoom");
    AnalysisSession S(Cfg);
    ASSERT_TRUE(S.declareTablesFrom(T).ok());
    ASSERT_TRUE(S.feed(T.events()).ok());
    AnalysisResult R = S.finish();
    ASSERT_EQ(R.Lanes.size(), 3u) << Label;
    ASSERT_TRUE(R.Lanes[0].LaneStatus.ok())
        << Label << ": " << R.Lanes[0].LaneStatus.str();
    EXPECT_GT(R.Lanes[0].Report.numDistinctPairs(), 0u) << Label;
    expectSameReport(R.Lanes[0].Report, oracleLane(Cfg, 0, T).Report, T,
                     Label + "/HB");

    const std::string Where = Mode == RunMode::Windowed ? "window 0: " : "";
    EXPECT_EQ(R.Lanes[1].LaneStatus.Code, StatusCode::AnalysisError) << Label;
    EXPECT_EQ(R.Lanes[1].LaneStatus.Message, Where + "detector exploded")
        << Label;
    EXPECT_EQ(R.Lanes[1].DetectorName,
              Mode == RunMode::Windowed ? "Boom[w=64]" : "Boom");
    EXPECT_EQ(R.Lanes[2].LaneStatus.Code, StatusCode::AnalysisError) << Label;
    EXPECT_EQ(R.Lanes[2].LaneStatus.Message,
              Where + "detector exploded at event 40")
        << Label;
    EXPECT_FALSE(R.ok()) << Label;
    EXPECT_EQ(R.firstError().Code, StatusCode::AnalysisError) << Label;
  }
}

// A failed lane has stopped for good, so it must stop holding back
// progress(): otherwise Published - MinLaneConsumed only grows, and a
// served client parked on that lag never resumes.
TEST(ApiSessionTest, FailedLaneStopsHoldingBackProgress) {
  Trace T = randomTrace(fuzzParams(7, false));
  ASSERT_GT(T.size(), 128u);
  for (RunMode Mode : {RunMode::Sequential, RunMode::VarSharded}) {
    const std::string Label = runModeName(Mode);
    AnalysisConfig Cfg;
    Cfg.Mode = Mode;
    Cfg.StreamBatchEvents = 16;
    if (Mode == RunMode::VarSharded)
      Cfg.VarShards = 2;
    Cfg.addDetector(DetectorKind::Hb);
    Cfg.addDetector(testutil::hbThrowingAt(100), "MidBoom");
    AnalysisSession S(Cfg);
    ASSERT_TRUE(S.declareTablesFrom(T).ok());
    ASSERT_TRUE(S.feed(T.events()).ok());

    // Bounded: ten seconds at most, so a stuck lag fails instead of hanging.
    AnalysisSession::Progress P;
    bool CaughtUp = false;
    for (int Spin = 0; Spin != 10000 && !CaughtUp; ++Spin) {
      P = S.progress();
      CaughtUp = P.Published == T.size() && P.MinLaneConsumed == P.Published;
      if (!CaughtUp)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(CaughtUp) << Label << ": lag stuck at "
                          << P.Published - P.MinLaneConsumed << " of "
                          << P.Published << " published events";

    AnalysisResult Mid = S.partialResult();
    ASSERT_EQ(Mid.Lanes.size(), 2u) << Label;
    EXPECT_EQ(Mid.Lanes[1].LaneStatus.Code, StatusCode::AnalysisError)
        << Label;
    EXPECT_LT(Mid.Lanes[1].EventsConsumed, 100u) << Label;
    AnalysisResult R = S.finish();
    EXPECT_TRUE(R.Lanes[0].LaneStatus.ok()) << Label;
    EXPECT_EQ(R.Lanes[0].EventsConsumed, T.size()) << Label;
    EXPECT_EQ(R.Lanes[1].LaneStatus.Message, "detector exploded at event 100")
        << Label;
  }
}
