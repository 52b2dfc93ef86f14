//===- tests/pipeline_test.cpp - analyzeTrace, chunked reader, thread pool ----===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
// The one-shot batch entry point's contract is *determinism*: analyzeTrace
// runs the session engine over a caller's complete trace, and every mode
// must be bit-for-bit identical (same race pairs, same witness indices, in
// the same order) to the session-free oracles — sequential runDetector,
// and for windowed runs the plain fresh-detector-per-window loop — across
// thread counts, shard counts, window sizes and scheduling. These tests
// pin that contract on the paper figures and on randomized traces, and
// cover the streaming chunked reader against the one-shot loader byte for
// byte.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "api/AnalysisSession.h"
#include "gen/PaperTraces.h"
#include "gen/RandomTraceGen.h"
#include "gen/Workloads.h"
#include "hb/FastTrackDetector.h"
#include "hb/HbDetector.h"
#include "io/BinaryFormat.h"
#include "io/TraceFile.h"
#include "lockset/EraserDetector.h"
#include "pipeline/ChunkedReader.h"
#include "support/ThreadPool.h"
#include "trace/Window.h"
#include "wcp/WcpDetector.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>

using namespace rapid;

namespace {

// The standard four-lane fan-out: every streaming detector in the repo.
struct NamedFactory {
  const char *Name;
  DetectorFactory Make;
};

std::vector<NamedFactory> allLanes() {
  return {
      {"HB", [](const Trace &T) { return std::make_unique<HbDetector>(T); }},
      {"WCP", [](const Trace &T) { return std::make_unique<WcpDetector>(T); }},
      {"FastTrack",
       [](const Trace &T) { return std::make_unique<FastTrackDetector>(T); }},
      {"Eraser",
       [](const Trace &T) { return std::make_unique<EraserDetector>(T); }},
  };
}

/// A four-lane config in \p Mode on \p Threads pool workers.
AnalysisConfig allLanesConfig(RunMode Mode, unsigned Threads = 4) {
  AnalysisConfig Cfg;
  Cfg.Mode = Mode;
  Cfg.Threads = Threads;
  for (NamedFactory &F : allLanes())
    Cfg.addDetector(F.Make, F.Name);
  return Cfg;
}

using testutil::expectSameReport;
using testutil::oracleLane;

/// Runs \p Cfg through analyzeTrace and holds every lane to its oracle.
void expectAnalyzeMatchesOracle(const Trace &T, const AnalysisConfig &Cfg,
                                const std::string &Label) {
  AnalysisResult R = analyzeTrace(Cfg, T);
  ASSERT_TRUE(R.Overall.ok()) << Label << ": " << R.Overall.str();
  ASSERT_EQ(R.Lanes.size(), Cfg.Detectors.size());
  for (size_t L = 0; L != R.Lanes.size(); ++L) {
    EXPECT_TRUE(R.Lanes[L].LaneStatus.ok()) << R.Lanes[L].LaneStatus.str();
    expectSameReport(R.Lanes[L].Report, oracleLane(Cfg, L, T).Report, T,
                     Label + "/" + Cfg.Detectors[L].Name);
  }
}

void expectSameTrace(const Trace &A, const Trace &B) {
  ASSERT_EQ(A.size(), B.size());
  ASSERT_EQ(A.numThreads(), B.numThreads());
  ASSERT_EQ(A.numLocks(), B.numLocks());
  ASSERT_EQ(A.numVars(), B.numVars());
  ASSERT_EQ(A.numLocs(), B.numLocs());
  for (EventIdx I = 0; I != A.size(); ++I) {
    const Event &X = A.event(I);
    const Event &Y = B.event(I);
    ASSERT_EQ(static_cast<int>(X.Kind), static_cast<int>(Y.Kind)) << I;
    ASSERT_TRUE(X.Thread == Y.Thread) << I;
    ASSERT_EQ(X.Target, Y.Target) << I;
    ASSERT_TRUE(X.Loc == Y.Loc) << I;
  }
  for (uint32_t I = 0; I != A.numThreads(); ++I)
    ASSERT_EQ(A.threadName(ThreadId(I)), B.threadName(ThreadId(I)));
  for (uint32_t I = 0; I != A.numLocs(); ++I)
    ASSERT_EQ(A.locName(LocId(I)), B.locName(LocId(I)));
}

std::string tempPath(const std::string &Name) {
  return ::testing::TempDir() + "rapidpp_" + Name;
}

Trace mediumRandomTrace(uint64_t Seed) {
  RandomTraceParams Params;
  Params.Seed = Seed;
  Params.NumThreads = 2 + Seed % 4;
  Params.NumLocks = 2 + Seed % 3;
  Params.OpsPerThread = 60;
  Params.WithForkJoin = Seed % 2 == 0;
  return randomTrace(Params);
}

} // namespace

// ---- analyzeTrace: multi-detector fan-out -----------------------------------

TEST(AnalyzeTraceTest, SequentialMatchesRunDetectorOnPaperTraces) {
  for (const PaperTrace &P : allPaperTraces())
    expectAnalyzeMatchesOracle(P.T, allLanesConfig(RunMode::Sequential),
                               P.Name);
}

class AnalyzeTraceRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AnalyzeTraceRandomTest, SequentialMatchesRunDetector) {
  Trace T = mediumRandomTrace(GetParam());
  expectAnalyzeMatchesOracle(T, allLanesConfig(RunMode::Sequential),
                             "random seed " + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Random, AnalyzeTraceRandomTest,
                         ::testing::Range<uint64_t>(1, 13));

// The adopted trace is the published store: the whole trace counts as
// ingested and published, no lane is reported as streamed, and nothing
// was validated or copied on the way (EventsIngested is the caller's
// size in every mode).
TEST(AnalyzeTraceTest, AdoptsTheWholeTraceInEveryMode) {
  Trace T = mediumRandomTrace(8);
  for (RunMode Mode :
       {RunMode::Sequential, RunMode::Windowed, RunMode::VarSharded}) {
    AnalysisConfig Cfg = allLanesConfig(Mode, 2);
    if (Mode == RunMode::Windowed)
      Cfg.WindowEvents = 50;
    if (Mode == RunMode::VarSharded)
      Cfg.VarShards = 3;
    AnalysisResult R = analyzeTrace(Cfg, T);
    ASSERT_TRUE(R.ok()) << runModeName(Mode) << ": " << R.firstError().str();
    EXPECT_FALSE(R.Streamed) << runModeName(Mode);
    EXPECT_FALSE(R.Partial) << runModeName(Mode);
    EXPECT_EQ(R.EventsIngested, T.size()) << runModeName(Mode);
    uint64_t Published = 0;
    for (const MetricSample &S : R.Telemetry)
      if (S.Name == "publish.events")
        Published = S.Value;
    EXPECT_EQ(Published, T.size()) << runModeName(Mode);
    for (const LaneReport &L : R.Lanes)
      EXPECT_EQ(L.EventsConsumed, T.size())
          << runModeName(Mode) << "/" << L.DetectorName;
    expectAnalyzeMatchesOracle(T, Cfg, runModeName(Mode));
  }
}

// Threads only size the pool of the pool-backed modes; for every worker
// count both must still equal their oracles bit for bit.
TEST(AnalyzeTraceTest, ThreadCountDoesNotChangeResults) {
  Trace T = makeWorkload(workloadSpec("account"));
  for (unsigned N : {1u, 2u, 4u, 8u}) {
    AnalysisConfig Win = allLanesConfig(RunMode::Windowed, N);
    Win.WindowEvents = 256;
    expectAnalyzeMatchesOracle(T, Win,
                               "windowed threads=" + std::to_string(N));
    AnalysisConfig Var = allLanesConfig(RunMode::VarSharded, N);
    Var.VarShards = 4;
    expectAnalyzeMatchesOracle(T, Var,
                               "var-sharded threads=" + std::to_string(N));
  }
}

TEST(AnalyzeTraceTest, VarShardedLanesMatchSequentialForAnyShardAndThreadCount) {
  // Per-variable sharding must be invisible in the results: capture-
  // capable lanes (HB, WCP, and FastTrack via its epoch replayer) go
  // through the clock pass + shard check + merge machinery, the rest
  // (Eraser) fall back to a sequential walk, and every lane's report
  // stays bit-identical to runDetector for any shard or thread count.
  for (uint64_t Seed : {4u, 9u}) {
    Trace T = mediumRandomTrace(Seed);
    for (uint32_t Shards : {1u, 3u, 8u}) {
      for (unsigned Threads : {1u, 4u}) {
        AnalysisConfig Cfg = allLanesConfig(RunMode::VarSharded, Threads);
        Cfg.VarShards = Shards;
        EXPECT_EQ(analyzeTrace(Cfg, T).VarShards, Shards);
        expectAnalyzeMatchesOracle(T, Cfg,
                                   "varshards=" + std::to_string(Shards) +
                                       " threads=" + std::to_string(Threads));
      }
    }
  }
}

// ---- Windowed mode ----------------------------------------------------------

TEST(AnalyzeTraceTest, WindowedMatchesReferenceLoop) {
  // Reference: the classic sequential windowed loop — fresh detector per
  // window, indices translated to the parent trace, merged in window
  // order — spelled out here independently of runDetectorWindowed. The
  // pool-backed windowed mode must reproduce it exactly.
  Trace T = makeWorkload(workloadSpec("bufwriter"), 0.05);
  for (uint64_t W : {64u, 500u, 4096u}) {
    for (NamedFactory &F : allLanes()) {
      RaceReport Want;
      for (TraceWindow &Win : splitIntoWindows(T, W)) {
        std::unique_ptr<Detector> D = F.Make(Win.Fragment);
        for (EventIdx I = 0; I != Win.Fragment.size(); ++I)
          D->processEvent(Win.Fragment.event(I), I);
        D->finish();
        RaceReport Translated;
        for (RaceInstance Inst : D->report().instances()) {
          Inst.EarlierIdx = Win.Original[Inst.EarlierIdx];
          Inst.LaterIdx = Win.Original[Inst.LaterIdx];
          Translated.addRace(Inst);
        }
        Want.mergeFrom(Translated);
      }

      AnalysisConfig Cfg;
      Cfg.Mode = RunMode::Windowed;
      Cfg.WindowEvents = W;
      Cfg.Threads = 4;
      Cfg.addDetector(F.Make);
      AnalysisResult R = analyzeTrace(Cfg, T);
      ASSERT_EQ(R.Lanes.size(), 1u);
      EXPECT_EQ(R.Lanes[0].DetectorName,
                std::string(F.Name) + "[w=" + std::to_string(W) + "]");
      expectSameReport(R.Lanes[0].Report, Want, T,
                       std::string(F.Name) + " w=" + std::to_string(W));
    }
  }
}

TEST(AnalyzeTraceTest, WindowedOracleWholeWindowIsUnwindowed) {
  // runDetectorWindowed is the windowed oracle; it must agree with the
  // unwindowed run when one window spans the whole trace.
  Trace T = makeWorkload(workloadSpec("mergesort"));
  RaceReport Full = testutil::run<HbDetector>(T);
  DetectorFactory Make = [](const Trace &F) {
    return std::make_unique<HbDetector>(F);
  };
  RunResult Whole = runDetectorWindowed(Make, T, T.size());
  EXPECT_EQ(Whole.DetectorName, "HB[w=" + std::to_string(T.size()) + "]");
  expectSameReport(Whole.Report, Full, T, "whole-window");
  RunResult Unwindowed = runDetectorWindowed(Make, T, 0);
  EXPECT_EQ(Unwindowed.DetectorName, "HB");
  expectSameReport(Unwindowed.Report, Full, T, "window 0");
}

// ---- Streaming ingestion ----------------------------------------------------

TEST(ChunkedReaderTest, TextMatchesWholeFileLoad) {
  Trace T = mediumRandomTrace(7);
  std::string Path = tempPath("chunk.txt");
  ASSERT_EQ(saveTraceFile(T, Path), "");
  TraceLoadResult Whole = loadTraceFile(Path);
  ASSERT_TRUE(Whole.Ok) << Whole.Error;
  // Deliberately hostile chunk sizes: 7-byte reads split every line.
  ChunkedReaderOptions Opts;
  Opts.ChunkBytes = 7;
  Opts.MaxEventsPerChunk = 3;
  TraceLoadResult Chunked = loadTraceFileChunked(Path, Opts);
  ASSERT_TRUE(Chunked.Ok) << Chunked.Error;
  expectSameTrace(Chunked.T, Whole.T);
  std::remove(Path.c_str());
}

TEST(ChunkedReaderTest, BinaryMatchesWholeFileLoadCaseInsensitive) {
  Trace T = mediumRandomTrace(11);
  // Upper-case extension must still select the binary codec (both when
  // saving and when loading), per the case-insensitive dispatch fix.
  std::string Path = tempPath("chunk.BIN");
  ASSERT_EQ(saveTraceFile(T, Path), "");
  TraceLoadResult Whole = loadTraceFile(Path);
  ASSERT_TRUE(Whole.Ok) << Whole.Error;
  ChunkedReaderOptions Opts;
  Opts.ChunkBytes = 5; // Smaller than one 13-byte event record.
  Opts.MaxEventsPerChunk = 4;
  TraceLoadResult Chunked = loadTraceFileChunked(Path, Opts);
  ASSERT_TRUE(Chunked.Ok) << Chunked.Error;
  expectSameTrace(Chunked.T, Whole.T);
  std::remove(Path.c_str());
}

TEST(ChunkedReaderTest, DeliversBoundedBatches) {
  Trace T = mediumRandomTrace(3);
  std::string Path = tempPath("batches.bin");
  ASSERT_EQ(saveTraceFile(T, Path), "");
  ChunkedReaderOptions Opts;
  Opts.MaxEventsPerChunk = 10;
  ChunkedTraceReader Reader(Path, Opts);
  uint64_t Calls = 0;
  while (!Reader.done()) {
    uint64_t Got = Reader.nextChunk();
    EXPECT_LE(Got, 10u);
    Calls += Got > 0;
  }
  ASSERT_TRUE(Reader.ok()) << Reader.error();
  EXPECT_EQ(Reader.eventsDelivered(), T.size());
  EXPECT_GE(Calls, T.size() / 10);
  expectSameTrace(Reader.take(), T);
  std::remove(Path.c_str());
}

TEST(ChunkedReaderTest, MissingFileSurfacesErrnoText) {
  TraceLoadResult R = loadTraceFileChunked("/nonexistent/dir/trace.txt");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("cannot open"), std::string::npos) << R.Error;
  EXPECT_NE(R.Error.find("No such file"), std::string::npos) << R.Error;
  // The one-shot loader reports the same way.
  TraceLoadResult R2 = loadTraceFile("/nonexistent/dir/trace.txt");
  EXPECT_FALSE(R2.Ok);
  EXPECT_NE(R2.Error.find("No such file"), std::string::npos) << R2.Error;
}

TEST(ChunkedReaderTest, CorruptHugeEventCountFailsGracefully) {
  // A crafted header declaring ~2^64 events must produce a parse error,
  // not an allocation throw — in both the one-shot and chunked loaders.
  Trace T = mediumRandomTrace(1);
  std::string Bytes = writeBinaryTrace(T);
  // The u64 count sits right before the first 13-byte event record.
  size_t CountPos = Bytes.size() - T.size() * 13 - 8;
  for (size_t I = 0; I != 8; ++I)
    Bytes[CountPos + I] = static_cast<char>(0xFF);
  BinaryParseResult R = parseBinaryTrace(Bytes);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("truncated"), std::string::npos) << R.Error;

  std::string Path = tempPath("huge.bin");
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr);
  std::fwrite(Bytes.data(), 1, Bytes.size(), F);
  std::fclose(F);
  TraceLoadResult Chunked = loadTraceFileChunked(Path);
  EXPECT_FALSE(Chunked.Ok);
  EXPECT_NE(Chunked.Error.find("truncated"), std::string::npos)
      << Chunked.Error;
  std::remove(Path.c_str());
}

TEST(ChunkedReaderTest, MalformedLineReportsLineNumber) {
  std::string Path = tempPath("bad.txt");
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr);
  std::fputs("T0|w(x)|L1\n# comment\nT1|frobnicate(x)|L2\n", F);
  std::fclose(F);
  TraceLoadResult R = loadTraceFileChunked(Path, {16, 2});
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("line 3"), std::string::npos) << R.Error;
  EXPECT_NE(R.Error.find("frobnicate"), std::string::npos) << R.Error;
  std::remove(Path.c_str());
}

TEST(ChunkedReaderTest, EmptyBinFileMatchesOneShotLoaderError) {
  std::string Path = tempPath("empty.bin");
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_NE(F, nullptr);
  std::fclose(F);
  TraceLoadResult Whole = loadTraceFile(Path);
  TraceLoadResult Chunked = loadTraceFileChunked(Path);
  EXPECT_FALSE(Whole.Ok);
  EXPECT_FALSE(Chunked.Ok);
  EXPECT_EQ(Whole.Error, Chunked.Error);
  EXPECT_NE(Chunked.Error.find("bad magic"), std::string::npos)
      << Chunked.Error;
  std::remove(Path.c_str());
}

// ---- Thread pool ------------------------------------------------------------

TEST(ThreadPoolTest, ExecutesEveryTaskIncludingNestedSubmits) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.numThreads(), 4u);
  std::atomic<int> Count{0};
  for (int I = 0; I != 100; ++I)
    Pool.submit([&Count] { ++Count; });
  // Tasks may fan out further tasks; wait() must cover those too.
  Pool.submit([&Pool, &Count] {
    for (int I = 0; I != 50; ++I)
      Pool.submit([&Count] { ++Count; });
  });
  Pool.wait();
  EXPECT_EQ(Count.load(), 150);
  EXPECT_EQ(Pool.tasksExecuted(), 151u);
}

TEST(ThreadPoolTest, WaitIsReusableAcrossBatches) {
  ThreadPool Pool(2);
  std::atomic<int> Count{0};
  for (int Batch = 0; Batch != 3; ++Batch) {
    for (int I = 0; I != 20; ++I)
      Pool.submit([&Count] { ++Count; });
    Pool.wait();
    EXPECT_EQ(Count.load(), (Batch + 1) * 20);
  }
  EXPECT_LE(Pool.tasksStolen(), Pool.tasksExecuted());
}

TEST(ThreadPoolTest, DefaultConcurrencyIsPositive) {
  EXPECT_GE(ThreadPool::defaultConcurrency(), 1u);
  ThreadPool Pool; // Default-sized pool constructs and drains cleanly.
  Pool.submit([] {});
  Pool.wait();
}
