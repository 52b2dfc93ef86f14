//===- tests/detectors_test.cpp - FastTrack, Eraser, CP, windowing ------------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "api/AnalysisSession.h"
#include "cp/CpEngine.h"
#include "detect/DetectorRunner.h"
#include "gen/PaperTraces.h"
#include "gen/RandomTraceGen.h"
#include "gen/Workloads.h"
#include "hb/FastTrackDetector.h"
#include "hb/HbDetector.h"
#include "lockset/EraserDetector.h"
#include "mcm/WindowedPredictor.h"
#include "trace/TraceBuilder.h"
#include "wcp/WcpDetector.h"

#include <gtest/gtest.h>

using namespace rapid;

// ---- FastTrack --------------------------------------------------------------

class FastTrackTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FastTrackTest, AgreesWithHbOnRacyVariables) {
  // FastTrack's guarantee: it reports a race on variable x iff the full
  // vector-clock analysis does (it may report fewer distinct pairs).
  RandomTraceParams Params;
  Params.Seed = GetParam();
  Params.NumThreads = 2 + GetParam() % 4;
  Params.OpsPerThread = 40;
  Params.WithForkJoin = GetParam() % 3 == 0;
  Trace T = randomTrace(Params);
  RaceReport Hb = testutil::run<HbDetector>(T);
  RaceReport Ft = testutil::run<FastTrackDetector>(T);
  EXPECT_EQ(testutil::racyVars(Hb, T), testutil::racyVars(Ft, T));
  // Every FastTrack pair is an HB pair.
  for (const RaceInstance &I : Ft.instances())
    EXPECT_TRUE(Hb.hasPair(I.pair())) << I.str(T);
  // The same guarantee for var-sharded FastTrack, held against sequential
  // HB rather than against sequential FastTrack (which runs the same
  // epoch checker as the shards).
  for (uint32_t Shards : {1u, 2u, 4u, 8u}) {
    AnalysisConfig Cfg;
    Cfg.addDetector(DetectorKind::FastTrack);
    Cfg.Mode = RunMode::VarSharded;
    Cfg.VarShards = Shards;
    Cfg.Threads = 2;
    AnalysisResult R = analyzeTrace(Cfg, T);
    ASSERT_TRUE(R.Overall.ok()) << R.Overall.str();
    const RaceReport &Sharded = R.Lanes.at(0).Report;
    EXPECT_EQ(testutil::racyVars(Hb, T), testutil::racyVars(Sharded, T))
        << Shards << " shards";
    for (const RaceInstance &I : Sharded.instances())
      EXPECT_TRUE(Hb.hasPair(I.pair())) << Shards << " shards: " << I.str(T);
  }
}

INSTANTIATE_TEST_SUITE_P(Random, FastTrackTest,
                         ::testing::Range<uint64_t>(1, 25));

TEST(FastTrackTest, PaperFigureVerdictsMatchHb) {
  for (const PaperTrace &P : allPaperTraces()) {
    RaceReport Ft = testutil::run<FastTrackDetector>(P.T);
    EXPECT_EQ(Ft.numDistinctPairs() > 0, P.HbRace) << P.Name;
  }
}

TEST(FastTrackTest, ReadSharingPromotesToVectorClock) {
  // Concurrent reads force the read history into vector mode; a later
  // unordered write must race with *both* reads.
  TraceBuilder B;
  B.write("t0", "x", "w0");
  B.acquire("t0", "l").release("t0", "l");
  B.acquire("t1", "l").release("t1", "l");
  B.acquire("t2", "l").release("t2", "l");
  B.read("t1", "x", "r1");
  B.read("t2", "x", "r2");
  B.write("t3", "x", "w3");
  Trace T = testutil::takeValid(B);
  FastTrackDetector D(T);
  RaceReport R = runDetector(D, T).Report;
  EXPECT_GE(D.numReadVectorPromotions(), 1u);
  // Events: w0=0, three lock pairs=1..6, r1=7, r2=8, w3=9.
  EXPECT_TRUE(R.hasPair(RacePair(T.event(7).Loc, T.event(9).Loc)));
  EXPECT_TRUE(R.hasPair(RacePair(T.event(8).Loc, T.event(9).Loc)));
}

TEST(FastTrackTest, SameEpochShortcutsDoNotMissRaces) {
  TraceBuilder B;
  B.read("t1", "x", "r1a");
  B.read("t1", "x", "r1b"); // Same epoch: shortcut path.
  B.write("t2", "x", "w2");
  RaceReport R = testutil::run<FastTrackDetector>(testutil::takeValid(B));
  EXPECT_GE(R.numDistinctPairs(), 1u);
}

// ---- Eraser -----------------------------------------------------------------

TEST(EraserTest, CatchesUnprotectedSharing) {
  TraceBuilder B;
  B.write("t1", "x", "a");
  B.write("t2", "x", "b");
  RaceReport R = testutil::run<EraserDetector>(testutil::takeValid(B));
  EXPECT_EQ(R.numDistinctPairs(), 1u);
}

TEST(EraserTest, ConsistentLockingIsQuiet) {
  TraceBuilder B;
  for (const char *T : {"t1", "t2", "t1"}) {
    B.acquire(T, "l").read(T, "x").write(T, "x").release(T, "l");
  }
  RaceReport R = testutil::run<EraserDetector>(testutil::takeValid(B));
  EXPECT_EQ(R.numDistinctPairs(), 0u);
}

TEST(EraserTest, ReadSharedDataDoesNotWarn) {
  // Write during initialization (exclusive), then read-only sharing.
  TraceBuilder B;
  B.write("t1", "x", "init");
  B.read("t2", "x", "r2");
  B.read("t3", "x", "r3");
  RaceReport R = testutil::run<EraserDetector>(testutil::takeValid(B));
  EXPECT_EQ(R.numDistinctPairs(), 0u);
}

TEST(EraserTest, MissesHbOrderedRacesThatLacksLocks) {
  // Fork/join ordering without locks: no race exists, but Eraser has no
  // notion of HB and warns anyway — the unsoundness §1 describes.
  TraceBuilder B;
  B.write("t1", "x", "parent");
  B.fork("t1", "t2");
  B.write("t2", "x", "child");
  RaceReport R = testutil::run<EraserDetector>(testutil::takeValid(B));
  EXPECT_EQ(R.numDistinctPairs(), 1u) << "expected the classic false alarm";
}

// ---- CP engine ----------------------------------------------------------------

TEST(CpEngineTest, MatchesPaperVerdictsOnFigures) {
  for (const PaperTrace &P : allPaperTraces()) {
    CpResult R = runCpFull(P.T);
    EXPECT_EQ(R.Report.numDistinctPairs() > 0, P.CpRace) << P.Name;
  }
}

TEST(CpEngineTest, WindowedCpMissesCrossWindowRaces) {
  // Build fig1b-style races separated by padding so they never share a
  // 10-event window.
  TraceBuilder B;
  B.write("t1", "y", "first");
  for (int I = 0; I < 30; ++I)
    B.acrl("t1", "pad");
  B.read("t2", "y", "second");
  Trace T = testutil::takeValid(B);
  CpResult Full = runCpFull(T);
  EXPECT_EQ(Full.Report.numDistinctPairs(), 1u);
  CpResult Windowed = runCpWindowed(T, 10);
  EXPECT_EQ(Windowed.Report.numDistinctPairs(), 0u);
  EXPECT_GT(Windowed.NumWindows, 1u);
}

TEST(CpEngineTest, WindowedClosureWorksForAnyOrder) {
  Trace T = paperFig2b().T;
  CpResult R = runClosureWindowed(T, T.size(), OrderKind::WCP);
  EXPECT_EQ(R.Report.numDistinctPairs() > 0, true);
}

// ---- Windowed runs of streaming detectors ------------------------------------

TEST(WindowedDetectorTest, WindowingLosesFarRaces) {
  // The central §4.3 claim, on the bufwriter model: its far race spans
  // most of the trace, so windowed HB/WCP misses it while the unwindowed
  // run reports it.
  WorkloadSpec Spec = workloadSpec("bufwriter");
  Trace T = makeWorkload(Spec, 0.02);
  RaceReport Full = testutil::run<WcpDetector>(T);
  ASSERT_EQ(Full.numDistinctPairs(), Spec.expectedWcpPairs());

  DetectorFactory Make = [](const Trace &Fragment) {
    return std::make_unique<WcpDetector>(Fragment);
  };
  RunResult Windowed = runDetectorWindowed(Make, T, 500);
  EXPECT_LT(Windowed.Report.numDistinctPairs(), Full.numDistinctPairs());
}

TEST(WindowedDetectorTest, WholeTraceWindowEqualsUnwindowedRun) {
  // Windowed detection is *not* monotone in the window size (boundary
  // alignment moves), but a window covering the whole trace must agree
  // exactly with the unwindowed run, and any window can only see races
  // the full analysis sees on these planted models.
  WorkloadSpec Spec = workloadSpec("mergesort");
  Trace T = makeWorkload(Spec);
  RaceReport Full = testutil::run<HbDetector>(T);
  DetectorFactory Make = [](const Trace &Fragment) {
    return std::make_unique<HbDetector>(Fragment);
  };
  RunResult Whole = runDetectorWindowed(Make, T, T.size());
  EXPECT_EQ(Whole.Report.numDistinctPairs(), Full.numDistinctPairs());
  for (uint64_t W : {64u, 256u, 1024u}) {
    RunResult Win = runDetectorWindowed(Make, T, W);
    for (const RaceInstance &I : Win.Report.instances())
      EXPECT_TRUE(Full.hasPair(I.pair()))
          << "window " << W << " invented " << I.str(T);
  }
}

// ---- Cross-detector taxonomy (paper §1) --------------------------------------

TEST(TaxonomyTest, DetectorHierarchyOnWorkloads) {
  // WCP ⊇ HB ⊇ FastTrack-racy-vars; Eraser is incomparable (unsound).
  for (const char *Name : {"account", "pingpong", "mergesort"}) {
    Trace T = makeWorkload(workloadSpec(Name));
    RaceReport Hb = testutil::run<HbDetector>(T);
    RaceReport Wcp = testutil::run<WcpDetector>(T);
    for (const RaceInstance &I : Hb.instances())
      EXPECT_TRUE(Wcp.hasPair(I.pair())) << Name << ": " << I.str(T);
  }
}
