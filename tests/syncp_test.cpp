//===- tests/syncp_test.cpp - Sync-preserving detector lane -------------------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
// Pins the SyncP lane (src/syncp/) four ways:
//
//  * separation — hand-built gadgets where the sync-preserving closure
//    finds a race WCP provably orders away (the POPL'21 motivation: a
//    correct reordering may *drop* critical sections, which no
//    partial-order detector can express), with the verdicts cross-checked
//    against the exhaustive witness search;
//  * soundness — every race SyncP reports on small traces (paper figures
//    and fuzzed) must come with a closure witness that the correct-
//    reordering checker accepts, and the exhaustive search must agree the
//    pair is racy;
//  * mode equivalence — sequential, windowed and var-sharded runs
//    are bit-for-bit identical (the repo-wide determinism contract; the
//    differential and growth fuzzers extend this across the adversarial
//    workload matrix), and identical to an oracle lane that decides every
//    candidate with the per-pair closure (reference/SyncPClosureOracle)
//    instead of the lane's incremental checker;
//  * linear work — the checker's closure work per event and thread stays
//    flat as the trace grows tenfold.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "api/AnalysisSession.h"
#include "detect/AccessHistory.h"
#include "detect/DetectorRunner.h"
#include "gen/PaperTraces.h"
#include "gen/RandomTraceGen.h"
#include "reference/ClosureEngine.h"
#include "reference/SyncPClosureOracle.h"
#include "syncp/SyncPDetector.h"
#include "trace/TraceBuilder.h"
#include "verify/WitnessSearch.h"
#include "wcp/WcpDetector.h"

#include <gtest/gtest.h>

using namespace rapid;

namespace {

/// Asserts that every race in \p Report has a closure witness that the
/// correct-reordering checker accepts — the detector's soundness argument,
/// executed.
void expectAllWitnessed(const Trace &T, const RaceReport &Report,
                        const std::string &Label) {
  SyncPClosureOracle Oracle(T);
  for (const RaceInstance &R : Report.instances()) {
    std::vector<EventIdx> Witness;
    ASSERT_TRUE(
        Oracle.isSyncPreservingRace(R.EarlierIdx, R.LaterIdx, &Witness))
        << Label << ": reported race lost its closure witness: " << R.str(T);
    ReorderingCheck C = checkRaceWitness(T, Witness);
    EXPECT_TRUE(C.Ok) << Label << ": closure witness for " << R.str(T)
                      << " is not a correct reordering: " << C.Error;
  }
}

/// Runs the SyncP lane through one run mode via the unified API.
RaceReport runMode(const Trace &T, RunMode Mode, uint64_t WindowEvents = 0,
                   uint32_t VarShards = 0) {
  AnalysisConfig Cfg;
  Cfg.addDetector(DetectorKind::SyncP);
  Cfg.Mode = Mode;
  Cfg.WindowEvents = WindowEvents;
  Cfg.VarShards = VarShards;
  AnalysisResult R = analyzeTrace(Cfg, T);
  EXPECT_TRUE(R.ok()) << R.firstError().Message;
  return R.Lanes.empty() ? RaceReport() : std::move(R.Lanes.front().Report);
}

/// The two-thread separation gadget. WCP orders the w(x) pair through the
/// conflicting y-sections (rule (a) composed with thread order); dropping
/// t1's critical section entirely yields the sync-preserving witness
///   acq(l) w(y) rel(l) · w(x)@t1 · w(x)@t2.
Trace gadgetTwoThreads() {
  TraceBuilder B;
  B.write("t1", "x").acquire("t1", "l").write("t1", "y").release("t1", "l");
  B.acquire("t2", "l").write("t2", "y").release("t2", "l").write("t2", "x");
  return testutil::takeValid(B, /*RequireClosedSections=*/true);
}

/// The three-thread separation gadget: the WCP ordering chains through two
/// locks (y-sections on l, then z-sections on m), so no single-lock view
/// explains the order; the closure still drops t1's section and witnesses
/// the x pair.
Trace gadgetThreeThreads() {
  TraceBuilder B;
  B.write("t1", "x").acquire("t1", "l").write("t1", "y").release("t1", "l");
  B.acquire("t2", "l").write("t2", "y").release("t2", "l");
  B.acquire("t2", "m").write("t2", "z").release("t2", "m");
  B.acquire("t3", "m").read("t3", "z").release("t3", "m").write("t3", "x");
  return testutil::takeValid(B, /*RequireClosedSections=*/true);
}

/// Control variant of the two-thread gadget: t2 *reads* y, so including
/// t2's section forces t1's w(y) — and with it all of t1 up to and past
/// w(x) — into the ideal, swallowing the candidate. No sync-preserving
/// race (and no predictable race at all).
Trace gadgetNoRaceVariant() {
  TraceBuilder B;
  B.write("t1", "x").acquire("t1", "l").write("t1", "y").release("t1", "l");
  B.acquire("t2", "l").read("t2", "y").release("t2", "l").write("t2", "x");
  return testutil::takeValid(B, /*RequireClosedSections=*/true);
}

/// The reference SyncP lane, rebuilt from independent parts: thread-order
/// clocks (program order plus fork/join, implicit-zero growth), the same
/// AccessHistory candidate enumeration, and every candidate decided by the
/// per-pair closure oracle instead of the incremental checker.
class OracleSyncPLane : public Detector {
public:
  explicit OracleSyncPLane(const Trace &T) : Oracle(T), History(0, 0) {}

  std::string name() const override { return "SyncP"; }

  void processEvent(const Event &E, EventIdx Idx) override {
    const ThreadId T = E.Thread;
    if (E.Kind == EventKind::Fork || E.Kind == EventKind::Join)
      clock(E.targetThread()); // Grow before taking references.
    VectorClock &Ct = clock(T);
    switch (E.Kind) {
    case EventKind::Fork:
      Clocks[E.targetThread().value()].joinWith(Ct);
      Ct.set(T, Ct.get(T) + 1);
      break;
    case EventKind::Join:
      Ct.joinWith(Clocks[E.targetThread().value()]);
      break;
    case EventKind::Read:
    case EventKind::Write: {
      std::vector<RaceInstance> Found;
      if (E.Kind == EventKind::Write)
        History.checkWrite(E.var(), T, Ct, E.Loc, Idx, Found);
      else
        History.checkRead(E.var(), T, Ct, E.Loc, Idx, Found);
      for (const RaceInstance &R : Found)
        if (Oracle.isSyncPreservingRace(R.EarlierIdx, R.LaterIdx))
          Report.addRace(R);
      if (E.Kind == EventKind::Write)
        History.recordWrite(E.var(), T, Ct.get(T), E.Loc, Idx);
      else
        History.recordRead(E.var(), T, Ct.get(T), E.Loc, Idx);
      break;
    }
    default:
      break;
    }
  }

private:
  VectorClock &clock(ThreadId T) {
    while (Clocks.size() <= T.value()) {
      Clocks.emplace_back();
      Clocks.back().set(ThreadId(Clocks.size() - 1), 1);
    }
    return Clocks[T.value()];
  }

  SyncPClosureOracle Oracle;
  AccessHistory History;
  std::vector<VectorClock> Clocks;
};

RaceReport oracleReport(const Trace &T, uint64_t WindowEvents = 0) {
  return runDetectorWindowed(
             [](const Trace &F) { return std::make_unique<OracleSyncPLane>(F); },
             T, WindowEvents)
      .Report;
}

/// The perfbench syncp_dense shape: a lock-dense random program.
RandomTraceParams denseParams(uint32_t OpsPerThread) {
  RandomTraceParams P;
  P.Seed = 1;
  P.NumThreads = 4;
  P.NumLocks = 4;
  P.NumVars = 64;
  P.OpsPerThread = OpsPerThread;
  P.MaxLockNesting = 2;
  P.ReleasePercent = 25;
  return P;
}

uint64_t telemetrySample(const Detector &D, const std::string &Name) {
  std::vector<MetricSample> Tel;
  D.telemetry(Tel);
  for (const MetricSample &S : Tel)
    if (S.Name == Name)
      return S.Value;
  ADD_FAILURE() << Name << " sample missing";
  return 0;
}

RandomTraceParams smallParams(uint64_t Seed) {
  RandomTraceParams P;
  P.Seed = Seed;
  P.NumThreads = 2 + Seed % 3;
  P.NumLocks = 1 + Seed % 3;
  P.NumVars = 2 + Seed % 3;
  P.OpsPerThread = 10 + Seed % 8;
  P.MaxLockNesting = 1 + Seed % 2;
  P.WithForkJoin = Seed % 5 == 0;
  return P;
}

} // namespace

// ---- Separation: races WCP provably misses ---------------------------------

TEST(SyncPSeparation, TwoThreadGadgetBeatsWcp) {
  Trace T = gadgetTwoThreads();
  RaceReport Wcp = testutil::run<WcpDetector>(T);
  EXPECT_EQ(Wcp.numDistinctPairs(), 0u)
      << "gadget broken: WCP was supposed to order the x accesses";
  RaceReport Syncp = testutil::run<SyncPDetector>(T);
  ASSERT_GE(Syncp.numDistinctPairs(), 1u)
      << "SyncP must witness the x race WCP misses";
  EXPECT_EQ(testutil::racyVars(Syncp, T), std::set<std::string>{"x"});
  expectAllWitnessed(T, Syncp, "two-thread gadget");
  // The exhaustive search agrees the pair is a real predictable race.
  WitnessResult W = findWitness(T, Syncp.instances().front().pair());
  ASSERT_TRUE(W.SearchExhaustive);
  EXPECT_EQ(W.Kind, WitnessKind::Race);
}

TEST(SyncPSeparation, ThreeThreadLockChainBeatsWcp) {
  Trace T = gadgetThreeThreads();
  RaceReport Wcp = testutil::run<WcpDetector>(T);
  EXPECT_EQ(Wcp.numDistinctPairs(), 0u)
      << "gadget broken: the two-lock WCP chain was supposed to order x";
  RaceReport Syncp = testutil::run<SyncPDetector>(T);
  ASSERT_GE(Syncp.numDistinctPairs(), 1u);
  EXPECT_EQ(testutil::racyVars(Syncp, T), std::set<std::string>{"x"});
  expectAllWitnessed(T, Syncp, "three-thread gadget");
  WitnessResult W = findWitness(T, Syncp.instances().front().pair());
  ASSERT_TRUE(W.SearchExhaustive);
  EXPECT_EQ(W.Kind, WitnessKind::Race);
}

TEST(SyncPSeparation, ReadVariantSwallowsTheCandidate) {
  Trace T = gadgetNoRaceVariant();
  RaceReport Syncp = testutil::run<SyncPDetector>(T);
  EXPECT_EQ(Syncp.numDistinctPairs(), 0u)
      << "the read of y pins t2's section behind all of t1 — no correct "
         "reordering co-enables the x accesses";
  WitnessResult W = findAnyWitness(T);
  ASSERT_TRUE(W.SearchExhaustive);
  EXPECT_EQ(W.Kind, WitnessKind::None);
}

// ---- Closure unit behaviour -------------------------------------------------

TEST(SyncPClosure, SameLockSectionsAreNotRacy) {
  TraceBuilder B;
  B.acquire("t1", "l").write("t1", "x").release("t1", "l");
  B.acquire("t2", "l").write("t2", "x").release("t2", "l");
  Trace T = testutil::takeValid(B, true);
  SyncPClosureOracle Oracle(T);
  // w(x)@1 vs w(x)@4: including acq@3 displaces acq@0 as the lock maximum
  // and demands rel@2 — past w(x)@1 in its thread, swallowing it.
  EXPECT_FALSE(Oracle.isSyncPreservingRace(1, 4));
  EXPECT_EQ(testutil::run<SyncPDetector>(T).numDistinctPairs(), 0u);
}

TEST(SyncPClosure, UnprotectedConflictIsRacyWithMinimalIdeal) {
  TraceBuilder B;
  B.write("t1", "x").write("t2", "x");
  Trace T = testutil::takeValid(B, true);
  SyncPClosureOracle Oracle(T);
  std::vector<EventIdx> Witness;
  ASSERT_TRUE(Oracle.isSyncPreservingRace(0, 1, &Witness));
  // Empty ideal: just the two candidates.
  EXPECT_EQ(Witness, (std::vector<EventIdx>{0, 1}));
  EXPECT_TRUE(checkRaceWitness(T, Witness).Ok);
}

TEST(SyncPClosure, ReadPullsItsWriterAndItsLocks) {
  // t2's read of y sees t1's locked write, so the witness must replay
  // t1's whole critical section before t2's prefix — and the final races
  // on z stay co-enabled regardless.
  TraceBuilder B;
  B.acquire("t1", "l").write("t1", "y").release("t1", "l").write("t1", "z");
  B.read("t2", "y").write("t2", "z");
  Trace T = testutil::takeValid(B, true);
  RaceReport Syncp = testutil::run<SyncPDetector>(T);
  EXPECT_EQ(testutil::racyVars(Syncp, T),
            (std::set<std::string>{"y", "z"}));
  expectAllWitnessed(T, Syncp, "read-pulls-writer");
}

TEST(SyncPClosure, ForkJoinOrderIsRespected) {
  TraceBuilder B;
  B.declareThread("main");
  B.declareThread("child");
  B.write("main", "x").fork("main", "child");
  B.write("child", "x");
  B.join("main", "child").write("main", "x");
  Trace T = testutil::takeValid(B, true);
  // All three x writes are thread-ordered: no candidates survive.
  EXPECT_EQ(testutil::run<SyncPDetector>(T).numDistinctPairs(), 0u);
}

// ---- Soundness over the paper's figures and fuzzed traces -------------------

TEST(SyncPPaperTraces, SoundOnEveryFigure) {
  for (const PaperTrace &P : allPaperTraces()) {
    RaceReport Syncp = testutil::run<SyncPDetector>(P.T);
    expectAllWitnessed(P.T, Syncp, P.Name);
    if (!P.PredictableRace) {
      // Strong per-report soundness: a trace with no predictable race can
      // have no sync-preserving one (figures 1a, 2a and the deadlock-only
      // figure 5).
      EXPECT_EQ(Syncp.numDistinctPairs(), 0u)
          << P.Name << ": " << Syncp.str(P.T);
    }
  }
}

class SyncPSoundnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SyncPSoundnessTest, EveryReportHasAValidWitness) {
  Trace T = randomTrace(smallParams(GetParam()));
  RaceReport Syncp = testutil::run<SyncPDetector>(T);
  expectAllWitnessed(T, Syncp, "seed " + std::to_string(GetParam()));
  // Reported pairs must be unordered by the hard (thread) order the
  // reference closure engine computes — the prefilter may only ever prune.
  ClosureEngine Engine(T);
  for (const RaceInstance &R : Syncp.instances())
    EXPECT_FALSE(Engine.ordered(OrderKind::Hard, R.EarlierIdx, R.LaterIdx))
        << R.str(T);
}

TEST_P(SyncPSoundnessTest, ExhaustiveSearchConfirmsFirstReport) {
  Trace T = randomTrace(smallParams(GetParam() ^ 0x3c3c));
  RaceReport Syncp = testutil::run<SyncPDetector>(T);
  if (Syncp.instances().empty())
    GTEST_SKIP() << "no SyncP race in this trace";
  const RaceInstance &First = Syncp.instances().front();
  WitnessResult W = findWitness(T, First.pair());
  if (!W.SearchExhaustive && W.Kind == WitnessKind::None)
    GTEST_SKIP() << "state space too large to conclude";
  // Unlike WCP's weak soundness, *every* SyncP report carries its own
  // witness — the search must find a race (not merely a deadlock).
  EXPECT_EQ(W.Kind, WitnessKind::Race) << First.str(T);
}

INSTANTIATE_TEST_SUITE_P(Fuzz, SyncPSoundnessTest,
                         ::testing::Range<uint64_t>(1, 61));

// ---- Mode equivalence and telemetry -----------------------------------------

class SyncPModeTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SyncPModeTest, AllModesMatchTheSequentialWalk) {
  const uint64_t Seed = GetParam();
  RandomTraceParams P = smallParams(Seed);
  P.OpsPerThread = 20 + Seed % 13;
  Trace T = randomTrace(P);
  RaceReport Want = testutil::run<SyncPDetector>(T);

  testutil::expectSameReport(runMode(T, RunMode::Sequential), Want, T,
                             "sequential");
  for (uint32_t Shards : {1u, 2u, 5u})
    testutil::expectSameReport(
        runMode(T, RunMode::VarSharded, 0, Shards), Want, T,
        "var-sharded x" + std::to_string(Shards));
  // Windowed is the deliberately handicapped baseline: it must still run
  // (fresh index per window, fragment-local event ids) and every window-
  // local report entry must also be in the full-trace report.
  RaceReport Windowed = runMode(T, RunMode::Windowed, 16);
  for (const RaceInstance &R : Windowed.instances())
    // pairDistance is 0 exactly when the pair is unknown (real pairs have
    // distance >= 1).
    EXPECT_GT(Want.pairDistance(R.pair()), 0u) << R.str(T);
}

INSTANTIATE_TEST_SUITE_P(Fuzz, SyncPModeTest,
                         ::testing::Range<uint64_t>(1, 16));

TEST(SyncPTelemetry, CountersSurfaceThroughTheLane) {
  Trace T = gadgetTwoThreads();
  AnalysisConfig Cfg;
  Cfg.addDetector(DetectorKind::SyncP);
  AnalysisResult R = analyzeTrace(Cfg, T);
  ASSERT_TRUE(R.ok());
  uint64_t Candidates = 0, Iterations = UINT64_MAX, Peak = UINT64_MAX;
  for (const MetricSample &S : R.Lanes.front().Telemetry) {
    if (S.Name == "syncp.candidate_pairs")
      Candidates = S.Value;
    else if (S.Name == "syncp.closure_iterations")
      Iterations = S.Value;
    else if (S.Name == "syncp.ideal_peak")
      Peak = S.Value;
  }
  EXPECT_GE(Candidates, 1u) << "the x pair must have reached the closure";
  EXPECT_NE(Iterations, UINT64_MAX) << "closure_iterations sample missing";
  ASSERT_NE(Peak, UINT64_MAX) << "ideal_peak sample missing";
  EXPECT_GE(Peak, 3u) << "the x-pair ideal holds t2's critical section";
}

TEST(SyncPTelemetry, VarShardedRunCountsItsClosureWork) {
  // The candidate checks run in shard drains there — the lane's telemetry
  // snapshot must still see them (the phase-3 re-collection).
  Trace T = gadgetThreeThreads();
  AnalysisConfig Cfg;
  Cfg.addDetector(DetectorKind::SyncP);
  Cfg.Mode = RunMode::VarSharded;
  Cfg.VarShards = 3;
  AnalysisResult R = analyzeTrace(Cfg, T);
  ASSERT_TRUE(R.ok());
  uint64_t Candidates = 0;
  for (const MetricSample &S : R.Lanes.front().Telemetry)
    if (S.Name == "syncp.candidate_pairs")
      Candidates = S.Value;
  EXPECT_GE(Candidates, 1u);
}

// ---- The incremental checker against the per-pair oracle --------------------

class SyncPOracleLaneTest : public ::testing::TestWithParam<uint64_t> {};

/// Every mode's SyncP report is bit-identical to the oracle lane's (the
/// plain windowed loop over the oracle lane in Windowed mode), in batch
/// and when streamed with every name declared just before its first use.
TEST_P(SyncPOracleLaneTest, EveryModeMatchesTheClosureOracle) {
  const uint64_t Seed = GetParam();
  static constexpr uint32_t ReleasePercents[] = {5, 25, 60};
  RandomTraceParams P;
  P.Seed = Seed;
  P.NumThreads = 2 + Seed % 4;
  P.NumLocks = 1 + (Seed / 2) % 4;
  P.NumVars = 2 + Seed % 5;
  P.OpsPerThread = 15 + Seed % 21;
  P.MaxLockNesting = 1 + Seed % 3;
  P.ReleasePercent = ReleasePercents[(Seed / 3) % 3];
  P.WithForkJoin = (Seed / 9) % 2 == 1;
  const Trace T = randomTrace(P);
  const std::string Label = "seed " + std::to_string(Seed);
  const uint64_t Window = 8 + Seed % 17;

  const RaceReport Want = oracleReport(T);
  const RaceReport WantWindowed = oracleReport(T, Window);
  testutil::expectSameReport(runMode(T, RunMode::Sequential), Want, T,
                             Label + " sequential");
  testutil::expectSameReport(runMode(T, RunMode::Windowed, Window),
                             WantWindowed, T, Label + " windowed");
  for (uint32_t Shards = 1; Shards <= 4; ++Shards)
    testutil::expectSameReport(runMode(T, RunMode::VarSharded, 0, Shards),
                               Want, T,
                               Label + " var-sharded x" +
                                   std::to_string(Shards));

  // Streamed, names declared mid-stream: one mode per seed, in rotation.
  AnalysisConfig Cfg;
  Cfg.addDetector(DetectorKind::SyncP);
  Cfg.Mode = Seed % 3 == 0   ? RunMode::Sequential
             : Seed % 3 == 1 ? RunMode::Windowed
                             : RunMode::VarSharded;
  Cfg.WindowEvents = Cfg.Mode == RunMode::Windowed ? Window : 0;
  Cfg.VarShards = Cfg.Mode == RunMode::VarSharded ? 1 + Seed % 4 : 0;
  Cfg.StreamBatchEvents = 1 + Seed % 5;
  Cfg.Threads = 2;
  AnalysisSession S(Cfg);
  ASSERT_TRUE(S.status().ok()) << S.status().str();
  testutil::feedDeclaringLazily(S, T, Label);
  if (HasFatalFailure())
    return;
  AnalysisResult R = S.finish();
  ASSERT_TRUE(R.ok()) << Label << ": " << R.firstError().str();
  testutil::expectSameReport(R.Lanes.front().Report,
                             Cfg.Mode == RunMode::Windowed ? WantWindowed
                                                           : Want,
                             T,
                             Label + " streamed " + runModeName(Cfg.Mode));
}

INSTANTIATE_TEST_SUITE_P(Fuzz, SyncPOracleLaneTest,
                         ::testing::Range<uint64_t>(1, 201));

// ---- Linear work -------------------------------------------------------------

/// Closure work per event per thread must not grow with trace length: a
/// 10x longer syncp_dense-shaped trace may at most double it. (A closure
/// rebuilt per pair re-walks its prefix and reads 394 then 6,623 here.)
/// Deterministic: the counter is an exact event count.
TEST(SyncPLinearWork, ClosureWorkPerEventStaysFlatAtTenTimesTheLength) {
  double PerEventThread[2];
  uint32_t Ops[2] = {600, 6000};
  for (int I = 0; I != 2; ++I) {
    const Trace T = randomTrace(denseParams(Ops[I]));
    SyncPDetector D(T);
    runDetector(D, T);
    ASSERT_GT(telemetrySample(D, "syncp.candidate_pairs"), 0u);
    const uint64_t Iterations =
        telemetrySample(D, "syncp.closure_iterations");
    ASSERT_GT(Iterations, 0u);
    PerEventThread[I] = static_cast<double>(Iterations) /
                        (static_cast<double>(T.size()) * T.numThreads());
  }
  EXPECT_LE(PerEventThread[1], 2.0 * PerEventThread[0])
      << "closure iterations per event x thread: " << PerEventThread[0]
      << " at 2.4K events, " << PerEventThread[1] << " at 24K";
}
