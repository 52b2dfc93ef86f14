//===- tests/differential_test.cpp - Sharded vs sequential fuzzing ------------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
// The differential harness for the per-variable sharded detection lane
// (detect/ShardedAccessHistory.h). Soundness arguments for predictive
// races are notoriously fragile under reordering — "The Complexity of
// Dynamic Data Race Prediction" and the sync-preserving line of work both
// stress it — so the sharded path is pinned three ways before anything
// builds on it:
//
//   1. differential: seeded random traces (>= 100 per detector), shard
//      counts {1, 2, 4, 8}, each sharded report bit-identical (pairs,
//      witness indices, discovery order, distances) to the sequential
//      detector's;
//   2. oracle: sharded HB findings cross-checked against the declarative
//      reference/ClosureEngine on small traces — every reported instance
//      is a true HB race, and the any-race verdicts agree;
//   3. internals: the clock broadcast dedups, the shard plan partitions.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "api/AnalysisSession.h"
#include "detect/ShardedAccessHistory.h"
#include "gen/RandomTraceGen.h"
#include "gen/Workloads.h"
#include "hb/FastTrackDetector.h"
#include "hb/HbDetector.h"
#include "reference/ClosureEngine.h"
#include "syncp/SyncPDetector.h"
#include "trace/TraceValidator.h"
#include "wcp/WcpDetector.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

using namespace rapid;

namespace {

constexpr uint32_t kShardCounts[] = {1, 2, 4, 8};

/// Varied trace shapes: thread, lock, variable and op counts all cycle
/// with the seed so the 100-round sweep covers skinny and wide traces.
RandomTraceParams fuzzParams(uint64_t Seed, bool ForkJoin) {
  RandomTraceParams P;
  P.Seed = Seed;
  P.NumThreads = 2 + Seed % 5;        // 2..6 threads
  P.NumLocks = 1 + Seed % 4;          // 1..4 locks
  P.NumVars = 1 + (Seed * 3) % 9;     // 1..9 vars (1 var: all-one-shard)
  P.OpsPerThread = 25 + (Seed * 11) % 50;
  P.MaxLockNesting = 1 + Seed % 3;
  P.AcquirePercent = 10 + (Seed * 5) % 25;
  P.WritePercent = 30 + (Seed * 13) % 40;
  P.WithForkJoin = ForkJoin;
  return P;
}

using testutil::expectSameReport;

/// One var-sharded analyzeTrace run of \p Make over \p T on two pool
/// workers; returns its single lane.
LaneReport runSharded(const DetectorFactory &Make, const Trace &T,
                      uint32_t NumShards) {
  AnalysisConfig Cfg;
  Cfg.addDetector(Make);
  Cfg.Mode = RunMode::VarSharded;
  Cfg.VarShards = NumShards;
  Cfg.Threads = 2;
  AnalysisResult R = analyzeTrace(Cfg, T);
  EXPECT_TRUE(R.Overall.ok()) << R.Overall.str();
  return R.Lanes.empty() ? LaneReport() : std::move(R.Lanes.front());
}

/// One differential round: sequential oracle vs every shard count.
/// Bit-for-bit comparison via testutil::expectSameReport.
void expectShardedMatchesSequential(const DetectorFactory &Make,
                                    const Trace &T,
                                    const std::string &Label) {
  std::unique_ptr<Detector> D = Make(T);
  RunResult Want = runDetector(*D, T);
  for (uint32_t N : kShardCounts) {
    LaneReport Got = runSharded(Make, T, N);
    ASSERT_TRUE(Got.LaneStatus.ok()) << Label << ": " << Got.LaneStatus.str();
    // Var-sharding loses nothing, so the lane keeps the plain name — no
    // "[w=...]"-style marker distinguishing it from the sequential run.
    EXPECT_EQ(Got.DetectorName, Want.DetectorName) << Label;
    expectSameReport(Got.Report, Want.Report, T,
                     Label + " shards=" + std::to_string(N));
  }
}

class DifferentialFuzzTest : public ::testing::TestWithParam<uint64_t> {};

} // namespace

// ---- Sharded vs sequential, bit for bit -------------------------------------

// 50 seeds x {no-forkjoin, forkjoin} = 100 distinct traces per detector,
// each checked at shard counts {1, 2, 4, 8}.
TEST_P(DifferentialFuzzTest, ShardedHbMatchesSequentialBitForBit) {
  for (bool ForkJoin : {false, true}) {
    Trace T = randomTrace(fuzzParams(GetParam(), ForkJoin));
    ASSERT_TRUE(validateTrace(T).ok());
    expectShardedMatchesSequential(
        [](const Trace &F) { return std::make_unique<HbDetector>(F); }, T,
        "HB seed " + std::to_string(GetParam()) + " fj=" +
            std::to_string(ForkJoin));
  }
}

TEST_P(DifferentialFuzzTest, ShardedWcpMatchesSequentialBitForBit) {
  for (bool ForkJoin : {false, true}) {
    Trace T = randomTrace(fuzzParams(GetParam() ^ 0x5a5a, ForkJoin));
    ASSERT_TRUE(validateTrace(T).ok());
    expectShardedMatchesSequential(
        [](const Trace &F) { return std::make_unique<WcpDetector>(F); }, T,
        "WCP seed " + std::to_string(GetParam()) + " fj=" +
            std::to_string(ForkJoin));
  }
}

// FastTrack's epoch checks also partition by variable; its capture mode
// defers them into per-shard FastTrackCheckers. Same contract, same
// harness: bit-identical to the sequential FastTrack run for any shard
// count (including the epoch-mode shortcuts and the read-vector
// promotions, which then happen inside the shards).
TEST_P(DifferentialFuzzTest, ShardedFastTrackMatchesSequentialBitForBit) {
  for (bool ForkJoin : {false, true}) {
    Trace T = randomTrace(fuzzParams(GetParam() ^ 0x77aa, ForkJoin));
    ASSERT_TRUE(validateTrace(T).ok());
    expectShardedMatchesSequential(
        [](const Trace &F) { return std::make_unique<FastTrackDetector>(F); },
        T,
        "FastTrack seed " + std::to_string(GetParam()) + " fj=" +
            std::to_string(ForkJoin));
  }
}

// SyncP's shard phase runs each deferred access through a per-shard
// SyncPAccessChecker: candidates from the TO prefilter clock, each decided
// by the shard's own SP-closure checker over the detector's shared index.
// The sequential walk runs the same checker class, so this pins what the
// two paths do not share — the capture pass, the index read behind the
// commit watermark, the partition and the merge.
TEST_P(DifferentialFuzzTest, ShardedSyncPMatchesSequentialBitForBit) {
  for (bool ForkJoin : {false, true}) {
    Trace T = randomTrace(fuzzParams(GetParam() ^ 0x3b3b, ForkJoin));
    ASSERT_TRUE(validateTrace(T).ok());
    expectShardedMatchesSequential(
        [](const Trace &F) { return std::make_unique<SyncPDetector>(F); }, T,
        "SyncP seed " + std::to_string(GetParam()) + " fj=" +
            std::to_string(ForkJoin));
  }
}

// The adversarial workload matrix: each seed draws one shape (rotating
// through all of them across the seed range), and every detector's sharded
// runs must stay bit-identical to its sequential run on that trace. The
// shapes stress the axes uniform random programs miss — Zipf skew funnels
// whole shards onto one variable (theta = 1.2 uses the exact-table
// sampler), producer/consumer chains cross-thread read-sees-write through
// a locked queue, barrier-heavy saturates one lock from every thread, and
// declaration-dense keeps declaring ids until the last event.
TEST_P(DifferentialFuzzTest, AdversarialMatrixMatchesSequentialBitForBit) {
  const uint64_t Seed = GetParam();
  const std::vector<WorkloadShape> &Shapes = allWorkloadShapes();
  WorkloadShape Shape = Shapes[Seed % Shapes.size()];
  Trace T = makeAdversarialTrace(Shape, Seed);
  ASSERT_TRUE(validateTrace(T).ok()) << workloadShapeName(Shape);
  std::vector<std::pair<const char *, DetectorFactory>> Factories = {
      {"HB", [](const Trace &F) { return std::make_unique<HbDetector>(F); }},
      {"WCP", [](const Trace &F) { return std::make_unique<WcpDetector>(F); }},
      {"FastTrack",
       [](const Trace &F) { return std::make_unique<FastTrackDetector>(F); }},
      {"SyncP",
       [](const Trace &F) { return std::make_unique<SyncPDetector>(F); }},
  };
  for (auto &[Name, Make] : Factories)
    expectShardedMatchesSequential(Make, T,
                                   std::string(Name) + " shape " +
                                       workloadShapeName(Shape) + " seed " +
                                       std::to_string(Seed));
}

// ---- Oracle cross-check -----------------------------------------------------

// On small traces the declarative closure is affordable: every race the
// sharded HB lane reports must be a true HB race per the oracle, and the
// "any race at all" verdicts must agree (the streaming detector only
// checks the last access per thread, so instance *sets* may differ, but a
// racy trace can never look race-free or vice versa).
TEST_P(DifferentialFuzzTest, ShardedHbAgreesWithClosureOracle) {
  for (bool ForkJoin : {false, true}) {
    RandomTraceParams P = fuzzParams(GetParam() ^ 0xc0de, ForkJoin);
    P.OpsPerThread = 15 + GetParam() % 20; // Keep the O(N^2) oracle cheap.
    Trace T = randomTrace(P);
    ClosureEngine Ref(T);
    LaneReport Sharded = runSharded(
        [](const Trace &F) { return std::make_unique<HbDetector>(F); }, T,
        /*NumShards=*/4);
    for (const RaceInstance &I : Sharded.Report.instances())
      EXPECT_TRUE(Ref.isRace(OrderKind::HB, I.EarlierIdx, I.LaterIdx))
          << "seed " << GetParam() << ": " << I.str(T);
    EXPECT_EQ(Sharded.Report.numDistinctPairs() > 0,
              !Ref.races(OrderKind::HB).empty())
        << "seed " << GetParam() << " fj=" << ForkJoin;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialFuzzTest,
                         ::testing::Range<uint64_t>(1, 51));

// ---- Sharding internals -----------------------------------------------------

TEST(ShardPlanTest, PartitionCoversEveryVariableExactlyOnce) {
  for (uint32_t NumShards : {1u, 2u, 4u, 8u, 13u}) {
    ShardPlan Plan{NumShards};
    for (uint32_t NumVars : {0u, 1u, 7u, 8u, 29u}) {
      uint32_t Total = 0;
      for (uint32_t S = 0; S != NumShards; ++S)
        Total += Plan.numLocalVars(S, NumVars);
      EXPECT_EQ(Total, NumVars) << NumShards << " shards";
      for (uint32_t V = 0; V != NumVars; ++V) {
        uint32_t S = Plan.shardOf(VarId(V));
        EXPECT_LT(S, NumShards);
        EXPECT_LT(Plan.localIdOf(VarId(V)), Plan.numLocalVars(S, NumVars));
      }
    }
  }
}

TEST(ClockBroadcastTest, ConsecutiveAccessesShareSnapshots) {
  // A single-threaded run of reads/writes never changes the HB clock, so
  // the broadcast must publish exactly one snapshot however many accesses
  // stream through — the memory contract of the clock pass.
  Trace T;
  ThreadId T0(T.threadTable().intern("T0"));
  VarId X(T.varTable().intern("x"));
  LocId L(T.locTable().intern("L1"));
  for (int I = 0; I != 64; ++I)
    T.append(Event(I % 2 ? EventKind::Read : EventKind::Write, T0, X.value(),
                   L));
  HbDetector D(T);
  AccessLog Log(T.numThreads());
  ASSERT_TRUE(D.beginCapture(Log));
  for (EventIdx I = 0; I != T.size(); ++I)
    D.processEvent(T.event(I), I);
  EXPECT_EQ(Log.numAccesses(), 64u);
  EXPECT_EQ(Log.clocks().numSnapshots(), 1u);
}

TEST(ShardedAccessHistoryTest, MergeRestoresTraceOrder) {
  std::vector<std::vector<RaceInstance>> PerShard(3);
  auto mk = [](EventIdx Earlier, EventIdx Later) {
    RaceInstance I;
    I.EarlierIdx = Earlier;
    I.LaterIdx = Later;
    I.EarlierLoc = LocId(static_cast<uint32_t>(Earlier));
    I.LaterLoc = LocId(static_cast<uint32_t>(Later));
    I.Var = VarId(0);
    return I;
  };
  PerShard[0] = {mk(1, 5), mk(2, 9)};
  PerShard[1] = {mk(0, 3), mk(6, 12)};
  PerShard[2] = {mk(4, 7)};
  RaceReport R = mergeInTraceOrder(PerShard);
  ASSERT_EQ(R.instances().size(), 5u);
  EventIdx Prev = 0;
  for (const RaceInstance &I : R.instances()) {
    EXPECT_GE(I.LaterIdx, Prev);
    Prev = I.LaterIdx;
  }
  EXPECT_EQ(R.instances().front().LaterIdx, 3u);
  EXPECT_EQ(R.instances().back().LaterIdx, 12u);
}

// ---- WCP lock-state shapes, seed sweep --------------------------------------
// The three shapes that stress WcpDetector's flat lock state (see
// TestUtil.h): a private lock handed to a second thread, hand-over-hand
// chains whose sections share one access log, and late threads meeting a
// long single-thread queue. Each seed runs every run mode against its
// session-free oracle, every shard count bit for bit against the
// sequential WCP detector, and the sequential report against the closure.

class WcpLockStateFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WcpLockStateFuzzTest, ShapesMatchOraclesInEveryMode) {
  const uint64_t Seed = GetParam();
  const uint32_t Size = 4 + static_cast<uint32_t>(Seed % 5) * 6;
  const std::pair<std::string, Trace> Shapes[] = {
      {"handover", testutil::lockHandoverTrace(Size, Seed)},
      {"hand-over-hand", testutil::handOverHandTrace(3 + Size / 2, Seed)},
      {"late-thread", testutil::lateThreadTrace(Size, Seed)},
  };
  DetectorFactory Wcp = [](const Trace &F) {
    return std::make_unique<WcpDetector>(F);
  };
  for (const auto &[Name, T] : Shapes) {
    std::string Label = Name + " seed " + std::to_string(Seed);
    testutil::expectStreamedModesMatchOracles(
        T, {DetectorKind::Wcp, DetectorKind::Hb}, Label);
    expectShardedMatchesSequential(Wcp, T, Label);
    testutil::expectWcpAgreesWithClosure(testutil::run<WcpDetector>(T), T,
                                         Label);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WcpLockStateFuzzTest,
                         ::testing::Range<uint64_t>(1, 21));

TEST(ClockBroadcastTest, LocalIncrementsKeepTheSnapshot) {
  // Releases advance only the releasing thread's own component, which no
  // replayer reads: a single thread alternating sections and accesses
  // keeps one snapshot per clock in every capturing lane.
  TraceBuilder B;
  for (int I = 0; I != 16; ++I)
    B.acquire("t", "m").write("t", "x").release("t", "m").read("t", "x");
  Trace T = testutil::takeValid(B);
  auto Snapshots = [&](Detector &D) {
    AccessLog Log(T.numThreads());
    EXPECT_TRUE(D.beginCapture(Log));
    for (EventIdx I = 0; I != T.size(); ++I)
      D.processEvent(T.event(I), I);
    EXPECT_EQ(Log.numAccesses(), 32u);
    return Log.clocks().numSnapshots();
  };
  HbDetector Hb(T);
  FastTrackDetector Ft(T);
  WcpDetector Wcp(T);
  EXPECT_EQ(Snapshots(Hb), 1u);
  EXPECT_EQ(Snapshots(Ft), 1u);
  EXPECT_EQ(Snapshots(Wcp), 2u) << "one P_t and one K_t snapshot";
}
