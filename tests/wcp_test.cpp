//===- tests/wcp_test.cpp - Algorithm 1 internals ------------------------------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
// White-box tests of the WCP detector: clock evolution on hand-computed
// traces, rule-by-rule edge effects, queue behaviour (including the
// paper's Figure 6), and the telemetry the Table 1 harness consumes.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "gen/PaperTraces.h"
#include "trace/TraceBuilder.h"
#include "wcp/WcpDetector.h"

#include <gtest/gtest.h>

#include <string>

using namespace rapid;

namespace {

/// Runs the detector and returns per-event effective C timestamps.
std::vector<VectorClock> timestamps(const Trace &T) {
  return testutil::captureTimestamps<WcpDetector>(T);
}

} // namespace

TEST(WcpClockTest, LocalClockIncrementsOnlyAfterRelease) {
  // N_t advances exactly when the previous event was a release; the own
  // component of C_e equals N at e.
  TraceBuilder B;
  B.read("t1", "a");        // N=1
  B.write("t1", "a");       // N=1
  B.acquire("t1", "l");     // N=1
  B.release("t1", "l");     // N=1 (increment happens *before next event*)
  B.read("t1", "a");        // N=2
  B.acquire("t1", "l");     // N=2
  B.release("t1", "l");     // N=2
  B.write("t1", "a");       // N=3
  Trace T = testutil::takeValid(B);
  std::vector<VectorClock> C = timestamps(T);
  ClockValue Expected[] = {1, 1, 1, 1, 2, 2, 2, 3};
  for (EventIdx I = 0; I != T.size(); ++I)
    EXPECT_EQ(C[I].get(ThreadId(0)), Expected[I]) << "event " << I;
}

TEST(WcpClockTest, RuleADeliversReleaseTimeToConflictingAccess) {
  // fig2b shape: the r(x) inside the second section receives rel(l)'s
  // H-time (rule a), the earlier r(y) does not.
  Trace T = paperFig2b().T;
  std::vector<VectorClock> C = timestamps(T);
  // Events: 0 w(y) 1 acq 2 w(x) 3 rel | 4 acq 5 r(y) 6 r(x) 7 rel.
  ClockValue T1AtRel = C[3].get(ThreadId(0));
  EXPECT_LT(C[5].get(ThreadId(0)), T1AtRel)
      << "r(y) must not know t1's release";
  EXPECT_GE(C[6].get(ThreadId(0)), T1AtRel)
      << "r(x) must know t1's release via rule (a)";
}

TEST(WcpClockTest, AcquireReceivesWcpKnowledgeOfLastReleaseOnly) {
  // P_ℓ carries the *WCP-predecessor* time of the last release, not its
  // HB time: an acquire after an unrelated critical section learns
  // nothing about the other thread.
  TraceBuilder B;
  B.write("t1", "a", "w1");
  B.acquire("t1", "l");
  B.release("t1", "l");
  B.acquire("t2", "l");
  B.read("t2", "a", "r2"); // Conflicts with w1 but no WCP edge exists.
  B.release("t2", "l");
  Trace T = testutil::takeValid(B);
  RaceReport R = testutil::run<WcpDetector>(T);
  EXPECT_EQ(R.numDistinctPairs(), 1u)
      << "HB would order these; WCP must report the race";
}

TEST(WcpQueueTest, Fig6ExercisesTheQueues) {
  PaperTrace P = paperFig6();
  WcpDetector D(P.T);
  for (EventIdx I = 0; I != P.T.size(); ++I)
    D.processEvent(P.T.event(I), I);
  // The m-sections of t1/t2/t3 interlock: entries must have been both
  // enqueued and popped (t2's rel(m) at line 20 consumes t1's section).
  EXPECT_GT(D.stats().MaxAbstractQueueEntries, 0u);
  EXPECT_EQ(D.report().numDistinctPairs(), 0u);
}

TEST(WcpQueueTest, EntriesPopOnlyWhenGuardHolds) {
  // Two unrelated sections on one lock: no pops, entries retained.
  TraceBuilder B;
  B.acquire("t1", "m").write("t1", "a").release("t1", "m");
  B.acquire("t2", "m").write("t2", "b").release("t2", "m");
  Trace T = testutil::takeValid(B);
  WcpDetector D(T);
  for (EventIdx I = 0; I != T.size(); ++I)
    D.processEvent(T.event(I), I);
  // t2's release sees t1's entry but C_{acq1} ⋢ C_t2 (no conflict, no
  // edge): the entry must remain queued.
  // t1's closed section (2 entries in t2's queues) plus t2's acquire and
  // release entries (2 entries in t1's queues — t1 is a live consumer).
  EXPECT_EQ(D.stats().MaxLiveQueueEntries, 4u);
}

TEST(WcpQueueTest, ConflictEnablesPopAndRuleB) {
  // t2 reads what t1's section wrote -> rule (a) raises C_t2 -> t2's
  // release pops t1's entry (rule b) -> later conflicting pair ordered.
  TraceBuilder B;
  B.acquire("t1", "m").write("t1", "a").write("t1", "z", "z1");
  B.release("t1", "m");
  B.acquire("t2", "m").read("t2", "a").release("t2", "m");
  B.write("t2", "z", "z2");
  Trace T = testutil::takeValid(B);
  WcpDetector D(T);
  RaceReport R = runDetector(D, T).Report;
  // z1 ≤TO rel(m)_t1 ≺(b) rel(m)_t2 ≤TO z2 — wait: the z-pair is ordered
  // through rule (a) on 'a' composed with HB; either way, no race on z.
  EXPECT_FALSE(R.hasPair(RacePair(T.event(2).Loc, T.event(7).Loc)));
}

TEST(WcpStatsTest, SharedBufferNeverExceedsAbstractCount) {
  for (const PaperTrace &P : allPaperTraces()) {
    WcpDetector D(P.T);
    for (EventIdx I = 0; I != P.T.size(); ++I)
      D.processEvent(P.T.event(I), I);
    EXPECT_LE(D.stats().MaxLiveQueueEntries,
              D.stats().MaxAbstractQueueEntries)
        << P.Name;
    EXPECT_EQ(D.numEventsProcessed(), P.T.size());
  }
}

TEST(WcpStatsTest, PrivateLocksContributeNoLiveEntries) {
  // A lock only ever touched by one thread has no live consumers; its
  // entries must not count toward the live metric (they dominate the
  // literal one).
  TraceBuilder B;
  for (int I = 0; I < 10; ++I)
    B.acquire("t1", "p").write("t1", "v").release("t1", "p");
  B.write("t2", "unrelated");
  Trace T = testutil::takeValid(B);
  WcpDetector D(T);
  for (EventIdx I = 0; I != T.size(); ++I)
    D.processEvent(T.event(I), I);
  EXPECT_EQ(D.stats().MaxLiveQueueEntries, 0u);
  EXPECT_EQ(D.stats().MaxAbstractQueueEntries, 20u)
      << "the literal metric still counts the dead queues";
}

TEST(WcpStatsTest, LateToucherInheritsPendingEntries) {
  // When a thread first acquires a lock, the other threads' pending
  // sections become live for it.
  TraceBuilder B;
  B.acquire("t1", "m").write("t1", "a").release("t1", "m");
  B.acquire("t1", "m").write("t1", "b").release("t1", "m");
  B.acquire("t2", "m"); // First touch: inherits 2 closed sections = 4,
                        // and its own acquire enters t1's queue (+1).
  Trace T = testutil::takeValid(B);
  WcpDetector D(T);
  for (EventIdx I = 0; I != T.size(); ++I)
    D.processEvent(T.event(I), I);
  EXPECT_EQ(D.stats().MaxLiveQueueEntries, 5u);
}

TEST(WcpRaceCheckTest, FirstRaceMatchesPaperSemantics) {
  // §3.2: the detector flags the *second* event of a racing pair; our
  // per-thread history recovers the first. Check both on fig2b.
  Trace T = paperFig2b().T;
  RaceReport R = testutil::run<WcpDetector>(T);
  ASSERT_EQ(R.instances().size(), 1u);
  const RaceInstance &I = R.instances().front();
  EXPECT_EQ(I.EarlierIdx, 0u) << "w(y)";
  EXPECT_EQ(I.LaterIdx, 5u) << "r(y)";
  EXPECT_EQ(I.distance(), 5u);
}

TEST(WcpRaceCheckTest, WriteChecksBothReadAndWriteHistories) {
  TraceBuilder B;
  B.read("t1", "v", "r1");
  B.write("t2", "v", "w2"); // Races with the read.
  B.write("t3", "v", "w3"); // Races with both.
  Trace T = testutil::takeValid(B);
  RaceReport R = testutil::run<WcpDetector>(T);
  EXPECT_TRUE(R.hasPair(RacePair(T.event(0).Loc, T.event(1).Loc)));
  EXPECT_TRUE(R.hasPair(RacePair(T.event(0).Loc, T.event(2).Loc)));
  EXPECT_TRUE(R.hasPair(RacePair(T.event(1).Loc, T.event(2).Loc)));
  EXPECT_EQ(R.numDistinctPairs(), 3u);
}

TEST(WcpRaceCheckTest, DistinctLocationPairsDeduplicate) {
  // The same two program locations racing repeatedly count once (the
  // paper's "distinct race pairs" metric).
  TraceBuilder B;
  for (int I = 0; I < 5; ++I) {
    B.write("t1", "v", "siteA");
    B.write("t2", "v", "siteB");
  }
  RaceReport R = testutil::run<WcpDetector>(testutil::takeValid(B));
  EXPECT_EQ(R.numDistinctPairs(), 1u);
  EXPECT_GE(R.numInstances(), 5u);
}

TEST(WcpHandOverHandTest, Figure6PatternAnalyzesCleanly) {
  // acq(l0) acq(m) rel(l0) acq(l1) rel(m) rel(l1): sections overlap
  // without nesting; accesses register in all open sections.
  TraceBuilder B;
  B.acquire("t1", "l0").acquire("t1", "m").write("t1", "x");
  B.release("t1", "l0").acquire("t1", "l1").release("t1", "m");
  B.release("t1", "l1");
  B.acquire("t2", "m").read("t2", "x").release("t2", "m");
  Trace T = testutil::takeValid(B);
  // x was written inside the m-section, so rule (a) orders rel-side
  // knowledge into t2's read: no race.
  RaceReport R = testutil::run<WcpDetector>(T);
  EXPECT_EQ(R.numDistinctPairs(), 0u);
}

TEST(WcpHandOverHandTest, AccessOutsideOverlapStillRaces) {
  TraceBuilder B;
  B.acquire("t1", "l0").write("t1", "x").release("t1", "l0");
  B.acquire("t2", "l1").read("t2", "x").release("t2", "l1");
  Trace T = testutil::takeValid(B);
  // Different locks: rule (a) cannot apply; race.
  RaceReport R = testutil::run<WcpDetector>(T);
  EXPECT_EQ(R.numDistinctPairs(), 1u);
}

TEST(WcpForkJoinTest, ParentChildOrderingIsHardNotWcp) {
  // Parent's pre-fork write is ordered with the child's write (no race),
  // but this knowledge must not leak through locks: a third thread that
  // syncs with the child on a lock gains no ordering with the parent.
  TraceBuilder B;
  B.write("t1", "g", "parent");
  B.fork("t1", "t2");
  B.write("t2", "g", "child");
  B.acquire("t2", "l").release("t2", "l");
  B.acquire("t3", "l").release("t3", "l");
  B.read("t3", "g", "third");
  Trace T = testutil::takeValid(B);
  RaceReport R = testutil::run<WcpDetector>(T);
  EXPECT_FALSE(R.hasPair(RacePair(T.event(0).Loc, T.event(2).Loc)))
      << "fork orders parent and child";
  EXPECT_TRUE(R.hasPair(RacePair(T.event(0).Loc, T.event(7).Loc)))
      << "t3 is only HB-ordered with the parent, not WCP-ordered";
  EXPECT_TRUE(R.hasPair(RacePair(T.event(2).Loc, T.event(7).Loc)))
      << "t3 is only HB-ordered with the child too";
}

TEST(WcpWindowedTest, DetectorIsRestartablePerFragment) {
  // A fresh detector per window must not crash on fragments whose locks
  // were re-established by the splitter and must agree with the full run
  // when the window covers everything.
  Trace T = paperFig4().T;
  RaceReport Full = testutil::run<WcpDetector>(T);
  DetectorFactory Make = [](const Trace &F) {
    return std::make_unique<WcpDetector>(F);
  };
  RunResult Whole = runDetectorWindowed(Make, T, T.size());
  EXPECT_EQ(Whole.Report.numDistinctPairs(), Full.numDistinctPairs());
  RunResult Tiny = runDetectorWindowed(Make, T, 3);
  EXPECT_LE(Tiny.Report.numDistinctPairs(), Full.numDistinctPairs());
}

// ---- Flat lock state: queue buffer, section log, release cells -------------
// Each shape runs through every run mode against its session-free oracle
// (names declared mid-stream, so lane state grows in place), and the
// sequential report against the declarative closure.

namespace {

/// Full check of one shape: all three modes vs oracles for WCP and HB, the
/// closure oracle, and a detector grown from an empty table (every thread
/// and lock admitted mid-stream) reporting what the one built up front
/// does. (Its queue telemetry may differ: with fewer threads declared, the
/// queue collector may trim sooner — see WcpDetector::collectLockGarbage.)
WcpDetector expectShapeHolds(const Trace &T, const std::string &Label) {
  testutil::expectStreamedModesMatchOracles(
      T, {DetectorKind::Wcp, DetectorKind::Hb}, Label);
  WcpDetector D(T);
  RaceReport Want = runDetector(D, T).Report;
  testutil::expectWcpAgreesWithClosure(Want, T, Label);
  Trace Empty;
  WcpDetector Grown(Empty);
  for (EventIdx I = 0; I != T.size(); ++I)
    Grown.processEvent(T.event(I), I);
  testutil::expectSameReport(Grown.report(), Want, T, Label + " grown");
  return D;
}

/// Theorem 2 against the declarative closure, for a detector built up
/// front and for one grown from an empty table: C_a ⊑ C_b iff a ≤WCP b for
/// every a <tr b, and every race instance is a WCP race.
void expectTheorem2(const Trace &T, const std::string &Label) {
  ClosureEngine Ref(T);
  Trace Empty;
  for (bool Grown : {false, true}) {
    WcpDetector D(Grown ? Empty : T);
    std::vector<VectorClock> C(T.size());
    for (EventIdx I = 0; I != T.size(); ++I) {
      D.processEvent(T.event(I), I);
      D.currentC(T.event(I).Thread, C[I]);
    }
    const std::string Which = Label + (Grown ? " grown" : " up front");
    for (EventIdx B = 0; B != T.size(); ++B)
      for (EventIdx A = 0; A != B; ++A)
        ASSERT_EQ(C[A].lessOrEqual(C[B]), Ref.ordered(OrderKind::WCP, A, B))
            << Which << "\n a=" << T.eventStr(A) << " (#" << A
            << ")\n b=" << T.eventStr(B) << " (#" << B << ")\n Ca="
            << C[A].str() << " Cb=" << C[B].str();
    testutil::expectWcpAgreesWithClosure(D.report(), T, Which);
  }
}

} // namespace

TEST(WcpLockStateTest, LockHandedOverAfterManyPrivateSections) {
  Trace T = testutil::lockHandoverTrace(40, 7);
  WcpDetector D = expectShapeHolds(T, "handover");
  // t1's 40 sections stay queued (t2 has no cursor yet, so nothing is
  // collectible), t2's first acquire inherits all of them.
  EXPECT_GE(D.stats().MaxSharedQueueEntries, 41u);
  EXPECT_GE(D.stats().MaxLiveQueueEntries, 80u);

  // The minimal handover, pinned by hand: t2 reads what t1's last section
  // wrote, so rule (a) delivers that release and t2's release pops every
  // t1 section; the unprotected u accesses stay a WCP race.
  TraceBuilder B;
  for (int I = 0; I < 30; ++I)
    B.acquire("t1", "m").write("t1", "x").release("t1", "m");
  B.write("t1", "u", "u1");
  B.acquire("t2", "m").read("t2", "x", "x2").release("t2", "m");
  B.read("t2", "u", "u2");
  Trace Small = testutil::takeValid(B);
  WcpDetector S = expectShapeHolds(Small, "handover-min");
  EXPECT_EQ(S.report().numDistinctPairs(), 1u);
  EXPECT_TRUE(S.report().hasPair(
      RacePair(Small.event(90).Loc, Small.event(94).Loc)));
  EXPECT_EQ(S.stats().MaxSharedQueueEntries, 31u);
  EXPECT_EQ(S.stats().MaxLiveQueueEntries, 61u);
  EXPECT_EQ(S.stats().MaxAbstractQueueEntries, 61u);
}

TEST(WcpLockStateTest, HandOverHandSectionsShareOneAccessLog) {
  for (uint64_t Seed : {1, 2, 3})
    expectShapeHolds(testutil::handOverHandTrace(12, Seed),
                     "hand-over-hand seed " + std::to_string(Seed));

  // Outer section released first: a's section covers x and y, b's covers
  // y and z. Under b, t2 reads x (not in b's section: race) and then z
  // (in b's section: ordered by rule (a)); under a it reads y (in a's
  // section: ordered).
  TraceBuilder B;
  B.acquire("t1", "a").write("t1", "x", "x1").acquire("t1", "b");
  B.write("t1", "y", "y1").release("t1", "a").write("t1", "z", "z1");
  B.release("t1", "b");
  B.acquire("t2", "b").read("t2", "x", "x2").read("t2", "z", "z2");
  B.release("t2", "b");
  B.acquire("t2", "a").read("t2", "y", "y2").release("t2", "a");
  Trace T = testutil::takeValid(B);
  WcpDetector D = expectShapeHolds(T, "outer-first");
  EXPECT_TRUE(D.report().hasPair(RacePair(T.event(1).Loc, T.event(8).Loc)))
      << "x was written before b's section began";
  EXPECT_EQ(D.report().numDistinctPairs(), 1u)
      << "z and y were accessed inside the sections t2 later holds";

  // Inner section released first: b's section starts at its own acquire,
  // after x was written, so reading x under b races and reading y does
  // not.
  TraceBuilder N;
  N.acquire("t1", "a").write("t1", "x", "x1").acquire("t1", "b");
  N.write("t1", "y", "y1").release("t1", "b").release("t1", "a");
  N.acquire("t2", "b").read("t2", "x", "x2").read("t2", "y", "y2");
  N.release("t2", "b");
  Trace Nested = testutil::takeValid(N);
  WcpDetector ND = expectShapeHolds(Nested, "inner-first");
  EXPECT_TRUE(
      ND.report().hasPair(RacePair(Nested.event(1).Loc, Nested.event(7).Loc)));
  EXPECT_EQ(ND.report().numDistinctPairs(), 1u);
}

TEST(WcpLockStateTest, LateThreadFirstAcquireWalksLongSingleThreadQueue) {
  for (uint64_t Seed : {1, 2, 3})
    expectShapeHolds(testutil::lateThreadTrace(30, Seed),
                     "late thread seed " + std::to_string(Seed));

  // The collector's invariant. While t1 is the only thread, its cursor
  // has passed its own section on m, yet the record must stay: u, forked
  // after it, pops it through the fork's hard order (rule (b)), and w,
  // which appears later still, learns t1's release through u's release of
  // m — so t1's w(z) is ordered before w's r(z). Dropping the record as
  // soon as every *current* cursor has passed it would lose that edge in
  // a detector that admits u and w mid-stream.
  TraceBuilder B;
  B.write("t1", "z", "z1").acquire("t1", "m").release("t1", "m");
  for (int I = 0; I < 8; ++I)
    B.acquire("t1", "m").release("t1", "m");
  B.fork("t1", "u");
  B.acquire("u", "m").release("u", "m");
  B.acquire("w", "m").release("w", "m").read("w", "z", "z2");
  Trace T = testutil::takeValid(B);
  WcpDetector D = expectShapeHolds(T, "late-thread gc");
  EXPECT_EQ(D.report().numDistinctPairs(), 0u);
}

TEST(WcpLockStateTest, CollectedRecordCellJoinsNothingForALateThread) {
  // t1's first section on m writes y and w. t2 reads w under m, which
  // delivers that release by rule (a) and lets t2 pop the section, and
  // writes z; t1's second section reads z, which pops t2's section and,
  // through P_m, covers t1's own first release. That release then
  // collects t1's first record, in a detector that has not yet seen t3,
  // while t1's (m, y) cell still points at it and no thread has joined
  // that cell. t3 then reads y under m: the cell's record is gone, so it
  // joins nothing, yet the w(y) stays ordered before the r(y), because
  // t3's acquire joined a P_m that covers it. t1's w(u) after its last
  // section still races with t3's r(u).
  TraceBuilder B;
  B.acquire("t1", "m").write("t1", "y").write("t1", "w").release("t1", "m");
  B.acquire("t2", "m").read("t2", "w").write("t2", "z").release("t2", "m");
  B.acquire("t1", "m").read("t1", "z").release("t1", "m");
  EventIdx U1 = B.size();
  B.write("t1", "u");
  B.acquire("t3", "m").read("t3", "y").release("t3", "m");
  EventIdx U3 = B.size();
  B.read("t3", "u");
  Trace T = testutil::takeValid(B);
  WcpDetector D = expectShapeHolds(T, "collected cell");
  expectTheorem2(T, "collected cell");
  EXPECT_EQ(D.report().numDistinctPairs(), 1u);
  EXPECT_TRUE(
      D.report().hasPair(RacePair(T.event(U1).Loc, T.event(U3).Loc)));
}

TEST(WcpLockStateTest, VersionsOlderThanAThreadAreNarrowerThanItsClocks) {
  // Grown from an empty table, the detector snapshots t1's and t2's clocks
  // while they are the only threads, so their sections on m store
  // two-component versions. t3 (forked by t1) and t4 (first seen after it)
  // pop those sections with wider clocks, and the last sections of t2 and
  // t1 pop records of every width. t4's r(u), its first event, races with
  // t2's w(u).
  TraceBuilder B;
  EventIdx U2 = B.size();
  B.write("t2", "u");
  for (int Round = 0; Round != 3; ++Round) {
    B.acquire("t1", "m").write("t1", "x").release("t1", "m");
    B.acquire("t2", "m").read("t2", "x").write("t2", "y").release("t2", "m");
  }
  B.fork("t1", "t3");
  B.acquire("t3", "m").read("t3", "y").write("t3", "x").release("t3", "m");
  EventIdx U4 = B.size();
  B.read("t4", "u");
  B.acquire("t4", "m").read("t4", "x").write("t4", "y").release("t4", "m");
  B.acquire("t2", "m").read("t2", "y").release("t2", "m");
  B.acquire("t1", "m").write("t1", "x").release("t1", "m");
  Trace T = testutil::takeValid(B);
  WcpDetector D = expectShapeHolds(T, "narrow versions");
  expectTheorem2(T, "narrow versions");
  EXPECT_TRUE(
      D.report().hasPair(RacePair(T.event(U2).Loc, T.event(U4).Loc)));
}

TEST(WcpLockStateTest, LoneCursorSpillsWhenASecondThreadAcquires) {
  // m stays private to t2 for 30 sections, so its one cursor lives inline.
  // Then t1, whose thread id is lower, acquires m: the lone cursor spills
  // into the per-thread array with t1's slot at the queue's base; t3
  // follows once both have moved. t2's w(v) after its last section races
  // with t3's r(v).
  TraceBuilder B;
  B.write("t1", "u");
  for (int I = 0; I != 30; ++I)
    B.acquire("t2", "m").write("t2", "x").release("t2", "m");
  B.acquire("t1", "m").read("t1", "x").release("t1", "m");
  B.acquire("t2", "m").write("t2", "x").release("t2", "m");
  EventIdx V2 = B.size();
  B.write("t2", "v");
  B.acquire("t3", "m").read("t3", "x").release("t3", "m");
  B.acquire("t1", "m").write("t1", "x").release("t1", "m");
  EventIdx V3 = B.size();
  B.read("t3", "v");
  Trace T = testutil::takeValid(B);
  WcpDetector D = expectShapeHolds(T, "lone cursor spill");
  expectTheorem2(T, "lone cursor spill");
  EXPECT_EQ(D.report().numDistinctPairs(), 1u);
  EXPECT_TRUE(
      D.report().hasPair(RacePair(T.event(V2).Loc, T.event(V3).Loc)));
  // Where the cursor lives does not show in the Table 1 queue accounting:
  // these are the peaks of a per-thread array from the first acquire on.
  EXPECT_EQ(D.stats().MaxSharedQueueEntries, 33u);
  EXPECT_EQ(D.stats().MaxLiveQueueEntries, 68u);
  EXPECT_EQ(D.stats().MaxAbstractQueueEntries, 122u);
}
