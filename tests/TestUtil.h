//===- tests/TestUtil.h - Shared test helpers -------------------*- C++ -*-===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//

#ifndef RAPID_TESTS_TESTUTIL_H
#define RAPID_TESTS_TESTUTIL_H

#include "api/AnalysisConfig.h"
#include "api/AnalysisSession.h"
#include "detect/DetectorRunner.h"
#include "hb/HbDetector.h"
#include "reference/ClosureEngine.h"
#include "support/Prng.h"
#include "trace/Trace.h"
#include "trace/TraceBuilder.h"
#include "trace/TraceValidator.h"
#include "vc/VectorClock.h"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <vector>

namespace rapid::testutil {

/// Finalizes \p B's trace after streaming it through the exact §2.1-axiom
/// gate session ingestion applies (StreamingTraceValidator) — a test trace
/// the validator would reject never reaches a detector in production, so
/// it should not reach one in a test either. Fails the current test on
/// violation (and still returns the trace so the failure is attributed to
/// the builder, not a crash downstream). Negative tests that deliberately
/// need ill-formed input keep calling TraceBuilder::take() directly.
inline Trace takeValid(TraceBuilder &B, bool RequireClosedSections = false) {
  Trace T = B.take();
  StreamingTraceValidator V;
  for (EventIdx I = 0; I != T.size(); ++I)
    V.feed(T.event(I), I, T);
  V.finish(T, RequireClosedSections);
  EXPECT_TRUE(V.ok()) << "test trace violates the trace axioms:\n"
                      << V.result().str();
  return T;
}

/// Bit-for-bit report equality — the determinism contract every parallel
/// mode is held to: same distinct pairs, same instance count, the same
/// witness event pairs in the same discovery order, same distances.
/// Shared by every suite so "bit-identical" means one thing.
inline void expectSameReport(const RaceReport &Got, const RaceReport &Want,
                             const Trace &T, const std::string &Label) {
  EXPECT_EQ(Got.numDistinctPairs(), Want.numDistinctPairs()) << Label;
  EXPECT_EQ(Got.numInstances(), Want.numInstances()) << Label;
  ASSERT_EQ(Got.instances().size(), Want.instances().size()) << Label;
  for (size_t I = 0; I != Want.instances().size(); ++I) {
    const RaceInstance &G = Got.instances()[I];
    const RaceInstance &W = Want.instances()[I];
    std::string Where = Label + " #" + std::to_string(I) + ": got " +
                        G.str(T) + ", want " + W.str(T);
    EXPECT_EQ(G.EarlierIdx, W.EarlierIdx) << Where;
    EXPECT_EQ(G.LaterIdx, W.LaterIdx) << Where;
    EXPECT_TRUE(G.EarlierLoc == W.EarlierLoc) << Where;
    EXPECT_TRUE(G.LaterLoc == W.LaterLoc) << Where;
    EXPECT_TRUE(G.Var == W.Var) << Where;
    EXPECT_EQ(Got.pairDistance(W.pair()), Want.pairDistance(W.pair()))
        << Label << " #" << I;
  }
}

/// The session-free oracle for lane \p L of a \p Cfg run over \p T: the
/// plain windowed loop (runDetectorWindowed) in Windowed mode, the
/// sequential runDetector walk in every other mode — never the session
/// engine itself, so an engine bug cannot hide in its own reference.
inline RunResult oracleLane(const AnalysisConfig &Cfg, size_t L,
                            const Trace &T) {
  const DetectorSpec &S = Cfg.Detectors[L];
  DetectorFactory Make =
      S.Kind == DetectorKind::Custom ? S.Make : makeDetectorFactory(S.Kind);
  if (Cfg.Mode == RunMode::Windowed)
    return runDetectorWindowed(Make, T, Cfg.WindowEvents);
  std::unique_ptr<Detector> D = Make(T);
  return runDetector(*D, T);
}

/// A lane that fails mid-stream: an HB detector that throws "detector
/// exploded at event N" from its \p N-th processEvent call (counted per
/// detector, so every window of a windowed run that reaches N events
/// throws too).
inline DetectorFactory hbThrowingAt(uint64_t N) {
  class ThrowingHb : public HbDetector {
  public:
    ThrowingHb(const Trace &T, uint64_t N) : HbDetector(T), N(N) {}
    void processEvent(const Event &E, EventIdx I) override {
      if (++Seen == N)
        throw std::runtime_error("detector exploded at event " +
                                 std::to_string(N));
      HbDetector::processEvent(E, I);
    }

  private:
    uint64_t N;
    uint64_t Seen = 0;
  };
  return [N](const Trace &T) { return std::make_unique<ThrowingHb>(T, N); };
}

/// Feeds \p T into \p S one event at a time, declaring every name in
/// table order just before its first use (so the session's ids match
/// \p T's): a thread, lock or variable first seen mid-stream grows lane
/// state in place while the lanes consume behind the producer.
inline void feedDeclaringLazily(AnalysisSession &S, const Trace &T,
                                const std::string &Label) {
  uint32_t Threads = 0, Locks = 0, Vars = 0, Locs = 0;
  for (EventIdx I = 0; I != T.size(); ++I) {
    const Event &E = T.event(I);
    uint32_t MaxThread = E.Thread.value();
    if (E.Kind == EventKind::Fork || E.Kind == EventKind::Join)
      MaxThread = std::max(MaxThread, E.targetThread().value());
    for (; Threads <= MaxThread; ++Threads)
      S.declareThread(T.threadName(ThreadId(Threads)));
    if (E.Kind == EventKind::Acquire || E.Kind == EventKind::Release)
      for (; Locks <= E.lock().value(); ++Locks)
        S.declareLock(T.lockName(LockId(Locks)));
    if (E.Kind == EventKind::Read || E.Kind == EventKind::Write)
      for (; Vars <= E.var().value(); ++Vars)
        S.declareVar(T.varName(VarId(Vars)));
    for (; Locs <= E.Loc.value(); ++Locs)
      S.declareLoc(T.locName(LocId(Locs)));
    Status Fed = S.feed(E);
    ASSERT_TRUE(Fed.ok()) << Label << ": " << Fed.str();
  }
}

/// Streams \p T into one session per run mode — every name declared just
/// before its first use, events fed one at a time to lanes that consume
/// behind the producer, so a thread, lock or variable first seen
/// mid-stream grows lane state in place — and expects each lane of
/// \p Kinds bit-for-bit equal to its session-free oracle (oracleLane):
/// runDetector in Sequential and VarSharded mode, the plain
/// windowed loop over \p WindowEvents-event windows in Windowed mode.
inline void expectStreamedModesMatchOracles(
    const Trace &T, const std::vector<DetectorKind> &Kinds,
    const std::string &Label, uint64_t WindowEvents = 16) {
  for (RunMode Mode :
       {RunMode::Sequential, RunMode::Windowed, RunMode::VarSharded}) {
    AnalysisConfig Cfg;
    Cfg.Mode = Mode;
    for (DetectorKind K : Kinds)
      Cfg.addDetector(K);
    Cfg.StreamBatchEvents = 1;
    Cfg.Threads = 2;
    if (Mode == RunMode::Windowed)
      Cfg.WindowEvents = WindowEvents;
    if (Mode == RunMode::VarSharded)
      Cfg.VarShards = 3;
    AnalysisSession S(Cfg);
    ASSERT_TRUE(S.status().ok()) << S.status().str();
    feedDeclaringLazily(S, T, Label);
    if (::testing::Test::HasFatalFailure())
      return;
    AnalysisResult R = S.finish();
    ASSERT_TRUE(R.ok()) << Label << ": " << R.firstError().str();
    ASSERT_EQ(R.Lanes.size(), Kinds.size()) << Label;
    for (size_t L = 0; L != Kinds.size(); ++L) {
      RunResult Want = oracleLane(Cfg, L, S.trace());
      expectSameReport(R.Lanes[L].Report, Want.Report, S.trace(),
                       Label + " " + runModeName(Mode) + "/" +
                           Want.DetectorName);
    }
  }
}

/// The declarative oracle for a sequential WCP report: every reported
/// instance is a WCP race per reference/ClosureEngine, and the detector
/// reports some race iff the closure finds one.
inline void expectWcpAgreesWithClosure(const RaceReport &R, const Trace &T,
                                       const std::string &Label) {
  ClosureEngine Ref(T);
  for (const RaceInstance &I : R.instances())
    EXPECT_TRUE(Ref.isRace(OrderKind::WCP, I.EarlierIdx, I.LaterIdx))
        << Label << ": " << I.str(T);
  EXPECT_EQ(R.numDistinctPairs() > 0, !Ref.races(OrderKind::WCP).empty())
      << Label;
}

// ---- WCP lock-state shapes -------------------------------------------------
// Seeded traces aimed at WcpDetector's flat per-lock state: the shared
// queue buffer, the per-thread critical-section access log and the
// release-cell table. Shared by wcp_test (fixed instances, pinned
// outcomes) and differential_test (seed sweeps).

/// One critical section of \p T on \p Lock with 1-3 random accesses to
/// v0..v(\p Vars - 1).
inline void randomSection(TraceBuilder &B, Prng &Rng, const std::string &T,
                          const std::string &Lock, uint32_t Vars) {
  B.acquire(T, Lock);
  for (uint64_t K = 1 + Rng.nextBelow(3); K-- != 0;) {
    std::string V = "v" + std::to_string(Rng.nextBelow(Vars));
    if (Rng.nextBelow(2))
      B.write(T, V);
    else
      B.read(T, V);
  }
  B.release(T, Lock);
}

/// Lock m used by t1 alone for \p Sections sections, then handed back and
/// forth between t2 and t1; unprotected accesses to u bracket the handover.
inline Trace lockHandoverTrace(uint32_t Sections, uint64_t Seed) {
  TraceBuilder B;
  Prng Rng(Seed);
  for (uint32_t I = 0; I != Sections; ++I)
    randomSection(B, Rng, "t1", "m", 4);
  B.write("t1", "u");
  for (int Round = 0; Round != 3; ++Round) {
    randomSection(B, Rng, "t2", "m", 4);
    randomSection(B, Rng, "t1", "m", 4);
  }
  B.read("t2", "u");
  return takeValid(B);
}

/// Hand-over-hand chains: t1 walks l0..l(\p Links - 1) holding two locks
/// at a time (acq l(i+1) before rel l(i), so the outer section closes
/// first), accessing variables at every step, so the open sections'
/// access-log offsets interleave. t2 runs sections on the links t1 has
/// let go, then t1 walks the chain again.
inline Trace handOverHandTrace(uint32_t Links, uint64_t Seed) {
  TraceBuilder B;
  Prng Rng(Seed);
  auto Access = [&](const std::string &T) {
    std::string V = "v" + std::to_string(Rng.nextBelow(6));
    if (Rng.nextBelow(2))
      B.write(T, V);
    else
      B.read(T, V);
  };
  auto Link = [](uint32_t I) { return "l" + std::to_string(I); };
  for (int Pass = 0; Pass != 2; ++Pass) {
    B.acquire("t1", Link(0));
    Access("t1");
    for (uint32_t I = 1; I != Links; ++I) {
      B.acquire("t1", Link(I));
      Access("t1");
      B.release("t1", Link(I - 1));
      Access("t1");
      if (Rng.nextBelow(3) == 0)
        randomSection(B, Rng, "t2", Link(I - 1), 6);
    }
    B.release("t1", Link(Links - 1));
  }
  return takeValid(B);
}

/// t1 runs \p Sections sections on m alone (a long single-thread queue);
/// t2, a thread first seen only then, takes m over in alternation with
/// t1 (so queue garbage becomes collectible); finally t3, first seen
/// after that collection, acquires m and reads what the others wrote.
inline Trace lateThreadTrace(uint32_t Sections, uint64_t Seed) {
  TraceBuilder B;
  Prng Rng(Seed);
  for (uint32_t I = 0; I != Sections; ++I)
    randomSection(B, Rng, "t1", "m", 4);
  B.write("t1", "u");
  for (int Round = 0; Round != 3; ++Round) {
    randomSection(B, Rng, "t2", "m", 4);
    randomSection(B, Rng, "t1", "m", 4);
  }
  B.acquire("t3", "m").read("t3", "v0").read("t3", "v1").write("t3", "v2");
  B.release("t3", "m");
  B.read("t3", "u");
  return takeValid(B);
}

/// Runs detector type \p D over \p T and returns its report.
template <typename D> RaceReport run(const Trace &T) {
  D Detector(T);
  return runDetector(Detector, T).Report;
}

/// Names of variables involved in any reported race.
template <typename ReportT>
std::set<std::string> racyVars(const ReportT &Report, const Trace &T) {
  std::set<std::string> Out;
  for (const RaceInstance &I : Report.instances())
    Out.insert(T.varName(I.Var));
  return Out;
}

/// Runs a streaming detector event-by-event, capturing the post-event
/// C-timestamp of each event's thread (used by the Theorem 2 tests).
template <typename D>
std::vector<VectorClock> captureTimestamps(const Trace &T) {
  D Detector(T);
  std::vector<VectorClock> Times;
  Times.reserve(T.size());
  for (EventIdx I = 0; I != T.size(); ++I) {
    Detector.processEvent(T.event(I), I);
    Times.emplace_back();
    Detector.currentC(T.event(I).Thread, Times.back());
  }
  return Times;
}

} // namespace rapid::testutil

#endif // RAPID_TESTS_TESTUTIL_H
