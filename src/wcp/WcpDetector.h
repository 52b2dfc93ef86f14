//===- wcp/WcpDetector.h - Algorithm 1: linear-time WCP ---------*- C++ -*-===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's core contribution: the streaming vector-clock algorithm for
/// the Weak-Causally-Precedes relation (Algorithm 1, §3.2), which detects
/// WCP-races in time O(N·(L + T²)) (Theorem 3) — linear in the trace.
///
/// WCP (Definition 3) weakens CP:
///   (a) a rel(ℓ) is ordered before a later read/write *inside* a critical
///       section on ℓ if the release's section contains a conflicting
///       event (CP instead ordered release before the whole later
///       section);
///   (b) if two critical sections on ℓ contain WCP-ordered events, the
///       earlier *release* is ordered before the later *release* (CP
///       ordered release before acquire);
///   (c) WCP composes with HB on both sides.
///
/// Race checks follow §3.2: a read races if W_x ⋢ C_e, a write if
/// R_x ⊔ W_x ⋢ C_e — realized per thread via last-access histories so
/// both endpoints of each race pair are recovered in the same single pass
/// (see detect/AccessHistory.h).
///
/// Fork/join events contribute HB edges, exactly as RAPID treats the
/// fork/join records in RVPredict logs.
///
/// The per-event path allocates nothing once its buffers are warm (see
/// WcpState.h for the layout) and skips pseudocode steps that provably
/// change nothing: rule (a) lookups on a lock only the accessing thread
/// has released, the Lines 1-2 joins when the acquirer made the lock's
/// last release, and release cells the thread has already absorbed. In
/// capture mode the K_t epoch ignores the local increment of K_t(t),
/// which no race check reads.
///
//===----------------------------------------------------------------------===//

#ifndef RAPID_WCP_WCPDETECTOR_H
#define RAPID_WCP_WCPDETECTOR_H

#include "detect/AccessChecker.h"
#include "detect/Detector.h"
#include "wcp/WcpState.h"

namespace rapid {

/// Streaming WCP race detector (Algorithm 1).
class WcpDetector : public Detector {
public:
  explicit WcpDetector(const Trace &T);

  void processEvent(const Event &E, EventIdx Index) override;
  std::string name() const override { return "WCP"; }

  /// WCP's race checks partition by variable once the clocks are known:
  /// capture mode keeps the full clock machinery — including the rule (a)
  /// joins at accesses and the per-section R/W sets — and defers only the
  /// history checks into \p Log (C_e stand-in P_t, hard clock K_t).
  bool beginCapture(AccessLog &Log) override {
    Capture = &Log;
    return true;
  }
  std::unique_ptr<AccessChecker>
  makeAccessChecker(uint32_t NumLocalVars, uint32_t NumThreads) const override {
    return std::make_unique<FullHistoryChecker>(NumLocalVars, NumThreads);
  }

  const WcpStats &stats() const { return Stats; }
  uint64_t numEventsProcessed() const { return EventsProcessed; }

  /// The Table 1 queue telemetry as metric samples — how the session and
  /// pipeline surfaces pick up WcpStats without a detector-specific hook
  /// (this replaced race_cli's stats-publishing wrapper lane).
  void telemetry(std::vector<MetricSample> &Out) const override {
    Out.push_back({"wcp.queue_peak_abstract", MetricKind::HighWater,
                   Stats.MaxAbstractQueueEntries});
    Out.push_back({"wcp.queue_peak_live", MetricKind::HighWater,
                   Stats.MaxLiveQueueEntries});
    Out.push_back({"wcp.queue_peak_shared", MetricKind::HighWater,
                   Stats.MaxSharedQueueEntries});
    Out.push_back({"wcp.events_processed", MetricKind::Counter,
                   EventsProcessed});
  }

  /// Testing hooks: the C_e time of the *last* event processed for thread
  /// \p T, i.e. P_t[t := N_t]. Used by the Theorem 2 equivalence tests.
  /// The two-argument form composes into \p Out in one pass (no fresh
  /// clock per call — per-event callers reuse the same storage).
  void currentC(ThreadId T, VectorClock &Out) const;
  VectorClock currentC(ThreadId T) const;
  const VectorClock &currentP(ThreadId T) const {
    return Threads[T.value()].P;
  }
  const VectorClock &currentH(ThreadId T) const {
    return Threads[T.value()].H;
  }

private:
  void handleAcquire(ThreadId T, LockId L);
  void handleRelease(ThreadId T, LockId L);
  void handleAccess(ThreadId T, VarId X, LocId Loc, EventIdx Index,
                    bool IsWrite);

  /// Line 4's guard: Acq_ℓ(t).Front() ⊑ C_t, evaluated without
  /// materializing C_t (= P_t except component t, which is N_t).
  bool frontLeqCt(WcpTime Front, const WcpThreadState &TS,
                  ThreadId T) const;

  /// \p TS's current P_t / H_t as a version, snapshotted only if the
  /// clock's epoch moved since the thread's last snapshot (see
  /// WcpState.h). The thread keeps the reference; storers retain their own.
  WcpClockVersions::Handle pVersion(WcpThreadState &TS);
  WcpClockVersions::Handle hVersion(WcpThreadState &TS);

  /// Line 11/12's rule (a) join over every open section whose lock another
  /// thread has released, and the access's entry in the section log.
  void ruleAOnAccess(WcpThreadState &TS, ThreadId T, VarId X, bool IsWrite);

  void bumpAbstract(int64_t Delta);
  void bumpLive(int64_t Delta);
  /// Lines 3 / 10 telemetry: one entry (acquire or release time of \p T)
  /// joins the abstract queues of every other thread.
  void enqueueForOthers(WcpLockState &LS, ThreadId T);

  /// Admits threads [size, T] with the §3.2 initial state (N_t = 1,
  /// P_t = ⊥, H_t = K_t = ⊥[t := N_t]) and raises NumThreads — so a
  /// thread declared mid-stream is indistinguishable from one declared
  /// up front.
  void ensureThread(ThreadId T);
  /// Admits locks up to \p L (P_ℓ = H_ℓ = ⊥, empty queues). The new
  /// states own no storage until the lock is first acquired.
  void ensureLock(LockId L);
  /// Trims \p LS's shared queue: drops entries every current thread has
  /// passed whose release times are already redundant for any
  /// later-declared thread (see the implementation comment).
  void collectLockGarbage(WcpLockState &LS);

  uint32_t NumThreads; ///< High-water thread count (telemetry sizing).
  std::vector<WcpThreadState> Threads;
  std::vector<WcpLockState> Locks;
  /// Every P/H time the queues and P_ℓ/H_ℓ store (see WcpState.h).
  WcpClockVersions Versions;
  /// L^r_{ℓ,x} / L^w_{ℓ,x}, split per releasing thread (see WcpState.h).
  WcpReleaseTable Releases;
  FullHistoryChecker Checker; ///< Sequential-mode checks.
  std::vector<RaceInstance> Scratch;
  std::vector<uint64_t> ReleaseScratch; ///< A section's deduplicated R/W.
  AccessLog *Capture = nullptr; ///< Non-null in capture mode.

  uint64_t EventsProcessed = 0;
  /// Entries in all shared queue buffers, as abstract Acq+Rel entries: an
  /// open section's record counts 1, a closed one 2.
  uint64_t QueuedWeight = 0;
  int64_t CurrentAbstract = 0;
  int64_t CurrentLive = 0;
  WcpStats Stats;
};

} // namespace rapid

#endif // RAPID_WCP_WCPDETECTOR_H
