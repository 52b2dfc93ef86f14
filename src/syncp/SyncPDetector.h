//===- syncp/SyncPDetector.h - Sync-preserving race detector ----*- C++ -*-===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Streaming sync-preserving race prediction (Mathur–Pavlogiannis–
/// Viswanathan, POPL'21 — PAPERS.md): a conflicting pair races iff some
/// correct reordering co-enables it while keeping every pair of surviving
/// same-lock critical sections in trace order. SyncP predicts strictly
/// more races than WCP on real traces (reorderings may *drop* sections
/// outright, which no partial-order lane can express) while every report
/// stays sound — the closure that accepts a pair also constructs the
/// witness reordering, and the soundness suite replays those witnesses
/// through verify/Reordering's checker.
///
/// The lane decomposes like every other detector here:
///
///   clock pass   a thread-order clock (program order + fork/join only —
///                no lock edges) prunes pairs that no reordering could
///                co-enable; candidates are the per-(thread, kind)
///                last-access records AccessHistory keeps, so the
///                enumeration policy (and its last-access-only caveat)
///                matches the HB/WCP lanes exactly;
///   check        each surviving candidate is decided by a SyncPChecker
///                over the SyncPIndex: one SP-ideal per thread that only
///                grows along the thread, extended by the other endpoint's
///                prefix and rolled back per pair — O(N·T) base work over
///                the whole trace instead of O(prefix) per pair;
///   shard mode   the checks partition by variable: capture defers them
///                into the AccessLog with the thread-order clock as C_e,
///                and each shard drain runs its own SyncPAccessChecker —
///                the class the sequential walk runs — over the same
///                shared index (Detector::makeAccessChecker). Reports are
///                bit-for-bit identical to the sequential walk for any
///                shard count, pinned by the differential fuzzers.
///
/// All state grows on first touch (implicit-zero VectorClock extension,
/// growable index tables), so threads/vars/locks declared mid-stream cost
/// O(1) and never force a rebuild.
///
//===----------------------------------------------------------------------===//

#ifndef RAPID_SYNCP_SYNCPDETECTOR_H
#define RAPID_SYNCP_SYNCPDETECTOR_H

#include "detect/AccessChecker.h"
#include "detect/Detector.h"
#include "syncp/SyncPIndex.h"
#include "vc/VectorClock.h"

#include <vector>

namespace rapid {

/// SyncP's AccessChecker: the full-history candidates (last access per
/// thread, unordered by thread order), each decided by this checker's own
/// SyncPChecker over the shared index. A var-sharded drain sees its
/// variables' accesses in trace order — so each thread's e2s arrive in
/// increasing order, as the SyncPChecker bases need — and a decision
/// depends only on the index prefix below the candidate pair, which the
/// AccessLog commit watermark guarantees is published (every access
/// record is appended after its event's node).
class SyncPAccessChecker final : public AccessChecker {
public:
  SyncPAccessChecker(const SyncPIndex &Index, SyncPTelemetry &Tel,
                     uint32_t NumVars, uint32_t NumThreads)
      : Candidates(NumVars, NumThreads), Pairs(Index, Tel) {}

  void check(const DeferredAccess &A, VarId Local, const VectorClock &Ce,
             const VectorClock *Hard,
             std::vector<RaceInstance> &Out) override {
    Scratch.clear();
    Candidates.check(A, Local, Ce, Hard, Scratch);
    for (const RaceInstance &R : Scratch)
      if (Pairs.isSyncPreservingRace(R.EarlierIdx, R.LaterIdx))
        Out.push_back(R);
  }

private:
  FullHistoryChecker Candidates;
  SyncPChecker Pairs;
  std::vector<RaceInstance> Scratch;
};

/// Streaming sync-preserving race detector.
class SyncPDetector : public Detector {
public:
  explicit SyncPDetector(const Trace &T);

  void processEvent(const Event &E, EventIdx Index) override;
  std::string name() const override { return "SyncP"; }

  /// SyncP's candidate checks partition by variable; every shard's
  /// checker reads the lane-wide index in place, so capture mode defers
  /// only the per-variable candidate enumeration into \p Log.
  bool beginCapture(AccessLog &Log) override {
    Capture = &Log;
    return true;
  }
  std::unique_ptr<AccessChecker>
  makeAccessChecker(uint32_t NumLocalVars, uint32_t NumThreads) const override {
    return std::make_unique<SyncPAccessChecker>(Index, Tel, NumLocalVars,
                                                NumThreads);
  }

  void telemetry(std::vector<MetricSample> &Out) const override;

private:
  void incrementLocal(ThreadId T);
  /// Admits threads [size, T]: local time 1, as at construction.
  void ensureThread(ThreadId T);

  /// Thread-order clocks C_t: program order plus fork/join edges only.
  /// Lock edges are deliberately absent — a reordering may drop or
  /// reorder whole critical sections, so only these "hard" edges are
  /// sound for pruning candidate pairs.
  std::vector<VectorClock> ThreadClocks;
  /// Change epochs (capture dedup), bumped only when a component other
  /// than C_t(t) changes (see HbDetector::ClockEpochs).
  std::vector<uint64_t> ClockEpochs;
  SyncPIndex Index;
  /// Shared by every checker; drains bump it concurrently (atomics).
  mutable SyncPTelemetry Tel;
  SyncPAccessChecker Checker; ///< Sequential-mode checks.
  std::vector<RaceInstance> Scratch;
  AccessLog *Capture = nullptr; ///< Non-null in capture mode.
};

} // namespace rapid

#endif // RAPID_SYNCP_SYNCPDETECTOR_H
