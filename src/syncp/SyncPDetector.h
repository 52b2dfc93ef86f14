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
///                and shard drains replay them through a SyncPShardReplayer
///                that decides the same candidates with its own checker
///                over the same index (reached via
///                Detector::shardContext()). Reports are
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

#include "detect/AccessHistory.h"
#include "detect/Detector.h"
#include "syncp/SyncPIndex.h"
#include "vc/VectorClock.h"

#include <vector>

namespace rapid {

/// The detector's ShardContext: hands shard drains a replayer over the
/// index and telemetry the clock pass owns. Read-only over the index
/// (synchronized through the AccessLog commit watermark — every access
/// record is appended after its event's node).
class SyncPShardContext : public ShardContext {
public:
  SyncPShardContext(const SyncPIndex &Index, SyncPTelemetry &Tel)
      : Index(Index), Tel(Tel) {}

  std::unique_ptr<ShardReplayer>
  makeReplayer(uint32_t NumLocalVars, uint32_t NumThreads) const override;

private:
  const SyncPIndex &Index;
  SyncPTelemetry &Tel;
};

/// Streaming sync-preserving race detector.
class SyncPDetector : public Detector {
public:
  explicit SyncPDetector(const Trace &T);

  void processEvent(const Event &E, EventIdx Index) override;
  std::string name() const override { return "SyncP"; }

  /// SyncP's candidate checks partition by variable; the checker reaches
  /// lane-wide state through shardContext(), so capture mode defers only
  /// the per-variable candidate enumeration into \p Log.
  bool beginCapture(AccessLog &Log) override {
    Capture = &Log;
    return true;
  }
  ShardReplay shardReplay() const override { return ShardReplay::SyncPClosure; }
  const ShardContext *shardContext() const override { return &Ctx; }

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
  SyncPTelemetry Tel;
  SyncPShardContext Ctx{Index, Tel};
  SyncPChecker Checker{Index, Tel}; ///< Sequential-mode decisions.
  AccessHistory History; ///< Sequential-mode candidate records.
  std::vector<RaceInstance> Scratch;
  AccessLog *Capture = nullptr; ///< Non-null in capture mode.
};

} // namespace rapid

#endif // RAPID_SYNCP_SYNCPDETECTOR_H
