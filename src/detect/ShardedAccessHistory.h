//===- detect/ShardedAccessHistory.h - Per-variable shard lane --*- C++ -*-===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-variable sharding of the paper's single-pass race check. Conflicts
/// only exist between accesses to the *same* variable (§2.1: e1 ≍ e2
/// requires the same x), so the AccessHistory side of a detector — the
/// checkRead/checkWrite calls and last-access records — partitions cleanly
/// by variable, while the vector-clock machinery stays a sequential stream
/// (clock propagation orders arbitrary events and cannot be split the same
/// way). That split turns one detector lane into:
///
///   phase 1  clock pass (sequential): the detector runs with its race
///            checks deferred; every read/write is appended to an
///            AccessLog together with the clocks the check needs, via the
///            ClockBroadcast snapshot table (clocks mutate only at a
///            bounded number of points, so consecutive accesses of a
///            thread share one immutable snapshot);
///   phase 2  shard checks (parallel): each shard replays its variables'
///            deferred accesses, in trace order, against a private
///            partition of the access history — no locks, no sharing;
///   phase 3  merge (sequential): per-shard findings interleave back by
///            parent-trace index. Every access event belongs to exactly
///            one shard, so the interleaving is unique and reproduces the
///            sequential detector's discovery order *bit for bit*, for any
///            shard count.
///
/// The determinism contract (sharded report ≡ sequential report, any N) is
/// pinned by tests/differential_test.cpp against seeded random traces and
/// the reference/ClosureEngine oracle.
///
//===----------------------------------------------------------------------===//

#ifndef RAPID_DETECT_SHARDEDACCESSHISTORY_H
#define RAPID_DETECT_SHARDEDACCESSHISTORY_H

#include "detect/AccessHistory.h"
#include "detect/Detector.h"
#include "detect/RaceReport.h"
#include "support/PublishedStore.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace rapid {

/// Assignment of variables to shards: variable x lives in shard
/// x mod NumShards, with dense per-shard local id x div NumShards. Every
/// variable lands in exactly one shard with a dense local id, which is all
/// the shard/merge machinery relies on. Any such map leaves the sharded
/// report bit-identical to the sequential one (§2.1: only same-variable
/// accesses conflict); the map only decides how load spreads.
struct ShardPlan {
  ShardPlan() = default;
  explicit ShardPlan(uint32_t NumShards) : NumShards(NumShards) {}

  uint32_t NumShards = 1;

  uint32_t shardOf(VarId V) const { return V.value() % NumShards; }
  uint32_t localIdOf(VarId V) const { return V.value() / NumShards; }

  /// Number of variables out of \p NumVars that land in \p Shard.
  uint32_t numLocalVars(uint32_t Shard, uint32_t NumVars) const {
    if (Shard >= NumVars)
      return 0; // The smallest candidate, x = Shard, is already out of range.
    return (NumVars - Shard - 1) / NumShards + 1;
  }
};

/// One deferred read/write: everything its race check needs, with the
/// event's clocks referenced into the broadcast table. The snapshots stand
/// in for C_e on every component *except* the accessing thread's own:
/// replayers never read C_e(t(e)) (AccessHistory::checkAgainst skips
/// Self, and FastTrack's replay guards each epoch test with
/// Thread != T), and the access carries that component as N. Capturing
/// detectors rely on this to keep their snapshot epoch across local
/// clock increments.
struct DeferredAccess {
  static constexpr uint32_t NoClock = UINT32_MAX;

  EventIdx Idx = 0;     ///< Parent-trace index of the access.
  VarId Var;            ///< Accessed variable (selects the shard).
  ThreadId Thread;      ///< Accessing thread.
  LocId Loc;            ///< Program location.
  ClockValue N = 0;     ///< Local time to record (C_e's own component).
  uint32_t Clock = 0;   ///< Snapshot index of C_e.
  uint32_t Hard = NoClock; ///< Snapshot index of the hard clock, if any.
  bool IsWrite = false;
};

/// The vector-clock broadcast step: immutable snapshots interned by the
/// sequential clock pass and read concurrently (and in place) by every
/// shard task — the snapshot table is a PublishedStore, so growth never
/// relocates a snapshot and drains hold references without copying.
///
/// Dedup is epoch-compressed: the capturing detector passes each clock's
/// change epoch (bumped at every mutation of that clock), and a snapshot
/// whose epoch matches the thread's previous intern is reused in O(1) —
/// no per-access O(threads) content compare, which is what used to
/// re-serialize clocks in the capture pass. When the epoch did change the
/// content compare still runs, preserving the dedup of no-op joins.
/// Epoch 0 means "no epoch tracking": always content-compare. Detectors
/// do not bump the epoch when only the owning thread's own component
/// changed (a local increment), so a reused snapshot may hold a stale
/// C_t(t) — harmless, since no replayer reads it (see DeferredAccess).
///
/// The per-thread dedup tables grow on first intern, so threads admitted
/// mid-stream need no rebuild (the constructor count is a sizing hint).
class ClockBroadcast {
public:
  explicit ClockBroadcast(uint32_t NumThreads);

  /// Returns the snapshot index for \p T's current check clock \p C,
  /// copying it only if it changed since \p T last published (epoch fast
  /// path first, content compare as the fallback).
  uint32_t publish(ThreadId T, const VectorClock &C, uint64_t Epoch = 0);

  /// Same, for the secondary hard-order clock (WCP's K_t).
  uint32_t publishHard(ThreadId T, const VectorClock &K, uint64_t Epoch = 0);

  /// In-place reference, stable for the broadcast's lifetime. \p I must be
  /// committed (or the caller synchronized with the interning thread).
  const VectorClock &snapshot(uint32_t I) const { return Snapshots[I]; }
  size_t numSnapshots() const { return Snapshots.size(); }

  /// Publishes every interned snapshot to concurrent readers (one
  /// watermark store; see PublishedStore).
  void commit() { Snapshots.publish(Snapshots.size()); }

private:
  struct PerThread {
    uint32_t Last;  ///< Last interned snapshot index.
    uint64_t Epoch; ///< Clock epoch at that intern (0 = unknown).
  };

  uint32_t publishInto(std::vector<PerThread> &Last, ThreadId T,
                       const VectorClock &C, uint64_t Epoch);

  PublishedStore<VectorClock> Snapshots;
  std::vector<PerThread> LastClock; ///< Per thread: last published C.
  std::vector<PerThread> LastHard;  ///< Per thread: last published K.
};

/// Per-lane capture of deferred accesses, filled by a detector running in
/// capture mode (Detector::beginCapture): clock machinery only, race
/// checks deferred to the shard phase.
///
/// Storage is a PublishedStore: the capture pass appends (single writer)
/// while shard drains read already-committed entries in place — no lock
/// around the log, no copy-out per drain. commit() publishes the appended
/// prefix (snapshots first, then accesses, so a committed access's clock
/// indices always resolve).
class AccessLog {
public:
  explicit AccessLog(uint32_t NumThreads) : Clocks(NumThreads) {}

  /// Records one access. \p Ce is the clock the sequential check would
  /// compare against (C_t for HB, P_t for WCP), \p Hard the optional
  /// secondary clock (WCP's K_t), \p N the local time the sequential
  /// check would record. \p CeEpoch / \p HardEpoch are the clocks' change
  /// epochs (0 = untracked, falls back to content compare; see
  /// ClockBroadcast).
  void record(EventIdx Idx, VarId V, ThreadId T, LocId Loc, bool IsWrite,
              ClockValue N, const VectorClock &Ce, uint64_t CeEpoch,
              const VectorClock *Hard, uint64_t HardEpoch = 0);

  /// Accesses appended so far (capture-thread view; readers use indices
  /// at or below the committed watermark, or synchronize externally).
  uint64_t numAccesses() const { return Accesses.size(); }

  /// In-place reference to access \p I, stable for the log's lifetime.
  const DeferredAccess &access(uint64_t I) const { return Accesses[I]; }

  /// Publishes everything appended so far to concurrent readers:
  /// snapshots, then accesses. Returns the committed access count.
  uint64_t commit() {
    Clocks.commit();
    uint64_t N = Accesses.size();
    Accesses.publish(N);
    return N;
  }

  const ClockBroadcast &clocks() const { return Clocks; }

private:
  PublishedStore<DeferredAccess> Accesses; ///< In trace order.
  ClockBroadcast Clocks;
};

/// Incremental replay of ONE shard's deferred checks, fed AccessLog
/// prefixes while the capture pass is still appending (the session's
/// var-sharded mode). Accesses must arrive in trace order and pre-mapped
/// to the shard (caller applies the ShardPlan); clocks are passed in
/// explicitly, resolved by the caller from the broadcast table. The
/// shard's history is private and holds only its variables, addressed by
/// dense local ids, so per-shard memory is NumVars/NumShards. Findings
/// accumulate in discovery order.
class ShardChecker {
public:
  /// \p Replay selects the engine (must match the capturing detector's
  /// Detector::shardReplay()); \p NumLocalVars is the shard's dense
  /// local-variable count (ShardPlan::numLocalVars). Both counts are
  /// sizing hints — the engines grow on first touch, so local ids and
  /// threads admitted mid-stream replay without a rebuild. Context-bearing
  /// replay kinds (SyncPClosure) additionally need the capturing
  /// detector's ShardContext in \p Ctx, which must outlive the checker.
  ShardChecker(ShardReplay Replay, uint32_t NumLocalVars, uint32_t NumThreads,
               const ShardContext *Ctx = nullptr);
  ~ShardChecker();

  ShardChecker(const ShardChecker &) = delete;
  ShardChecker &operator=(const ShardChecker &) = delete;

  /// Replays one deferred access. \p Local is A.Var's dense local id under
  /// the plan; \p Ce / \p Hard are the snapshots A.Clock / A.Hard resolve
  /// to (Hard null when A.Hard is DeferredAccess::NoClock).
  void replay(const DeferredAccess &A, VarId Local, const VectorClock &Ce,
              const VectorClock *Hard);

  /// Findings so far, in this shard's trace order (LaterIdx ascending).
  std::vector<RaceInstance> &findings() { return Out; }
  const std::vector<RaceInstance> &findings() const { return Out; }

private:
  struct Impl;
  std::unique_ptr<Impl> I;
  std::vector<RaceInstance> Out;
};

/// Interleaves per-shard findings back into parent-trace order and
/// accumulates them into a report. Each access event belongs to exactly one
/// shard, so the interleaving is unique: the result is bit-identical to the
/// sequential detector's report for any shard count.
RaceReport
mergeInTraceOrder(const std::vector<std::vector<RaceInstance>> &PerShard);

} // namespace rapid

#endif // RAPID_DETECT_SHARDEDACCESSHISTORY_H
