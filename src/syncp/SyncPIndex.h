//===- syncp/SyncPIndex.h - Event index for SP-closure ----------*- C++ -*-===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-event index the sync-preserving closure walks (after Mathur,
/// Pavlogiannis, Viswanathan, "Optimal Prediction of Synchronization-
/// Preserving Races", POPL'21 — PAPERS.md), and the incremental checker
/// that decides candidate pairs over it. A *sync-preserving* correct
/// reordering may drop critical sections entirely, but any two sections on
/// the same lock that both survive must keep their trace order; a pair of
/// conflicting events is a sync-preserving race iff some such reordering
/// co-enables both. The POPL'21 insight is that this is decidable by a
/// backward *closure* over trace prefixes (the "ideal") — no enumeration
/// of reorderings.
///
/// The index stores, per event, exactly the edges the closure pulls
/// through:
///
///   Prev   the event's program-order predecessor (per-thread chain);
///   Fork   the fork event that started the thread (kNone for roots);
///   Aux    kind-specific: a read's trace-last writer, a join's last child
///          event, an acquire's matching release (backfilled when the
///          release arrives — see writerSlot's visibility contract).
///
/// Nodes live in a PublishedStore indexed by event index: a single writer
/// (the detector's clock pass) appends in trace order while shard drains
/// read published prefixes in place, which is what lets the var-sharded
/// streamed mode run checks concurrently with ingestion. All writer-side
/// tables grow on first touch, so threads/locks/vars declared mid-stream
/// are admitted in O(1) — no restarts, same as every other lane.
///
/// SyncPChecker decides pairs in linear total work: it keeps one ideal per
/// thread that only ever grows along that thread, and extends it by the
/// other endpoint's prefix per candidate, then rolls the extension back.
/// reference/SyncPClosureOracle is the per-pair closure it is pinned
/// against.
///
//===----------------------------------------------------------------------===//

#ifndef RAPID_SYNCP_SYNCPINDEX_H
#define RAPID_SYNCP_SYNCPINDEX_H

#include "support/PublishedStore.h"
#include "trace/Trace.h"

#include <atomic>
#include <cstdint>
#include <vector>

namespace rapid {

/// Telemetry shared by the sequential checker and every shard replayer's
/// checker of one detector instance. Relaxed atomics: increments happen on
/// shard drains while Detector::telemetry() reads mid-stream under the
/// lane snapshot lock — counts are monotone and exact once drains quiesce.
struct SyncPTelemetry {
  std::atomic<uint64_t> CandidatePairs{0};    ///< Pairs decided.
  std::atomic<uint64_t> ClosureIterations{0}; ///< Events processed by base
                                              ///< advances and extensions.
  std::atomic<uint64_t> IdealPeak{0}; ///< Largest base ∪ extension ideal
                                      ///< at decision time.

  void noteIdeal(uint64_t Size) {
    uint64_t Cur = IdealPeak.load(std::memory_order_relaxed);
    while (Size > Cur && !IdealPeak.compare_exchange_weak(
                             Cur, Size, std::memory_order_relaxed)) {
    }
  }
};

/// Append-only event index of the closure's edges.
class SyncPIndex {
public:
  static constexpr EventIdx kNone = UINT64_MAX;

  /// One event's closure edges. Immutable once its successor on the same
  /// lock chain exists; Aux of an acquire is backfilled at its release
  /// (before any event that could make a closure read it is appended).
  struct Node {
    ThreadId Thread;
    EventKind Kind = EventKind::Read;
    uint32_t Target = UINT32_MAX; ///< Var, lock, or target-thread id.
    EventIdx Prev = kNone;        ///< Program-order predecessor.
    EventIdx Fork = kNone;        ///< Fork that started this thread.
    EventIdx Aux = kNone;         ///< Read: last writer; Acquire: matching
                                  ///< release; Join: child's last event.
  };

  /// Appends the \p Index-th event (indices must be dense from 0, i.e.
  /// trace order). When \p Publish is set the node watermark is advanced
  /// per event for concurrent shard drains; single-threaded modes skip the
  /// fence and rely on program order.
  void append(const Event &E, EventIdx Index, bool Publish);

  /// In-place node access. Readers must have synchronized with the append
  /// of \p I (published watermark, or the access-log commit that followed
  /// it — every access record is appended after its node).
  const Node &node(EventIdx I) const { return Nodes[I]; }

  uint64_t size() const { return Nodes.size(); }

private:
  static void ensure(std::vector<EventIdx> &V, uint32_t I) {
    if (I >= V.size())
      V.resize(I + 1, kNone);
  }

  PublishedStore<Node> Nodes;
  // Writer-side chain heads; never read by checkers (checkers reach the
  // same facts through node edges, which is what makes them shard-safe).
  std::vector<EventIdx> LastOfThread; ///< Per thread: last event.
  std::vector<EventIdx> ForkOf;       ///< Per thread: its fork event.
  std::vector<EventIdx> OpenAcq;      ///< Per lock: open acquire.
  std::vector<EventIdx> LastWrite;    ///< Per var: last write.
};

/// Incremental SP-closure checker over a SyncPIndex. The closure is a
/// closure operator, so SP(pre(e1) ∪ pre(e2)) = SP(SP(pre(e2)) ∪ pre(e1)):
/// the checker keeps, per thread t, a *base* ideal SP(pre(e)) for the
/// latest e of t it was asked about, advances it when a later e2 of t
/// arrives, and decides each pair by extending the base with pre(e1)
/// under the ceiling e1. Every frontier and lock-maximum write of the
/// extension is undo-logged and rolled back after the decision. Since a
/// thread's e2s arrive in increasing order (in the sequential walk and in
/// each shard's replay), each base processes every event at most once:
/// O(N·T) base work per checker, plus the extensions.
///
/// Each checker is single-threaded; the sequential detector and every
/// shard replayer own one apiece over the shared, read-only index. Every
/// node a base reaches precedes its e2, so the reader-side visibility
/// contract of SyncPIndex::node covers it.
class SyncPChecker {
public:
  SyncPChecker(const SyncPIndex &Index, SyncPTelemetry &Tel)
      : Index(Index), Tel(Tel) {}

  /// Decides whether the conflicting pair (\p E1, \p E2), E1 < E2 on
  /// different threads, is a sync-preserving race: true iff the SP-closure
  /// of both program-order prefixes contains neither endpoint. Per thread,
  /// successive \p E2s must not decrease.
  bool isSyncPreservingRace(EventIdx E1, EventIdx E2);

private:
  static constexpr EventIdx kNone = SyncPIndex::kNone;

  /// An ideal: per-thread prefixes plus the per-lock maximal acquire.
  /// Tables grow to the ids the closure meets, never up front.
  struct Ideal {
    std::vector<EventIdx> End;    ///< Per thread: one past the highest
                                  ///< included event (0: none).
    std::vector<EventIdx> MaxAcq; ///< Per lock: maximal included acquire.
    EventIdx Anchor = kNone;      ///< The e whose pre(e) this closes.
    uint64_t Size = 0;            ///< Events included.
  };

  /// Includes \p X and its program-order prefix in \p I, queueing the new
  /// events for saturate(); sets Swallowed instead if X reaches the
  /// ceiling.
  void include(Ideal &I, EventIdx X);
  /// Includes the program-order prefix strictly below \p E.
  void seed(Ideal &I, EventIdx E);
  /// Runs the closure rules to a fixpoint or the first swallow; returns
  /// the number of events processed.
  uint64_t saturate(Ideal &I);
  /// Restores every write the current extension logged.
  void rollback(Ideal &I);

  const SyncPIndex &Index;
  SyncPTelemetry &Tel;
  std::vector<Ideal> Bases; ///< Per thread, grown on first touch.
  std::vector<EventIdx> Pending; ///< Included, rules not yet run.
  /// One logged write: End[Id] or, for IsLock, MaxAcq[Id] held Old.
  struct UndoEntry {
    uint32_t Id;
    bool IsLock;
    EventIdx Old;
  };
  std::vector<UndoEntry> Undo; ///< The current extension's writes.
  /// While Extending: writes are logged for rollback, and including an
  /// event of CeilT at or past CeilE (the pair's e1) swallows the pair.
  bool Extending = false;
  uint32_t CeilT = 0;
  EventIdx CeilE = kNone;
  bool Swallowed = false;
};

} // namespace rapid

#endif // RAPID_SYNCP_SYNCPINDEX_H
