//===- syncp/SyncPDetector.cpp ------------------------------------------------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
// The clock here is deliberately *not* HB: it carries program order and
// fork/join edges only. A sync-preserving reordering may drop critical
// sections wholesale, so lock edges prune soundly for WCP but would lose
// races for SyncP; thread order is the largest order every correct
// reordering must respect. The AccessHistory over that clock yields the
// candidate pairs, and the incremental SP-closure checker (SyncPIndex.h)
// is the exact decision procedure on each.
//
//===----------------------------------------------------------------------===//

#include "syncp/SyncPDetector.h"

#include "detect/ShardedAccessHistory.h"

using namespace rapid;

namespace {

/// Shard-phase engine: same candidate enumeration as the sequential walk
/// (an AccessHistory over shard-local variable ids), same decision over
/// the shared read-only index through the shard's own checker. Shards see
/// their variables' accesses in trace order — so each thread's e2s arrive
/// in increasing order, as the checker's bases need — and the decision
/// depends only on the index prefix below the candidate pair, which the
/// AccessLog commit watermark guarantees is published; the merged sharded
/// report is bit-for-bit the sequential one.
class SyncPShardReplayer : public ShardReplayer {
public:
  SyncPShardReplayer(const SyncPIndex &Index, SyncPTelemetry &Tel,
                     uint32_t NumLocalVars, uint32_t NumThreads)
      : Checker(Index, Tel), History(NumLocalVars, NumThreads) {}

  void replay(const DeferredAccess &A, VarId Local, const VectorClock &Ce,
              const VectorClock *Hard, std::vector<RaceInstance> &Out) override {
    (void)Hard; // SyncP defers no hard clock; thread order is Ce itself.
    Scratch.clear();
    if (A.IsWrite)
      History.checkWrite(Local, A.Thread, Ce, A.Loc, A.Idx, Scratch);
    else
      History.checkRead(Local, A.Thread, Ce, A.Loc, A.Idx, Scratch);
    for (RaceInstance &R : Scratch)
      if (Checker.isSyncPreservingRace(R.EarlierIdx, R.LaterIdx)) {
        R.Var = A.Var; // Report in parent-trace variable ids.
        Out.push_back(R);
      }
    if (A.IsWrite)
      History.recordWrite(Local, A.Thread, A.N, A.Loc, A.Idx);
    else
      History.recordRead(Local, A.Thread, A.N, A.Loc, A.Idx);
  }

private:
  SyncPChecker Checker; ///< This shard's own bases.
  AccessHistory History;
  std::vector<RaceInstance> Scratch;
};

} // namespace

std::unique_ptr<ShardReplayer>
SyncPShardContext::makeReplayer(uint32_t NumLocalVars,
                                uint32_t NumThreads) const {
  return std::make_unique<SyncPShardReplayer>(Index, Tel, NumLocalVars,
                                              NumThreads);
}

SyncPDetector::SyncPDetector(const Trace &T)
    : ThreadClocks(T.numThreads(), VectorClock(T.numThreads())),
      ClockEpochs(T.numThreads(), 1), History(T.numVars(), T.numThreads()) {
  // Local time 1 so "clock 0" unambiguously means "has not seen this
  // thread" (same convention as every other lane).
  for (uint32_t I = 0; I < T.numThreads(); ++I)
    ThreadClocks[I].set(ThreadId(I), 1);
}

void SyncPDetector::incrementLocal(ThreadId T) {
  VectorClock &C = ThreadClocks[T.value()];
  C.set(T, C.get(T) + 1);
}

void SyncPDetector::ensureThread(ThreadId T) {
  if (T.value() < ThreadClocks.size())
    return;
  uint32_t Old = static_cast<uint32_t>(ThreadClocks.size());
  ThreadClocks.resize(T.value() + 1);
  ClockEpochs.resize(T.value() + 1, 1);
  for (uint32_t I = Old; I <= T.value(); ++I)
    ThreadClocks[I].set(ThreadId(I), 1);
}

void SyncPDetector::processEvent(const Event &E, EventIdx Idx) {
  ThreadId T = E.Thread;
  // Grow tables the event touches before taking references (a resize
  // mid-handler would dangle).
  ensureThread(T);
  if (E.Kind == EventKind::Fork || E.Kind == EventKind::Join)
    ensureThread(E.targetThread());
  // The index grows its own lock/var tables on first touch.
  Index.append(E, Idx, /*Publish=*/Capture != nullptr);
  VectorClock &Ct = ThreadClocks[T.value()];

  switch (E.Kind) {
  case EventKind::Acquire:
  case EventKind::Release:
    // No clock effect: thread order carries no lock edges.
    break;

  case EventKind::Fork: {
    ThreadId Child = E.targetThread();
    if (ThreadClocks[Child.value()].joinWith(Ct))
      ++ClockEpochs[Child.value()];
    incrementLocal(T); // Only C_t(t) changes: no epoch bump.
    break;
  }

  case EventKind::Join:
    if (Ct.joinWith(ThreadClocks[E.targetThread().value()]))
      ++ClockEpochs[T.value()];
    break;

  case EventKind::Read:
  case EventKind::Write: {
    const bool IsWrite = E.Kind == EventKind::Write;
    if (Capture) {
      Capture->record(Idx, E.var(), T, E.Loc, IsWrite, Ct.get(T), Ct,
                      ClockEpochs[T.value()], nullptr);
      break;
    }
    Scratch.clear();
    if (IsWrite)
      History.checkWrite(E.var(), T, Ct, E.Loc, Idx, Scratch);
    else
      History.checkRead(E.var(), T, Ct, E.Loc, Idx, Scratch);
    for (const RaceInstance &R : Scratch)
      if (Checker.isSyncPreservingRace(R.EarlierIdx, R.LaterIdx))
        Report.addRace(R);
    if (IsWrite)
      History.recordWrite(E.var(), T, Ct.get(T), E.Loc, Idx);
    else
      History.recordRead(E.var(), T, Ct.get(T), E.Loc, Idx);
    break;
  }
  }
}

void SyncPDetector::telemetry(std::vector<MetricSample> &Out) const {
  Out.push_back({"syncp.candidate_pairs", MetricKind::Counter,
                 Tel.CandidatePairs.load(std::memory_order_relaxed)});
  Out.push_back({"syncp.closure_iterations", MetricKind::Counter,
                 Tel.ClosureIterations.load(std::memory_order_relaxed)});
  Out.push_back({"syncp.ideal_peak", MetricKind::HighWater,
                 Tel.IdealPeak.load(std::memory_order_relaxed)});
}
