//===- syncp/SyncPDetector.cpp ------------------------------------------------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
// The clock here is deliberately *not* HB: it carries program order and
// fork/join edges only. A sync-preserving reordering may drop critical
// sections wholesale, so lock edges prune soundly for WCP but would lose
// races for SyncP; thread order is the largest order every correct
// reordering must respect. The full-history check over that clock yields
// the candidate pairs, and the incremental SP-closure checker
// (SyncPIndex.h) is the exact decision procedure on each.
//
//===----------------------------------------------------------------------===//

#include "syncp/SyncPDetector.h"

#include "detect/ShardedAccessHistory.h"

using namespace rapid;

SyncPDetector::SyncPDetector(const Trace &T)
    : ThreadClocks(T.numThreads(), VectorClock(T.numThreads())),
      ClockEpochs(T.numThreads(), 1),
      Checker(Index, Tel, T.numVars(), T.numThreads()) {
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
    Checker.check({Idx, E.var(), T, E.Loc, Ct.get(T), IsWrite}, E.var(), Ct,
                  nullptr, Scratch);
    for (const RaceInstance &R : Scratch)
      Report.addRace(R);
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
