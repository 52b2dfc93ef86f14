//===- hb/FastTrackDetector.cpp -----------------------------------------------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//

#include "hb/FastTrackDetector.h"

#include "detect/ShardedAccessHistory.h"

using namespace rapid;

void FastTrackChecker::check(const DeferredAccess &A, VarId Local,
                             const VectorClock &Ct, const VectorClock *Hard,
                             std::vector<RaceInstance> &Out) {
  (void)Hard; // HB order is C_t alone.
  // Growable: variables and threads first seen mid-stream start in the
  // state up-front construction gives them.
  if (A.Thread.value() >= NumThreads)
    NumThreads = A.Thread.value() + 1;
  if (Local.value() >= Vars.size())
    Vars.resize(Local.value() + 1);
  VarState &S = Vars[Local.value()];
  const ThreadId T = A.Thread;
  const Epoch Mine(A.N, T);
  auto Race = [&](EventIdx EarlierIdx, LocId EarlierLoc) {
    RaceInstance Inst;
    Inst.EarlierIdx = EarlierIdx;
    Inst.LaterIdx = A.Idx;
    Inst.EarlierLoc = EarlierLoc;
    Inst.LaterLoc = A.Loc;
    Inst.Var = A.Var;
    Out.push_back(Inst);
  };

  if (A.IsWrite) {
    if (S.Write == Mine) {
      // Same-epoch write: keep the freshest representative (see read).
      S.WriteLoc = A.Loc;
      S.WriteIdx = A.Idx;
      return;
    }
    // Write-write check against the most recent write.
    if (!S.Write.lessOrEqual(Ct) && S.Write.Thread != T)
      Race(S.WriteIdx, S.WriteLoc);
    // Read-write checks. The loop bound is the read vector's physical
    // size: components beyond it are implicitly 0 and cannot race.
    if (S.ReadShared) {
      for (uint32_t U = 0, E = S.ReadVC.size(); U != E; ++U) {
        if (U == T.value())
          continue;
        ClockValue RU = S.ReadVC.get(ThreadId(U));
        if (RU != 0 && RU > Ct.get(ThreadId(U)))
          Race(S.ReadInfo[U].Idx, S.ReadInfo[U].Loc);
      }
    } else if (!S.Read.isNone() && !S.Read.lessOrEqual(Ct) &&
               S.Read.Thread != T) {
      Race(S.ReadIdx, S.ReadLoc);
    }
    S.Write = Mine;
    S.WriteLoc = A.Loc;
    S.WriteIdx = A.Idx;
    return;
  }

  // Same-epoch shortcut: redundant read. The stored location still
  // advances so that later race reports name the most recent
  // representative of the epoch, matching the full-history detector.
  if (!S.ReadShared && S.Read == Mine) {
    S.ReadLoc = A.Loc;
    S.ReadIdx = A.Idx;
    return;
  }
  // Write-read check.
  if (!S.Write.lessOrEqual(Ct) && S.Write.Thread != T)
    Race(S.WriteIdx, S.WriteLoc);
  if (!S.ReadShared) {
    if (S.Read.isNone() || S.Read.lessOrEqual(Ct) || S.Read.Thread == T) {
      // Exclusive read: stay in epoch mode.
      S.Read = Mine;
      S.ReadLoc = A.Loc;
      S.ReadIdx = A.Idx;
      return;
    }
    // Concurrent reads: promote to vector mode.
    ++ReadPromotions;
    S.ReadShared = true;
    S.ReadVC = VectorClock(NumThreads);
    S.ReadInfo.assign(NumThreads, ReadLocInfo());
    S.ReadVC.set(S.Read.Thread, S.Read.Clock);
    S.ReadInfo[S.Read.Thread.value()] = {S.ReadLoc, S.ReadIdx};
  }
  if (S.ReadInfo.size() <= T.value())
    S.ReadInfo.resize(NumThreads); // Threads admitted after promotion.
  S.ReadVC.set(T, Mine.Clock);
  S.ReadInfo[T.value()] = {A.Loc, A.Idx};
}

FastTrackDetector::FastTrackDetector(const Trace &T)
    : ThreadClocks(T.numThreads(), VectorClock(T.numThreads())),
      ClockEpochs(T.numThreads(), 1),
      LockClocks(T.numLocks(), VectorClock(T.numThreads())),
      Checker(T.numVars(), T.numThreads()) {
  for (uint32_t I = 0; I < T.numThreads(); ++I)
    ThreadClocks[I].set(ThreadId(I), 1);
}

void FastTrackDetector::incrementLocal(ThreadId T) {
  VectorClock &C = ThreadClocks[T.value()];
  C.set(T, C.get(T) + 1);
}

void FastTrackDetector::ensureThread(ThreadId T) {
  if (T.value() < ThreadClocks.size())
    return;
  uint32_t Old = static_cast<uint32_t>(ThreadClocks.size());
  ThreadClocks.resize(T.value() + 1);
  ClockEpochs.resize(T.value() + 1, 1);
  for (uint32_t I = Old; I <= T.value(); ++I)
    ThreadClocks[I].set(ThreadId(I), 1);
}

void FastTrackDetector::ensureLock(LockId L) {
  if (L.value() >= LockClocks.size())
    LockClocks.resize(L.value() + 1);
}

void FastTrackDetector::processEvent(const Event &E, EventIdx Index) {
  ThreadId T = E.Thread;
  // Grow every table the event touches before taking references.
  ensureThread(T);
  if (E.Kind == EventKind::Fork || E.Kind == EventKind::Join)
    ensureThread(E.targetThread());
  else if (E.Kind == EventKind::Acquire || E.Kind == EventKind::Release)
    ensureLock(E.lock());
  VectorClock &Ct = ThreadClocks[T.value()];

  switch (E.Kind) {
  case EventKind::Acquire:
    if (Ct.joinWith(LockClocks[E.lock().value()]))
      ++ClockEpochs[T.value()];
    return;

  case EventKind::Release:
    LockClocks[E.lock().value()] = Ct;
    incrementLocal(T); // Only C_t(t) changes: no epoch bump.
    return;

  case EventKind::Fork:
    if (ThreadClocks[E.targetThread().value()].joinWith(Ct))
      ++ClockEpochs[E.targetThread().value()];
    incrementLocal(T);
    return;

  case EventKind::Join:
    if (Ct.joinWith(ThreadClocks[E.targetThread().value()]))
      ++ClockEpochs[T.value()];
    return;

  case EventKind::Read:
  case EventKind::Write: {
    const bool IsWrite = E.Kind == EventKind::Write;
    if (Capture) {
      Capture->record(Index, E.var(), T, E.Loc, IsWrite, Ct.get(T), Ct,
                      ClockEpochs[T.value()], nullptr);
      return;
    }
    Scratch.clear();
    Checker.check({Index, E.var(), T, E.Loc, Ct.get(T), IsWrite}, E.var(),
                  Ct, nullptr, Scratch);
    for (const RaceInstance &R : Scratch)
      Report.addRace(R);
    return;
  }
  }
}
