//===- wcp/WcpDetector.cpp - Algorithm 1 implementation -----------------------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//

#include "wcp/WcpDetector.h"

#include "detect/ShardedAccessHistory.h"

#include <algorithm>
#include <cstddef>

using namespace rapid;

WcpDetector::WcpDetector(const Trace &T)
    : NumThreads(T.numThreads()),
      Threads(T.numThreads(), WcpThreadState(T.numThreads())),
      Locks(T.numLocks()), Checker(T.numVars(), T.numThreads()) {
  // Initialization (§3.2): N_t = 1, P_t = ⊥, H_t = K_t = ⊥[t := N_t].
  // Lock state (P_ℓ = H_ℓ = ⊥, empty queues) is implicit until first use.
  for (uint32_t I = 0; I < NumThreads; ++I) {
    Threads[I].H.set(ThreadId(I), 1);
    Threads[I].K.set(ThreadId(I), 1);
  }
}

void WcpDetector::currentC(ThreadId T, VectorClock &Out) const {
  // The *effective* time of the thread's last event: WCP predecessors
  // plus hard (fork/join) order. Two events a <tr b satisfy
  // currentC(a) ⊑ currentC(b) iff a ≤WCP b in the fork/join-extended
  // sense (Theorem 2).
  //
  // Composed in one pass over P_t/K_t's components into caller-owned
  // storage — no intermediate copy-then-join, and per-event callers
  // (the Theorem 2 harness walks every event) reuse \p Out's capacity
  // instead of allocating a clock per call.
  const WcpThreadState &TS = Threads[T.value()];
  Out.clear();
  const uint32_t N = std::max(TS.P.size(), TS.K.size());
  for (uint32_t U = 0; U != N; ++U)
    Out.set(ThreadId(U),
            std::max(TS.P.get(ThreadId(U)), TS.K.get(ThreadId(U))));
  Out.set(T, TS.N);
}

VectorClock WcpDetector::currentC(ThreadId T) const {
  VectorClock C;
  currentC(T, C);
  return C;
}

bool WcpDetector::frontLeqCt(WcpTime Front, const WcpThreadState &TS,
                             ThreadId T) const {
  // The guard tests "acquire ordered before this release" — hard
  // (fork/join) order counts, so the comparison is against P_t ⊔ K_t.
  // Only Front's physical components and its owner's can exceed anything
  // (the implicit tail is 0), so the loop bound is the version's width,
  // not the thread count.
  auto Mine = [&](uint32_t U) {
    return U == T.value()
               ? TS.N
               : std::max(TS.P.get(ThreadId(U)), TS.K.get(ThreadId(U)));
  };
  if (Front.N > Mine(Front.Owner))
    return false;
  for (uint32_t U = 0, E = Front.Base.Size; U < E; ++U)
    if (U != Front.Owner && Front.Base.Data[U] > Mine(U))
      return false;
  return true;
}

WcpClockVersions::Handle WcpDetector::pVersion(WcpThreadState &TS) {
  if (TS.PVerEpoch != TS.PEpoch) {
    Versions.release(TS.PVer);
    TS.PVer = Versions.snapshot(TS.P);
    TS.PVerEpoch = TS.PEpoch;
  }
  return TS.PVer;
}

WcpClockVersions::Handle WcpDetector::hVersion(WcpThreadState &TS) {
  if (TS.HVerEpoch != TS.HEpoch) {
    Versions.release(TS.HVer);
    TS.HVer = Versions.snapshot(TS.H);
    TS.HVerEpoch = TS.HEpoch;
  }
  return TS.HVer;
}

void WcpDetector::ensureThread(ThreadId T) {
  if (T.value() >= NumThreads) {
    // The new threads' abstract queues hold every entry still buffered
    // (they will pop them, never the collected ones: their cursors start
    // at Base), so the abstract count stays exact and non-negative.
    bumpAbstract(static_cast<int64_t>((T.value() + 1 - NumThreads) *
                                      QueuedWeight));
    NumThreads = T.value() + 1;
  }
  if (T.value() < Threads.size())
    return;
  uint32_t Old = static_cast<uint32_t>(Threads.size());
  Threads.resize(T.value() + 1, WcpThreadState());
  for (uint32_t I = Old; I <= T.value(); ++I) {
    // Initialization (§3.2), exactly as the constructor performs it.
    Threads[I].H.set(ThreadId(I), 1);
    Threads[I].K.set(ThreadId(I), 1);
  }
}

void WcpDetector::ensureLock(LockId L) {
  if (L.value() >= Locks.size())
    Locks.resize(L.value() + 1);
}

void WcpDetector::collectLockGarbage(WcpLockState &LS) {
  // An entry below every cursor can never be popped by a *current*
  // thread again — but a thread declared later starts with a fresh
  // cursor, and in the up-front-construction world it would have walked
  // these entries. Collection is safe for such future threads only once
  // the entry's release time is covered by its own thread's P: every
  // other thread's P covers it already (they popped it), so from that
  // point *any* release of this lock publishes a P_ℓ ⊒ ReleaseTime, and
  // a future thread must acquire (joining P_ℓ) before it can release and
  // walk the queue — its pop of the entry would be a no-op join. New
  // cursors therefore start at Base (WcpLockState::touch).
  uint64_t End = LS.collectibleEnd(NumThreads);
  while (LS.Base < End && LS.numRecords() != 0) {
    const WcpRecord &R = LS.record(LS.Base);
    if (!R.hasRelease() ||
        !R.releaseTime(Versions).lessOrEqual(Threads[R.Owner].P))
      break;
    LS.popFront(Versions);
    QueuedWeight -= 2;
  }
}

void WcpDetector::bumpAbstract(int64_t Delta) {
  CurrentAbstract += Delta;
  assert(CurrentAbstract >= 0 && "queue accounting went negative");
  if (static_cast<uint64_t>(CurrentAbstract) > Stats.MaxAbstractQueueEntries)
    Stats.MaxAbstractQueueEntries = static_cast<uint64_t>(CurrentAbstract);
}

void WcpDetector::bumpLive(int64_t Delta) {
  CurrentLive += Delta;
  assert(CurrentLive >= 0 && "live queue accounting went negative");
  if (static_cast<uint64_t>(CurrentLive) > Stats.MaxLiveQueueEntries)
    Stats.MaxLiveQueueEntries = static_cast<uint64_t>(CurrentLive);
}

void WcpDetector::enqueueForOthers(WcpLockState &LS, ThreadId T) {
  bumpAbstract(static_cast<int64_t>(NumThreads) - 1);
  // Only touchers' queues are live; T (holding the lock) is one of them,
  // and touchers beyond the per-thread array's physical size don't exist.
  if (LS.Touchers != WcpLockState::ManyThreads)
    return;
  for (uint32_t U = 0, E = static_cast<uint32_t>(LS.Threads.size()); U < E;
       ++U) {
    if (U != T.value() && LS.Threads[U].Touched) {
      ++LS.Threads[U].Live;
      bumpLive(1);
    }
  }
}

void WcpDetector::handleAcquire(ThreadId T, LockId L) {
  WcpThreadState &TS = Threads[T.value()];
  WcpLockState &LS = Locks[L.value()];

  // Lines 1-2: receive the H/P times of the last release of ℓ (no-ops if
  // that release was our own).
  if (LS.LastReleaser != T.value()) {
    if (LS.H(Versions).joinInto(TS.H))
      ++TS.HEpoch;
    if (TS.P.joinWith(LS.P(Versions)))
      ++TS.PEpoch;
  }

  // First contact with ℓ: this thread's abstract queues become live, and
  // all pending entries of other threads now count against them.
  if (!LS.touched(T.value())) {
    uint64_t Pending = 0;
    for (uint64_t I = LS.Base; I < LS.logicalEnd(); ++I) {
      const WcpRecord &R = LS.record(I);
      if (R.Owner != T.value())
        Pending += R.hasRelease() ? 2 : 1;
    }
    LS.touch(T.value()).Live = Pending;
    bumpLive(static_cast<int64_t>(Pending));
  }

  // Line 3: enqueue C_t into Acq_ℓ(t') for every t' ≠ t. One shared record
  // stands for all T-1 abstract copies.
  uint64_t LogicalIdx = LS.pushAcquire(T, TS.N, pVersion(TS), Versions);
  ++QueuedWeight;
  enqueueForOthers(LS, T);
  Stats.MaxSharedQueueEntries =
      std::max(Stats.MaxSharedQueueEntries, LS.numRecords());

  TS.CsStack.push_back(WcpCsFrame{L, LogicalIdx, TS.CsLog.size(),
                                  LS.releasedByOtherThan(T)});
}

void WcpDetector::handleRelease(ThreadId T, LockId L) {
  WcpThreadState &TS = Threads[T.value()];
  WcpLockState &LS = Locks[L.value()];

  // Lines 4-6: Rule (b). Pop critical sections of other threads whose
  // acquire is already ⊑ C_t; their release H-times become WCP
  // predecessors of this release. C_t changes as P_t grows, so the guard
  // is re-evaluated every iteration, exactly like the pseudocode's while.
  WcpLockThread &Mine = LS.thread(T.value());
  uint64_t &Cur = Mine.Cursor;
  for (;;) {
    // Entries by T itself are not part of T's abstract queues (Line 3
    // enqueues only to other threads).
    while (Cur < LS.logicalEnd() && LS.record(Cur).Owner == T.value())
      ++Cur;
    if (Cur >= LS.logicalEnd())
      break;
    const WcpRecord &Front = LS.record(Cur);
    if (!frontLeqCt(Front.acquireTime(Versions), TS, T))
      break;
    // Lock semantics guarantees this critical section closed before our
    // matching acquire, so its release time is present (see WcpState.h).
    assert(Front.hasRelease() && "popping an open critical section");
    if (Front.releaseTime(Versions).joinInto(TS.P))
      ++TS.PEpoch;
    ++Cur;
    bumpAbstract(-2); // One entry leaves Acq_ℓ(T) and one leaves Rel_ℓ(T).
    assert(Mine.Live >= 2 && "live count out of sync");
    Mine.Live -= 2;
    bumpLive(-2);
  }

  // Lines 7-8: Rule (a) bookkeeping. Publish H_t into L^r/L^w for every
  // variable this critical section read (R) or wrote (W): the access-log
  // suffix since its acquire. The cells point at the section's queue
  // record, whose H_rel Line 10 sets to the same H_t. Hand-over-hand
  // locking means the released section need not be the innermost one.
  size_t FrameIdx = TS.CsStack.size();
  for (size_t K = TS.CsStack.size(); K-- > 0;) {
    if (TS.CsStack[K].Lock == L) {
      FrameIdx = K;
      break;
    }
  }
  assert(FrameIdx < TS.CsStack.size() && "release without open section");
  WcpCsFrame Frame = TS.CsStack[FrameIdx];
  TS.CsStack.erase(TS.CsStack.begin() + static_cast<ptrdiff_t>(FrameIdx));

  ReleaseScratch.assign(TS.CsLog.begin() + Frame.LogStart, TS.CsLog.end());
  std::sort(ReleaseScratch.begin(), ReleaseScratch.end());
  ReleaseScratch.erase(
      std::unique(ReleaseScratch.begin(), ReleaseScratch.end()),
      ReleaseScratch.end());
  for (uint64_t A : ReleaseScratch)
    Releases.store(L, VarId(static_cast<uint32_t>(A >> 1)), A & 1, T,
                   Frame.EntryLogicalIdx);

  // The log prefix before the outermost open section's start is dead;
  // drop it once it is at least half the log (amortized O(1) per access).
  if (TS.CsStack.empty()) {
    TS.CsLog.clear();
  } else if (size_t Dead = TS.CsStack.front().LogStart;
             2 * Dead >= TS.CsLog.size() && Dead != 0) {
    TS.CsLog.erase(TS.CsLog.begin(),
                   TS.CsLog.begin() + static_cast<ptrdiff_t>(Dead));
    for (WcpCsFrame &F : TS.CsStack)
      F.LogStart -= Dead;
  }

  // Line 9: this release becomes the last release of ℓ.
  const WcpClockVersions::Handle HVer = hVersion(TS);
  LS.setLastRelease(T, TS.N, pVersion(TS), HVer, Versions);

  // Line 10: enqueue H_t into Rel_ℓ(t') for t' ≠ t — i.e. complete the
  // shared record our matching acquire created.
  LS.completeRelease(Frame.EntryLogicalIdx, T, TS.N, HVer, Versions);
  ++QueuedWeight;
  enqueueForOthers(LS, T);

  collectLockGarbage(LS);

  // Local clock increment: N_t advances before the next event of T
  // because this event is a release.
  TS.IncrementNext = true;
}

void WcpDetector::ruleAOnAccess(WcpThreadState &TS, ThreadId T, VarId X,
                                bool IsWrite) {
  if (TS.CsStack.empty())
    return;
  // For every enclosing critical section over ℓ, releases of ℓ by other
  // threads whose sections wrote x (or, for a write, read or wrote x)
  // precede this access. A lock only this thread has released holds no
  // such release.
  //
  // A cell whose record was collected joins nothing, exactly: collection
  // needs every current thread's cursor past the record, so every
  // non-owner popped it (its P ⊒ H_rel), and the owner's P covers H_rel
  // by the collector's own check. The releaser that collected it set
  // P_ℓ ⊒ H_rel, and every later P_ℓ comes from a thread that is one of
  // those or acquired ℓ since, so a thread admitted later has P ⊒ H_rel
  // from its first acquire of ℓ on.
  for (const WcpCsFrame &Frame : TS.CsStack) {
    if (!Frame.ForeignReleases)
      continue;
    const WcpLockState &LS = Locks[Frame.Lock.value()];
    auto JoinRelease = [&](uint64_t Record) {
      return Record >= LS.Base &&
             LS.record(Record).releaseTime(Versions).joinInto(TS.P);
    };
    if (Releases.joinInto(Frame.Lock, X, /*WithReads=*/IsWrite, T,
                          JoinRelease))
      ++TS.PEpoch;
  }
  // The access belongs to the R/W set of *every* open section (sections
  // may overlap without nesting, so bubbling on release would be wrong):
  // one log entry serves them all.
  TS.CsLog.push_back(static_cast<uint64_t>(X.value()) << 1 | IsWrite);
}

void WcpDetector::handleAccess(ThreadId T, VarId X, LocId Loc, EventIdx Index,
                               bool IsWrite) {
  WcpThreadState &TS = Threads[T.value()];
  // Lines 11/12: Rule (a): P_t ⊔= ⊔_{ℓ∈L} L^w_{ℓ,x} at a read,
  // ⊔_{ℓ∈L} (L^r_{ℓ,x} ⊔ L^w_{ℓ,x}) at a write.
  ruleAOnAccess(TS, T, X, IsWrite);

  // Race check (§3.2): W_x ⊑ C_e at a read, R_x ⊔ W_x ⊑ C_e at a write,
  // with C_e = P_t[t := N_t]. The check reads only other threads'
  // components, so P_t stands in for C_e.
  if (Capture) {
    Capture->record(Index, X, T, Loc, IsWrite, TS.N, TS.P, TS.PEpoch, &TS.K,
                    TS.KEpoch);
    return;
  }
  Scratch.clear();
  Checker.check({Index, X, T, Loc, TS.N, IsWrite}, X, TS.P, &TS.K, Scratch);
  for (const RaceInstance &R : Scratch)
    Report.addRace(R);
}

void WcpDetector::processEvent(const Event &E, EventIdx Index) {
  ++EventsProcessed;
  ThreadId T = E.Thread;
  // Grow every table the event touches before taking references into
  // them (a resize mid-handler would dangle).
  ensureThread(T);
  if (E.Kind == EventKind::Fork || E.Kind == EventKind::Join)
    ensureThread(E.targetThread());
  else if (E.Kind == EventKind::Acquire || E.Kind == EventKind::Release)
    ensureLock(E.lock());
  WcpThreadState &TS = Threads[T.value()];
  if (TS.IncrementNext) {
    ++TS.N;
    TS.H.set(T, TS.N); // Maintain H_t(t) = N_t.
    // ... and K_t(t) = N_t. Race checks never read the accessing thread's
    // own component, so this leaves KEpoch (and the broadcast snapshot of
    // K_t) alone.
    TS.K.set(T, TS.N);
    TS.IncrementNext = false;
  }

  switch (E.Kind) {
  case EventKind::Acquire:
    handleAcquire(T, E.lock());
    return;
  case EventKind::Release:
    handleRelease(T, E.lock());
    return;
  case EventKind::Read:
  case EventKind::Write:
    handleAccess(T, E.var(), E.Loc, Index, E.Kind == EventKind::Write);
    return;

  case EventKind::Fork: {
    // fork(t, u) is an HB edge (so the child inherits H_t for rule (c)
    // composition and P_t for transitive WCP predecessors) *and* a hard
    // order edge (no correct reordering can start u before the fork),
    // which lives in K_t only — see WcpState.h. The parent's local clock
    // then advances so its later events stay unordered with the child.
    ThreadId Child = E.targetThread();
    WcpThreadState &CS = Threads[Child.value()];
    if (CS.H.joinWith(TS.H))
      ++CS.HEpoch;
    CS.H.set(Child, CS.N); // Preserve H_u(u) = N_u.
    if (CS.P.joinWith(TS.P))
      ++CS.PEpoch;
    if (CS.K.joinWith(TS.K))
      ++CS.KEpoch;
    CS.K.set(Child, CS.N); // No-op by K_u(u) = N_u; epoch already bumped.
    TS.IncrementNext = true;
    return;
  }

  case EventKind::Join: {
    // join(t, u): symmetric.
    ThreadId Child = E.targetThread();
    WcpThreadState &CS = Threads[Child.value()];
    if (TS.H.joinWith(CS.H))
      ++TS.HEpoch;
    TS.H.set(T, TS.N);
    if (TS.P.joinWith(CS.P))
      ++TS.PEpoch;
    if (TS.K.joinWith(CS.K))
      ++TS.KEpoch;
    TS.K.set(T, TS.N); // No-op by K_t(t) = N_t; epoch covered above.
    return;
  }
  }
}
