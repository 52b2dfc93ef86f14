//===- syncp/SyncPIndex.cpp ---------------------------------------------------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
// The SP-closure (POPL'21, §4) saturates four rules over an ideal (a
// union of per-thread program-order prefixes): (po) downward closure along
// Prev; (read) a read pulls its trace-last writer; (lock) of two included
// acquires on one lock, the trace-earlier one's release is pulled — kept
// incrementally as the per-lock maximal acquire, so every included acquire
// but the maximum has its release included; (thread) a thread's first
// event pulls its fork, a join pulls the child's last event. See
// reference/SyncPClosureOracle.cpp for the per-pair form and the argument
// that the fixpoint is unique whatever the processing order.
//
// Uniqueness is what makes the checker here incremental. The rules are
// Horn clauses, so the closure is a closure operator and a base ideal
// SP(pre(e)) can be reused for every later pair whose e2 is e or follows
// it on e's thread: advancing the base to a later e2 only adds pre(e2)'s
// new events and saturates them. A pair is decided by extending the base
// with pre(e1) under the ceiling "nothing of t1 at or past e1"; the
// extension's table writes are undo-logged and rolled back, so the base
// is untouched by the decision. Every member of SP(pre(e1) ∪ pre(e2))
// precedes e2 in the trace (each rule pulls an event earlier than one
// already included; a displaced acquire's release precedes the later
// acquire), so e2 is never swallowed — the per-pair closure's second
// ceiling is vacuous here — and the checker reads only nodes the commit
// watermark has published.
//
//===----------------------------------------------------------------------===//

#include "syncp/SyncPIndex.h"

#include <cassert>

using namespace rapid;

void SyncPIndex::append(const Event &E, EventIdx Index, bool Publish) {
  assert(Index == Nodes.size() && "events must arrive dense, in trace order");
  const uint32_t T = E.Thread.value();
  ensure(LastOfThread, T);
  ensure(ForkOf, T);

  Node N;
  N.Thread = E.Thread;
  N.Kind = E.Kind;
  N.Prev = LastOfThread[T];
  N.Fork = ForkOf[T];

  switch (E.Kind) {
  case EventKind::Acquire:
    N.Target = E.lock().value();
    ensure(OpenAcq, N.Target);
    OpenAcq[N.Target] = Index;
    break;
  case EventKind::Release: {
    N.Target = E.lock().value();
    ensure(OpenAcq, N.Target);
    EventIdx Acq = OpenAcq[N.Target];
    // Backfill the acquire's matching-release edge *before* this node is
    // appended: every publish that can carry this release to a reader is
    // issued after the backfill (see PublishedStore::writerSlot).
    if (Acq != kNone) {
      Nodes.writerSlot(Acq).Aux = Index;
      OpenAcq[N.Target] = kNone;
    }
    break;
  }
  case EventKind::Read:
    N.Target = E.var().value();
    ensure(LastWrite, N.Target);
    N.Aux = LastWrite[N.Target];
    break;
  case EventKind::Write:
    N.Target = E.var().value();
    ensure(LastWrite, N.Target);
    LastWrite[N.Target] = Index;
    break;
  case EventKind::Fork: {
    const uint32_t Child = E.targetThread().value();
    N.Target = Child;
    ensure(ForkOf, Child);
    ForkOf[Child] = Index;
    break;
  }
  case EventKind::Join: {
    const uint32_t Child = E.targetThread().value();
    N.Target = Child;
    ensure(LastOfThread, Child);
    N.Aux = LastOfThread[Child];
    break;
  }
  }

  LastOfThread[T] = Index;
  Nodes.append(N);
  if (Publish)
    Nodes.publish(Index + 1);
}

void SyncPChecker::include(Ideal &I, EventIdx X) {
  const SyncPIndex::Node &N = Index.node(X);
  const uint32_t T = N.Thread.value();
  if (T >= I.End.size())
    I.End.resize(T + 1, 0);
  const EventIdx OldEnd = I.End[T];
  if (OldEnd > X)
    return;
  if (Extending && T == CeilT && X >= CeilE) {
    Swallowed = true;
    return;
  }
  if (Extending)
    Undo.push_back({T, false, OldEnd});
  I.End[T] = X + 1;
  for (EventIdx C = X; C != kNone && C >= OldEnd; C = Index.node(C).Prev)
    Pending.push_back(C);
}

void SyncPChecker::seed(Ideal &I, EventIdx E) {
  const SyncPIndex::Node &N = Index.node(E);
  if (N.Prev != kNone)
    include(I, N.Prev);
  else if (N.Fork != kNone)
    include(I, N.Fork); // First event: the thread must at least be started.
}

uint64_t SyncPChecker::saturate(Ideal &I) {
  uint64_t Processed = 0;
  while (!Pending.empty() && !Swallowed) {
    const EventIdx X = Pending.back();
    Pending.pop_back();
    ++Processed;
    // Field by field, never a Node copy: an open acquire's Aux may be
    // backfilled concurrently by the clock pass.
    const SyncPIndex::Node &N = Index.node(X);
    if (N.Prev == kNone && N.Fork != kNone)
      include(I, N.Fork);
    switch (N.Kind) {
    case EventKind::Read:
    case EventKind::Join:
      if (N.Aux != kNone)
        include(I, N.Aux);
      break;
    case EventKind::Acquire: {
      const uint32_t L = N.Target;
      if (L >= I.MaxAcq.size())
        I.MaxAcq.resize(L + 1, kNone);
      const EventIdx Max = I.MaxAcq[L];
      EventIdx NeedsRelease = X;
      if (Max == kNone || X > Max) {
        if (Extending)
          Undo.push_back({L, true, Max});
        I.MaxAcq[L] = X;
        NeedsRelease = Max;
      }
      if (NeedsRelease != kNone) {
        // A non-maximal acquire sits trace-before another included acquire
        // on the same lock, so its section closed before that acquire: the
        // release exists and was backfilled before anything after it was
        // published.
        const EventIdx Rel = Index.node(NeedsRelease).Aux;
        assert(Rel != kNone && "non-maximal section must be closed");
        if (Rel != kNone)
          include(I, Rel);
      }
      break;
    }
    default:
      break;
    }
  }
  Pending.clear();
  return Processed;
}

void SyncPChecker::rollback(Ideal &I) {
  for (auto It = Undo.rbegin(); It != Undo.rend(); ++It)
    (It->IsLock ? I.MaxAcq : I.End)[It->Id] = It->Old;
  Undo.clear();
}

bool SyncPChecker::isSyncPreservingRace(EventIdx E1, EventIdx E2) {
  assert(E1 < E2 && "candidates must arrive in trace order");
  const uint32_t T1 = Index.node(E1).Thread.value();
  const uint32_t T2 = Index.node(E2).Thread.value();
  if (T2 >= Bases.size())
    Bases.resize(T2 + 1);
  Ideal &B = Bases[T2];

  // Advance the base to SP(pre(E2)), uncapped; the writes are kept.
  assert((B.Anchor == kNone || B.Anchor <= E2) && "bases only advance");
  uint64_t Work = 0;
  if (B.Anchor != E2) {
    seed(B, E2);
    Work = saturate(B);
    B.Size += Work;
    B.Anchor = E2;
  }

  // Decide: SP(B ∪ pre(E1)) must not reach E1. It cannot reach E2: every
  // member precedes E2 (file comment), so E1's ceiling is the only one.
  assert(T2 >= B.End.size() || B.End[T2] <= E2);
  bool Race = false;
  uint64_t Extension = 0;
  if (T1 >= B.End.size() || B.End[T1] <= E1) {
    CeilT = T1;
    CeilE = E1;
    Extending = true;
    seed(B, E1);
    Extension = saturate(B);
    Race = !Swallowed;
    rollback(B);
    Extending = false;
    Swallowed = false;
  }

  Tel.CandidatePairs.fetch_add(1, std::memory_order_relaxed);
  Tel.ClosureIterations.fetch_add(Work + Extension, std::memory_order_relaxed);
  Tel.noteIdeal(B.Size + Extension);
  return Race;
}
