//===- reference/SyncPClosureOracle.cpp ---------------------------------------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
// The SP-closure (POPL'21, §4): an *ideal* is a union of per-thread
// program-order prefixes. Starting from the prefixes strictly below the two
// candidate events, the closure saturates four rules:
//
//   (po)    the ideal is program-order downward closed (by construction:
//           inclusion walks the Prev chain down to the old frontier);
//   (read)  a read in the ideal pulls its trace-last writer — the trace-
//           order linearization then shows every read its original writer
//           (writes between them do not exist in the trace, and later
//           writes sort after);
//   (lock)  if two acquires of the same lock are both in the ideal, the
//           trace-earlier one's release must be too. Incrementally: keep
//           the maximal included acquire per lock; a newly included
//           acquire either displaces the maximum (pulling the displaced
//           one's release) or sits below it (pulling its own release).
//           Every included acquire except the per-lock maximum therefore
//           ends with its release included — the linearization has at most
//           one trailing open section per lock, and sections on one lock
//           appear in trace order: sync-preserving by construction;
//   (thread) a thread's first event pulls its fork; a join pulls the
//           child's last event (program order then closes the child).
//
// The pair is a race iff saturation never forces an event at or past
// either endpoint into its endpoint's thread prefix ("swallowing" the
// candidate). On success the ideal, linearized in trace order with the two
// candidates appended, is a correct reordering co-enabling the pair.
//
// Rule order does not matter: inclusion is monotone and each event is
// processed exactly once, so the fixpoint is unique — the incremental
// (lock) bookkeeping preserves it because "all processed acquires except
// the current per-lock maximum have their release pulled" is invariant
// under any processing order.
//
//===----------------------------------------------------------------------===//

#include "reference/SyncPClosureOracle.h"

#include <algorithm>
#include <cassert>

using namespace rapid;

SyncPClosureOracle::SyncPClosureOracle(const Trace &T) : Nodes(T.size()) {
  std::vector<EventIdx> LastOfThread(T.numThreads(), kNone);
  std::vector<EventIdx> ForkOf(T.numThreads(), kNone);
  std::vector<EventIdx> OpenAcq(T.numLocks(), kNone);
  std::vector<EventIdx> LastWrite(T.numVars(), kNone);
  for (EventIdx I = 0; I != T.size(); ++I) {
    const Event &E = T.event(I);
    Edges &N = Nodes[I];
    N.Thread = E.Thread.value();
    N.Kind = E.Kind;
    N.Prev = LastOfThread[N.Thread];
    N.Fork = ForkOf[N.Thread];
    switch (E.Kind) {
    case EventKind::Acquire:
      N.Lock = E.lock().value();
      OpenAcq[N.Lock] = I;
      break;
    case EventKind::Release:
      if (OpenAcq[E.lock().value()] != kNone)
        Nodes[OpenAcq[E.lock().value()]].Aux = I;
      OpenAcq[E.lock().value()] = kNone;
      break;
    case EventKind::Read:
      N.Aux = LastWrite[E.var().value()];
      break;
    case EventKind::Write:
      LastWrite[E.var().value()] = I;
      break;
    case EventKind::Fork:
      ForkOf[E.targetThread().value()] = I;
      break;
    case EventKind::Join:
      N.Aux = LastOfThread[E.targetThread().value()];
      break;
    }
    LastOfThread[N.Thread] = I;
  }
}

bool SyncPClosureOracle::isSyncPreservingRace(
    EventIdx E1, EventIdx E2, std::vector<EventIdx> *WitnessOut) const {
  assert(E1 < E2 && E2 < Nodes.size() && "candidates must be in trace order");
  const uint32_t T1 = Nodes[E1].Thread, T2 = Nodes[E2].Thread;
  std::vector<EventIdx> Frontier; // Per thread: highest included event.
  std::vector<EventIdx> MaxAcq;   // Per lock: maximal included acquire.
  std::vector<EventIdx> Pending;  // Included, closure rules not yet run.
  std::vector<EventIdx> Included; // Every ideal member, for the witness.
  bool Swallowed = false;

  // Includes X and, transitively via the Prev chain, its whole program-
  // order prefix above the thread's current frontier. Fails the closure
  // when X reaches an endpoint's own suffix — the reordering would have to
  // *execute* the candidate, which is exactly what co-enabledness forbids.
  auto include = [&](EventIdx X) {
    const uint32_t T = Nodes[X].Thread;
    const EventIdx Old = T < Frontier.size() ? Frontier[T] : kNone;
    if (Old != kNone && Old >= X)
      return;
    if ((T == T1 && X >= E1) || (T == T2 && X >= E2)) {
      Swallowed = true;
      return;
    }
    if (T >= Frontier.size())
      Frontier.resize(T + 1, kNone);
    Frontier[T] = X;
    for (EventIdx C = X; C != Old && C != kNone; C = Nodes[C].Prev)
      Pending.push_back(C);
  };

  auto seed = [&](EventIdx E) {
    if (Nodes[E].Prev != kNone)
      include(Nodes[E].Prev);
    else if (Nodes[E].Fork != kNone)
      include(Nodes[E].Fork); // First event: the thread must be started.
  };
  seed(E1);
  seed(E2);

  while (!Pending.empty() && !Swallowed) {
    const EventIdx X = Pending.back();
    Pending.pop_back();
    Included.push_back(X);
    const Edges &N = Nodes[X];
    if (N.Prev == kNone && N.Fork != kNone)
      include(N.Fork);
    switch (N.Kind) {
    case EventKind::Read:
    case EventKind::Join:
      if (N.Aux != kNone)
        include(N.Aux);
      break;
    case EventKind::Acquire: {
      if (N.Lock >= MaxAcq.size())
        MaxAcq.resize(N.Lock + 1, kNone);
      EventIdx &Max = MaxAcq[N.Lock];
      EventIdx NeedsRelease = kNone;
      if (Max == kNone) {
        Max = X;
      } else if (X > Max) {
        NeedsRelease = Max;
        Max = X;
      } else {
        NeedsRelease = X;
      }
      // A non-maximal acquire sits trace-before another included acquire
      // on the same lock, so its section closed before that acquire.
      if (NeedsRelease != kNone) {
        const EventIdx Rel = Nodes[NeedsRelease].Aux;
        assert(Rel != kNone && "non-maximal section must be closed");
        if (Rel != kNone)
          include(Rel);
      }
      break;
    }
    default:
      break;
    }
  }

  if (Swallowed)
    return false;
  if (WitnessOut) {
    std::sort(Included.begin(), Included.end());
    Included.push_back(E1);
    Included.push_back(E2);
    *WitnessOut = std::move(Included);
  }
  return true;
}
