//===- mcm/McmSearch.cpp ------------------------------------------------------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//

#include "mcm/McmSearch.h"

#include <algorithm>
#include <unordered_map>

using namespace rapid;

namespace {

constexpr uint32_t NoWriter = UINT32_MAX;
constexpr uint32_t NoThread = UINT32_MAX;
constexpr uint32_t NoParent = UINT32_MAX;

/// Search state: per-thread prefix lengths plus the last scheduled writer
/// per variable. Lock ownership is a function of the prefixes but is kept
/// denormalized for speed; it is *not* part of the memo key.
struct State {
  std::vector<uint32_t> Next;
  std::vector<uint32_t> LastWriter;
  std::vector<uint32_t> HeldBy;
  uint32_t Id = NoParent;

  std::vector<uint32_t> key() const {
    std::vector<uint32_t> K = Next;
    K.insert(K.end(), LastWriter.begin(), LastWriter.end());
    return K;
  }
};

struct KeyHash {
  size_t operator()(const std::vector<uint32_t> &K) const {
    uint64_t H = 0x9e3779b97f4a7c15ULL;
    for (uint32_t W : K) {
      H ^= W + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
      H *= 0xff51afd7ed558ccdULL;
    }
    return static_cast<size_t>(H);
  }
};

/// Immutable per-trace structure shared by all states.
struct Structure {
  const Trace &T;
  std::vector<std::vector<EventIdx>> Proj; ///< σ|t as event indices.
  std::vector<uint32_t> OrigWriter; ///< Per event: last writer in σ (reads).
  /// Fork gate: child thread -> (parent thread, #parent events that must
  /// be scheduled before the child may start). NoThread if ungated.
  std::vector<std::pair<uint32_t, uint32_t>> ForkGate;

  explicit Structure(const Trace &Tr) : T(Tr) {
    uint32_t NumThreads = T.numThreads();
    Proj.resize(NumThreads);
    ForkGate.assign(NumThreads, {NoThread, 0});
    OrigWriter.assign(T.size(), NoWriter);
    std::vector<uint32_t> LastWrite(T.numVars(), NoWriter);
    const std::vector<Event> &Events = T.events();
    for (EventIdx I = 0; I != T.size(); ++I) {
      const Event &E = Events[I];
      uint32_t Tid = E.Thread.value();
      if (E.Kind == EventKind::Fork)
        ForkGate[E.targetThread().value()] = {
            Tid, static_cast<uint32_t>(Proj[Tid].size() + 1)};
      if (E.Kind == EventKind::Read)
        OrigWriter[I] = LastWrite[E.var().value()];
      Proj[Tid].push_back(I);
      if (E.Kind == EventKind::Write)
        LastWrite[E.var().value()] = static_cast<uint32_t>(I);
    }
  }
};

class Explorer {
public:
  Explorer(const Trace &T, const McmOptions &Opts)
      : T(T), Opts(Opts), S(T) {}

  McmResult run();

private:
  bool isEnabled(const State &St, uint32_t Tid, EventIdx &OutEvent) const;
  void checkRaces(const State &St, McmResult &Result, bool &Stop);
  void checkDeadlock(const State &St, McmResult &Result, bool &Stop);
  std::vector<EventIdx> reconstructPath(uint32_t StateId) const;
  void recordRace(EventIdx A, EventIdx B, const State &St, McmResult &Result,
                  bool &Stop);

  const Trace &T;
  const McmOptions &Opts;
  Structure S;

  // Witness bookkeeping (only used with TrackWitnesses).
  std::vector<std::pair<uint32_t, EventIdx>> Parents; ///< Id -> (parent, ev).
};

bool Explorer::isEnabled(const State &St, uint32_t Tid,
                         EventIdx &OutEvent) const {
  const std::vector<EventIdx> &P = S.Proj[Tid];
  uint32_t Pos = St.Next[Tid];
  if (Pos >= P.size())
    return false;
  // Fork gating: the child's events wait for the parent's fork.
  if (Pos == 0) {
    auto [Parent, Needed] = S.ForkGate[Tid];
    if (Parent != NoThread && St.Next[Parent] < Needed)
      return false;
  }
  EventIdx I = P[Pos];
  const Event &E = T.event(I);
  OutEvent = I;
  switch (E.Kind) {
  case EventKind::Acquire:
    return St.HeldBy[E.lock().value()] == NoThread;
  case EventKind::Read:
    // Correct-reordering constraint: the read must see the same last
    // writer as in σ.
    return St.LastWriter[E.var().value()] == S.OrigWriter[I];
  case EventKind::Join:
    return St.Next[E.targetThread().value()] ==
           S.Proj[E.targetThread().value()].size();
  case EventKind::Release:
  case EventKind::Write:
  case EventKind::Fork:
    return true;
  }
  return false;
}

void Explorer::recordRace(EventIdx A, EventIdx B, const State &St,
                          McmResult &Result, bool &Stop) {
  if (A > B)
    std::swap(A, B);
  RaceInstance Inst;
  Inst.EarlierIdx = A;
  Inst.LaterIdx = B;
  Inst.EarlierLoc = T.event(A).Loc;
  Inst.LaterLoc = T.event(B).Loc;
  Inst.Var = T.event(B).var();
  bool NewPair = Result.Report.addRace(Inst);
  bool IsTarget = Opts.TargetPair && Inst.pair() == *Opts.TargetPair;
  // With a target pair, only its witness matters; otherwise keep the first.
  bool WantWitness =
      Opts.TrackWitnesses &&
      (Opts.TargetPair ? IsTarget && Result.RaceWitness.empty()
                       : NewPair && Result.RaceWitness.empty());
  if (WantWitness) {
    Result.RaceWitness = reconstructPath(St.Id);
    // Order the adjacent pair so any read still sees its original writer:
    // a read goes first unless its original writer is the other event.
    EventIdx First = A, Second = B;
    const Event &EA = T.event(A);
    const Event &EB = T.event(B);
    if (EA.Kind == EventKind::Read) {
      if (S.OrigWriter[A] == B)
        std::swap(First, Second); // Write must precede its reader.
    } else if (EB.Kind == EventKind::Read) {
      if (S.OrigWriter[B] != A)
        std::swap(First, Second); // Read first, keeping its old writer.
    }
    Result.RaceWitness.push_back(First);
    Result.RaceWitness.push_back(Second);
  }
  if (IsTarget)
    Stop = true;
}

void Explorer::checkRaces(const State &St, McmResult &Result, bool &Stop) {
  // A race is two threads whose *next* events are conflicting accesses:
  // the current prefix followed by the two accesses back-to-back is the
  // paper's race-revealing reordering. The racing accesses themselves are
  // exempt from the read-sees-same-writer rule — the paper's own witness
  // for Figure 2b (e5, e6, e1) schedules the racy read before its
  // original writer. Memory accesses never block, so only the fork gate
  // can make a next access unavailable.
  std::vector<EventIdx> NextAccesses;
  for (uint32_t Tid = 0; Tid < T.numThreads(); ++Tid) {
    if (St.Next[Tid] >= S.Proj[Tid].size())
      continue;
    if (St.Next[Tid] == 0) {
      auto [Parent, Needed] = S.ForkGate[Tid];
      if (Parent != NoThread && St.Next[Parent] < Needed)
        continue;
    }
    EventIdx I = S.Proj[Tid][St.Next[Tid]];
    if (isAccess(T.event(I).Kind))
      NextAccesses.push_back(I);
  }
  for (size_t I = 0; I < NextAccesses.size() && !Stop; ++I)
    for (size_t J = I + 1; J < NextAccesses.size() && !Stop; ++J)
      if (Event::conflicting(T.event(NextAccesses[I]),
                             T.event(NextAccesses[J])))
        recordRace(NextAccesses[I], NextAccesses[J], St, Result, Stop);
}

void Explorer::checkDeadlock(const State &St, McmResult &Result, bool &Stop) {
  // Wait-for edges: thread blocked on acq(ℓ) -> current holder of ℓ. Each
  // blocked thread has exactly one outgoing edge, so cycles are found by
  // pointer chasing.
  uint32_t NumThreads = T.numThreads();
  std::vector<uint32_t> WaitsFor(NumThreads, NoThread);
  for (uint32_t Tid = 0; Tid < NumThreads; ++Tid) {
    if (St.Next[Tid] >= S.Proj[Tid].size())
      continue;
    EventIdx I = S.Proj[Tid][St.Next[Tid]];
    const Event &E = T.event(I);
    if (E.Kind != EventKind::Acquire)
      continue;
    uint32_t Holder = St.HeldBy[E.lock().value()];
    if (Holder != NoThread && Holder != Tid)
      WaitsFor[Tid] = Holder;
  }
  std::vector<uint8_t> Color(NumThreads, 0);
  for (uint32_t Start = 0; Start < NumThreads; ++Start) {
    if (Color[Start] != 0)
      continue;
    uint32_t Cur = Start;
    std::vector<uint32_t> Path;
    while (Cur != NoThread && Color[Cur] == 0) {
      Color[Cur] = 1;
      Path.push_back(Cur);
      Cur = WaitsFor[Cur];
    }
    if (Cur != NoThread && Color[Cur] == 1) {
      // Found a cycle; extract it.
      Result.DeadlockFound = true;
      auto It = std::find(Path.begin(), Path.end(), Cur);
      if (Opts.TrackWitnesses && Result.DeadlockWitness.empty()) {
        Result.DeadlockWitness = reconstructPath(St.Id);
        for (; It != Path.end(); ++It)
          Result.DeadlockedThreads.push_back(ThreadId(*It));
      }
      if (!Opts.TargetPair)
        Stop = Stop || false; // Keep exploring for races unless targeted.
    }
    for (uint32_t P : Path)
      Color[P] = 2;
  }
}

std::vector<EventIdx> Explorer::reconstructPath(uint32_t StateId) const {
  std::vector<EventIdx> Path;
  uint32_t Cur = StateId;
  while (Cur != NoParent) {
    auto [Parent, Via] = Parents[Cur];
    if (Parent == NoParent)
      break;
    Path.push_back(Via);
    Cur = Parent;
  }
  std::reverse(Path.begin(), Path.end());
  return Path;
}

McmResult Explorer::run() {
  McmResult Result;
  uint32_t NumThreads = T.numThreads();

  State Initial;
  Initial.Next.assign(NumThreads, 0);
  Initial.LastWriter.assign(T.numVars(), NoWriter);
  Initial.HeldBy.assign(T.numLocks(), NoThread);
  Initial.Id = 0;
  if (Opts.TrackWitnesses)
    Parents.emplace_back(NoParent, 0);

  std::unordered_map<std::vector<uint32_t>, uint32_t, KeyHash> Visited;
  Visited.emplace(Initial.key(), 0u);

  std::vector<State> Stack;
  Stack.push_back(std::move(Initial));

  bool Stop = false;
  while (!Stack.empty() && !Stop) {
    State St = std::move(Stack.back());
    Stack.pop_back();

    if (Result.StatesExpanded >= Opts.MaxStates) {
      Result.BudgetExhausted = true;
      break;
    }
    ++Result.StatesExpanded;

    std::vector<std::pair<uint32_t, EventIdx>> Enabled;
    for (uint32_t Tid = 0; Tid < NumThreads; ++Tid) {
      EventIdx I;
      if (isEnabled(St, Tid, I))
        Enabled.emplace_back(Tid, I);
    }

    checkRaces(St, Result, Stop);
    if (Opts.DetectDeadlocks)
      checkDeadlock(St, Result, Stop);
    if (Stop)
      break;

    for (const auto &[Tid, I] : Enabled) {
      State Succ = St;
      Succ.Next[Tid] += 1;
      const Event &E = T.event(I);
      switch (E.Kind) {
      case EventKind::Acquire:
        Succ.HeldBy[E.lock().value()] = Tid;
        break;
      case EventKind::Release:
        Succ.HeldBy[E.lock().value()] = NoThread;
        break;
      case EventKind::Write:
        Succ.LastWriter[E.var().value()] = static_cast<uint32_t>(I);
        break;
      default:
        break;
      }
      uint32_t NextId =
          Opts.TrackWitnesses ? static_cast<uint32_t>(Parents.size()) : 0;
      auto [It, New] = Visited.emplace(Succ.key(), NextId);
      if (!New)
        continue;
      Succ.Id = It->second;
      if (Opts.TrackWitnesses)
        Parents.emplace_back(St.Id, I);
      Stack.push_back(std::move(Succ));
    }
  }
  return Result;
}

} // namespace

McmResult rapid::exploreMcm(const Trace &T, const McmOptions &Opts) {
  Explorer E(T, Opts);
  return E.run();
}
