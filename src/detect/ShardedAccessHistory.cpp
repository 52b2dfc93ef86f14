//===- detect/ShardedAccessHistory.cpp ----------------------------------------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//

#include "detect/ShardedAccessHistory.h"

#include "vc/Epoch.h"

using namespace rapid;

// ---- ClockBroadcast ---------------------------------------------------------

ClockBroadcast::ClockBroadcast(uint32_t NumThreads)
    : LastClock(NumThreads, PerThread{DeferredAccess::NoClock, 0}),
      LastHard(NumThreads, PerThread{DeferredAccess::NoClock, 0}) {}

uint32_t ClockBroadcast::publishInto(std::vector<PerThread> &Last, ThreadId T,
                                     const VectorClock &C, uint64_t Epoch) {
  if (T.value() >= Last.size())
    Last.resize(T.value() + 1,
                PerThread{DeferredAccess::NoClock, 0}); // Mid-stream thread.
  PerThread &Prev = Last[T.value()];
  if (Prev.Last != DeferredAccess::NoClock) {
    // Epoch fast path: the clock provably did not mutate since the last
    // intern. Fallback: it may have mutated — compare content, which
    // still dedups joins that added nothing.
    if (Epoch != 0 && Prev.Epoch == Epoch)
      return Prev.Last;
    if (Snapshots[Prev.Last] == C) {
      Prev.Epoch = Epoch;
      return Prev.Last;
    }
  }
  Prev.Last = static_cast<uint32_t>(Snapshots.size());
  Prev.Epoch = Epoch;
  Snapshots.append(C);
  return Prev.Last;
}

uint32_t ClockBroadcast::publish(ThreadId T, const VectorClock &C,
                                 uint64_t Epoch) {
  return publishInto(LastClock, T, C, Epoch);
}

uint32_t ClockBroadcast::publishHard(ThreadId T, const VectorClock &K,
                                     uint64_t Epoch) {
  return publishInto(LastHard, T, K, Epoch);
}

// ---- AccessLog --------------------------------------------------------------

void AccessLog::record(EventIdx Idx, VarId V, ThreadId T, LocId Loc,
                       bool IsWrite, ClockValue N, const VectorClock &Ce,
                       uint64_t CeEpoch, const VectorClock *Hard,
                       uint64_t HardEpoch) {
  DeferredAccess A;
  A.Idx = Idx;
  A.Var = V;
  A.Thread = T;
  A.Loc = Loc;
  A.N = N;
  A.IsWrite = IsWrite;
  A.Clock = Clocks.publish(T, Ce, CeEpoch);
  if (Hard)
    A.Hard = Clocks.publishHard(T, *Hard, HardEpoch);
  Accesses.append(A);
}

namespace {

/// FastTrack's per-variable epoch state and checks, replayed inside one
/// shard. A line-for-line mirror of FastTrackDetector::processEvent's
/// Read/Write cases (hb/FastTrackDetector.cpp): same shortcuts, same check
/// order, same promotion rule — so the interleaved merge reproduces the
/// sequential FastTrack report bit for bit. The clock machinery already
/// ran in the capture pass; here C_t arrives as the broadcast snapshot.
class FastTrackShardReplayer {
public:
  FastTrackShardReplayer(uint32_t NumLocalVars, uint32_t NumThreads)
      : NumThreads(NumThreads), Vars(NumLocalVars) {}

  void replay(const DeferredAccess &A, VarId Local, const VectorClock &Ct,
              std::vector<RaceInstance> &Out) {
    // Growable like the live detector: variables/threads admitted
    // mid-stream start in the state up-front construction gives them.
    if (A.Thread.value() >= NumThreads)
      NumThreads = A.Thread.value() + 1;
    if (Local.value() >= Vars.size())
      Vars.resize(Local.value() + 1);
    VarState &S = Vars[Local.value()];
    ThreadId T = A.Thread;
    Epoch Mine(A.N, T);
    if (A.IsWrite) {
      if (S.Write == Mine) {
        // Same-epoch write: keep the freshest representative.
        S.WriteLoc = A.Loc;
        S.WriteIdx = A.Idx;
        return;
      }
      if (!S.Write.lessOrEqual(Ct) && S.Write.Thread != T)
        report(S.WriteIdx, S.WriteLoc, A, Out);
      if (S.ReadShared) {
        for (uint32_t U = 0, E = S.ReadVC.size(); U != E; ++U) {
          if (U == T.value())
            continue;
          ClockValue RU = S.ReadVC.get(ThreadId(U));
          if (RU != 0 && RU > Ct.get(ThreadId(U)))
            report(S.ReadInfo[U].Idx, S.ReadInfo[U].Loc, A, Out);
        }
      } else if (!S.Read.isNone() && !S.Read.lessOrEqual(Ct) &&
                 S.Read.Thread != T) {
        report(S.ReadIdx, S.ReadLoc, A, Out);
      }
      S.Write = Mine;
      S.WriteLoc = A.Loc;
      S.WriteIdx = A.Idx;
      return;
    }
    // Read: same-epoch shortcut, then the write-read check.
    if (!S.ReadShared && S.Read == Mine) {
      S.ReadLoc = A.Loc;
      S.ReadIdx = A.Idx;
      return;
    }
    if (!S.Write.lessOrEqual(Ct) && S.Write.Thread != T)
      report(S.WriteIdx, S.WriteLoc, A, Out);
    if (!S.ReadShared) {
      if (S.Read.isNone() || S.Read.lessOrEqual(Ct) || S.Read.Thread == T) {
        S.Read = Mine;
        S.ReadLoc = A.Loc;
        S.ReadIdx = A.Idx;
        return;
      }
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

private:
  struct ReadLocInfo {
    LocId Loc;
    EventIdx Idx = 0;
  };
  struct VarState {
    Epoch Write;
    LocId WriteLoc;
    EventIdx WriteIdx = 0;
    Epoch Read;
    LocId ReadLoc;
    EventIdx ReadIdx = 0;
    bool ReadShared = false;
    VectorClock ReadVC;
    std::vector<ReadLocInfo> ReadInfo;
  };

  static void report(EventIdx EarlierIdx, LocId EarlierLoc,
                     const DeferredAccess &A, std::vector<RaceInstance> &Out) {
    RaceInstance Inst;
    Inst.EarlierIdx = EarlierIdx;
    Inst.LaterIdx = A.Idx;
    Inst.EarlierLoc = EarlierLoc;
    Inst.LaterLoc = A.Loc;
    Inst.Var = A.Var;
    Out.push_back(Inst);
  }

  uint32_t NumThreads;
  std::vector<VarState> Vars;
};

} // namespace

// ---- ShardChecker -----------------------------------------------------------

/// The selected engine: exactly one of the members is live (selected by
/// Replay at construction).
struct ShardChecker::Impl {
  ShardReplay Replay;
  std::unique_ptr<AccessHistory> History;       ///< FullHistory engine.
  std::unique_ptr<FastTrackShardReplayer> Fast; ///< FastTrackEpoch engine.
  std::unique_ptr<ShardReplayer> Custom;        ///< Context-bearing engine.

  Impl(ShardReplay Replay, uint32_t NumLocalVars, uint32_t NumThreads,
       const ShardContext *Ctx)
      : Replay(Replay) {
    if (Replay == ShardReplay::FastTrackEpoch)
      Fast = std::make_unique<FastTrackShardReplayer>(NumLocalVars,
                                                      NumThreads);
    else if (Ctx && Replay == ShardReplay::SyncPClosure)
      Custom = Ctx->makeReplayer(NumLocalVars, NumThreads);
    else
      History = std::make_unique<AccessHistory>(NumLocalVars, NumThreads);
  }
};

ShardChecker::ShardChecker(ShardReplay Replay, uint32_t NumLocalVars,
                           uint32_t NumThreads, const ShardContext *Ctx)
    : I(std::make_unique<Impl>(Replay, NumLocalVars, NumThreads, Ctx)) {}

ShardChecker::~ShardChecker() = default;

void ShardChecker::replay(const DeferredAccess &A, VarId Local,
                          const VectorClock &Ce, const VectorClock *Hard) {
  if (I->Custom) {
    I->Custom->replay(A, Local, Ce, Hard, Out);
    return;
  }
  if (I->Replay == ShardReplay::FastTrackEpoch) {
    I->Fast->replay(A, Local, Ce, Out);
    return;
  }
  size_t Before = Out.size();
  if (A.IsWrite) {
    I->History->checkWrite(Local, A.Thread, Ce, A.Loc, A.Idx, Out, Hard);
    I->History->recordWrite(Local, A.Thread, A.N, A.Loc, A.Idx);
  } else {
    I->History->checkRead(Local, A.Thread, Ce, A.Loc, A.Idx, Out, Hard);
    I->History->recordRead(Local, A.Thread, A.N, A.Loc, A.Idx);
  }
  // The history only knows local ids; restore the parent variable.
  for (size_t R = Before; R != Out.size(); ++R)
    Out[R].Var = A.Var;
}

RaceReport rapid::mergeInTraceOrder(
    const std::vector<std::vector<RaceInstance>> &PerShard) {
  RaceReport Report;
  std::vector<size_t> Cursor(PerShard.size(), 0);
  for (;;) {
    // Pick the shard whose next finding has the smallest later-event
    // index. Later indices never tie across shards (one event accesses
    // one variable, which lives in one shard), and within a shard the
    // findings of one event stay in their sequential push order — so this
    // interleaving is exactly the sequential discovery order.
    size_t Best = PerShard.size();
    for (size_t S = 0; S != PerShard.size(); ++S) {
      if (Cursor[S] == PerShard[S].size())
        continue;
      if (Best == PerShard.size() ||
          PerShard[S][Cursor[S]].LaterIdx < PerShard[Best][Cursor[Best]].LaterIdx)
        Best = S;
    }
    if (Best == PerShard.size())
      return Report;
    Report.addRace(PerShard[Best][Cursor[Best]++]);
  }
}
