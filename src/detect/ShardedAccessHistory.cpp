//===- detect/ShardedAccessHistory.cpp ----------------------------------------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//

#include "detect/ShardedAccessHistory.h"

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
  DeferredAccess A{Idx, V, T, Loc, N, IsWrite};
  A.Clock = Clocks.publish(T, Ce, CeEpoch);
  if (Hard)
    A.Hard = Clocks.publishHard(T, *Hard, HardEpoch);
  Accesses.append(A);
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
