//===- wcp/WcpState.h - State of Algorithm 1 --------------------*- C++ -*-===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The state components of the paper's Algorithm 1 (§3.2):
///
///   * per thread t:  local clock N_t, WCP-predecessor clock P_t, HB clock
///     H_t (with the invariants C_t = P_t[t := N_t] and H_t(t) = N_t);
///   * per lock ℓ:    P_ℓ and H_ℓ, the P/H times of the last rel(ℓ);
///   * per (ℓ, x):    L^r_{ℓ,x} and L^w_{ℓ,x}, joins of the HB times of
///     releases whose critical sections read/wrote x (lazily allocated);
///   * per (ℓ, t):    FIFO queues Acq_ℓ(t) and Rel_ℓ(t) of the C-times of
///     acquires / H-times of releases performed by *other* threads.
///
/// The layout keeps the per-event path free of heap allocation:
///
///   * The queues are one shared per-lock record buffer with per-thread
///     cursors: the value enqueued for every t' ≠ t is identical, so storing
///     it once per critical section implements the same abstract queues with
///     a factor-T less memory. A record holds both times inline, and P_ℓ /
///     H_ℓ head the same buffer, so a lock costs one buffer plus one
///     per-thread cursor array, both sized on first use. Queue-length
///     telemetry (Table 1 column 11) is reported in terms of the *abstract*
///     per-(ℓ,t) queues so the numbers are comparable with the paper.
///   * L^r/L^w live in one open-addressing table whose per-thread cells are
///     overwritten, not joined: H_t only grows, so the join of thread t's
///     contributions is its latest one.
///   * A thread's open critical sections share one access log; a section's
///     R/W sets are the log suffix since its acquire, because an access
///     belongs to every section open at the time.
///
//===----------------------------------------------------------------------===//

#ifndef RAPID_WCP_WCPSTATE_H
#define RAPID_WCP_WCPSTATE_H

#include "support/Ids.h"
#include "vc/VectorClock.h"

#include <algorithm>
#include <memory>
#include <vector>

namespace rapid {

/// One thread's view of a lock's abstract queues.
struct WcpLockThread {
  /// Logical index of the first entry the thread has not yet consumed.
  /// Entries by the thread itself are skipped (they are not in its
  /// abstract queue).
  uint64_t Cursor = 0;
  /// Acq+Rel entries pending in the thread's abstract queues, counted once
  /// it has touched the lock — the "live" portion of the paper's column 11
  /// metric (queues of threads that never use the lock are dead weight a
  /// real deployment elides).
  uint64_t Live = 0;
  /// The thread has acquired this lock at least once. Only queues of
  /// touchers can ever pop.
  bool Touched = false;
};

/// One critical section's times in a lock's queue buffer, shared across the
/// abstract per-thread queues of its lock. A view: valid until the buffer
/// next grows.
struct WcpQueueEntry {
  const ClockValue *Rec;
  uint32_t Width;

  ThreadId thread() const { return ThreadId(Rec[0]); } ///< Section owner.
  bool hasRelease() const { return Rec[1] != 0; }
  /// C_a of the acquire (enqueued at acquire).
  ClockSpan acquireTime() const { return {Rec + 2, Width}; }
  /// H_r of the release (set at release).
  ClockSpan releaseTime() const { return {Rec + 2 + Width, Width}; }
};

/// Per-lock state, sized on first use: a lock that is never acquired costs
/// nothing beyond this struct. Every clock it stores is zero-padded to a
/// common width, which widens (re-laying the buffer out) only when a wider
/// clock arrives, i.e. when threads are admitted mid-stream.
struct WcpLockState {
  /// Flat storage, Width components per clock: [P_ℓ | H_ℓ | records...],
  /// each record [thread, has-release, C_acq, H_rel]. Records before Head
  /// are collected and wait for compaction.
  std::vector<ClockValue> Buf;
  uint32_t Width = 0;
  uint32_t Head = 0;
  /// Logical index of the record at Head.
  uint64_t Base = 0;

  /// Thread-set summaries: NoThread, the one thread id, or ManyThreads.
  static constexpr uint32_t NoThread = UINT32_MAX;
  static constexpr uint32_t ManyThreads = UINT32_MAX - 1;
  /// Who has released ℓ. L^r/L^w cells of ℓ exist only for releasers, and
  /// rule (a) never joins the accessing thread's own cells, so a thread
  /// that is ℓ's only releaser skips the rule (a) lookups for ℓ.
  uint32_t Releasers = NoThread;
  /// Who has acquired ℓ (see WcpLockThread::Touched). While one thread is
  /// the only toucher, no other queue is live and the live accounting
  /// skips the per-thread array.
  uint32_t Touchers = NoThread;
  /// Thread of the last release (NoThread before the first). Its P_t and
  /// H_t have only grown since they were copied into P_ℓ and H_ℓ, so its
  /// next acquire skips the Lines 1-2 joins.
  uint32_t LastReleaser = NoThread;

  /// True iff a thread other than \p T has released ℓ.
  bool releasedByOtherThan(ThreadId T) const {
    return Releasers != NoThread && Releasers != T.value();
  }

  /// Per-thread cursors and live counts, grown to cover each toucher. A
  /// thread beyond the physical size has not touched the lock; see
  /// collectibleEnd for how it counts.
  std::vector<WcpLockThread> Threads;

  /// Records the first allocation has room for.
  static constexpr uint32_t InitialRecords = 4;

  uint32_t recordWords() const { return 2 + 2 * Width; }
  uint64_t numRecords() const {
    return Buf.empty() ? 0 : (Buf.size() - 2 * Width) / recordWords() - Head;
  }
  uint64_t logicalEnd() const { return Base + numRecords(); }

  /// P_ℓ and H_ℓ (⊥ before the lock's first acquire).
  ClockSpan P() const {
    return Buf.empty() ? ClockSpan() : ClockSpan{Buf.data(), Width};
  }
  ClockSpan H() const {
    return Buf.empty() ? ClockSpan() : ClockSpan{Buf.data() + Width, Width};
  }

  WcpQueueEntry entry(uint64_t LogicalIdx) const {
    assert(LogicalIdx >= Base && LogicalIdx < logicalEnd() &&
           "queue entry out of range");
    return {record(LogicalIdx), Width};
  }

  /// Thread \p T's queue view. The first touch grows the array; new slots
  /// start at Base: entries below it were collected under the invariant
  /// that their release times already flow to every possible future thread
  /// through P_ℓ, so skipping them is a semantic no-op; see
  /// WcpDetector::collectLockGarbage.
  WcpLockThread &thread(uint32_t T) {
    if (T >= Threads.size())
      Threads.resize(T + 1, WcpLockThread{Base, 0, false});
    return Threads[T];
  }
  bool touched(uint32_t T) const {
    if (Touchers != ManyThreads)
      return Touchers == T;
    return T < Threads.size() && Threads[T].Touched;
  }
  /// Marks \p T as a toucher.
  void touch(uint32_t T) {
    thread(T).Touched = true;
    Touchers = addToSet(Touchers, T);
  }

  /// Line 3: appends a record for an acquire by \p T at C_t = \p P[t := N].
  /// Returns its logical index. \p MinWidth is a sizing hint (the
  /// detector's thread count) so batch runs never re-lay the buffer out.
  uint64_t pushAcquire(ThreadId T, const VectorClock &P, ClockValue N,
                       uint32_t MinWidth) {
    widen(std::max({MinWidth, P.size(), T.value() + 1}));
    if (Buf.empty()) {
      // One allocation covers the header and the first few sections.
      Buf.reserve(2 * Width + InitialRecords * recordWords());
      Buf.assign(2 * Width, 0); // P_ℓ = H_ℓ = ⊥.
    }
    size_t At = Buf.size();
    Buf.resize(At + recordWords(), 0);
    ClockValue *Rec = Buf.data() + At;
    Rec[0] = T.value();
    P.copyTo(Rec + 2, Width);
    Rec[2 + T.value()] = N;
    return logicalEnd() - 1;
  }

  /// Line 10: completes the record of the last acquire with H_r = \p H.
  /// Lock semantics make that record the newest one.
  void completeRelease(uint64_t LogicalIdx, ThreadId T, const VectorClock &H) {
    widen(H.size());
    ClockValue *Rec = record(LogicalIdx);
    assert(LogicalIdx + 1 == logicalEnd() && Rec[0] == T.value() &&
           Rec[1] == 0 && "queue entry mismatch");
    (void)T;
    Rec[1] = 1;
    H.copyTo(Rec + 2 + Width, Width);
  }

  /// Line 9: \p T's release becomes the last release of ℓ.
  void setLastRelease(ThreadId T, const VectorClock &PT,
                      const VectorClock &HT) {
    Releasers = addToSet(Releasers, T.value());
    LastReleaser = T.value();
    widen(std::max(PT.size(), HT.size()));
    PT.copyTo(Buf.data(), Width);
    HT.copyTo(Buf.data() + Width, Width);
  }

  /// Drops the front record (logical index Base).
  void popFront() {
    assert(numRecords() != 0 && "pop from an empty queue");
    ++Base;
    ++Head;
    uint64_t Left = numRecords();
    if (Left == 0) {
      Buf.resize(2 * Width);
      Head = 0;
    } else if (Head >= Left) {
      // Amortized compaction: at least as many dead records as live ones.
      auto From = Buf.begin() + 2 * Width + size_t(Head) * recordWords();
      Buf.erase(Buf.begin() + 2 * Width, From);
      Head = 0;
    }
  }

  /// The largest logical index every thread's cursor has passed (the
  /// collection candidates are [Base, this)). \p NumThreads is the
  /// detector's thread count: threads without a physical cursor sit
  /// implicitly at 0, so nothing is collectible until every one of them
  /// has a cursor past Base (matching the fixed-size behavior exactly).
  /// The actual collection lives in WcpDetector::collectLockGarbage —
  /// it additionally requires each entry's release time to be covered by
  /// its own thread's P, which makes collection safe even for threads
  /// declared in the future (growable mode).
  uint64_t collectibleEnd(uint32_t NumThreads) const {
    uint64_t Min = Threads.size() < NumThreads ? 0 : UINT64_MAX;
    for (const WcpLockThread &S : Threads)
      Min = std::min(Min, S.Cursor);
    return Min;
  }

private:
  static uint32_t addToSet(uint32_t Set, uint32_t T) {
    return Set == NoThread || Set == T ? T : ManyThreads;
  }

  ClockValue *record(uint64_t LogicalIdx) {
    return Buf.data() + 2 * Width +
           size_t(Head + (LogicalIdx - Base)) * recordWords();
  }
  const ClockValue *record(uint64_t LogicalIdx) const {
    return const_cast<WcpLockState *>(this)->record(LogicalIdx);
  }

  /// Re-lays the buffer out at \p NewWidth components per clock (zero
  /// extension keeps every stored time semantically unchanged).
  void widen(uint32_t NewWidth) {
    if (NewWidth <= Width)
      return;
    if (Buf.empty()) {
      Width = NewWidth;
      return;
    }
    std::vector<ClockValue> Out;
    Out.reserve(2 * NewWidth + numRecords() * (2 + 2 * NewWidth));
    auto copyClock = [&](const ClockValue *Src) {
      Out.insert(Out.end(), Src, Src + Width);
      Out.insert(Out.end(), NewWidth - Width, 0);
    };
    copyClock(Buf.data());
    copyClock(Buf.data() + Width);
    for (uint64_t I = Base, E = logicalEnd(); I != E; ++I) {
      const ClockValue *Rec = record(I);
      Out.push_back(Rec[0]);
      Out.push_back(Rec[1]);
      copyClock(Rec + 2);
      copyClock(Rec + 2 + Width);
    }
    Buf.swap(Out);
    Width = NewWidth;
    Head = 0;
  }
};

/// One open critical section of a thread: the lock, the queue record its
/// acquire created, where its accesses start in the thread's access log,
/// and whether rule (a) lookups on its lock can find anything.
struct WcpCsFrame {
  LockId Lock;
  uint64_t EntryLogicalIdx;
  /// The section's R/W sets are WcpThreadState::CsLog[LogStart, end).
  size_t LogStart;
  /// Another thread had released Lock when this section acquired it. Fixed
  /// for the section's lifetime: nobody else releases a lock we hold.
  bool ForeignReleases;
};

/// Per-thread state.
struct WcpThreadState {
  ClockValue N = 1;   ///< Local clock N_t.
  VectorClock P;      ///< P_t (⊥ initially).
  VectorClock H;      ///< H_t (⊥[t := N_t] initially).
  /// K_t: the *hard* clock — thread order plus fork/join edges only.
  /// Fork/join order events (no correct reordering can flip them) but are
  /// not WCP edges, so this knowledge must not flow into P_ℓ or the
  /// queues; it is consulted directly by the race check and the queue
  /// guard. (Folding it into P_t would leak through rule (c)'s
  /// HB-composition channels and over-order independent threads.)
  VectorClock K;
  /// Capture-mode change epochs of P / K: bumped on every mutation of the
  /// respective clock that a race check can observe (spurious bumps are
  /// only a missed dedup; a missed bump would be unsound). Race checks
  /// never read the accessing thread's own component, so the local
  /// increment of K_t(t) does not bump KEpoch. An access whose epoch
  /// matches the thread's last broadcast snapshot reuses it without the
  /// O(threads) content compare — the common case, since P/K mutate only
  /// at sync events and (for P) rule-(a) joins that actually add
  /// something.
  uint64_t PEpoch = 1;
  uint64_t KEpoch = 1;
  bool IncrementNext = false; ///< Previous event was a release/fork.
  std::vector<WcpCsFrame> CsStack; ///< Open critical sections, innermost last.
  /// Accesses inside open sections, oldest first, as (x << 1 | is-write).
  /// Cleared when the last section closes; a prefix no open section
  /// covers is compacted away (hand-over-hand chains never close all).
  std::vector<uint64_t> CsLog;

  explicit WcpThreadState(uint32_t NumThreads = 0)
      : P(NumThreads), H(NumThreads), K(NumThreads) {}
};

/// Telemetry the Table 1 harness reads off the detector.
struct WcpStats {
  /// Peak of Σ_{ℓ,t} |Acq_ℓ(t)| + |Rel_ℓ(t)| over the run, counting the
  /// abstract queues of *every* thread, as the pseudocode literally
  /// maintains them. A thread admitted mid-stream starts with the entries
  /// still buffered (collected ones are no-ops it never pops).
  uint64_t MaxAbstractQueueEntries = 0;
  /// Peak counting only queues of threads that have acquired the lock —
  /// the entries a deployment actually has to retain, and the number
  /// comparable to the paper's column 11 (their thread-confined locks
  /// would otherwise dominate the metric the same way ours do).
  uint64_t MaxLiveQueueEntries = 0;
  /// Live peak as a percentage of events (the paper's "RV Queue Length
  /// (%)" metric).
  double maxQueuePercent(uint64_t NumEvents) const {
    if (NumEvents == 0)
      return 0.0;
    return 100.0 * static_cast<double>(MaxLiveQueueEntries) /
           static_cast<double>(NumEvents);
  }
  /// Peak of the shared (deduplicated) buffer — what this implementation
  /// actually stores.
  uint64_t MaxSharedQueueEntries = 0;
};

/// L^r_{ℓ,x} / L^w_{ℓ,x}, split per releasing thread.
///
/// Rule (a) of WCP fires only when the release's critical section contains
/// an event *conflicting* with the current access, and conflicting events
/// are by definition cross-thread (§2.1). Since every event in CS(r) is by
/// t(r), contributions from the reader/writer's own thread must not be
/// joined (they would claim HB-only predecessors as WCP predecessors and
/// mask genuine races). The paper's pseudocode leaves this implicit in the
/// conflict premise; we keep one cell per releasing thread — in practice
/// only one or two threads release a given lock around a given variable.
///
/// A cell holds its thread's latest contribution: H_t is monotone, so
/// overwriting equals the join. Keys live in a linear-probing table; each
/// slot heads two singly linked cell lists (read set, write set). Cells and
/// their clocks live in fixed-size blocks: a store allocates only when a
/// block fills or the key table grows, and no buffer is ever copied into a
/// bigger one (a large freed buffer raises glibc's dynamic mmap threshold,
/// and with it the freed memory every malloc arena keeps resident).
class WcpReleaseTable {
public:
  /// Sets thread \p T's cell of L^w_{ℓ,x} (\p IsWrite) or L^r_{ℓ,x} to
  /// \p H.
  void store(LockId L, VarId X, bool IsWrite, ThreadId T,
             const VectorClock &H) {
    Slot &S = findOrInsert(key(L, X));
    uint32_t &Head = S.Head[IsWrite];
    uint32_t C = Head;
    while (C != None && cell(C).Thread != T.value())
      C = cell(C).Next;
    if (C == None) {
      C = NumCells++;
      if (C % CellsPerBlock == 0)
        CellBlocks.emplace_back(new Cell[CellsPerBlock]);
      cell(C) = Cell{T.value(), Head, 0, false, nullptr};
      Head = C;
    }
    Cell &Dst = cell(C);
    Dst.Absorbed = false;
    if (H.size() > Dst.Width) { // First store, or the thread count grew.
      Dst.Clock = allocClock(H.size());
      Dst.Width = H.size();
    }
    H.copyTo(Dst.Clock, Dst.Width);
  }

  /// Joins into P_t (\p Out) of thread \p T, which holds ℓ, every cell
  /// of (ℓ, x) except T's own: those of L^w_{ℓ,x}, and of L^r_{ℓ,x} too if
  /// \p WithReads. Returns true iff \p Out changed (feeds the P-epoch; see
  /// ClockBroadcast).
  ///
  /// Once a thread has joined a cell, the join is a no-op for every later
  /// holder of ℓ until the cell is overwritten: the joiner releases ℓ with
  /// P ⊒ cell, every later acquirer joins that P_ℓ (or made the release
  /// itself), and only the cell's owner, who never joins it, can
  /// overwrite it. So each cell version is joined at most once.
  bool joinInto(LockId L, VarId X, bool WithReads, ThreadId T,
                VectorClock &Out) {
    const Slot *S = find(key(L, X));
    if (!S)
      return false;
    bool Changed = false;
    for (int IsWrite = WithReads ? 0 : 1; IsWrite != 2; ++IsWrite) {
      for (uint32_t C = S->Head[IsWrite]; C != None; C = cell(C).Next) {
        Cell &Src = cell(C);
        if (Src.Thread == T.value() || Src.Absorbed)
          continue;
        Changed |= Out.joinWith(ClockSpan{Src.Clock, Src.Width});
        Src.Absorbed = true;
      }
    }
    return Changed;
  }

private:
  static constexpr uint32_t None = UINT32_MAX;
  /// (invalid, invalid): no real (ℓ, x) key.
  static constexpr uint64_t EmptyKey = UINT64_MAX;
  static constexpr uint32_t CellsPerBlock = 1024;
  static constexpr size_t ClockBlockWords = 8192;

  struct Slot {
    uint64_t Key = EmptyKey;
    uint32_t Head[2] = {None, None}; ///< Read list, write list.
  };
  struct Cell {
    uint32_t Thread;
    uint32_t Next;
    uint32_t Width;
    /// Some thread has joined the current clock (see joinInto).
    bool Absorbed;
    ClockValue *Clock;
  };

  static uint64_t key(LockId L, VarId X) {
    return (static_cast<uint64_t>(L.value()) << 32) | X.value();
  }
  size_t home(uint64_t Key) const {
    // Fibonacci hashing: the top bits of the product mix both halves.
    return static_cast<size_t>((Key * 0x9E3779B97F4A7C15ull) >> Shift);
  }
  Cell &cell(uint32_t C) {
    return CellBlocks[C / CellsPerBlock][C % CellsPerBlock];
  }

  ClockValue *allocClock(uint32_t Width) {
    if (Width > ClockRoom) {
      ClockRoom = std::max<size_t>(ClockBlockWords, Width);
      ClockBlocks.emplace_back(new ClockValue[ClockRoom]);
      ClockNext = ClockBlocks.back().get();
    }
    ClockValue *Out = ClockNext;
    ClockNext += Width;
    ClockRoom -= Width;
    return Out;
  }

  const Slot *find(uint64_t Key) const {
    if (Slots.empty())
      return nullptr;
    for (size_t I = home(Key), Mask = Slots.size() - 1;; I = (I + 1) & Mask) {
      if (Slots[I].Key == Key)
        return &Slots[I];
      if (Slots[I].Key == EmptyKey)
        return nullptr;
    }
  }

  Slot &findOrInsert(uint64_t Key) {
    if (4 * (NumKeys + 1) > 3 * Slots.size())
      rehash(Slots.empty() ? 64 : 2 * Slots.size());
    size_t I = home(Key), Mask = Slots.size() - 1;
    while (Slots[I].Key != Key && Slots[I].Key != EmptyKey)
      I = (I + 1) & Mask;
    if (Slots[I].Key == EmptyKey) {
      Slots[I].Key = Key;
      ++NumKeys;
    }
    return Slots[I];
  }

  void rehash(size_t NewSize) {
    std::vector<Slot> Old(NewSize);
    Old.swap(Slots);
    Shift = 64;
    for (size_t N = NewSize; N > 1; N >>= 1)
      --Shift;
    for (const Slot &S : Old) {
      if (S.Key == EmptyKey)
        continue;
      size_t I = home(S.Key);
      while (Slots[I].Key != EmptyKey)
        I = (I + 1) & (Slots.size() - 1);
      Slots[I] = S;
    }
  }

  std::vector<Slot> Slots; ///< Power-of-two size, at most 3/4 full.
  unsigned Shift = 64;     ///< 64 - log2(Slots.size()).
  size_t NumKeys = 0;
  std::vector<std::unique_ptr<Cell[]>> CellBlocks;
  uint32_t NumCells = 0;
  std::vector<std::unique_ptr<ClockValue[]>> ClockBlocks;
  ClockValue *ClockNext = nullptr; ///< Free space in the last clock block.
  size_t ClockRoom = 0;
};

} // namespace rapid

#endif // RAPID_WCP_WCPSTATE_H
