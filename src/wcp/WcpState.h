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
/// The layout stores each distinct thread clock once and keeps the
/// per-event path free of heap allocation:
///
///   * Clock versions. Queue records and P_ℓ / H_ℓ hold 32-bit handles into
///     one detector-wide slab of immutable, refcounted clock copies
///     (WcpClockVersions) instead of clocks of their own. A thread
///     snapshots P_t only when PEpoch moved since its last snapshot, and H_t
///     only when HEpoch moved. HEpoch counts H joins but not the
///     own-component sets H_t(t) := N_t, so an H version's own component may
///     lag N_t; whoever stores a version also stores the N that completes it.
///   * The queues are one shared per-lock record buffer with per-thread
///     cursors: the value enqueued for every t' ≠ t is identical, so storing
///     it once per critical section implements the same abstract queues with
///     a factor-T less memory. A record is {owner, N_acq, N_rel, P version,
///     H version}, with C_acq = P[owner := N_acq] (exact: P_t(t) ≤ N_t) and
///     H_rel = H[owner := N_rel] (exact: the version's other components are
///     H_t's at the release, and its own one is ≤ N_rel). P_ℓ / H_ℓ are a P
///     version, an H version and the releaser's N. Collected records,
///     overwritten P_ℓ / H_ℓ and a thread's stale snapshots drop their
///     references, so retained memory stays proportional to the live state.
///     While one thread is a lock's only acquirer its cursor lives inline;
///     the per-thread cursor array appears when a second thread acquires.
///     Queue-length telemetry (Table 1 column 11) is reported in terms of
///     the *abstract* per-(ℓ,t) queues so the numbers are comparable with
///     the paper.
///   * L^r/L^w live in one open-addressing table whose per-thread cells are
///     overwritten, not joined: H_t only grows, so the join of thread t's
///     contributions is its latest one. A cell holds the logical index of
///     the queue record of the release it came from, whose H_rel is that
///     H_t.
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

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace rapid {

/// Immutable copies of thread clocks, shared by handle and reference
/// counted. A copy is stored as [width, refs, components...] in a
/// fixed-size block, and its handle is the position of its first component
/// (block index, then offset). A freed copy goes on a free list for its
/// width: nothing is ever re-laid out or copied into a bigger buffer, and a
/// steady state whose versions churn stops allocating. Under
/// AddressSanitizer a freed copy's components are poisoned until reused,
/// so a read through a handle that outlived its last reference fails
/// loudly instead of seeing whatever the slot holds next.
class WcpClockVersions {
public:
  using Handle = uint32_t;
  /// ⊥: stored nowhere, never counted. No copy starts at offset 0.
  static constexpr Handle Bottom = 0;

  /// A new version holding \p C, with one reference.
  Handle snapshot(const VectorClock &C) {
    const uint32_t Width = C.size();
    if (Width == 0)
      return Bottom;
    Handle H;
    if (Width < FreeHead.size() && FreeHead[Width] != Bottom) {
      H = FreeHead[Width];
      FreeHead[Width] = refs(H);
    } else {
      H = allocate(Width);
    }
    ClockValue *Data = data(H);
#if defined(__SANITIZE_ADDRESS__)
    ASAN_UNPOISON_MEMORY_REGION(Data, Width * sizeof(ClockValue));
#endif
    C.copyTo(Data, Width);
    refs(H) = 1;
    return H;
  }

  void retain(Handle H) {
    if (H != Bottom)
      ++refs(H);
  }

  /// Drops one reference; the last one frees the copy for reuse.
  void release(Handle H) {
    if (H == Bottom)
      return;
    assert(refs(H) != 0 && "version released more often than retained");
    if (--refs(H) != 0)
      return;
    const uint32_t Width = data(H)[-2];
#if defined(__SANITIZE_ADDRESS__)
    ASAN_POISON_MEMORY_REGION(data(H), Width * sizeof(ClockValue));
#endif
    if (Width >= FreeHead.size())
      FreeHead.resize(Width + 1, Bottom);
    refs(H) = FreeHead[Width]; // While free, refs links the free list.
    FreeHead[Width] = H;
  }

  ClockSpan span(Handle H) const {
    if (H == Bottom)
      return {};
    const ClockValue *Data = data(H);
    assert(Data[-1] != 0 && "reading a freed version");
    return {Data, Data[-2]};
  }

private:
  static constexpr unsigned OffsetBits = 13;
  /// Words per block; a wider copy gets a block of its own.
  static constexpr uint32_t BlockWords = 1u << OffsetBits;

  const ClockValue *data(Handle H) const {
    return Blocks[H >> OffsetBits].get() + (H & (BlockWords - 1));
  }
  ClockValue *data(Handle H) {
    return Blocks[H >> OffsetBits].get() + (H & (BlockWords - 1));
  }
  ClockValue &refs(Handle H) { return data(H)[-1]; }

  Handle allocate(uint32_t Width) {
    const size_t Words = size_t(Width) + 2;
    if (Words > Room) {
      const size_t Size = std::max<size_t>(BlockWords, Words);
      assert(Blocks.size() < (size_t(1) << (32 - OffsetBits)) &&
             "version handles exhausted");
      Blocks.emplace_back(new ClockValue[Size]);
      Next = 0;
      Room = Size;
    }
    const Handle H =
        Handle(Blocks.size() - 1) << OffsetBits | Handle(Next + 2);
    Blocks.back()[Next] = Width;
    Next += Words;
    Room -= Words;
    return H;
  }

  std::vector<std::unique_ptr<ClockValue[]>> Blocks;
  size_t Next = 0; ///< First free word of the last block.
  size_t Room = 0; ///< Free words in the last block.
  /// Head of the free list per width (Bottom: empty).
  std::vector<Handle> FreeHead;
};

/// A stored thread time: a version with its owner's component replaced,
/// Base[Owner := N]. Exact as long as Base(Owner) ≤ N.
struct WcpTime {
  ClockSpan Base;
  uint32_t Owner;
  ClockValue N;

  /// *this ⊑ \p Other.
  bool lessOrEqual(const VectorClock &Other) const {
    if (N > Other.get(ThreadId(Owner)))
      return false;
    for (uint32_t U = 0; U != Base.Size; ++U)
      if (U != Owner && Base.Data[U] > Other.get(ThreadId(U)))
        return false;
    return true;
  }

  /// \p Out ⊔= *this. Returns true iff \p Out changed.
  bool joinInto(VectorClock &Out) const {
    bool Changed = Out.joinWith(Base);
    if (Out.get(ThreadId(Owner)) < N) {
      Out.set(ThreadId(Owner), N);
      Changed = true;
    }
    return Changed;
  }
};

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

/// One critical section in a lock's queue buffer, shared across the
/// abstract per-thread queues of its lock.
struct WcpRecord {
  uint32_t Owner;  ///< The section's thread.
  ClockValue NAcq; ///< C_acq = PVer[Owner := NAcq] (set at acquire).
  ClockValue NRel; ///< H_rel = HVer[Owner := NRel]; 0 while open.
  WcpClockVersions::Handle PVer;
  WcpClockVersions::Handle HVer;

  bool hasRelease() const { return NRel != 0; } // N_t starts at 1.
  WcpTime acquireTime(const WcpClockVersions &V) const {
    return {V.span(PVer), Owner, NAcq};
  }
  WcpTime releaseTime(const WcpClockVersions &V) const {
    return {V.span(HVer), Owner, NRel};
  }
};

/// Per-lock state, sized on first use: a lock that is never acquired costs
/// nothing beyond this struct.
struct WcpLockState {
  /// Queue records; those before Head are collected and wait for
  /// compaction.
  std::vector<WcpRecord> Records;
  uint32_t Head = 0;
  /// Logical index of the record at Head.
  uint64_t Base = 0;

  /// P_ℓ = PL and H_ℓ = HL[LastReleaser := HLN] (⊥ before the first
  /// release).
  WcpClockVersions::Handle PL = WcpClockVersions::Bottom;
  WcpClockVersions::Handle HL = WcpClockVersions::Bottom;
  ClockValue HLN = 0;

  /// Thread-set summaries: NoThread, the one thread id, or ManyThreads.
  static constexpr uint32_t NoThread = UINT32_MAX;
  static constexpr uint32_t ManyThreads = UINT32_MAX - 1;
  /// Who has released ℓ. L^r/L^w cells of ℓ exist only for releasers, and
  /// rule (a) never joins the accessing thread's own cells, so a thread
  /// that is ℓ's only releaser skips the rule (a) lookups for ℓ.
  uint32_t Releasers = NoThread;
  /// Who has acquired ℓ (see WcpLockThread::Touched). While one thread is
  /// the only toucher, its cursor is Lone, no other queue is live and the
  /// live accounting skips the per-thread array.
  uint32_t Touchers = NoThread;
  /// Thread of the last release (NoThread before the first). Its P_t and
  /// H_t have only grown since they became P_ℓ and H_ℓ, so its next
  /// acquire skips the Lines 1-2 joins.
  uint32_t LastReleaser = NoThread;

  /// True iff a thread other than \p T has released ℓ.
  bool releasedByOtherThan(ThreadId T) const {
    return Releasers != NoThread && Releasers != T.value();
  }

  /// The only toucher's cursor while Touchers is one thread.
  WcpLockThread Lone;
  /// Per-thread cursors and live counts once a second thread has acquired
  /// ℓ, grown to cover each toucher. A thread beyond the physical size has
  /// not touched the lock; see collectibleEnd for how it counts.
  std::vector<WcpLockThread> Threads;

  /// Records the first allocation has room for.
  static constexpr uint32_t InitialRecords = 4;

  uint64_t numRecords() const { return Records.size() - Head; }
  uint64_t logicalEnd() const { return Base + numRecords(); }

  const WcpRecord &record(uint64_t LogicalIdx) const {
    assert(LogicalIdx >= Base && LogicalIdx < logicalEnd() &&
           "queue entry out of range");
    return Records[Head + size_t(LogicalIdx - Base)];
  }

  /// P_ℓ and H_ℓ.
  ClockSpan P(const WcpClockVersions &V) const { return V.span(PL); }
  WcpTime H(const WcpClockVersions &V) const {
    return {V.span(HL), LastReleaser, HLN};
  }

  /// Toucher \p T's queue view.
  WcpLockThread &thread(uint32_t T) {
    assert(touched(T) && "queue view of a thread that never acquired");
    return Touchers == ManyThreads ? Threads[T] : Lone;
  }
  bool touched(uint32_t T) const {
    if (Touchers != ManyThreads)
      return Touchers == T;
    return T < Threads.size() && Threads[T].Touched;
  }
  /// Marks \p T as a toucher and returns its queue view. New cursors start
  /// at Base: entries below it were collected under the invariant that
  /// their release times already flow to every possible future thread
  /// through P_ℓ, so skipping them is a semantic no-op; see
  /// WcpDetector::collectLockGarbage. An untouched thread's cursor never
  /// moves and Base never passes it, so it sits at Base as well: a second
  /// toucher spills the lone cursor into an array whose other slots all
  /// start at Base.
  WcpLockThread &touch(uint32_t T) {
    assert(!touched(T) && "thread touched the lock twice");
    const WcpLockThread Fresh{Base, 0, true};
    if (Touchers == NoThread) {
      Touchers = T;
      Lone = Fresh;
      return Lone;
    }
    if (Touchers != ManyThreads) {
      Threads.assign(std::max(Touchers, T) + 1, WcpLockThread{Base, 0, false});
      Threads[Touchers] = Lone;
      Touchers = ManyThreads;
    } else if (T >= Threads.size()) {
      Threads.resize(T + 1, WcpLockThread{Base, 0, false});
    }
    Threads[T] = Fresh;
    return Threads[T];
  }

  /// Line 3: appends a record for an acquire by \p T at C_t = \p PVer[t :=
  /// \p N]. Returns its logical index.
  uint64_t pushAcquire(ThreadId T, ClockValue N, WcpClockVersions::Handle PVer,
                       WcpClockVersions &V) {
    if (Records.capacity() == 0)
      Records.reserve(InitialRecords);
    V.retain(PVer);
    Records.push_back(
        WcpRecord{T.value(), N, 0, PVer, WcpClockVersions::Bottom});
    return logicalEnd() - 1;
  }

  /// Line 10: completes the record of the last acquire with H_r = \p HVer[t
  /// := \p N]. Lock semantics make that record the newest one.
  void completeRelease(uint64_t LogicalIdx, ThreadId T, ClockValue N,
                       WcpClockVersions::Handle HVer, WcpClockVersions &V) {
    WcpRecord &Rec = Records[Head + size_t(LogicalIdx - Base)];
    assert(LogicalIdx + 1 == logicalEnd() && Rec.Owner == T.value() &&
           !Rec.hasRelease() && "queue entry mismatch");
    (void)T;
    V.retain(HVer);
    Rec.NRel = N;
    Rec.HVer = HVer;
  }

  /// Line 9: \p T's release, at P_t = \p PVer and H_t = \p HVer[t := \p N],
  /// becomes the last release of ℓ.
  void setLastRelease(ThreadId T, ClockValue N, WcpClockVersions::Handle PVer,
                      WcpClockVersions::Handle HVer, WcpClockVersions &V) {
    Releasers = addToSet(Releasers, T.value());
    LastReleaser = T.value();
    V.retain(PVer);
    V.retain(HVer);
    V.release(PL);
    V.release(HL);
    PL = PVer;
    HL = HVer;
    HLN = N;
  }

  /// Drops the front record (logical index Base) and its references.
  void popFront(WcpClockVersions &V) {
    assert(numRecords() != 0 && "pop from an empty queue");
    V.release(Records[Head].PVer);
    V.release(Records[Head].HVer);
    ++Base;
    ++Head;
    uint64_t Left = numRecords();
    if (Left == 0) {
      Records.clear();
      Head = 0;
    } else if (Head >= Left) {
      // Amortized compaction: at least as many dead records as live ones.
      Records.erase(Records.begin(), Records.begin() + Head);
      Head = 0;
    }
  }

  /// The largest logical index every thread's cursor has passed (the
  /// collection candidates are [Base, this)). \p NumThreads is the
  /// detector's thread count: threads without a physical cursor sit at
  /// Base, so nothing is collectible until every one of them has a cursor
  /// past it (matching the fixed-size behavior exactly). With a lone
  /// toucher, that leaves its cursor only when it is thread 0 and the only
  /// thread.
  /// The actual collection lives in WcpDetector::collectLockGarbage —
  /// it additionally requires each entry's release time to be covered by
  /// its own thread's P, which makes collection safe even for threads
  /// declared in the future (growable mode).
  uint64_t collectibleEnd(uint32_t NumThreads) const {
    if (Touchers != ManyThreads)
      return Touchers == 0 && NumThreads == 1 ? Lone.Cursor : Base;
    uint64_t Min = Threads.size() < NumThreads ? Base : UINT64_MAX;
    for (const WcpLockThread &S : Threads)
      Min = std::min(Min, S.Cursor);
    return Min;
  }

private:
  static uint32_t addToSet(uint32_t Set, uint32_t T) {
    return Set == NoThread || Set == T ? T : ManyThreads;
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
  /// Change epochs of P / K: bumped on every mutation of the respective
  /// clock that a race check can observe (spurious bumps are only a missed
  /// dedup; a missed bump would be unsound). Race checks never read the
  /// accessing thread's own component, so the local increment of K_t(t)
  /// does not bump KEpoch. A capture-mode access whose epoch matches the
  /// thread's last broadcast snapshot reuses it without the O(threads)
  /// content compare — the common case, since P/K mutate only at sync
  /// events and (for P) rule-(a) joins that actually add something. PEpoch
  /// also decides when PVer is stale.
  uint64_t PEpoch = 1;
  uint64_t KEpoch = 1;
  /// Bumped on every H join that changed H_t, but not by the own-component
  /// sets H_t(t) := N_t (stored H times carry their own N).
  uint64_t HEpoch = 1;
  /// The thread's latest snapshots of P_t and H_t, and the epochs they
  /// were taken at (0: none yet). The thread holds one reference to each.
  WcpClockVersions::Handle PVer = WcpClockVersions::Bottom;
  WcpClockVersions::Handle HVer = WcpClockVersions::Bottom;
  uint64_t PVerEpoch = 0;
  uint64_t HVerEpoch = 0;
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
/// overwriting equals the join. The contribution is the H_rel of a queue
/// record of ℓ, so the cell stores that record's logical index. Keys live
/// in a linear-probing table; each slot heads two singly linked cell lists
/// (read set, write set). Cells live in fixed-size blocks: a store
/// allocates only when a block fills or the key table grows, and no buffer
/// is ever copied into a bigger one (a large freed buffer raises glibc's
/// dynamic mmap threshold, and with it the freed memory every malloc arena
/// keeps resident).
class WcpReleaseTable {
public:
  /// Sets thread \p T's cell of L^w_{ℓ,x} (\p IsWrite) or L^r_{ℓ,x} to
  /// the release time of ℓ's queue record \p Record.
  void store(LockId L, VarId X, bool IsWrite, ThreadId T, uint64_t Record) {
    Slot &S = findOrInsert(key(L, X));
    uint32_t &Head = S.Head[IsWrite];
    uint32_t C = Head;
    while (C != None && cell(C).Thread != T.value())
      C = cell(C).Next;
    if (C == None) {
      C = NumCells++;
      if (C % CellsPerBlock == 0)
        CellBlocks.emplace_back(new Cell[CellsPerBlock]);
      cell(C) = Cell{0, T.value(), Head, false};
      Head = C;
    }
    Cell &Dst = cell(C);
    Dst.Record = Record;
    Dst.Absorbed = false;
  }

  /// Calls \p Join(record) for every cell of (ℓ, x) except thread \p T's
  /// own, which holds ℓ: those of L^w_{ℓ,x}, and of L^r_{ℓ,x} too if
  /// \p WithReads. \p Join joins that record's release time into P_t and
  /// returns true iff P_t changed; so does this (feeds the P-epoch; see
  /// ClockBroadcast).
  ///
  /// Once a thread has joined a cell, the join is a no-op for every later
  /// holder of ℓ until the cell is overwritten: the joiner releases ℓ with
  /// P ⊒ cell, every later acquirer joins that P_ℓ (or made the release
  /// itself), and only the cell's owner, who never joins it, can
  /// overwrite it. So each cell version is joined at most once.
  template <typename JoinFn>
  bool joinInto(LockId L, VarId X, bool WithReads, ThreadId T,
                JoinFn &&Join) {
    const Slot *S = find(key(L, X));
    if (!S)
      return false;
    bool Changed = false;
    for (int IsWrite = WithReads ? 0 : 1; IsWrite != 2; ++IsWrite) {
      for (uint32_t C = S->Head[IsWrite]; C != None; C = cell(C).Next) {
        Cell &Src = cell(C);
        if (Src.Thread == T.value() || Src.Absorbed)
          continue;
        Changed |= Join(Src.Record);
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

  struct Slot {
    uint64_t Key = EmptyKey;
    uint32_t Head[2] = {None, None}; ///< Read list, write list.
  };
  struct Cell {
    uint64_t Record; ///< Logical index in ℓ's queue.
    uint32_t Thread;
    uint32_t Next;
    /// Some thread has joined the current release time (see joinInto).
    bool Absorbed;
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
};

} // namespace rapid

#endif // RAPID_WCP_WCPSTATE_H
