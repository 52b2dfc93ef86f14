//===- examples/interpose/librace_interpose.cpp - LD_PRELOAD shim -------------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
// A live-attach event source for unmodified pthread programs:
//
//   LD_PRELOAD=./librace_interpose.so RACE_SERVER=/tmp/raced.sock ./app
//
// wraps pthread_create/join and pthread_mutex_lock/unlock, stamps each
// captured operation with a global sequence number, buffers records in
// per-thread logs, and a background flusher merges consistent cuts into
// one globally ordered §2.1-valid stream — pushed to a race_serverd
// session as wire frames (RACE_SERVER) and/or appended to a text trace
// (RACE_RECORD) that race_cli replays offline, bit-for-bit.
//
// Shared-memory accesses cannot be interposed without compiler help, so
// programs mark the ones to model via race_annotate.h (weak symbol; see
// that header). Environment: RACE_SERVER (unix socket path), RACE_RECORD
// (text trace path), RACE_FLUSH_MS (flush cadence, default 50).
//
// Capture rules that make the merged stream well-formed:
//   - acquire is stamped AFTER the real lock returns (inside the critical
//     section), release BEFORE the real unlock (still inside) — two
//     critical sections on one mutex can never interleave in the stream;
//   - fork is stamped before the real pthread_create, so the child's
//     first event always lands after it; join after the real join
//     returns, so the child's last event lands before it;
//   - recursive re-locks are depth-counted per thread and only the
//     outermost pair is modeled; an unlock with no modeled lock (e.g.
//     after an uninterposed trylock) is skipped, never emitted unmatched.
//
// Known model limits (documented in docs/SERVING.md): pthread_cond_wait
// releases/reacquires its mutex inside glibc without crossing these
// wrappers, so condvar-heavy code falls outside the modeled lock
// discipline; trylock/timedlock criticals are not modeled.
//
// Deliberately links NO rapidpp code (the static analysis library is not
// position-independent and must not be pulled into a preloaded .so). It
// sends through serve/ResumableSender.h, the header-only resumable core
// WireClient also uses, over the header-only half of io/WireFormat.h.
//
// Fault tolerance is the core's: a resumable handshake that honours the
// server's retry-after hints, a spill of unacked Events frames, and
// reconnect + Resume + retransmit after a connection loss, so a
// killed-and-resumed session reports exactly what an uninterrupted one
// would. The shim adds only its own policies: RACE_RETRY_MAX (default 8)
// bounds attempts per outage, and 0 sends a plain Hello (no resume); an
// unacked backlog past the spill cap drops the resume token rather than
// fail the stream; a send the core cannot deliver ends streaming, never
// the program; and at exit it waits, bounded, for the session's Report.
//
//===----------------------------------------------------------------------===//

#include "io/WireFormat.h"
#include "serve/ResumableSender.h"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <unordered_map>
#include <vector>

#include <dlfcn.h>
#include <pthread.h>
#include <sched.h>
#include <time.h>
#include <unistd.h>

using namespace rapid;

namespace {

// ---- Real functions ---------------------------------------------------------

using CreateFn = int (*)(pthread_t *, const pthread_attr_t *,
                         void *(*)(void *), void *);
using JoinFn = int (*)(pthread_t, void **);
using MutexFn = int (*)(pthread_mutex_t *);

CreateFn RealCreate;
JoinFn RealJoin;
MutexFn RealLock;
MutexFn RealUnlock;

void resolveReals() {
  RealCreate = reinterpret_cast<CreateFn>(dlsym(RTLD_NEXT, "pthread_create"));
  RealJoin = reinterpret_cast<JoinFn>(dlsym(RTLD_NEXT, "pthread_join"));
  RealLock =
      reinterpret_cast<MutexFn>(dlsym(RTLD_NEXT, "pthread_mutex_lock"));
  RealUnlock =
      reinterpret_cast<MutexFn>(dlsym(RTLD_NEXT, "pthread_mutex_unlock"));
}

// ---- State ------------------------------------------------------------------

struct SpinLock {
  std::atomic_flag F = ATOMIC_FLAG_INIT;
  void lock() {
    while (F.test_and_set(std::memory_order_acquire))
      sched_yield();
  }
  void unlock() { F.clear(std::memory_order_release); }
};

/// One captured operation. Seq is the global stamp; merge-sorting cuts by
/// it reproduces a single §2.1-consistent interleaving.
struct Rec {
  uint64_t Seq;
  uint8_t Kind; ///< EventKind value (0 read .. 5 join).
  uint32_t Thread, Target, Loc;
};

/// Per-thread capture log. Buf is guarded by M (owner appends, flusher
/// swaps); HeldDepth is owner-only.
struct ThreadLog {
  SpinLock M;
  std::vector<Rec> Buf;
  uint32_t Tid = 0;
  /// Modeled lock id -> recursion depth (only the 0<->1 edges emit).
  std::unordered_map<uint32_t, uint32_t> HeldDepth;
};

struct State {
  SpinLock RegM;
  std::vector<ThreadLog *> Threads; ///< Every log ever created (leaked).
  std::unordered_map<const void *, uint32_t> MutexIds;
  std::unordered_map<std::string, uint32_t> VarIds, LocIds;
  std::unordered_map<uintptr_t, uint32_t> JoinIds; ///< pthread_t -> tid.
  std::vector<std::string> ThreadNames, LockNames, VarNames, LocNames;
  std::string PendingDecl; ///< Declare payload staged since last flush.

  std::atomic<uint64_t> Seq{1};
  uint32_t RtLoc = 0; ///< Loc id for runtime (non-annotated) events.

  std::FILE *Record = nullptr;
  unsigned FlushMs = 50;
  std::atomic<bool> Stop{false};
  pthread_t Flusher{};
  bool FlusherStarted = false;

  // Only one thread touches the server connection at a time (the flusher,
  // or the destructor after joining it), so it needs no locking.
  ResumableSender Server;
  bool Streaming = false; ///< Attached, and no send has failed for good.
};

State *St; // Heap-allocated, never freed: immune to static-dtor order.

thread_local ThreadLog *TL;
thread_local bool InHook;

/// RAII passthrough guard: wrappers entered while set call the real
/// function without recording (our own internals, nested wrappers).
struct HookGuard {
  bool Owned;
  HookGuard() : Owned(!InHook) { InHook = true; }
  ~HookGuard() {
    if (Owned)
      InHook = false;
  }
};

/// The shim's failure policy: a send the core could not deliver (its
/// resume budget spent, or a refusal from the server) ends streaming for
/// good, while the program keeps running and recording.
void keepStreaming(const Status &S) {
  if (S.ok() || !St->Streaming)
    return;
  St->Streaming = false;
  std::fprintf(stderr, "librace_interpose: lost the server connection: %s\n",
               S.str().c_str());
}

// ---- Interning (RegM held by caller) ---------------------------------------

void stageDecl(WireDeclareKind K, const std::string &Name) {
  wireDeclareEntry(St->PendingDecl, K, Name);
}

ThreadLog *newThreadLocked() {
  ThreadLog *L = new ThreadLog;
  L->Tid = static_cast<uint32_t>(St->ThreadNames.size());
  St->ThreadNames.push_back("T" + std::to_string(L->Tid + 1));
  stageDecl(WireDeclareKind::Thread, St->ThreadNames.back());
  St->Threads.push_back(L);
  return L;
}

uint32_t internMutexLocked(const void *M) {
  auto It = St->MutexIds.find(M);
  if (It != St->MutexIds.end())
    return It->second;
  const uint32_t Id = static_cast<uint32_t>(St->LockNames.size());
  St->LockNames.push_back("M" + std::to_string(Id + 1));
  stageDecl(WireDeclareKind::Lock, St->LockNames.back());
  St->MutexIds.emplace(M, Id);
  return Id;
}

uint32_t internVarLocked(const std::string &Name) {
  auto It = St->VarIds.find(Name);
  if (It != St->VarIds.end())
    return It->second;
  const uint32_t Id = static_cast<uint32_t>(St->VarNames.size());
  St->VarNames.push_back(Name);
  stageDecl(WireDeclareKind::Var, Name);
  St->VarIds.emplace(Name, Id);
  return Id;
}

uint32_t internLocLocked(const std::string &Name) {
  auto It = St->LocIds.find(Name);
  if (It != St->LocIds.end())
    return It->second;
  const uint32_t Id = static_cast<uint32_t>(St->LocNames.size());
  St->LocNames.push_back(Name);
  stageDecl(WireDeclareKind::Loc, Name);
  St->LocIds.emplace(Name, Id);
  return Id;
}

ThreadLog *ensureThread() {
  if (!TL) {
    St->RegM.lock();
    TL = newThreadLocked();
    St->RegM.unlock();
  }
  return TL;
}

/// Stamp + append under the owner's log lock — the atomicity the
/// flusher's consistent cut depends on.
void record(ThreadLog *L, uint8_t Kind, uint32_t Target, uint32_t Loc) {
  L->M.lock();
  const uint64_t S = St->Seq.fetch_add(1, std::memory_order_relaxed);
  L->Buf.push_back(Rec{S, Kind, L->Tid, Target, Loc});
  L->M.unlock();
}

// ---- Flushing ---------------------------------------------------------------

const char *kindOp(uint8_t K) {
  static const char *Ops[] = {"r", "w", "acq", "rel", "fork", "join"};
  return Ops[K];
}

/// One consistent cut: with RegM held, take every thread lock, swap all
/// buffers, release. Any record stamped after the cut has a larger seq
/// than every record inside it (stamps happen under the thread locks),
/// so consecutive cuts are nested prefixes of one global interleaving.
/// Declares are snapshotted in the same RegM critical section — an id an
/// included event references was interned (and staged) before its append,
/// hence before this cut.
void flushOnce() {
  std::string Decl;
  std::vector<Rec> Cut;
  std::string Text;

  St->RegM.lock();
  Decl.swap(St->PendingDecl);
  for (ThreadLog *L : St->Threads)
    L->M.lock();
  for (ThreadLog *L : St->Threads) {
    Cut.insert(Cut.end(), L->Buf.begin(), L->Buf.end());
    L->Buf.clear();
  }
  for (ThreadLog *L : St->Threads)
    L->M.unlock();

  std::sort(Cut.begin(), Cut.end(),
            [](const Rec &A, const Rec &B) { return A.Seq < B.Seq; });

  // Render both outputs while RegM still pins the name tables.
  if (St->Record) {
    for (const Rec &R : Cut) {
      Text += St->ThreadNames[R.Thread];
      Text += '|';
      Text += kindOp(R.Kind);
      Text += '(';
      Text += R.Kind <= 1   ? St->VarNames[R.Target]
              : R.Kind <= 3 ? St->LockNames[R.Target]
                            : St->ThreadNames[R.Target];
      Text += ")|";
      Text += St->LocNames[R.Loc];
      Text += '\n';
    }
  }
  St->RegM.unlock();

  if (St->Streaming && !Decl.empty()) {
    std::string DF;
    wireAppendFrame(DF, WireFrame::Declare, Decl);
    keepStreaming(St->Server.sendDeclares(std::move(DF)));
  }
  constexpr size_t BatchRecords = 8192;
  for (size_t I = 0; St->Streaming && I < Cut.size(); I += BatchRecords) {
    const size_t N = std::min(BatchRecords, Cut.size() - I);
    std::string P;
    P.reserve(12 + N * WireEventRecordSize);
    wireEventsHeader(P, St->Server.nextSeq(), static_cast<uint32_t>(N));
    for (size_t K = 0; K != N; ++K) {
      const Rec &R = Cut[I + K];
      wireEventRecord(P, R.Kind, R.Thread, R.Target, R.Loc);
    }
    std::string EF;
    wireAppendFrame(EF, WireFrame::Events, P);
    // An unacked backlog past the cap stops resuming instead of failing
    // the stream: later frames go out once, unspilled.
    if (St->Server.spillBytes() + EF.size() > WireSpillMaxBytes)
      St->Server.dropResume();
    keepStreaming(St->Server.sendEvents(std::move(EF)));
  }
  if (St->Record && !Text.empty()) {
    std::fwrite(Text.data(), 1, Text.size(), St->Record);
    std::fflush(St->Record);
  }
}

void *flusherMain(void *) {
  InHook = true; // Our internal thread: never record its pthread use.
  while (!St->Stop.load(std::memory_order_relaxed)) {
    timespec TS{0, static_cast<long>(St->FlushMs) * 1000000L};
    nanosleep(&TS, nullptr);
    flushOnce();
  }
  return nullptr;
}

// ---- Init / shutdown --------------------------------------------------------

__attribute__((constructor)) void interposeInit() {
  InHook = true;
  resolveReals();
  St = new State;
  St->RegM.lock();
  St->RtLoc = internLocLocked("rt");
  TL = newThreadLocked(); // The main thread is T1.
  St->RegM.unlock();
  if (const char *Ms = std::getenv("RACE_FLUSH_MS"))
    St->FlushMs = static_cast<unsigned>(std::strtoul(Ms, nullptr, 10));
  if (St->FlushMs == 0)
    St->FlushMs = 50;
  if (const char *Path = std::getenv("RACE_RECORD")) {
    St->Record = std::fopen(Path, "wb");
    if (!St->Record)
      std::fprintf(stderr, "librace_interpose: cannot write '%s'\n", Path);
  }
  int RetryMax = 8;
  if (const char *Retry = std::getenv("RACE_RETRY_MAX"))
    RetryMax = static_cast<int>(std::strtoul(Retry, nullptr, 10));
  if (const char *Path = std::getenv("RACE_SERVER")) {
    // One connect attempt: an absent server must not delay the program.
    Status S = St->Server.connect(Path);
    if (S.ok())
      S = RetryMax != 0
              ? St->Server.handshake(
                    Path, 0,
                    WireRetryPolicy{RetryMax, static_cast<uint64_t>(getpid())})
              : St->Server.sendBytes(wireHelloFrame());
    St->Streaming = S.ok();
    if (!S.ok())
      std::fprintf(stderr,
                   "librace_interpose: cannot reach RACE_SERVER '%s': %s "
                   "(recording only)\n",
                   Path, S.str().c_str());
  }
  if (RealCreate &&
      RealCreate(&St->Flusher, nullptr, flusherMain, nullptr) == 0)
    St->FlusherStarted = true;
  InHook = false;
}

__attribute__((destructor)) void interposeFini() {
  InHook = true;
  St->Stop.store(true, std::memory_order_relaxed);
  if (St->FlusherStarted && RealJoin)
    RealJoin(St->Flusher, nullptr);
  flushOnce();
  if (St->Streaming)
    keepStreaming(St->Server.sendFinish());
  if (St->Streaming) {
    // Wait for the Report, so the session is retained server-side before
    // this process disappears.
    std::string Report;
    keepStreaming(St->Server.awaitReport(Report));
  }
  St->Server.close();
  if (St->Record) {
    std::fclose(St->Record);
    St->Record = nullptr;
  }
}

} // namespace

// ---- Interposed entry points ------------------------------------------------

extern "C" {

struct RaceStartArg {
  void *(*Fn)(void *);
  void *Arg;
  ThreadLog *Log;
};

static void *raceTrampoline(void *P) {
  RaceStartArg *A = static_cast<RaceStartArg *>(P);
  TL = A->Log;
  void *(*Fn)(void *) = A->Fn;
  void *Arg = A->Arg;
  delete A;
  return Fn(Arg);
}

int pthread_create(pthread_t *Th, const pthread_attr_t *Attr,
                   void *(*Fn)(void *), void *Arg) {
  if (!RealCreate)
    resolveReals();
  if (InHook || !St)
    return RealCreate(Th, Attr, Fn, Arg);
  HookGuard G;
  ThreadLog *Self = ensureThread();
  St->RegM.lock();
  ThreadLog *Child = newThreadLocked();
  St->RegM.unlock();
  // Fork stamped before the real create: the child's first event (stamped
  // after the real thread starts) always lands later in the cut order.
  record(Self, 4 /*fork*/, Child->Tid, St->RtLoc);
  RaceStartArg *A = new RaceStartArg{Fn, Arg, Child};
  const int R = RealCreate(Th, Attr, raceTrampoline, A);
  if (R == 0) {
    St->RegM.lock();
    St->JoinIds[reinterpret_cast<uintptr_t>(*Th)] = Child->Tid;
    St->RegM.unlock();
  }
  return R;
}

int pthread_join(pthread_t Th, void **Ret) {
  if (!RealJoin)
    resolveReals();
  if (InHook || !St)
    return RealJoin(Th, Ret);
  HookGuard G;
  const int R = RealJoin(Th, Ret);
  if (R == 0) {
    ThreadLog *Self = ensureThread();
    St->RegM.lock();
    auto It = St->JoinIds.find(reinterpret_cast<uintptr_t>(Th));
    const bool Known = It != St->JoinIds.end();
    const uint32_t Tid = Known ? It->second : 0;
    St->RegM.unlock();
    // Join stamped after the real join returned: every event of the
    // joined thread is already stamped, so it lands earlier in the cut.
    if (Known)
      record(Self, 5 /*join*/, Tid, St->RtLoc);
  }
  return R;
}

int pthread_mutex_lock(pthread_mutex_t *M) {
  if (!RealLock)
    resolveReals();
  if (InHook || !St)
    return RealLock(M);
  HookGuard G;
  const int R = RealLock(M);
  if (R == 0) {
    ThreadLog *Self = ensureThread();
    St->RegM.lock();
    const uint32_t Id = internMutexLocked(M);
    St->RegM.unlock();
    // Acquire stamped while the real lock is held; only the outermost
    // level of a recursive mutex is modeled.
    if (++Self->HeldDepth[Id] == 1)
      record(Self, 2 /*acq*/, Id, St->RtLoc);
  }
  return R;
}

int pthread_mutex_unlock(pthread_mutex_t *M) {
  if (!RealUnlock)
    resolveReals();
  if (InHook || !St)
    return RealUnlock(M);
  HookGuard G;
  ThreadLog *Self = ensureThread();
  St->RegM.lock();
  const uint32_t Id = internMutexLocked(M);
  St->RegM.unlock();
  // Release stamped before the real unlock (still inside the critical
  // section). Unmatched unlocks — depth 0, e.g. after an uninterposed
  // trylock — are skipped, never emitted as bare releases.
  auto It = Self->HeldDepth.find(Id);
  if (It != Self->HeldDepth.end() && It->second != 0 && --It->second == 0)
    record(Self, 3 /*rel*/, Id, St->RtLoc);
  return RealUnlock(M);
}

void race_annotate_access(int IsWrite, const void *Addr, const char *Var,
                          const char *Loc) {
  if (InHook || !St)
    return;
  HookGuard G;
  ThreadLog *Self = ensureThread();
  char AddrName[32];
  if (!Var) {
    std::snprintf(AddrName, sizeof(AddrName), "V%p", Addr);
    Var = AddrName;
  }
  St->RegM.lock();
  const uint32_t V = internVarLocked(Var);
  const uint32_t L = Loc ? internLocLocked(Loc) : St->RtLoc;
  St->RegM.unlock();
  record(Self, IsWrite ? 1 : 0, V, L);
}

} // extern "C"
