//===- api/AnalysisSession.cpp ------------------------------------------------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
// The streaming engine: a single-producer / multi-consumer publication
// protocol over stable event storage. The producer (feed/feedFile on the
// caller's thread) appends events to the trace and mirrors the validated
// prefix into an EventStore (support/PublishedStore: chunked, append-only,
// pointers never invalidated), publishing with one atomic watermark store.
// Consumers read the published prefix *in place* — no lock on the hot
// path, no per-batch copy — and park on the store's eventcount when they
// catch up with the producer. Every detector (and the windowed builder's
// splitter) is built in start(), before any consumer or feed exists, so
// no consumer ever takes the session mutex M. All per-lane state shared
// with partialResult() sits behind a per-lane snapshot mutex.
//
// This is the repo's one analysis engine: analyzeTrace() is a session
// whose store adopts the caller's complete trace in place (adoptTrace), so
// batch and streaming runs share every consumer below. Every run mode
// streams:
//
//   Sequential   one consumer thread per lane, each running its detector
//                over published ranges in place (laneConsumer);
//   Windowed     one window-builder consumer cuts completed windows out of
//                the published prefix (trace/IncrementalWindowSplitter)
//                and dispatches a fresh detector per lane × window onto
//                the session ThreadPool; reports merge deterministically
//                in window order as they retire (windowedConsumer);
//   VarSharded   the same laneConsumer per lane, with capture attached:
//                its walk is the clock pass, the captured AccessLog is
//                itself published by watermark, and per-shard drain tasks
//                on the pool replay committed accesses in place
//                (detect/ShardChecker); only the final trace-order merge
//                waits for finish() (finishCapture/drainVarShard).
//
// A lane that throws fails alone, through one path (failLane): its status
// carries the error, the other lanes run on, and progress() stops
// counting it.
//
// Mid-stream table growth (text inputs intern lazily; push feeds may
// declare late) is free: detector state is growable end to end —
// implicit-zero vector clocks, grow-on-first-touch access histories,
// lockset and queue tables — so a lane built against a prefix of the id
// tables keeps analyzing bit-for-bit with one built against the final
// tables; no lane ever rebuilds or replays.
//
// Table visibility: consumers never read the id tables. Detectors and the
// window splitter are built against the tables that exist at start() (empty
// for a streaming session, complete for an adopted trace) and grow on
// first touch, so the producer parses, interns, validates and publishes
// without a lock: it is the trace's only writer, and the store is SPMC.
//
// Lock order. M guards SessionStatus, IngestSeconds, Finished/Ingested and
// the declare* tables; it is taken briefly and never across a chunk, and
// only callers of the public surface take it — never a consumer. It nests
// nothing. The var-sharded lane log mutex LogM nests SnapM (LogM → SnapM).
// Shard mutexes (SM), window-epoch mutexes (EM) and the store's internal
// wake mutex are leaves.
//
//===----------------------------------------------------------------------===//

#include "api/AnalysisSession.h"

#include "detect/ShardedAccessHistory.h"
#include "obs/Metrics.h"
#include "obs/TraceRecorder.h"
#include "pipeline/ChunkedReader.h"
#include "support/GuardedTask.h"
#include "support/PublishedStore.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"
#include "trace/EventStore.h"
#include "trace/TraceValidator.h"
#include "trace/Window.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>

using namespace rapid;

namespace {

/// Converts stage seconds to the integer nanoseconds the *_ns metrics use.
uint64_t toNs(double Seconds) {
  return Seconds <= 0 ? 0 : static_cast<uint64_t>(Seconds * 1e9);
}

/// Accesses a var-sharded drain task claims per round. Smaller rounds
/// release the shard sooner for partial snapshots and spread work across
/// the pool; larger ones amortize the claim handshake. Reports are
/// bit-identical for any value >= 1.
constexpr uint64_t DrainBatch = 4096;

/// Locks the deferred \p Lk, charging acquisition time to \p WaitNs when
/// metrics are enabled — the producer's session-lock probe (consumers
/// never take the session lock; their only wait is the store park,
/// charged to *.park_ns). The disabled path is the plain lock: no clock
/// reads.
void lockCharged(std::unique_lock<std::mutex> &Lk, Counter WaitNs) {
  if (WaitNs.enabled()) {
    uint64_t T0 = obsNowNs();
    Lk.lock();
    WaitNs.add(obsNowNs() - T0);
  } else {
    Lk.lock();
  }
}

// ---- Session internals ------------------------------------------------------

/// Per-lane runtime shared between its consumer thread and
/// partialResult()/finish(). Fields below SnapM are guarded by it; the
/// detector is built in start() (null only for a lane whose factory
/// threw), driven by the consumer and snapshot-read (report copy, name)
/// under SnapM as well.
struct LaneRuntime {
  std::string Label;    ///< Config name override ("" = detector's name()).
  std::string Fallback; ///< Kind name, for labeling failed lanes.
  DetectorFactory Make;

  std::mutex SnapM;
  std::unique_ptr<Detector> D;
  std::string Name;      ///< Resolved when the detector is built.
  RaceReport Final;      ///< Set by the consumer at drain time.
  Status LaneStatus;
  /// Events processed. Written under SnapM, but atomic so progress() can
  /// read it without SnapM: a consumer re-takes SnapM right after each
  /// batch, so a locking reader could wait until the lane drains.
  std::atomic<uint64_t> Consumed{0};
  double Seconds = 0;    ///< Processing time, excluding waits.
  bool Done = false;
  /// Set by failLane. progress() skips a failed lane: its Consumed count
  /// froze, and a served client parked on the lag would wait forever.
  std::atomic<bool> Failed{false};

  // Cached instrument handles (obs/Metrics.h; null when metrics are off)
  // plus the lane's timeline track. Written once at session start, then
  // only read — safe to use from the lane's consumer and pool tasks.
  Counter ConsumeNs;       ///< Detector processing time.
  Counter ParkNs;          ///< Time parked waiting for published events.
  Counter Batches;         ///< Published ranges processed (in place).
  Counter WindowsChecked;  ///< Windowed: lane × window tasks completed.
  Counter WindowCheckNs;   ///< Windowed: time inside window tasks.
  Counter DrainNs;         ///< Var-sharded: shard replay time.
  Counter DrainBatches;    ///< Var-sharded: drain rounds replayed.
  Gauge CapturedAccesses;  ///< Var-sharded: deferred accesses logged.
  Gauge BroadcastClocks;   ///< Var-sharded: distinct clock snapshots.
  HighWater BatchEventsPeak; ///< Largest batch copied.
  HighWater LagEventsPeak;   ///< Peak published-minus-consumed lag.
  Gauge FirstConsumeDelayNs; ///< First publish → lane's first batch.
  uint32_t Track = TraceRecorder::NoTrack;
};

/// The one lane-failure path (lane consumers and the window builder):
/// records \p Why as the lane's status, ends the lane and takes it out of
/// progress()'s minimum.
void failLane(LaneRuntime &Rt, std::string Why) {
  std::lock_guard<std::mutex> G(Rt.SnapM);
  Rt.LaneStatus = Status(StatusCode::AnalysisError, std::move(Why));
  Rt.Done = true;
  Rt.Failed.store(true, std::memory_order_release);
}

// ---- Windowed-mode streaming state ------------------------------------------

/// One lane's outcome for one window, filled by its pool task.
struct WindowSlot {
  RaceReport Report;
  std::string Name; ///< Detector's name() (window 0 resolves the lane's).
  std::string Error;
  double Seconds = 0;
  bool Done = false;
};

/// One completed window plus its per-lane result slots.
struct WindowEntry {
  std::shared_ptr<const TraceWindow> W;
  uint64_t EndIdx = 0; ///< Parent events covered: [0, EndIdx) after merge.
  std::vector<WindowSlot> Slots;
};

/// The window-builder's run state: every window cut so far plus task
/// accounting. (Historically one of several per run — table growth used
/// to orphan the epoch and start a fresh one; with growable detector
/// state there is exactly one per session.)
struct WindowEpoch {
  std::mutex EM;
  std::condition_variable DoneCV;
  std::vector<std::unique_ptr<WindowEntry>> Windows; ///< Appended in order.
  uint64_t TasksLaunched = 0;
  uint64_t TasksDone = 0;
};

// ---- Var-sharded-mode streaming state ---------------------------------------

/// One lane's shard-check runtime for the streamed var-sharded mode.
/// Cursors/Error/Seconds are guarded by the lane's LogM; the checker
/// itself by SM (claim under LogM, replay under SM — in place, against
/// the committed log — commit progress under LogM, so capture
/// publication, shard replay and partial snapshots all overlap without
/// sharing). WorkList is a PublishedStore so the drain task can read its
/// claimed range outside LogM while the capture consumer keeps appending:
/// growth never relocates an entry, and the LogM claim handshake provides
/// the happens-before (the store's own watermark is not used here).
struct VarShard {
  PublishedStore<uint32_t> WorkList; ///< Access indices, in trace order.
  uint64_t Claimed = 0;              ///< Handed to the drain task.
  uint64_t Completed = 0;            ///< Replayed into the checker.
  bool Scheduled = false;            ///< A drain task is in flight.
  std::string Error;
  double Seconds = 0;

  std::mutex SM;
  std::unique_ptr<ShardChecker> Checker; ///< Growable; built once.
};

/// Per-lane capture/publication state for the streamed var-sharded mode.
struct VarShardState {
  std::mutex LogM;
  std::condition_variable DrainCV; ///< Drain tasks signal progress.
  AccessLog *Log = nullptr;        ///< Owned via LogHolder; appended by the
                                   ///< capture walk under SnapM.
  std::unique_ptr<AccessLog> LogHolder;
  uint64_t Partitioned = 0;     ///< Accesses split into WorkLists so far.
  uint64_t CapturedEvents = 0;  ///< Trace events the clock pass covered.
  bool Capturing = false;       ///< Detector accepted beginCapture.
  ShardPlan Plan;               ///< Fixed before the lane starts.
  std::vector<std::unique_ptr<VarShard>> Shards;
  LaneRuntime *Rt = nullptr; ///< Back-pointer to the lane.
  std::vector<uint32_t> ToSchedule; ///< Consumer-only scratch: new drains.
};

} // namespace

struct AnalysisSession::Impl {
  AnalysisConfig Cfg;
  Status SessionStatus; ///< Sticky: config validation / ingestion failure.
  Timer Wall;
  double IngestSeconds = 0;

  /// Guards SessionStatus, IngestSeconds, Finished/Ingested and the
  /// declare* tables of Owned. Consumers never take it.
  std::mutex M;
  /// The trace and everything below it up to Validated are written by the
  /// producer only, without M: publication lives in Store, which the
  /// producer appends to and publishes by watermark while consumers read
  /// it lock-free.
  Trace Owned;
  /// Points into the reader during feedFile, and at the caller's trace
  /// in an analyzeTrace session.
  const Trace *Live = &Owned;
  EventStore Store;           ///< Published events; watermark == analyzable.
  /// Events appended (Live->size()), release-stored by the producer so
  /// progress()/eventsFed() read it without M.
  std::atomic<uint64_t> Fed{0};
  /// obsNowNs() of the first publication; written once, before the
  /// watermark store that makes it visible to the lanes. Metrics only.
  uint64_t FirstPublishNs = 0;
  /// Producer stores seq_cst then Store.wakeAll(); consumer stop
  /// predicates load seq_cst (the store's Dekker handshake, so the last
  /// wake cannot be lost).
  std::atomic<bool> IngestDone{false};
  bool Finished = false;
  bool Ingested = false; ///< Any feed/declare has happened.

  /// Producer-side §2.1 validation: detectors assume the trace axioms
  /// (e.g. releases match held locks), so only the validated prefix is
  /// ever published to lanes. Validated counts events certified OK; the
  /// first violation sticks in SessionStatus and freezes publication.
  StreamingTraceValidator Validator;
  uint64_t Validated = 0;

  std::vector<std::unique_ptr<LaneRuntime>> Lanes;
  std::vector<std::unique_ptr<VarShardState>> VarStates; ///< VarSharded only.
  std::shared_ptr<WindowEpoch> WinEpoch; ///< Windowed only; set in start().
  /// Windowed only: the builder's splitter, built in start().
  std::unique_ptr<IncrementalWindowSplitter> Splitter;
  uint64_t FinalNumWindows = 0;          ///< Set at windowed finalize.
  /// Windowed only: the builder's consumed watermark. LaneRuntime::
  /// Consumed is only written at finalize in this mode (window tasks
  /// retire out of order), so progress() reads this instead — otherwise
  /// a parked-on-lag serving client would never resume.
  std::atomic<uint64_t> WinBuilt{0};
  std::vector<std::thread> Consumers;
  unsigned NumConsumers = 0; ///< Consumers.size(), fixed in start().

  // ---- Observability (obs/) -------------------------------------------------
  // The registry exists for every session (disabled registries hand out
  // null handles — the zero-cost path); the recorder only when
  // Cfg.Timeline. Handles below are cached once in start().
  std::unique_ptr<MetricsRegistry> Reg;
  std::unique_ptr<TraceRecorder> Rec;
  Counter IngestParseNs;    ///< feedFile: chunk parse time.
  Counter IngestLockWaitNs; ///< Producer time acquiring the session mutex.
  Counter IngestValidateNs; ///< §2.1 streaming validation time.
  Counter PublishBatches;
  Gauge PublishedGauge;     ///< The published watermark.
  HighWater PublishBatchPeak;
  Counter ConsumerParkNs;   ///< Window builder's park time.
  Counter WindowsDispatched;
  Gauge WindowsRetired;
  uint32_t IngestTrack = TraceRecorder::NoTrack;
  uint32_t BuilderTrack = TraceRecorder::NoTrack;
  /// Lane × window tasks (Windowed) / shard drain tasks (VarSharded).
  /// Declared last so its destructor drains in-flight tasks before the
  /// state they reference dies.
  std::unique_ptr<ThreadPool> Pool;

  void start(const Trace *Adopted);
  void adoptTrace(const Trace &T);
  void buildLane(LaneRuntime &Rt, VarShardState *VS);
  void laneConsumer(LaneRuntime &Rt, VarShardState *VS);
  void windowedConsumer();
  void dispatchWindow(const std::shared_ptr<WindowEpoch> &Ep, TraceWindow &&W);
  void finalizeWindowedLanes(WindowEpoch &Ep);
  void attachCapture(VarShardState &VS);
  void partitionCaptured(VarShardState &VS, uint64_t Consumed);
  void finishCapture(VarShardState &VS);
  void drainVarShard(VarShardState &VS, uint32_t S);
  void scheduleDrains(VarShardState &VS);
  void registerObservability();
  void stopConsumers();
  Status ingestGate();
  bool validateNew();
  bool validateNewInner();
  void publishNew();
  void addIngestSeconds(double Seconds);
  AnalysisResult snapshotLanes(bool Partial);
  void snapshotWindowedLane(size_t L, LaneReport &Lane);
  void snapshotVarShardLane(VarShardState &VS, LaneReport &Lane);
};

/// Builds \p Rt's detector against the tables that exist now and, for a
/// var-sharded lane (\p VS set), attaches capture. Runs in start(), before
/// any consumer or feed exists, so it takes no session lock: growable
/// detector state admits every id interned later, bit-for-bit with a
/// detector built against the final tables (see the header comment). A
/// factory or capture hook that throws fails this lane alone (failLane);
/// its consumer then has nothing to run.
void AnalysisSession::Impl::buildLane(LaneRuntime &Rt, VarShardState *VS) {
  std::string Err;
  const bool Ok = guardedTask(Err, [&] {
    Rt.D = Rt.Make(*Live);
    Rt.Name = Rt.Label.empty() ? Rt.D->name() : Rt.Label;
    if (VS)
      attachCapture(*VS);
  });
  if (!Ok) {
    Rt.D.reset();
    failLane(Rt, std::move(Err));
  }
}

/// One detector lane, in Sequential and VarSharded mode alike: wait for
/// the watermark, then run the detector built in start() over the
/// published range *in place* — no session lock, no batch copy.
/// Processing is chunked (Cfg.StreamBatchEvents) so SnapM is released
/// regularly for partialResult().
///
/// A var-sharded lane (\p VS set) whose detector supports capture runs the
/// same walk as its clock pass: race checks are deferred into the lane's
/// AccessLog, each chunk's committed accesses go to per-shard drain tasks
/// (partitionCaptured), and finishCapture() drains the shards and merges
/// in trace order. A Sequential lane never attaches capture — no
/// AccessLog, no LogM — and neither does a detector without capture
/// support. Any exception fails this lane alone (failLane).
void AnalysisSession::Impl::laneConsumer(LaneRuntime &Rt, VarShardState *VS) {
  if (!Rt.D)
    return; // buildLane already failed the lane.
  const uint64_t Batch = std::max<uint64_t>(Cfg.StreamBatchEvents, 1);
  const bool Capturing = VS && VS->Capturing;
  uint64_t Consumed = 0;
  auto Stopped = [this] {
    return IngestDone.load(std::memory_order_seq_cst);
  };
  std::string Err;
  const bool Ok = guardedTask(Err, [&] {
    for (;;) {
      const uint64_t To = Store.waitPublished(Consumed, Rt.ParkNs, Stopped);
      if (To == Consumed)
        break; // Stopped and fully drained.
      if (Consumed == 0 && Rt.FirstConsumeDelayNs.enabled())
        Rt.FirstConsumeDelayNs.set(obsNowNs() - FirstPublishNs);
      while (Consumed != To) {
        const uint64_t From = Consumed;
        const uint64_t End = std::min(To, From + Batch);
        Rt.Batches.add();
        Rt.BatchEventsPeak.observe(End - From);
        Rt.LagEventsPeak.observe(Store.published() - From);
        int64_t SpanStart = Rec ? Rec->nowUs() : 0;
        {
          std::lock_guard<std::mutex> G(Rt.SnapM);
          Timer Clock;
          Store.forRange(From, End, [&](const Event &E, uint64_t I) {
            Rt.D->processEvent(E, I);
          });
          double Sec = Clock.seconds();
          Rt.Seconds += Sec;
          Rt.ConsumeNs.add(toNs(Sec));
          Consumed = End;
          Rt.Consumed.store(End, std::memory_order_release);
        }
        if (Capturing)
          partitionCaptured(*VS, Consumed);
        if (Rec) {
          Rec->span(Rt.Track, VS ? "capture" : "consume", SpanStart,
                    Rec->nowUs() - SpanStart);
          Rec->counter("lag:" + Rt.Fallback, Rec->nowUs(), To - End);
        }
      }
    }
    if (Capturing) {
      finishCapture(*VS);
      return;
    }
    std::lock_guard<std::mutex> G(Rt.SnapM);
    Rt.D->finish();
    Rt.Final = Rt.D->report();
    Rt.Done = true;
  });
  if (!Ok)
    failLane(Rt, std::move(Err));
}

// ---- Windowed streaming -----------------------------------------------------

/// Appends \p W to the epoch and launches one analysis task per lane: a
/// fresh detector over the fragment (the windowed baseline's defining
/// move), results written into the window's slots. Tasks hold the epoch
/// alive via shared_ptr, so in-flight stragglers stay valid even if the
/// session is torn down around them.
void AnalysisSession::Impl::dispatchWindow(
    const std::shared_ptr<WindowEpoch> &Ep, TraceWindow &&W) {
  auto Entry = std::make_unique<WindowEntry>();
  Entry->W = std::make_shared<const TraceWindow>(std::move(W));
  Entry->EndIdx = Entry->W->Original.empty() ? 0 : Entry->W->Original.back() + 1;
  Entry->Slots.resize(Lanes.size());
  WindowEntry *E = Entry.get();
  size_t WinIdx;
  {
    std::lock_guard<std::mutex> G(Ep->EM);
    WinIdx = Ep->Windows.size();
    Ep->Windows.push_back(std::move(Entry));
    Ep->TasksLaunched += Lanes.size();
  }
  WindowsDispatched.add();
  for (size_t L = 0; L != Lanes.size(); ++L) {
    Pool->submit([this, Ep, E, L, WinIdx] {
      LaneRuntime &Rt = *Lanes[L];
      RaceReport Report;
      std::string Name;
      std::string Err;
      double Seconds = 0;
      int64_t SpanStart = Rec ? Rec->nowUs() : 0;
      guardedTask(Err, [&] {
        Timer Clock;
        std::unique_ptr<Detector> D = Rt.Make(E->W->Fragment);
        Name = D->name();
        Report = runDetectorOnWindow(*D, *E->W);
        Seconds = Clock.seconds();
      });
      Rt.WindowsChecked.add();
      Rt.WindowCheckNs.add(toNs(Seconds));
      if (Rec) {
        // On the lane's track (spans of concurrent windows of one lane
        // may overlap there — see docs/OBSERVABILITY.md); the pool
        // worker's own track carries the enclosing "task" span.
        Rec->span(Rt.Track, "check:w" + std::to_string(WinIdx), SpanStart,
                  Rec->nowUs() - SpanStart);
      }
      std::lock_guard<std::mutex> G(Ep->EM);
      WindowSlot &S = E->Slots[L];
      S.Report = std::move(Report);
      S.Name = std::move(Name);
      S.Error = std::move(Err);
      S.Seconds = Seconds;
      S.Done = true;
      ++Ep->TasksDone;
      Ep->DoneCV.notify_all();
    });
  }
}

/// Merges the retired windows into each lane's final report in window
/// order — runDetectorWindowed's merge — naming the lane "<name>[w=N]" and
/// labeling the first failed window. Runs on the builder thread after
/// every task of the final epoch completed.
void AnalysisSession::Impl::finalizeWindowedLanes(WindowEpoch &Ep) {
  FinalNumWindows = Ep.Windows.size();
  WindowsRetired.set(FinalNumWindows);
  for (size_t L = 0; L != Lanes.size(); ++L) {
    LaneRuntime &Rt = *Lanes[L];
    RaceReport Merged;
    std::string Err;
    std::string Base = Rt.Label;
    double Seconds = 0;
    uint64_t Covered = 0;
    for (size_t K = 0; K != Ep.Windows.size(); ++K) {
      WindowSlot &S = Ep.Windows[K]->Slots[L];
      if (K == 0 && Base.empty())
        Base = S.Name;
      if (!S.Error.empty() && Err.empty())
        Err = "window " + std::to_string(K) + ": " + S.Error;
      Merged.mergeFrom(S.Report);
      Seconds += S.Seconds;
      Covered = Ep.Windows[K]->EndIdx;
    }
    std::lock_guard<std::mutex> G(Rt.SnapM);
    Rt.Name = Base + "[w=" + std::to_string(Cfg.WindowEvents) + "]";
    Rt.Seconds = Seconds;
    Rt.Final = std::move(Merged); // Kept even on error.
    if (!Err.empty())
      Rt.LaneStatus = Status(StatusCode::AnalysisError, std::move(Err));
    else
      Rt.Consumed.store(Covered, std::memory_order_release);
    Rt.Done = true;
  }
}

/// The windowed mode's one consumer: replays the published prefix through
/// the incremental window splitter and dispatches each completed window the
/// moment its last event publishes — no per-window global state, so
/// analysis starts while ingestion is still appending. The splitter (built
/// in start()) and the per-window detectors tolerate ids beyond the tables
/// they were built against (growable state), so table growth never re-cuts
/// windows.
void AnalysisSession::Impl::windowedConsumer() {
  uint64_t Consumed = 0;
  const std::shared_ptr<WindowEpoch> &Ep = WinEpoch;
  auto Stopped = [this] {
    return IngestDone.load(std::memory_order_seq_cst);
  };
  std::string Err;
  const bool Ok = guardedTask(Err, [&] {
    for (;;) {
      const uint64_t To = Store.waitPublished(Consumed, ConsumerParkNs,
                                              Stopped);
      if (To != Consumed) {
        int64_t SpanStart = Rec ? Rec->nowUs() : 0;
        Store.forRange(Consumed, To, [&](const Event &E, uint64_t I) {
          if (std::optional<TraceWindow> W = Splitter->push(E, I))
            dispatchWindow(Ep, std::move(*W));
        });
        Consumed = To;
        WinBuilt.store(To, std::memory_order_relaxed);
        if (Rec)
          Rec->span(BuilderTrack, "build", SpanStart,
                    Rec->nowUs() - SpanStart);
        continue;
      }
      // Stopped and fully drained: flush the trailing partial window,
      // wait out the in-flight tasks, merge.
      if (std::optional<TraceWindow> W = Splitter->flush())
        dispatchWindow(Ep, std::move(*W));
      {
        std::unique_lock<std::mutex> ELk(Ep->EM);
        Ep->DoneCV.wait(ELk,
                        [&] { return Ep->TasksDone == Ep->TasksLaunched; });
      }
      finalizeWindowedLanes(*Ep);
      return;
    }
  });
  if (!Ok)
    for (auto &Rt : Lanes)
      failLane(*Rt, Err);
}

// ---- Var-sharded streaming --------------------------------------------------

/// Submits drain tasks for the shards in VS.ToSchedule (already marked
/// Scheduled under LogM by the caller; called after LogM is released).
void AnalysisSession::Impl::scheduleDrains(VarShardState &VS) {
  for (uint32_t S : VS.ToSchedule)
    Pool->submit([this, &VS, S] { drainVarShard(VS, S); });
  VS.ToSchedule.clear();
}

/// One drain round for shard \p S: claim a bounded run of committed
/// accesses under LogM (cursor bump only — no copy), replay them into the
/// shard's checker under SM reading the log and the broadcast snapshots
/// *in place*, commit completion under LogM. Sound without holding LogM
/// during the replay: WorkList entries below Claimed were appended by the
/// capture consumer under LogM *after* it committed the accesses and
/// snapshots they index, so the claim's LogM acquire happens-after all of
/// that, and the storage itself (PublishedStore chunks) never relocates.
/// Loops until no work is left, then clears Scheduled and exits — the
/// capture consumer re-submits when it commits more.
void AnalysisSession::Impl::drainVarShard(VarShardState &VS, uint32_t S) {
  VarShard &Sh = *VS.Shards[S];
  const AccessLog &Log = *VS.Log;
  const ClockBroadcast &Broadcast = Log.clocks();
  for (;;) {
    uint64_t From, End;
    {
      std::lock_guard<std::mutex> G(VS.LogM);
      if (Sh.Claimed == Sh.WorkList.size()) {
        Sh.Scheduled = false;
        return;
      }
      From = Sh.Claimed;
      End = std::min(Sh.WorkList.size(), From + DrainBatch);
      Sh.Claimed = End;
    }
    std::string Err;
    double Seconds = 0;
    int64_t SpanStart = Rec ? Rec->nowUs() : 0;
    {
      std::lock_guard<std::mutex> G(Sh.SM);
      guardedTask(Err, [&] {
        Timer Clock;
        for (uint64_t K = From; K != End; ++K) {
          const DeferredAccess &A = Log.access(Sh.WorkList[K]);
          Sh.Checker->replay(A, VarId(VS.Plan.localIdOf(A.Var)),
                             Broadcast.snapshot(A.Clock),
                             A.Hard == DeferredAccess::NoClock
                                 ? nullptr
                                 : &Broadcast.snapshot(A.Hard));
        }
        Seconds = Clock.seconds();
      });
    }
    VS.Rt->DrainBatches.add();
    VS.Rt->DrainNs.add(toNs(Seconds));
    if (Rec)
      Rec->span(Rec->currentThreadTrack(), "drain:s" + std::to_string(S),
                SpanStart, Rec->nowUs() - SpanStart);
    {
      std::lock_guard<std::mutex> G(VS.LogM);
      Sh.Completed = End;
      Sh.Seconds += Seconds;
      if (!Err.empty() && Sh.Error.empty())
        Sh.Error = std::move(Err);
      VS.DrainCV.notify_all();
    }
  }
}

/// Attaches capture to a var-sharded lane's freshly built detector, once
/// per session, from buildLane() in start(): the log, the broadcast table
/// and the shard checkers are all growable, so the tables at start only
/// size them. A detector without capture support leaves \p VS untouched
/// (Capturing stays false) — that lane then walks exactly like a
/// Sequential one.
void AnalysisSession::Impl::attachCapture(VarShardState &VS) {
  LaneRuntime &Rt = *VS.Rt;
  const uint32_t HintThreads = Live->numThreads();
  const uint32_t HintVars = Live->numVars();
  auto Log = std::make_unique<AccessLog>(HintThreads);
  if (!Rt.D->beginCapture(*Log))
    return;
  const ShardReplay Replay = Rt.D->shardReplay();
  const ShardContext *Ctx = Rt.D->shardContext(); // Outlives the drains.
  for (uint32_t S = 0; S != VS.Plan.NumShards; ++S)
    VS.Shards[S]->Checker = std::make_unique<ShardChecker>(
        Replay, VS.Plan.numLocalVars(S, HintVars), HintThreads, Ctx);
  VS.LogHolder = std::move(Log);
  VS.Log = VS.LogHolder.get();
  VS.Capturing = true;
}

/// Publishes a capture chunk to the drains: commits the captured prefix
/// outside LogM (AccessLog::commit — writer-side watermark stores), then
/// partitions the committed range into per-shard work lists under LogM —
/// the order drains rely on: every WorkList entry indexes a committed
/// access — and submits a drain for every shard that gained work. Runs on
/// the lane's consumer, VS.Log's only writer, so it reads VS.Log without
/// LogM.
void AnalysisSession::Impl::partitionCaptured(VarShardState &VS,
                                              uint64_t Consumed) {
  AccessLog &Log = *VS.Log;
  const uint64_t CommittedNow = Log.commit();
  {
    std::lock_guard<std::mutex> LG(VS.LogM);
    VS.CapturedEvents = Consumed;
    VS.Rt->CapturedAccesses.set(Log.numAccesses());
    VS.Rt->BroadcastClocks.set(Log.clocks().numSnapshots());
    for (uint64_t I = VS.Partitioned; I != CommittedNow; ++I) {
      uint32_t S = VS.Plan.shardOf(Log.access(I).Var);
      VarShard &Sh = *VS.Shards[S];
      Sh.WorkList.append(static_cast<uint32_t>(I));
      if (!Sh.Scheduled) {
        Sh.Scheduled = true;
        VS.ToSchedule.push_back(S);
      }
    }
    VS.Partitioned = CommittedNow;
  }
  scheduleDrains(VS);
}

/// The end of a capturing lane, once its clock pass walked the whole
/// published trace: finish the detector, drain every shard, and merge the
/// findings in trace order — the only step deferred to finish().
void AnalysisSession::Impl::finishCapture(VarShardState &VS) {
  LaneRuntime &Rt = *VS.Rt;
  const uint32_t NumShards = static_cast<uint32_t>(VS.Shards.size());
  {
    std::lock_guard<std::mutex> G(Rt.SnapM);
    Timer Clock;
    Rt.D->finish();
    Rt.Seconds += Clock.seconds();
  }
  {
    // Every chunk's partitionCaptured already handed its accesses to a
    // drain (a drain only retires once its work list is empty, under
    // LogM), so waiting is all that is left.
    std::unique_lock<std::mutex> G(VS.LogM);
    VS.DrainCV.wait(G, [&] {
      for (auto &Sh : VS.Shards)
        if (Sh->Completed != Sh->WorkList.size())
          return false;
      return true;
    });
  }
  // The deterministic trace-order merge. Everything is quiescent now
  // (drains exited, no more publication), but the locks are cheap and
  // keep the invariants simple.
  std::string Err;
  std::vector<std::vector<RaceInstance>> PerShard(NumShards);
  double ShardSeconds = 0;
  for (uint32_t S = 0; S != NumShards; ++S) {
    VarShard &Sh = *VS.Shards[S];
    {
      std::lock_guard<std::mutex> G(VS.LogM);
      if (!Sh.Error.empty() && Err.empty())
        Err = "var shard " + std::to_string(S) + ": " + Sh.Error;
      ShardSeconds += Sh.Seconds;
    }
    std::lock_guard<std::mutex> SG(Sh.SM);
    PerShard[S] = std::move(Sh.Checker->findings());
  }
  RaceReport Merged = mergeInTraceOrder(PerShard);
  std::lock_guard<std::mutex> G(Rt.SnapM);
  Rt.Seconds += ShardSeconds;
  if (!Err.empty())
    Rt.LaneStatus = Status(StatusCode::AnalysisError, std::move(Err));
  else
    Rt.Final = std::move(Merged);
  Rt.Done = true;
}

// ---- Session lifecycle ------------------------------------------------------

/// Registers the session's instruments and timeline tracks and caches the
/// handles in Impl / the lane runtimes. One call, before any consumer
/// starts; a disabled registry makes every handle null (the zero-cost
/// path), so instrumented code never re-checks the config.
void AnalysisSession::Impl::registerObservability() {
  Reg = std::make_unique<MetricsRegistry>(Cfg.Metrics);
  if (Cfg.Timeline)
    Rec = std::make_unique<TraceRecorder>();
  MetricsScope Root(Reg.get(), "");
  IngestParseNs = Root.counter("ingest.parse_ns");
  IngestLockWaitNs = Root.counter("ingest.lock_wait_ns");
  IngestValidateNs = Root.counter("ingest.validate_ns");
  PublishBatches = Root.counter("publish.batches");
  PublishBatchPeak = Root.highWater("publish.batch_events_peak");
  PublishedGauge = Root.gauge("publish.events");
  if (Cfg.Mode == RunMode::Windowed) {
    ConsumerParkNs = Root.counter("consume.park_ns");
    WindowsDispatched = Root.counter("window.dispatched");
    WindowsRetired = Root.gauge("window.retired");
  }
  if (Rec) {
    IngestTrack = Rec->track("ingest");
    if (Cfg.Mode == RunMode::Windowed)
      BuilderTrack = Rec->track("window-builder");
  }
  for (size_t L = 0; L != Lanes.size(); ++L) {
    LaneRuntime &Rt = *Lanes[L];
    MetricsScope S(Reg.get(), "lane." + std::to_string(L) + ".");
    Rt.ConsumeNs = S.counter("consume_ns");
    Rt.ParkNs = S.counter("park_ns");
    Rt.Batches = S.counter("batches");
    Rt.BatchEventsPeak = S.highWater("batch_events_peak");
    Rt.LagEventsPeak = S.highWater("lag_events_peak");
    if (Cfg.Mode != RunMode::Windowed)
      Rt.FirstConsumeDelayNs = S.gauge("first_consume_delay_ns");
    if (Cfg.Mode == RunMode::Windowed) {
      Rt.WindowsChecked = S.counter("windows_checked");
      Rt.WindowCheckNs = S.counter("window_check_ns");
    }
    if (Cfg.Mode == RunMode::VarSharded) {
      Rt.DrainNs = S.counter("drain_ns");
      Rt.DrainBatches = S.counter("drain_batches");
      Rt.CapturedAccesses = S.gauge("captured_accesses");
      Rt.BroadcastClocks = S.gauge("broadcast_clocks");
    }
    // Lanes with equal labels share a timeline track; fine — their spans
    // are distinguishable by time, and label collisions are rare.
    if (Rec)
      Rt.Track = Rec->track("lane:" + Rt.Fallback);
  }
}

/// Validates the config, builds the lanes — every detector, and the
/// windowed builder's epoch and splitter — and launches the consumers. An
/// \p Adopted trace is published before any consumer starts, so the
/// consumers find the whole trace at their first watermark load; a
/// streaming session builds against empty tables, which grow in place.
void AnalysisSession::Impl::start(const Trace *Adopted) {
  SessionStatus = Cfg.validate();
  if (!SessionStatus.ok()) {
    Reg = std::make_unique<MetricsRegistry>(false); // Keep Reg non-null.
    return;
  }
  Lanes.reserve(Cfg.Detectors.size());
  for (const DetectorSpec &S : Cfg.Detectors) {
    auto Rt = std::make_unique<LaneRuntime>();
    Rt->Label = S.Name;
    Rt->Fallback = S.Name.empty() ? detectorKindName(S.Kind) : S.Name;
    Rt->Make =
        S.Kind == DetectorKind::Custom ? S.Make : makeDetectorFactory(S.Kind);
    Lanes.push_back(std::move(Rt));
  }
  registerObservability();
  if (Adopted)
    adoptTrace(*Adopted);
  switch (Cfg.Mode) {
  case RunMode::Sequential:
    for (auto &Rt : Lanes)
      buildLane(*Rt, nullptr);
    for (auto &Rt : Lanes)
      Consumers.emplace_back([this, R = Rt.get()] {
        laneConsumer(*R, nullptr);
      });
    break;
  case RunMode::Windowed:
    Pool = std::make_unique<ThreadPool>(Cfg.Threads);
    Pool->attachTelemetry(MetricsScope(Reg.get(), "pool."), Rec.get());
    WinEpoch = std::make_shared<WindowEpoch>();
    Splitter =
        std::make_unique<IncrementalWindowSplitter>(*Live, Cfg.WindowEvents);
    Consumers.emplace_back([this] { windowedConsumer(); });
    break;
  case RunMode::VarSharded:
    Pool = std::make_unique<ThreadPool>(Cfg.Threads);
    Pool->attachTelemetry(MetricsScope(Reg.get(), "pool."), Rec.get());
    VarStates.reserve(Lanes.size());
    for (size_t L = 0; L != Lanes.size(); ++L) {
      auto VS = std::make_unique<VarShardState>();
      VS->Rt = Lanes[L].get();
      VS->Plan = ShardPlan(std::max<uint32_t>(Cfg.VarShards, 1));
      for (uint32_t S = 0; S != VS->Plan.NumShards; ++S)
        VS->Shards.push_back(std::make_unique<VarShard>());
      buildLane(*VS->Rt, VS.get());
      VarStates.push_back(std::move(VS));
    }
    for (size_t L = 0; L != Lanes.size(); ++L)
      Consumers.emplace_back(
          [this, R = Lanes[L].get(), V = VarStates[L].get()] {
            laneConsumer(*R, V);
          });
    break;
  }
  NumConsumers = static_cast<unsigned>(Consumers.size());
}

void AnalysisSession::Impl::stopConsumers() {
  // seq_cst store, then wake: the store's Dekker handshake — a consumer
  // that registered as a sleeper before this store is woken; one that
  // registers after it sees the flag in its wait predicate.
  IngestDone.store(true, std::memory_order_seq_cst);
  Store.wakeAll();
  for (std::thread &T : Consumers)
    T.join();
  Consumers.clear();
  if (Pool)
    Pool->wait(); // In-flight stragglers, if any.
}

/// Common precondition of every ingest call.
Status AnalysisSession::Impl::ingestGate() {
  if (!SessionStatus.ok())
    return SessionStatus;
  if (Finished)
    return Status(StatusCode::InvalidState,
                  "session is finished; feeds are no longer accepted");
  return Status::success();
}

/// Validates events [Validated, Live->size()) in trace order; stops at
/// the first violation, which sticks in SessionStatus. Returns true while
/// clean. Producer only; takes M just to record a violation.
bool AnalysisSession::Impl::validateNew() {
  uint64_t T0 = IngestValidateNs.enabled() ? obsNowNs() : 0;
  bool Clean = validateNewInner();
  if (T0)
    IngestValidateNs.add(obsNowNs() - T0);
  return Clean;
}

bool AnalysisSession::Impl::validateNewInner() {
  const std::vector<Event> &Events = Live->events();
  while (Validated < Events.size()) {
    Validator.feed(Events[Validated], Validated, *Live);
    if (!Validator.ok()) {
      const TraceViolation &V = Validator.result().Violations.front();
      std::lock_guard<std::mutex> Lk(M);
      SessionStatus =
          Status(StatusCode::ValidationError,
                 "event " + std::to_string(V.Index) + ": " + V.Message +
                     " (events up to " + std::to_string(Validated) +
                     " were analyzed)");
      return false;
    }
    ++Validated;
  }
  return true;
}

/// Advances the published prefix to the validated one: mirrors the newly
/// validated events into the store (stable storage, one copy made on the
/// ingest side), then publishes them with a single watermark store —
/// which is also what wakes parked consumers. Producer only, no lock (the
/// store is SPMC); its appended count always equals its watermark between
/// calls.
void AnalysisSession::Impl::publishNew() {
  uint64_t Prev = Store.size();
  if (Validated == Prev)
    return;
  const std::vector<Event> &Events = Live->events();
  for (uint64_t I = Prev; I != Validated; ++I)
    Store.append(Events[I]);
  if (Prev == 0 && PublishedGauge.enabled())
    FirstPublishNs = obsNowNs();
  Store.publish(Validated);
  PublishBatches.add();
  PublishBatchPeak.observe(Validated - Prev);
  PublishedGauge.set(Validated);
  if (Rec)
    Rec->counter("published", Rec->nowUs(), Validated);
}

/// Producer-side ingest timing, read by partialResult() under M.
void AnalysisSession::Impl::addIngestSeconds(double Seconds) {
  std::lock_guard<std::mutex> Lk(M);
  IngestSeconds += Seconds;
}

/// analyzeTrace's ingestion: \p T becomes the live trace and the store
/// adopts its event vector as the fully published prefix — no event is
/// copied and none is validated (batch callers validate themselves). Runs
/// in start() before any consumer exists, so no lock is needed.
void AnalysisSession::Impl::adoptTrace(const Trace &T) {
  Live = &T;
  Ingested = true;
  Validated = T.size();
  Fed.store(T.size(), std::memory_order_release);
  if (PublishedGauge.enabled())
    FirstPublishNs = obsNowNs();
  Store.adopt(T.events().data(), T.size());
  PublishBatches.add();
  PublishBatchPeak.observe(T.size());
  PublishedGauge.set(T.size());
}

/// Mid-stream view of a windowed lane: the longest prefix of consecutive
/// retired windows, merged in window order — never a torn merge, because
/// a window either contributes whole or not at all.
void AnalysisSession::Impl::snapshotWindowedLane(size_t L, LaneReport &Lane) {
  WindowEpoch &Ep = *WinEpoch;
  std::lock_guard<std::mutex> G(Ep.EM);
  std::string Base;
  for (const std::unique_ptr<WindowEntry> &W : Ep.Windows) {
    const WindowSlot &S = W->Slots[L];
    if (!S.Done)
      break;
    if (Base.empty())
      Base = S.Name;
    if (!S.Error.empty()) {
      Lane.LaneStatus = Status(StatusCode::AnalysisError, S.Error);
      break;
    }
    Lane.Report.mergeFrom(S.Report);
    Lane.Seconds += S.Seconds;
    Lane.EventsConsumed = W->EndIdx;
  }
  if (!Base.empty())
    Lane.DetectorName =
        Base + "[w=" + std::to_string(Cfg.WindowEvents) + "]";
}

/// Mid-stream view of a streamed var-sharded lane: merges every finding
/// whose later event lies below the *fully checked* frontier — the
/// smallest trace index any shard has yet to replay past — so the report
/// is exactly the sequential detector's over that prefix (no torn
/// merges).
void AnalysisSession::Impl::snapshotVarShardLane(VarShardState &VS,
                                                 LaneReport &Lane) {
  uint64_t Bound = 0;
  double ShardSeconds = 0;
  {
    std::lock_guard<std::mutex> G(VS.LogM);
    if (!VS.Capturing) {
      // Fallback lane: the live detector report (snapshotLanes already
      // copied it under SnapM).
      return;
    }
    Bound = VS.CapturedEvents;
    for (const std::unique_ptr<VarShard> &Sh : VS.Shards) {
      ShardSeconds += Sh->Seconds;
      if (Sh->Completed != Sh->WorkList.size())
        Bound = std::min(
            Bound, VS.Log->access(Sh->WorkList[Sh->Completed]).Idx);
    }
  }
  std::vector<std::vector<RaceInstance>> PerShard(VS.Shards.size());
  for (size_t S = 0; S != VS.Shards.size(); ++S) {
    VarShard &Sh = *VS.Shards[S];
    std::lock_guard<std::mutex> G(Sh.SM);
    for (const RaceInstance &Inst : Sh.Checker->findings()) {
      if (Inst.LaterIdx >= Bound)
        break; // Findings are ascending in LaterIdx within a shard.
      PerShard[S].push_back(Inst);
    }
  }
  Lane.Report = mergeInTraceOrder(PerShard);
  Lane.Seconds += ShardSeconds;
}

AnalysisResult AnalysisSession::Impl::snapshotLanes(bool Partial) {
  AnalysisResult R;
  R.Partial = Partial;
  R.Streamed = true;
  const bool Metrics = Reg && Reg->enabled();
  R.Lanes.reserve(Lanes.size());
  for (size_t L = 0; L != Lanes.size(); ++L) {
    LaneRuntime &Rt = *Lanes[L];
    LaneReport Lane;
    bool Done;
    std::vector<MetricSample> DetectorTel;
    {
      std::lock_guard<std::mutex> G(Rt.SnapM);
      Lane.DetectorName = Rt.Name.empty() ? Rt.Fallback : Rt.Name;
      Lane.LaneStatus = Rt.LaneStatus;
      Lane.Seconds = Rt.Seconds;
      Lane.EventsConsumed = Rt.Consumed.load(std::memory_order_relaxed);
      Done = Rt.Done;
      if (Done)
        Lane.Report = Rt.Final;
      else if (Rt.D)
        Lane.Report = Rt.D->report(); // Mid-stream copy: races so far.
      if (Metrics && Rt.D)
        Rt.D->telemetry(DetectorTel);
    }
    if (!Done && Cfg.Mode == RunMode::Windowed) {
      Lane.Seconds = 0;
      Lane.EventsConsumed = 0;
      snapshotWindowedLane(L, Lane);
    } else if (!Done && Cfg.Mode == RunMode::VarSharded) {
      snapshotVarShardLane(*VarStates[L], Lane);
    }
    if (Metrics) {
      Lane.Telemetry =
          Reg->snapshotPrefix("lane." + std::to_string(L) + ".");
      Lane.Telemetry.insert(Lane.Telemetry.end(),
                            std::make_move_iterator(DetectorTel.begin()),
                            std::make_move_iterator(DetectorTel.end()));
      std::sort(Lane.Telemetry.begin(), Lane.Telemetry.end(),
                [](const MetricSample &A, const MetricSample &B) {
                  return A.Name < B.Name;
                });
    }
    R.Lanes.push_back(std::move(Lane));
  }
  if (Metrics) {
    // Session-level block: everything that is not a lane.<i>.* metric
    // (ingest/publish/pool/window/consume scopes).
    R.Telemetry = Reg->snapshot();
    R.Telemetry.erase(
        std::remove_if(R.Telemetry.begin(), R.Telemetry.end(),
                       [](const MetricSample &S) {
                         return S.Name.rfind("lane.", 0) == 0;
                       }),
        R.Telemetry.end());
  }
  return R;
}

// ---- Public surface ---------------------------------------------------------

AnalysisSession::AnalysisSession(AnalysisConfig Config)
    : I(std::make_unique<Impl>()) {
  I->Cfg = std::move(Config);
  I->start(nullptr);
}

AnalysisSession::AnalysisSession(AnalysisConfig Config, const Trace &Adopted)
    : I(std::make_unique<Impl>()) {
  I->Cfg = std::move(Config);
  I->start(&Adopted);
}

AnalysisResult rapid::analyzeTrace(const AnalysisConfig &Config,
                                   const Trace &T) {
  AnalysisSession S(Config, T);
  AnalysisResult R = S.finish();
  R.Streamed = false; // The whole trace was published before any lane ran.
  return R;
}

AnalysisSession::~AnalysisSession() {
  if (I)
    I->stopConsumers();
}

const AnalysisConfig &AnalysisSession::config() const { return I->Cfg; }
const Status &AnalysisSession::status() const { return I->SessionStatus; }

ThreadId AnalysisSession::declareThread(std::string_view Name) {
  std::lock_guard<std::mutex> Lk(I->M);
  I->Ingested = true;
  return ThreadId(I->Owned.threadTable().intern(Name));
}
LockId AnalysisSession::declareLock(std::string_view Name) {
  std::lock_guard<std::mutex> Lk(I->M);
  I->Ingested = true;
  return LockId(I->Owned.lockTable().intern(Name));
}
VarId AnalysisSession::declareVar(std::string_view Name) {
  std::lock_guard<std::mutex> Lk(I->M);
  I->Ingested = true;
  return VarId(I->Owned.varTable().intern(Name));
}
LocId AnalysisSession::declareLoc(std::string_view Name) {
  std::lock_guard<std::mutex> Lk(I->M);
  I->Ingested = true;
  return LocId(I->Owned.locTable().intern(Name));
}

Status AnalysisSession::declareTablesFrom(const Trace &T) {
  if (Status G = I->ingestGate(); !G.ok())
    return G;
  std::lock_guard<std::mutex> Lk(I->M);
  if (I->Ingested || I->Owned.size() != 0)
    return Status(StatusCode::InvalidState,
                  "declareTablesFrom requires an empty session");
  I->Owned.adoptTables(T);
  I->Ingested = true;
  return Status::success();
}

Status AnalysisSession::feed(const Event &E) {
  return feed(std::vector<Event>{E});
}

Status AnalysisSession::feed(const std::vector<Event> &Batch) {
  if (Status G = I->ingestGate(); !G.ok())
    return G;
  Timer Ingest;
  int64_t SpanStart = I->Rec ? I->Rec->nowUs() : 0;
  {
    std::unique_lock<std::mutex> Lk(I->M, std::defer_lock);
    lockCharged(Lk, I->IngestLockWaitNs);
    I->Ingested = true;
    for (size_t K = 0; K != Batch.size(); ++K) {
      if (!I->Owned.containsIds(Batch[K]))
        return Status(StatusCode::ValidationError,
                      "event " + std::to_string(K) +
                          " references undeclared ids; declare names (or "
                          "declareTablesFrom) before feeding");
    }
  }
  for (const Event &E : Batch)
    I->Owned.append(E);
  I->Fed.store(I->Owned.size(), std::memory_order_release);
  bool Clean = I->validateNew();
  I->publishNew(); // The watermark store doubles as the wake.
  I->addIngestSeconds(Ingest.seconds());
  if (!Clean)
    return I->SessionStatus;
  if (I->Rec)
    I->Rec->span(I->IngestTrack, "feed", SpanStart,
                 I->Rec->nowUs() - SpanStart);
  return Status::success();
}

Status AnalysisSession::feedFile(const std::string &Path) {
  if (Status G = I->ingestGate(); !G.ok())
    return G;
  {
    std::lock_guard<std::mutex> Lk(I->M);
    if (I->Ingested || I->Owned.size() != 0)
      return Status(StatusCode::InvalidState,
                    "feedFile requires an empty session (one file per "
                    "session; it adopts the file's id tables)");
    I->Ingested = true;
  }
  Timer Ingest;
  ChunkedTraceReader Reader(Path);
  // The reader's internal trace becomes the live published trace while
  // the loop runs. The loop takes no lock: this thread is the trace's
  // only writer, and lanes read only the published store. Every validated
  // chunk publishes immediately — for text inputs too, whose id tables
  // intern lazily as lines parse; the lanes' growable detector state
  // admits later-interned ids in place, so analysis overlaps ingestion
  // for both formats and no lane ever restarts.
  I->Live = &Reader.current();
  bool Poisoned = false;
  while (!Reader.done() && !Poisoned) {
    int64_t SpanStart = I->Rec ? I->Rec->nowUs() : 0;
    uint64_t P0 = I->IngestParseNs.enabled() ? obsNowNs() : 0;
    Reader.nextChunk();
    if (P0)
      I->IngestParseNs.add(obsNowNs() - P0);
    I->Fed.store(Reader.current().size(), std::memory_order_release);
    if (Reader.ok()) {
      // Only the §2.1-validated prefix may reach live lanes; a
      // violation freezes publication (and ingestion) right here.
      Poisoned = !I->validateNew();
      I->publishNew(); // No-op when nothing new validated.
    }
    if (I->Rec)
      I->Rec->span(I->IngestTrack, "chunk", SpanStart,
                   I->Rec->nowUs() - SpanStart);
  }
  // Move the trace into the session before the reader dies. On success
  // everything validated publishes (covers the text path); on failure the
  // already published prefix stays analyzable and the first error sticks.
  Status ReadStatus = Reader.status();
  {
    std::lock_guard<std::mutex> Lk(I->M);
    I->Owned = Reader.take();
  }
  I->Live = &I->Owned;
  if (!Poisoned)
    I->validateNew();
  {
    std::lock_guard<std::mutex> Lk(I->M);
    if (I->SessionStatus.ok() && !ReadStatus.ok())
      I->SessionStatus = ReadStatus;
  }
  I->publishNew();
  I->addIngestSeconds(Ingest.seconds());
  return I->SessionStatus;
}

uint64_t AnalysisSession::eventsFed() const {
  return I->Fed.load(std::memory_order_acquire);
}

bool AnalysisSession::finished() const {
  std::lock_guard<std::mutex> Lk(I->M);
  return I->Finished;
}

AnalysisSession::Progress AnalysisSession::progress() const {
  Progress P;
  // Watermark first: it is monotone and lanes never pass it, so the
  // min-consumed read below can only be <= this snapshot.
  P.Published = I->Store.published();
  P.Fed = I->Fed.load(std::memory_order_acquire);
  // A failed lane has stopped for good; it holds nobody back. (Windowed
  // lanes share the builder's watermark; a builder failure fails them all.)
  uint64_t Min = P.Published;
  for (auto &Rt : I->Lanes) {
    if (Rt->Failed.load(std::memory_order_acquire))
      continue;
    Min = std::min(Min, I->Cfg.Mode == RunMode::Windowed
                            ? I->WinBuilt.load(std::memory_order_relaxed)
                            : Rt->Consumed.load(std::memory_order_acquire));
  }
  P.MinLaneConsumed = Min;
  return P;
}

AnalysisResult AnalysisSession::partialResult() {
  {
    std::lock_guard<std::mutex> Lk(I->M);
    if (I->Finished) {
      AnalysisResult R;
      R.Overall = Status(StatusCode::InvalidState,
                         "session is finished; partialResult is only "
                         "available mid-stream");
      return R;
    }
  }
  AnalysisResult R = I->snapshotLanes(/*Partial=*/true);
  // Read the published watermark *after* the lane snapshots: the
  // watermark is monotone and consumers never pass it, so every lane's
  // EventsConsumed (and every reported race index) stays within
  // EventsIngested in one snapshot.
  R.EventsIngested = I->Store.published();
  {
    // Session status and ingest timing are producer-written under M —
    // partialResult may run concurrently with the producer thread.
    std::lock_guard<std::mutex> Lk(I->M);
    R.Overall = I->SessionStatus;
    R.IngestSeconds = I->IngestSeconds;
  }
  R.ThreadsUsed = std::max(I->NumConsumers, 1u) +
                  (I->Pool ? I->Pool->numThreads() : 0);
  R.WallSeconds = I->Wall.seconds();
  if (I->Cfg.Mode == RunMode::VarSharded)
    R.VarShards = I->Cfg.VarShards;
  return R;
}

AnalysisResult AnalysisSession::finish() {
  {
    std::lock_guard<std::mutex> Lk(I->M);
    if (I->Finished) {
      AnalysisResult R;
      R.Overall = Status(StatusCode::InvalidState, "finish() already called");
      return R;
    }
    I->Finished = true;
  }
  I->stopConsumers();

  AnalysisResult R = I->snapshotLanes(/*Partial=*/false);
  switch (I->Cfg.Mode) {
  case RunMode::Sequential:
    R.ThreadsUsed = std::max(I->NumConsumers, 1u);
    break;
  case RunMode::Windowed:
    // NumShards is the window count and ThreadsUsed the pool width. No pool exists when the config failed
    // validation (start() bailed before creating one).
    R.NumShards = I->FinalNumWindows;
    if (I->Pool) {
      R.ThreadsUsed = I->Pool->numThreads();
      R.TasksStolen = I->Pool->tasksStolen();
    }
    break;
  case RunMode::VarSharded:
    R.NumShards = 1;
    R.VarShards = I->Cfg.VarShards;
    if (I->Pool) {
      R.ThreadsUsed = I->Pool->numThreads();
      R.TasksStolen = I->Pool->tasksStolen();
    }
    break;
  }
  R.Overall = I->SessionStatus;
  R.EventsIngested = I->Store.published();
  R.WallSeconds = I->Wall.seconds();
  R.IngestSeconds = I->IngestSeconds;
  return R;
}

const Trace &AnalysisSession::trace() const { return *I->Live; }

std::string AnalysisSession::exportTimeline() const {
  return I->Rec ? I->Rec->exportJson() : std::string();
}
