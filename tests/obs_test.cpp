//===- tests/obs_test.cpp - Observability layer: metrics + timelines ----------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
// Pins the obs/ layer's contract:
//
//   1. instrument semantics — Counter adds, Gauge last-write-wins (plus
//      add/sub), HighWater retains the maximum; registration dedups by
//      name so racing scopes share one slot;
//   2. zero-cost disable — a disabled registry hands out null handles
//      whose updates are no-ops, and snapshots stay empty;
//   3. snapshot safety — snapshot() may run concurrently with updaters
//      (each value is one relaxed load; counters never appear to go
//      backwards across snapshots);
//   4. recorder basics — track interning, thread binding, span/counter
//      emission, and the trace_event JSON envelope;
//   5. end-to-end under load — a streaming session's partialResult() and
//      exportTimeline() are safe to call while the producer is still
//      feeding (the TSan target of this file), and the final result
//      carries the session and per-lane telemetry the catalog promises.
//
//===----------------------------------------------------------------------===//

#include "api/AnalysisSession.h"
#include "gen/RandomTraceGen.h"
#include "obs/Metrics.h"
#include "obs/TraceRecorder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

using namespace rapid;

namespace {

const MetricSample *findSample(const std::vector<MetricSample> &Samples,
                               const std::string &Name) {
  for (const MetricSample &S : Samples)
    if (S.Name == Name)
      return &S;
  return nullptr;
}

// ---- Instrument semantics ----------------------------------------------------

TEST(MetricsTest, CounterGaugeHighWaterSemantics) {
  MetricsRegistry Reg;
  Counter C = Reg.counter("c");
  Gauge G = Reg.gauge("g");
  HighWater H = Reg.highWater("h");
  ASSERT_TRUE(C.enabled());
  ASSERT_TRUE(G.enabled());
  ASSERT_TRUE(H.enabled());

  C.add();
  C.add(41);
  G.set(100);
  G.add(5);
  G.sub(2);
  H.observe(7);
  H.observe(3); // Lower: must not regress the retained max.
  H.observe(9);

  std::vector<MetricSample> S = Reg.snapshot();
  ASSERT_EQ(S.size(), 3u);
  // snapshot() sorts by name: c, g, h.
  EXPECT_EQ(S[0].Name, "c");
  EXPECT_EQ(S[0].Kind, MetricKind::Counter);
  EXPECT_EQ(S[0].Value, 42u);
  EXPECT_EQ(S[1].Name, "g");
  EXPECT_EQ(S[1].Kind, MetricKind::Gauge);
  EXPECT_EQ(S[1].Value, 103u);
  EXPECT_EQ(S[2].Name, "h");
  EXPECT_EQ(S[2].Kind, MetricKind::HighWater);
  EXPECT_EQ(S[2].Value, 9u);
}

TEST(MetricsTest, RegistrationDedupsByName) {
  MetricsRegistry Reg;
  Counter A = Reg.counter("shared");
  Counter B = Reg.counter("shared");
  A.add(2);
  B.add(3);
  std::vector<MetricSample> S = Reg.snapshot();
  ASSERT_EQ(S.size(), 1u);
  EXPECT_EQ(S[0].Value, 5u);
}

TEST(MetricsTest, DisabledRegistryHandsOutNullHandles) {
  MetricsRegistry Reg(false);
  EXPECT_FALSE(Reg.enabled());
  Counter C = Reg.counter("c");
  Gauge G = Reg.gauge("g");
  HighWater H = Reg.highWater("h");
  EXPECT_FALSE(C.enabled());
  EXPECT_FALSE(G.enabled());
  EXPECT_FALSE(H.enabled());
  // All no-ops; nothing registers, nothing to snapshot.
  C.add(10);
  G.set(10);
  H.observe(10);
  EXPECT_TRUE(Reg.snapshot().empty());
  EXPECT_TRUE(Reg.snapshotPrefix("c").empty());
}

TEST(MetricsTest, ScopePrefixesNestAndDefaultDisabled) {
  MetricsRegistry Reg;
  MetricsScope Lane(&Reg, "lane.0.");
  Lane.counter("batches").add(4);
  Lane.nest("wcp.").gauge("depth").set(11);

  std::vector<MetricSample> S = Reg.snapshotPrefix("lane.0.");
  ASSERT_EQ(S.size(), 2u);
  // Prefix stripped, still name-sorted.
  EXPECT_EQ(S[0].Name, "batches");
  EXPECT_EQ(S[0].Value, 4u);
  EXPECT_EQ(S[1].Name, "wcp.depth");
  EXPECT_EQ(S[1].Value, 11u);
  // Unrelated prefixes see nothing.
  EXPECT_TRUE(Reg.snapshotPrefix("lane.1.").empty());

  MetricsScope None;
  EXPECT_FALSE(None.enabled());
  EXPECT_FALSE(None.counter("x").enabled());
  EXPECT_FALSE(None.nest("y.").highWater("z").enabled());
}

// ---- Concurrent updates vs snapshots ----------------------------------------

TEST(MetricsTest, SnapshotsAreConsistentUnderConcurrentUpdaters) {
  MetricsRegistry Reg;
  constexpr int kThreads = 4;
  constexpr uint64_t kAddsPerThread = 20000;

  std::atomic<bool> Stop{false};
  std::vector<std::thread> Updaters;
  for (int T = 0; T != kThreads; ++T)
    Updaters.emplace_back([&Reg, T] {
      // Register from the worker itself: registration must be safe to
      // race with other registrations and with snapshots.
      Counter C = Reg.counter("hits");
      HighWater H = Reg.highWater("peak");
      Gauge G = Reg.gauge("last");
      for (uint64_t I = 0; I != kAddsPerThread; ++I) {
        C.add();
        H.observe(T * kAddsPerThread + I);
        G.set(I);
      }
    });

  // Snapshot continuously while the updaters hammer: counters must be
  // monotone across snapshots and every value within its legal range.
  std::thread Snapshotter([&] {
    uint64_t LastHits = 0;
    while (!Stop.load(std::memory_order_acquire)) {
      std::vector<MetricSample> S = Reg.snapshot();
      if (const MetricSample *Hits = findSample(S, "hits")) {
        EXPECT_GE(Hits->Value, LastHits);
        EXPECT_LE(Hits->Value, uint64_t(kThreads) * kAddsPerThread);
        LastHits = Hits->Value;
      }
      if (const MetricSample *Peak = findSample(S, "peak")) {
        EXPECT_LT(Peak->Value, uint64_t(kThreads) * kAddsPerThread);
      }
    }
  });

  for (std::thread &T : Updaters)
    T.join();
  Stop.store(true, std::memory_order_release);
  Snapshotter.join();

  std::vector<MetricSample> S = Reg.snapshot();
  const MetricSample *Hits = findSample(S, "hits");
  ASSERT_NE(Hits, nullptr);
  EXPECT_EQ(Hits->Value, uint64_t(kThreads) * kAddsPerThread);
  const MetricSample *Peak = findSample(S, "peak");
  ASSERT_NE(Peak, nullptr);
  EXPECT_EQ(Peak->Value, uint64_t(kThreads) * kAddsPerThread - 1);
}

// ---- TraceRecorder -----------------------------------------------------------

TEST(TraceRecorderTest, TracksInternAndThreadsBind) {
  TraceRecorder Rec;
  uint32_t A = Rec.track("lane:HB");
  uint32_t B = Rec.track("lane:WCP");
  EXPECT_NE(A, B);
  EXPECT_EQ(Rec.track("lane:HB"), A); // Interned, not duplicated.

  EXPECT_EQ(Rec.currentThreadTrack(), TraceRecorder::NoTrack);
  Rec.bindCurrentThread(B);
  EXPECT_EQ(Rec.currentThreadTrack(), B);

  // A different thread starts unbound and binding it is invisible here.
  std::thread Other([&Rec, A] {
    EXPECT_EQ(Rec.currentThreadTrack(), TraceRecorder::NoTrack);
    Rec.bindCurrentThread(A);
    EXPECT_EQ(Rec.currentThreadTrack(), A);
  });
  Other.join();
  EXPECT_EQ(Rec.currentThreadTrack(), B);
}

TEST(TraceRecorderTest, ExportsTraceEventEnvelope) {
  TraceRecorder Rec;
  uint32_t T = Rec.track("lane:HB");
  int64_t Start = Rec.nowUs();
  Rec.span(T, "consume", Start, 25);
  Rec.counter("published", Start, 128);
  // Spans against NoTrack (an unbound thread) are dropped, not emitted.
  Rec.span(TraceRecorder::NoTrack, "dropped", Start, 1);

  std::string J = Rec.exportJson();
  EXPECT_NE(J.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(J.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(J.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(J.find("\"lane:HB\""), std::string::npos);
  EXPECT_NE(J.find("\"consume\""), std::string::npos);
  EXPECT_NE(J.find("\"published\""), std::string::npos);
  EXPECT_EQ(J.find("dropped"), std::string::npos);
}

// ---- Session telemetry under concurrent snapshots ---------------------------

TEST(ObsSessionTest, PartialSnapshotsRaceIngestionSafely) {
  RandomTraceParams P;
  P.Seed = 7;
  P.NumThreads = 4;
  P.NumLocks = 3;
  P.NumVars = 6;
  P.OpsPerThread = 400;
  Trace T = randomTrace(P);

  AnalysisConfig Cfg;
  Cfg.Mode = RunMode::Sequential;
  Cfg.Threads = 2;
  Cfg.Timeline = true; // Exercise the recorder under the same race.
  Cfg.addDetector(DetectorKind::Hb);
  Cfg.addDetector(DetectorKind::Wcp);

  AnalysisSession S(Cfg);
  std::atomic<bool> Done{false};
  AnalysisResult Final;
  // Single-producer contract: declares, feeds and finish() stay on one
  // thread; partialResult()/exportTimeline() race it from the main
  // thread. Done is set on every exit path or the poll loop below spins
  // forever.
  std::thread Producer([&] {
    struct DoneGuard {
      std::atomic<bool> &Flag;
      ~DoneGuard() { Flag.store(true, std::memory_order_release); }
    } Guard{Done};
    // Push ingestion: re-declare the generated trace's tables in id
    // order so the fed events' dense ids resolve.
    for (uint32_t I = 0; I != T.numThreads(); ++I)
      S.declareThread(T.threadName(ThreadId(I)));
    for (uint32_t I = 0; I != T.numLocks(); ++I)
      S.declareLock(T.lockName(LockId(I)));
    for (uint32_t I = 0; I != T.numVars(); ++I)
      S.declareVar(T.varName(VarId(I)));
    for (uint32_t I = 0; I != T.numLocs(); ++I)
      S.declareLoc(T.locName(LocId(I)));
    const std::vector<Event> &Events = T.events();
    constexpr size_t kBatch = 64;
    for (size_t I = 0; I < Events.size(); I += kBatch) {
      size_t E = std::min(Events.size(), I + kBatch);
      std::vector<Event> Batch(Events.begin() + I, Events.begin() + E);
      ASSERT_TRUE(S.feed(Batch).ok());
    }
    Final = S.finish();
  });

  // Throttled: an unthrottled poll loop starves the producer and the
  // consumer lanes on a single-core host.
  while (!Done.load(std::memory_order_acquire)) {
    AnalysisResult Mid = S.partialResult();
    for (const LaneReport &L : Mid.Lanes)
      EXPECT_TRUE(std::is_sorted(
          L.Telemetry.begin(), L.Telemetry.end(),
          [](const MetricSample &A, const MetricSample &B) {
            return A.Name < B.Name;
          }));
    // Mid-stream timelines are valid (possibly partial) documents.
    std::string Timeline = S.exportTimeline();
    EXPECT_NE(Timeline.find("traceEvents"), std::string::npos);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  Producer.join();

  ASSERT_TRUE(Final.ok()) << Final.firstError().str();
  const MetricSample *Published =
      findSample(Final.Telemetry, "publish.events");
  ASSERT_NE(Published, nullptr);
  EXPECT_EQ(Published->Value, T.size());
  // Per-lane blocks: stream counters plus the detector's own samples
  // (WCP's queue telemetry must survive lane teardown).
  ASSERT_EQ(Final.Lanes.size(), 2u);
  for (const LaneReport &L : Final.Lanes) {
    const MetricSample *Consumed = findSample(L.Telemetry, "batches");
    ASSERT_NE(Consumed, nullptr) << L.DetectorName;
    EXPECT_GT(Consumed->Value, 0u) << L.DetectorName;
  }
  const MetricSample *WcpEvents =
      findSample(Final.Lanes[1].Telemetry, "wcp.events_processed");
  ASSERT_NE(WcpEvents, nullptr);
  EXPECT_EQ(WcpEvents->Value, T.size());

  // Disabled sessions produce empty telemetry and no timeline.
  AnalysisConfig Off = Cfg;
  Off.Metrics = false;
  Off.Timeline = false;
  AnalysisSession S2(Off);
  ASSERT_TRUE(S2.declareTablesFrom(T).ok());
  ASSERT_TRUE(S2.feed(T.events()).ok());
  AnalysisResult R2 = S2.finish();
  ASSERT_TRUE(R2.ok());
  EXPECT_TRUE(R2.Telemetry.empty());
  for (const LaneReport &L : R2.Lanes)
    EXPECT_TRUE(L.Telemetry.empty());
  EXPECT_TRUE(S2.exportTimeline().empty());
}

} // namespace
