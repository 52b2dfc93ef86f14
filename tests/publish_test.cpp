//===- tests/publish_test.cpp - Watermark publication: store + sessions -------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
// The lock-free publish path has two layers, both pinned here:
//
//   1. PublishedStore — the single-writer multi-reader chunked store the
//      session streams through: directory math across chunk boundaries,
//      watermark gating, stable element addresses, concurrent readers
//      over the published prefix, the stop handshake of waitPublished(),
//      and adoption of a caller-owned array in place (analyzeTrace's
//      zero-copy path);
//   2. the session seqlock path end to end — a producer thread feeding
//      randomized batch sizes races reader threads hammering
//      partialResult()/exportTimeline() while every lane reads the
//      prefix in place (run under TSan via RAPID_SANITIZE=thread), and
//      a 100-seed fuzz pins the in-place lane walk bit-for-bit against
//      sequential runDetector.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "api/AnalysisSession.h"
#include "gen/RandomTraceGen.h"
#include "support/PublishedStore.h"
#include "trace/TraceValidator.h"

#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <thread>
#include <vector>

using namespace rapid;
using testutil::expectSameReport;

namespace {

constexpr DetectorKind kAllKinds[] = {DetectorKind::Hb, DetectorKind::Wcp,
                                      DetectorKind::FastTrack,
                                      DetectorKind::Eraser};

AnalysisConfig allDetectorConfig(RunMode Mode) {
  AnalysisConfig Cfg;
  Cfg.Mode = Mode;
  for (DetectorKind K : kAllKinds)
    Cfg.addDetector(K);
  return Cfg;
}

RandomTraceParams fuzzParams(uint64_t Seed, bool ForkJoin) {
  RandomTraceParams P;
  P.Seed = Seed;
  P.NumThreads = 2 + Seed % 5;
  P.NumLocks = 1 + Seed % 4;
  P.NumVars = 1 + (Seed * 3) % 9;
  P.OpsPerThread = 25 + (Seed * 11) % 50;
  P.MaxLockNesting = 1 + Seed % 3;
  P.AcquirePercent = 10 + (Seed * 5) % 25;
  P.WritePercent = 30 + (Seed * 13) % 40;
  P.WithForkJoin = ForkJoin;
  return P;
}

class PublishFuzzTest : public ::testing::TestWithParam<uint64_t> {};

} // namespace

// ---- PublishedStore: directory math and watermark gating --------------------

// Enough elements to span four chunks (4096 + 8192 + 16384 + part of
// 32768): operator[] and forRange must address every element correctly
// across every chunk seam, and addresses must never move on growth.
TEST(PublishedStoreTest, ChunkMathSurvivesBoundaries) {
  PublishedStore<uint64_t> S;
  constexpr uint64_t N = 40000;
  const uint64_t *FirstElem = nullptr;
  for (uint64_t I = 0; I != N; ++I) {
    S.append(I * 3 + 1);
    if (I == 0)
      FirstElem = &S[0];
  }
  S.publish(N);
  EXPECT_EQ(S.size(), N);
  EXPECT_EQ(S.published(), N);
  // Stability: growing into later chunks never relocated chunk 0.
  EXPECT_EQ(FirstElem, &S[0]);
  // Spot-check each chunk seam; then a full sweep via forRange.
  for (uint64_t I : {uint64_t{0}, uint64_t{4095}, uint64_t{4096},
                     uint64_t{12287}, uint64_t{12288}, uint64_t{28671},
                     uint64_t{28672}, N - 1})
    EXPECT_EQ(S[I], I * 3 + 1) << "index " << I;
  uint64_t Seen = 0;
  S.forRange(0, N, [&](const uint64_t &V, uint64_t I) {
    ASSERT_EQ(V, I * 3 + 1);
    ASSERT_EQ(I, Seen);
    ++Seen;
  });
  EXPECT_EQ(Seen, N);
}

// The watermark gates visibility: size() runs ahead of published(), and a
// partial forRange sees exactly the published prefix.
TEST(PublishedStoreTest, WatermarkGatesVisibility) {
  PublishedStore<int> S;
  for (int I = 0; I != 100; ++I)
    S.append(I);
  EXPECT_EQ(S.size(), 100u);
  EXPECT_EQ(S.published(), 0u);
  S.publish(60);
  EXPECT_EQ(S.published(), 60u);
  int Sum = 0;
  S.forRange(0, S.published(), [&](int V, uint64_t) { Sum += V; });
  EXPECT_EQ(Sum, 59 * 60 / 2);
  S.publish(100);
  EXPECT_EQ(S.published(), 100u);
}

// waitPublished returns Current (and only then) when the stop predicate
// fires with nothing new; with news published it returns the watermark
// even when the stop flag is already up — including news published after
// the reader's watermark load but before it saw the flag (a producer's
// last publish racing its stop).
TEST(PublishedStoreTest, WaitPublishedStopHandshake) {
  PublishedStore<int> S;
  std::atomic<bool> Stop{true};
  auto Stopped = [&] { return Stop.load(std::memory_order_seq_cst); };
  EXPECT_EQ(S.waitPublished(0, Counter(), Stopped), 0u);
  S.append(7);
  S.publish(1);
  EXPECT_EQ(S.waitPublished(0, Counter(), Stopped), 1u);
  EXPECT_EQ(S.waitPublished(1, Counter(), Stopped), 1u);
  // The stop predicate itself runs the final publish, so it lands exactly
  // between the watermark load and the stop check.
  bool Published = false;
  auto PublishThenStop = [&] {
    if (!Published) {
      S.append(9);
      S.publish(2);
      Published = true;
    }
    return true;
  };
  EXPECT_EQ(S.waitPublished(1, Counter(), PublishThenStop), 2u)
      << "the final publish before stop was lost";
  S.append(10);
  S.publish(3);
  Stop.store(false, std::memory_order_seq_cst);
  EXPECT_EQ(S.waitPublished(2, Counter(), Stopped), 3u);
  // A parked reader must be woken by a publish from another thread.
  std::thread Writer([&] {
    S.append(8);
    S.publish(4);
  });
  EXPECT_EQ(S.waitPublished(3, Counter(), Stopped), 4u);
  Writer.join();
}

// One writer, several readers: every reader walks the full stream in
// place through waitPublished/forRange and must observe exactly the
// values the writer appended — the core seqlock-prefix guarantee the
// session consumers are built on. Run under TSan via RAPID_SANITIZE.
TEST(PublishedStoreTest, ConcurrentReadersSeeExactPrefix) {
  PublishedStore<uint64_t> S;
  constexpr uint64_t N = 30000;
  std::atomic<bool> Done{false};
  auto Stopped = [&] { return Done.load(std::memory_order_seq_cst); };

  std::vector<std::thread> Readers;
  std::atomic<uint32_t> Failures{0};
  for (int R = 0; R != 4; ++R) {
    Readers.emplace_back([&] {
      uint64_t Consumed = 0;
      for (;;) {
        const uint64_t To = S.waitPublished(Consumed, Counter(), Stopped);
        if (To == Consumed)
          break; // Stopped and fully drained.
        S.forRange(Consumed, To, [&](const uint64_t &V, uint64_t I) {
          if (V != (I ^ 0x5a5a))
            Failures.fetch_add(1, std::memory_order_relaxed);
        });
        Consumed = To;
      }
      if (Consumed != N)
        Failures.fetch_add(1, std::memory_order_relaxed);
    });
  }

  std::mt19937_64 Rng(42);
  uint64_t Appended = 0;
  while (Appended != N) {
    const uint64_t Step = std::min<uint64_t>(N - Appended, 1 + Rng() % 977);
    for (uint64_t I = 0; I != Step; ++I, ++Appended)
      S.append(Appended ^ 0x5a5a);
    S.publish(Appended);
  }
  Done.store(true, std::memory_order_seq_cst);
  S.wakeAll();
  for (std::thread &T : Readers)
    T.join();
  EXPECT_EQ(Failures.load(), 0u);
}

// Adoption: the store's directory points into the caller's vector, so
// every index — single reads and forRange sweeps across each chunk seam —
// addresses the caller's element itself, the whole array is published at
// once, and destroying the store leaves the vector intact (it never
// frees borrowed chunks). Sizes straddle the 4096-element first chunk
// and the start of the third chunk.
TEST(PublishedStoreTest, AdoptReadsCallerStorageInPlace) {
  for (uint64_t N : {uint64_t{0}, uint64_t{1}, uint64_t{4095}, uint64_t{4096},
                     uint64_t{4097}, uint64_t{3 * 4096 + 1}}) {
    std::vector<uint64_t> V(N);
    for (uint64_t I = 0; I != N; ++I)
      V[I] = I * 7 + 3;
    {
      PublishedStore<uint64_t> S;
      S.adopt(V.data(), V.size());
      EXPECT_EQ(S.published(), N);
      EXPECT_EQ(S.size(), N);
      for (uint64_t I = 0; I != N; ++I)
        ASSERT_EQ(&S[I], &V[I]) << "N=" << N << " index " << I;
      // Sweeps starting just below each chunk seam (4096, 12288) plus the
      // full range.
      for (uint64_t From : {uint64_t{0}, uint64_t{4094}, uint64_t{12286}}) {
        if (From > N)
          continue;
        uint64_t Next = From;
        S.forRange(From, N, [&](const uint64_t &E, uint64_t I) {
          ASSERT_EQ(I, Next);
          ASSERT_EQ(&E, &V[I]) << "N=" << N << " index " << I;
          ++Next;
        });
        EXPECT_EQ(Next, N) << "N=" << N << " from " << From;
      }
    }
    ASSERT_EQ(V.size(), N);
    for (uint64_t I = 0; I != N; ++I)
      ASSERT_EQ(V[I], I * 7 + 3) << "N=" << N << " index " << I;
  }
}

// ---- Session seqlock path under fire ----------------------------------------

// The tentpole stress: a producer thread pushes randomized batch sizes
// through a sequential session (every lane reads the published prefix in
// place) while the main thread hammers partialResult() and
// exportTimeline(). Every snapshot must be internally consistent —
// EventsIngested monotone, every lane within the watermark, every race
// index below the lane's consumed frontier — and the final report must
// match runDetector bit for bit. TSan (RAPID_SANITIZE=thread)
// exercises the watermark/eventcount orderings directly here.
TEST_P(PublishFuzzTest, HammeredSessionStaysConsistentAndExact) {
  const uint64_t Seed = GetParam();
  Trace T = randomTrace(fuzzParams(Seed ^ 0xbeef, Seed % 2 == 0));
  ASSERT_TRUE(validateTrace(T).ok());

  AnalysisConfig Cfg = allDetectorConfig(RunMode::Sequential);
  Cfg.StreamBatchEvents = 1 + Seed % 23; // Randomized consumer drain size.
  Cfg.Timeline = true;
  AnalysisSession S(Cfg);
  ASSERT_TRUE(S.declareTablesFrom(T).ok());

  // Producer: the session's one feeding thread, randomized push sizes.
  std::atomic<bool> Feeding{true};
  std::thread Producer([&] {
    std::mt19937_64 Rng(Seed * 2654435761u + 1);
    std::vector<Event> Batch;
    for (EventIdx I = 0; I != T.size(); ++I) {
      Batch.push_back(T.event(I));
      if (Batch.size() == 1 + Rng() % 37 || I + 1 == T.size()) {
        ASSERT_TRUE(S.feed(Batch).ok());
        Batch.clear();
      }
    }
    Feeding.store(false, std::memory_order_seq_cst);
  });

  uint64_t LastIngested = 0;
  while (Feeding.load(std::memory_order_seq_cst)) {
    AnalysisResult Mid = S.partialResult();
    ASSERT_TRUE(Mid.Partial);
    EXPECT_GE(Mid.EventsIngested, LastIngested) << "watermark regressed";
    LastIngested = Mid.EventsIngested;
    ASSERT_EQ(Mid.Lanes.size(), std::size(kAllKinds));
    for (const LaneReport &L : Mid.Lanes) {
      EXPECT_LE(L.EventsConsumed, Mid.EventsIngested)
          << "lane ahead of the published watermark";
      for (const RaceInstance &R : L.Report.instances())
        EXPECT_LT(R.LaterIdx, L.EventsConsumed)
            << "race index beyond the lane's consumed frontier";
    }
    (void)S.exportTimeline(); // Races the recorder; must stay well-formed.
  }
  Producer.join();

  AnalysisResult R = S.finish();
  ASSERT_TRUE(R.Overall.ok()) << R.Overall.str();
  EXPECT_EQ(R.EventsIngested, T.size());
  for (size_t L = 0; L != R.Lanes.size(); ++L) {
    std::unique_ptr<Detector> D = makeDetectorFactory(kAllKinds[L])(T);
    RunResult Want = runDetector(*D, T);
    EXPECT_EQ(R.Lanes[L].EventsConsumed, T.size());
    expectSameReport(R.Lanes[L].Report, Want.Report, T,
                     "hammered seed " + std::to_string(Seed) + "/" +
                         Want.DetectorName);
  }
  EXPECT_FALSE(S.exportTimeline().empty());
}

// In-place lane reads vs runDetector, bit for bit: 50 seeds x
// {no-forkjoin, forkjoin} = 100 traces through a sequential session with a
// small drain size (many watermark rounds), each lane pinned against an
// independent sequential run.
TEST_P(PublishFuzzTest, InPlaceLaneReadsMatchBatchBitForBit) {
  for (bool ForkJoin : {false, true}) {
    Trace T = randomTrace(fuzzParams(GetParam() ^ 0x7a11, ForkJoin));
    AnalysisConfig Cfg = allDetectorConfig(RunMode::Sequential);
    Cfg.StreamBatchEvents = 1 + GetParam() % 13;
    AnalysisSession S(Cfg);
    ASSERT_TRUE(S.declareTablesFrom(T).ok());
    std::mt19937_64 Rng(GetParam() ^ (ForkJoin ? 0xff : 0));
    std::vector<Event> Batch;
    for (EventIdx I = 0; I != T.size(); ++I) {
      Batch.push_back(T.event(I));
      if (Batch.size() == 1 + Rng() % 29 || I + 1 == T.size()) {
        ASSERT_TRUE(S.feed(Batch).ok());
        Batch.clear();
      }
    }
    AnalysisResult R = S.finish();
    ASSERT_TRUE(R.Overall.ok()) << R.Overall.str();
    ASSERT_EQ(R.Lanes.size(), std::size(kAllKinds));
    for (size_t L = 0; L != R.Lanes.size(); ++L) {
      std::unique_ptr<Detector> D = makeDetectorFactory(kAllKinds[L])(T);
      RunResult Want = runDetector(*D, T);
      EXPECT_EQ(R.Lanes[L].EventsConsumed, T.size());
      expectSameReport(R.Lanes[L].Report, Want.Report, T,
                       "in-place seed " + std::to_string(GetParam()) + " fj=" +
                           std::to_string(ForkJoin) + "/" +
                           Want.DetectorName);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PublishFuzzTest,
                         ::testing::Range(uint64_t{0}, uint64_t{50}));
