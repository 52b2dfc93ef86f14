//===- bench/bench_detectors.cpp - Detector throughput (E5) -------------------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
// Columns 12-13 of Table 1: WCP analysis time is comparable to HB's. This
// bench measures events/second for every streaming detector in the repo
// on the same workload trace — HB (Djit+-style), FastTrack (the epoch
// optimization the paper's conclusion proposes), WCP (Algorithm 1) and
// Eraser (the unsound-but-fast lockset baseline of §1's taxonomy).
// HB, WCP and SyncP also run on eclipse (14 threads, 8263 locks, scale
// 0.25): lock-heavy traces with wide clocks are where WCP's per-lock
// queues and release cells, and SyncP's per-thread ideals over thousands
// of locks, cost the most relative to HB.
//
//===----------------------------------------------------------------------===//

#include "detect/DetectorRunner.h"
#include "gen/Workloads.h"
#include "hb/FastTrackDetector.h"
#include "hb/HbDetector.h"
#include "lockset/EraserDetector.h"
#include "syncp/SyncPDetector.h"
#include "wcp/WcpDetector.h"

#include <benchmark/benchmark.h>

using namespace rapid;

namespace {

const Trace &workloadTrace() {
  static Trace T = makeWorkload(workloadSpec("moldyn"), 1.0);
  return T;
}

const Trace &eclipseTrace() {
  static Trace T = makeWorkload(workloadSpec("eclipse"), 0.25);
  return T;
}

template <typename D>
void detectorThroughput(benchmark::State &State,
                        const Trace &T = workloadTrace()) {
  for (auto _ : State) {
    D Detector(T);
    for (EventIdx I = 0; I != T.size(); ++I)
      Detector.processEvent(T.event(I), I);
    benchmark::DoNotOptimize(Detector.report().numDistinctPairs());
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(T.size()));
}

void Hb(benchmark::State &S) { detectorThroughput<HbDetector>(S); }
void FastTrack(benchmark::State &S) {
  detectorThroughput<FastTrackDetector>(S);
}
void Wcp(benchmark::State &S) { detectorThroughput<WcpDetector>(S); }
void Eraser(benchmark::State &S) { detectorThroughput<EraserDetector>(S); }
void HbEclipse(benchmark::State &S) {
  detectorThroughput<HbDetector>(S, eclipseTrace());
}
void WcpEclipse(benchmark::State &S) {
  detectorThroughput<WcpDetector>(S, eclipseTrace());
}
void SyncPEclipse(benchmark::State &S) {
  detectorThroughput<SyncPDetector>(S, eclipseTrace());
}

BENCHMARK(Hb);
BENCHMARK(FastTrack);
BENCHMARK(Wcp);
BENCHMARK(Eraser);
BENCHMARK(HbEclipse);
BENCHMARK(WcpEclipse);
BENCHMARK(SyncPEclipse);

} // namespace

BENCHMARK_MAIN();
