//===- tests/wcp_alloc_test.cpp - WCP hot-path allocation pin -----------------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
// Pins the heap traffic of WcpDetector on the lock-heavy eclipse workload
// (Table 1: 14 threads, 8263 locks) at scale 0.25, and the memory it
// retains. This binary replaces the global operator new with a counting
// one that also tracks live bytes and their high-water mark, so every
// allocation the detector makes — constructor and per-event path — is
// visible.
//
// Measured on the eclipse workload at scale 0.25 (97,138 events):
//   with per-lock clocks and deques built up front, two heap clocks per
//   critical section, per-section R/W vectors and map-keyed L^r/L^w cells:
//   construction 57,896 allocations, run 2.25 per event;
//   with lazily sized flat lock buffers, block-allocated release cells and
//   one access log per thread: construction 48, run 0.178 per event —
//   nearly all of it the two buffers each lock gets on first use — and a
//   high-water mark of 122 retained bytes per event, since every section
//   copied four full-width clocks and every release cell one;
//   with shared refcounted clock versions (records, P_ℓ/H_ℓ and release
//   cells hold handles or record indices, not clocks) and an inline cursor
//   for single-thread locks: construction 48, run 0.092 per event, 43
//   retained bytes per event.
//
//===----------------------------------------------------------------------===//

#include "gen/Workloads.h"
#include "wcp/WcpDetector.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <new>

// Every unaligned form is replaced, so whatever allocates through one of
// them (the library, the standard library's temporary buffers) frees
// through a matching one — sanitizer runtimes check that pairing.
namespace {
std::atomic<uint64_t> NumAllocs{0};
std::atomic<uint64_t> LiveBytes{0};
std::atomic<uint64_t> PeakLiveBytes{0};

/// Each block starts with its requested size, so a free knows how many
/// live bytes it returns. The header keeps malloc's alignment.
constexpr std::size_t HeaderBytes = alignof(std::max_align_t);

void *countedAlloc(std::size_t N) noexcept {
  NumAllocs.fetch_add(1, std::memory_order_relaxed);
  void *Raw = std::malloc(N + HeaderBytes);
  if (!Raw)
    return nullptr;
  *static_cast<std::size_t *>(Raw) = N;
  uint64_t Live = LiveBytes.fetch_add(N, std::memory_order_relaxed) + N;
  uint64_t Peak = PeakLiveBytes.load(std::memory_order_relaxed);
  while (Live > Peak && !PeakLiveBytes.compare_exchange_weak(
                            Peak, Live, std::memory_order_relaxed)) {
  }
  return static_cast<char *>(Raw) + HeaderBytes;
}
void countedFree(void *P) noexcept {
  if (!P)
    return;
  void *Raw = static_cast<char *>(P) - HeaderBytes;
  LiveBytes.fetch_sub(*static_cast<std::size_t *>(Raw),
                      std::memory_order_relaxed);
  std::free(Raw);
}
void *countedAllocOrThrow(std::size_t N) {
  if (void *P = countedAlloc(N))
    return P;
  throw std::bad_alloc();
}
} // namespace

void *operator new(std::size_t N) { return countedAllocOrThrow(N); }
void *operator new[](std::size_t N) { return countedAllocOrThrow(N); }
void *operator new(std::size_t N, const std::nothrow_t &) noexcept {
  return countedAlloc(N);
}
void *operator new[](std::size_t N, const std::nothrow_t &) noexcept {
  return countedAlloc(N);
}
void operator delete(void *P) noexcept { countedFree(P); }
void operator delete[](void *P) noexcept { countedFree(P); }
void operator delete(void *P, std::size_t) noexcept { countedFree(P); }
void operator delete[](void *P, std::size_t) noexcept { countedFree(P); }
void operator delete(void *P, const std::nothrow_t &) noexcept {
  countedFree(P);
}
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  countedFree(P);
}

using namespace rapid;

namespace {

uint64_t allocs() { return NumAllocs.load(std::memory_order_relaxed); }

const Trace &eclipse() {
  static const Trace T = makeWorkload(workloadSpec("eclipse"), 0.25);
  return T;
}

/// High-water mark of the bytes a WcpDetector holds while it constructs
/// and analyzes \p T: the peak of live bytes over the run, less those live
/// before it.
uint64_t retainedPeak(const Trace &T) {
  uint64_t Before = LiveBytes.load(std::memory_order_relaxed);
  PeakLiveBytes.store(Before, std::memory_order_relaxed);
  {
    WcpDetector D(T);
    for (EventIdx I = 0; I != T.size(); ++I)
      D.processEvent(T.event(I), I);
  }
  return PeakLiveBytes.load(std::memory_order_relaxed) - Before;
}

} // namespace

TEST(WcpAllocTest, ConstructionDoesNotAllocatePerLock) {
  const Trace &T = eclipse();
  ASSERT_GT(T.numLocks(), 1000u) << "the pin needs a lock-heavy trace";
  uint64_t Before = allocs();
  WcpDetector D(T);
  uint64_t Ctor = allocs() - Before;
  std::printf("eclipse@0.25: %u locks, %u threads, construction %llu "
              "allocations\n",
              T.numLocks(), T.numThreads(),
              static_cast<unsigned long long>(Ctor));
  EXPECT_LT(Ctor, T.numLocks() / 8)
      << "lock state must be sized lazily, not per lock up front";
}

TEST(WcpAllocTest, RunStaysUnderAQuarterAllocationPerEvent) {
  const Trace &T = eclipse();
  WcpDetector D(T);
  uint64_t Before = allocs();
  for (EventIdx I = 0; I != T.size(); ++I)
    D.processEvent(T.event(I), I);
  double PerEvent =
      static_cast<double>(allocs() - Before) / static_cast<double>(T.size());
  std::printf("eclipse@0.25: %zu events, %.3f allocations per event\n",
              static_cast<size_t>(T.size()), PerEvent);
  EXPECT_LT(PerEvent, 0.25);
}

TEST(WcpAllocTest, EclipseRetainsUnder60BytesPerEvent) {
  const Trace &T = eclipse();
  double PerEvent = static_cast<double>(retainedPeak(T)) /
                    static_cast<double>(T.size());
  std::printf("eclipse@0.25: %.1f retained bytes per event at the peak\n",
              PerEvent);
  EXPECT_LE(PerEvent, 60.0)
      << "records, P_l/H_l and release cells must share clock versions";
}

TEST(WcpAllocTest, MontecarloRetainedMemoryStaysFlatWithLength) {
  // Montecarlo's three locks pass between all three threads, so queue
  // records are collected as the run goes. Their clock versions must be
  // freed with them: retained memory then tracks the live state, not the
  // trace length.
  uint64_t Small =
      retainedPeak(makeWorkload(workloadSpec("montecarlo"), 0.25));
  uint64_t Full = retainedPeak(makeWorkload(workloadSpec("montecarlo"), 1.0));
  std::printf("montecarlo: %llu retained bytes at scale 0.25, %llu at 1.0\n",
              static_cast<unsigned long long>(Small),
              static_cast<unsigned long long>(Full));
  EXPECT_LE(Full, 2 * Small);
}
