//===- tests/wcp_alloc_test.cpp - WCP hot-path allocation pin -----------------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
// Pins the heap traffic of WcpDetector on the lock-heavy eclipse workload
// (Table 1: 14 threads, 8263 locks) at scale 0.25. This binary replaces
// the global operator new with a counting one, so every allocation the
// detector makes — constructor and per-event path — is visible.
//
// Measured on the eclipse workload at scale 0.25 (97,138 events):
//   with per-lock clocks and deques built up front, two heap clocks per
//   critical section, per-section R/W vectors and map-keyed L^r/L^w cells:
//   construction 57,896 allocations, run 2.25 per event;
//   with lazily sized flat lock buffers, block-allocated release cells and
//   one access log per thread: construction 48, run 0.178 per event —
//   nearly all of it the two buffers each lock gets on first use.
//
//===----------------------------------------------------------------------===//

#include "gen/Workloads.h"
#include "wcp/WcpDetector.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

// Every unaligned form is replaced, so whatever allocates through one of
// them (the library, the standard library's temporary buffers) frees
// through a matching one — sanitizer runtimes check that pairing.
namespace {
std::atomic<uint64_t> NumAllocs{0};

void *countedAlloc(std::size_t N) noexcept {
  NumAllocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(N ? N : 1);
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
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }
void operator delete(void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  std::free(P);
}

using namespace rapid;

namespace {

uint64_t allocs() { return NumAllocs.load(std::memory_order_relaxed); }

const Trace &eclipse() {
  static const Trace T = makeWorkload(workloadSpec("eclipse"), 0.25);
  return T;
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
