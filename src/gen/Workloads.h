//===- gen/Workloads.h - The Table 1 benchmark models -----------*- C++ -*-===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Synthetic models of the paper's 18 evaluation benchmarks (Table 1 §4.1:
/// IBM Contest, Java Grande, and the large real-world programs). The paper
/// logged JVM executions with RVPredict; we cannot, so each benchmark is
/// modeled as a simulator program matched to the paper's per-benchmark
/// shape: thread count, lock count, event-count order of magnitude (via a
/// scale factor), and — crucially — the *planted race structure*:
///
///   * HB-visible race pairs: unprotected conflicting accesses whose
///     trace placement is pinned by scheduler tickets, with a handshake
///     discipline that provably prevents accidental happens-before paths;
///   * WCP-only race pairs (eclipse/jigsaw/xalan, the boldfaced rows of
///     Table 1): instances of the Figure 2b idiom — HB orders them, WCP
///     does not, and they are genuinely predictable;
///   * far races: pairs separated by a large fraction of the trace,
///     hosted on lock-isolated threads (the §4.3 "distance of millions of
///     events" structure that defeats every windowed analysis);
///   * race-free bulk: thread-private lock traffic (matching the paper's
///     lock counts) and shared counters protected by global locks.
///
/// Because the races are planted, the expected detector outputs are exact:
/// HB must report (HbRaces + FarRaces) pairs and WCP must add
/// WcpOnlyRaces more — the same relationship the paper's columns 6/7 show.
///
//===----------------------------------------------------------------------===//

#ifndef RAPID_GEN_WORKLOADS_H
#define RAPID_GEN_WORKLOADS_H

#include "support/Prng.h"
#include "trace/Trace.h"

#include <string>
#include <vector>

namespace rapid {

/// Shape of one benchmark model.
struct WorkloadSpec {
  std::string Name;
  uint32_t Threads = 2;
  uint32_t Locks = 1;       ///< Target lock count (Table 1 column 5).
  uint64_t Events = 1000;   ///< Default event target (scaled from col. 3).
  uint32_t HbRaces = 0;     ///< Near HB-visible planted race pairs.
  uint32_t WcpOnlyRaces = 0; ///< Figure 2b gadgets (WCP ∖ HB).
  uint32_t FarRaces = 0;    ///< Long-distance planted race pairs.
  bool ForkJoin = true;     ///< Thread 0 forks workers / joins at end.
  uint64_t Seed = 1;

  /// Paper's reported numbers, for side-by-side reporting in benches.
  uint64_t PaperEvents = 0;
  uint32_t PaperWcpRaces = 0;
  uint32_t PaperHbRaces = 0;

  /// Expected distinct race pairs for each analysis of this model.
  uint32_t expectedHbPairs() const { return HbRaces + FarRaces; }
  uint32_t expectedWcpPairs() const {
    return HbRaces + FarRaces + WcpOnlyRaces;
  }
};

/// Builds the trace for \p Spec; \p Scale multiplies the event target.
Trace makeWorkload(const WorkloadSpec &Spec, double Scale = 1.0);

/// The 18 Table 1 models, in the paper's row order.
std::vector<WorkloadSpec> table1Workloads();

/// Looks up one model by name ("eclipse", "bufwriter", ...). Asserts on
/// unknown names.
WorkloadSpec workloadSpec(const std::string &Name);

/// Bounded Zipf(theta) sampler over ranks [0, N): rank 0 is the hottest
/// item, with P(k) proportional to 1/(k+1)^theta. Construction is O(N)
/// (one zeta-sum pass). For theta in [0, 1) each sample() is O(1) — the
/// zeta-normalized inverse-CDF form from Gray et al.'s "Quickly generating
/// billion-record synthetic databases", the same sampler YCSB ships; 0
/// degenerates to uniform, values near 1 concentrate almost all mass on
/// the first few ranks. For theta >= 1 (where Gray's closed form is
/// singular) sampling walks an exact cumulative table in O(log N) —
/// bit-for-bit deterministic per seed either way, and the theta < 1 fast
/// path is unchanged so existing seeded streams stay stable.
class ZipfSampler {
public:
  ZipfSampler(uint64_t N, double Theta);

  /// Draws one rank in [0, N) from \p Rng.
  uint64_t sample(Prng &Rng) const;

  uint64_t size() const { return N; }
  double theta() const { return Theta; }

private:
  uint64_t N;
  double Theta;
  double Zetan; ///< sum_{i=1..N} i^-theta.
  double Alpha; ///< 1 / (1 - theta); unused when theta >= 1.
  double Eta;   ///< Inverse-CDF correction term; unused when theta >= 1.
  /// theta >= 1 only: Cdf[k] = sum_{i=1..k+1} i^-theta (empty otherwise —
  /// the marker that selects the O(1) closed-form path).
  std::vector<double> Cdf;
};

/// Shape of the Zipf-skew stress model. Unlike the Table 1 models this is
/// not a paper benchmark: it exists to stress skewed variable popularity —
/// Threads workers hammer a pool of Vars shared variables whose access
/// frequencies follow Zipf(Theta), each access protected by the variable's
/// lock stripe (Locks stripes; Locks = 0 drops the locks, making every
/// conflicting pair on a shared variable a race). Hot variables concentrate
/// work onto single var-shards and single lock stripes, which is exactly
/// the imbalance the var-sharded run mode and the drain batcher must
/// absorb.
struct ZipfWorkloadSpec {
  uint32_t Threads = 4;
  uint32_t Vars = 256;    ///< Shared variable pool size.
  uint32_t Locks = 16;    ///< Lock stripes over the pool (0 = unprotected).
  uint64_t Events = 100000; ///< Approximate event target.
  double Theta = 0.9;     ///< Skew, >= 0 (>= 1 uses the exact-table path).
  uint64_t Seed = 1;
};

/// Builds the trace for \p Spec; deterministic per seed, and §2.1-valid by
/// construction (generated through the simulator like every other model).
Trace makeZipfWorkload(const ZipfWorkloadSpec &Spec);

/// The adversarial workload matrix the differential fuzzers sweep: each
/// shape stresses a different axis of the streaming/sharded machinery.
/// Uniform is the plain random-program shape; the Zipf shapes skew
/// variable popularity (Heavy at theta = 1.2 funnels nearly everything
/// onto one var-shard); ProducerConsumer hands values across threads
/// through a locked queue (cross-thread read-sees-write structure);
/// BarrierHeavy runs lockstep rounds dense in lock traffic; and
/// DeclarationDense staggers thread forks through the trace and touches
/// fresh variables/locks every round, so id tables grow until the last
/// event (the growable-state contract's worst case).
enum class WorkloadShape : uint8_t {
  Uniform,
  ZipfLight,       ///< theta = 0.6
  ZipfMedium,      ///< theta = 0.9
  ZipfHeavy,       ///< theta = 1.2 (past Gray's closed-form domain)
  ProducerConsumer,
  BarrierHeavy,
  DeclarationDense,
};

/// Stable lowercase name: "uniform", "zipf-0.6", ..., "decl-dense".
const char *workloadShapeName(WorkloadShape S);

/// Every shape, in enum order (fuzzers rotate through this).
const std::vector<WorkloadShape> &allWorkloadShapes();

/// Builds a small (a few hundred events) valid trace of shape \p S.
/// Deterministic per (shape, seed); thread/lock/var counts themselves vary
/// with the seed so the matrix also sweeps table sizes.
Trace makeAdversarialTrace(WorkloadShape S, uint64_t Seed);

/// Shape of the pathological-WCP-queue model: chains of deeply nested
/// critical sections whose conflicting twins arrive only later, plus long
/// flat release chains over many locks — the access pattern that made
/// WCP's per-lock queues grow until the queue-GC pass
/// (WcpDetector::collectLockGarbage) learned to trim entries every thread
/// has passed. With LateThread, a third thread is forked mid-program and
/// immediately conflicts on every chain variable: a thread id that does
/// not exist for the first half of the trace, which is exactly the case
/// the GC must stay conservative for (a late thread may still need old
/// release clocks).
struct WcpQueueStressSpec {
  uint32_t NestingDepth = 6; ///< Locks held simultaneously per chain.
  uint32_t Chains = 5;       ///< Deep-nesting rounds per worker.
  uint32_t ChainLocks = 10;  ///< Locks in the flat release chain.
  bool LateThread = true;    ///< Fork a mid-stream third thread.
  uint64_t Seed = 1;
};

/// Builds the trace for \p Spec (deterministic, §2.1-valid).
Trace makeWcpQueueStress(const WcpQueueStressSpec &Spec);

} // namespace rapid

#endif // RAPID_GEN_WORKLOADS_H
