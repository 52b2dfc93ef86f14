//===- gen/Workloads.cpp ------------------------------------------------------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//

#include "gen/Workloads.h"

#include "gen/ProgramSim.h"
#include "gen/RandomTraceGen.h"
#include "support/Prng.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace rapid;

namespace {

/// A gadget insertion point: before the given round of a thread, splice in
/// the given ops.
struct Insertion {
  uint32_t Round;
  std::vector<ProgramOp> Ops;
};

ProgramOp op(ProgramOp::Kind K, std::string Target, std::string Loc = {}) {
  return ProgramOp{K, std::move(Target), std::move(Loc)};
}

} // namespace

Trace rapid::makeWorkload(const WorkloadSpec &Spec, double Scale) {
  assert(Spec.Threads >= 2 && "a race model needs at least two threads");
  uint64_t TargetEvents =
      std::max<uint64_t>(32, static_cast<uint64_t>(Spec.Events * Scale));
  uint32_t Workers = Spec.Threads;

  // Thread roles: the last two workers are lock-isolated when far races
  // are requested (they host them); everyone else mixes private-lock
  // noise with protected global counters.
  bool HasFar = Spec.FarRaces > 0;
  assert((!HasFar || Workers >= 4) &&
         "far races need two dedicated threads plus two regular ones");
  uint32_t RegularWorkers = HasFar ? Workers - 2 : Workers;

  // Lock budget (Table 1 column 5): a few global counter locks, one lock
  // per WCP gadget, the rest spread as per-thread private locks.
  uint32_t GlobalLocks = 0;
  uint32_t PrivatePerThread = 0;
  if (Spec.Locks > Spec.WcpOnlyRaces) {
    uint32_t Rest = Spec.Locks - Spec.WcpOnlyRaces;
    GlobalLocks = std::min<uint32_t>(Rest, 3);
    Rest -= GlobalLocks;
    PrivatePerThread = Rest / Workers;
    // Remainder locks are given to thread 0 via an extended private pool;
    // for simplicity they are folded into the global pool instead.
    GlobalLocks += Rest % Workers;
  }

  // Event budget per worker, in rounds. A plain noise round is ~5 events;
  // when a thread owns more private locks than it has rounds, it runs
  // several private sections per round so every lock is still exercised
  // (keeping column 5 faithful at small scales) — the round cost estimate
  // is iterated once to account for that.
  uint64_t Overhead = 2 * (Spec.HbRaces + Spec.FarRaces) +
                      6 * Spec.WcpOnlyRaces +
                      (Spec.ForkJoin ? 2 * (Workers - 1) : 0);
  uint64_t Budget = TargetEvents > Overhead ? TargetEvents - Overhead : 0;
  uint64_t PerWorker = Budget / Workers;
  uint32_t Rounds = std::max<uint32_t>(1, static_cast<uint32_t>(
                                              PerWorker / 5));
  uint32_t SectionsPerRound = 1;
  if (PrivatePerThread > Rounds) {
    SectionsPerRound = (PrivatePerThread + Rounds - 1) / Rounds;
    uint64_t RoundCost = 4ull * SectionsPerRound + 1;
    Rounds = std::max<uint32_t>(
        1, static_cast<uint32_t>(PerWorker / RoundCost));
    SectionsPerRound = (PrivatePerThread + Rounds - 1) / Rounds;
  }

  Prng Rng(Spec.Seed ^ 0x5eedf00dULL);
  Program P;
  auto threadName = [](uint32_t I) { return "T" + std::to_string(I); };
  for (uint32_t I = 0; I < Workers; ++I)
    P.thread(threadName(I));

  // ---- Plan the planted gadgets as per-thread insertions. -----------------
  std::vector<std::vector<Insertion>> Plan(Workers);
  auto fractionRound = [&](double F) {
    return static_cast<uint32_t>(F * Rounds);
  };

  // Near HB races: pair (A,B) of regular workers, handshake discipline:
  //   B: post(pre) await(go) w(g)      A: await(pre) w(g) post(go)
  // B's pre-write events all precede A's write in the trace, so no HB path
  // can order the two writes (see header comment).
  for (uint32_t K = 0; K < Spec.HbRaces; ++K) {
    uint32_t A = RegularWorkers ? K % RegularWorkers : 0;
    uint32_t B = RegularWorkers ? (K + 1) % RegularWorkers : 1;
    if (A == B)
      B = (B + 1) % Workers;
    std::string G = "hbvar" + std::to_string(K);
    std::string Pre = "hbpre" + std::to_string(K);
    std::string Go = "hbgo" + std::to_string(K);
    double F = static_cast<double>(K + 1) / (Spec.HbRaces + 1);
    Plan[B].push_back({fractionRound(F),
                       {op(ProgramOp::Kind::Post, Pre),
                        op(ProgramOp::Kind::Await, Go),
                        op(ProgramOp::Kind::Write, G, "hbB" + std::to_string(K))}});
    Plan[A].push_back({fractionRound(F),
                       {op(ProgramOp::Kind::Await, Pre),
                        op(ProgramOp::Kind::Write, G, "hbA" + std::to_string(K)),
                        op(ProgramOp::Kind::Post, Go)}});
  }

  // WCP-only races: the Figure 2b idiom on a dedicated lock.
  //   A: w(y) acq(l) w(x) rel(l)       B: acq(l) r(y) r(x) rel(l)
  // HB orders the y-accesses through rel(l)→acq(l); WCP rule (a) only
  // orders rel(l) before r(x), which comes *after* r(y) — so the
  // y-accesses are a WCP race, and a predictable one.
  for (uint32_t K = 0; K < Spec.WcpOnlyRaces; ++K) {
    uint32_t A = RegularWorkers ? K % RegularWorkers : 0;
    uint32_t B = RegularWorkers ? (K + 1) % RegularWorkers : 1;
    if (A == B)
      B = (B + 1) % Workers;
    std::string L = "wcplock" + std::to_string(K);
    std::string X = "wcpx" + std::to_string(K);
    std::string Y = "wcpy" + std::to_string(K);
    std::string Pre = "wcppre" + std::to_string(K);
    std::string Go = "wcpgo" + std::to_string(K);
    double F = static_cast<double>(K + 1) / (Spec.WcpOnlyRaces + 1);
    std::string KS = std::to_string(K);
    Plan[B].push_back({fractionRound(F),
                       {op(ProgramOp::Kind::Post, Pre),
                        op(ProgramOp::Kind::Await, Go),
                        op(ProgramOp::Kind::Acquire, L, "wcpB" + KS + ".acq"),
                        op(ProgramOp::Kind::Read, Y, "wcpB" + KS + ".ry"),
                        op(ProgramOp::Kind::Read, X, "wcpB" + KS + ".rx"),
                        op(ProgramOp::Kind::Release, L, "wcpB" + KS + ".rel")}});
    Plan[A].push_back({fractionRound(F),
                       {op(ProgramOp::Kind::Await, Pre),
                        op(ProgramOp::Kind::Write, Y, "wcpA" + KS + ".wy"),
                        op(ProgramOp::Kind::Acquire, L, "wcpA" + KS + ".acq"),
                        op(ProgramOp::Kind::Write, X, "wcpA" + KS + ".wx"),
                        op(ProgramOp::Kind::Release, L, "wcpA" + KS + ".rel"),
                        op(ProgramOp::Kind::Post, Go)}});
  }

  // Far races: hosted by the two lock-isolated workers, write early in A,
  // write late in B. Isolation (no shared locks ever) makes any ordering
  // between the writes impossible regardless of what runs in between.
  for (uint32_t K = 0; K < Spec.FarRaces; ++K) {
    uint32_t A = Workers - 2;
    uint32_t B = Workers - 1;
    std::string G = "farvar" + std::to_string(K);
    std::string Go = "fargo" + std::to_string(K);
    double FA = 0.02 + 0.10 * (static_cast<double>(K) / (Spec.FarRaces + 1));
    double FB = 0.85 + 0.13 * (static_cast<double>(K + 1) / (Spec.FarRaces + 1));
    Plan[A].push_back({fractionRound(FA),
                       {op(ProgramOp::Kind::Write, G, "farA" + std::to_string(K)),
                        op(ProgramOp::Kind::Post, Go)}});
    Plan[B].push_back({fractionRound(FB),
                       {op(ProgramOp::Kind::Await, Go),
                        op(ProgramOp::Kind::Write, G, "farB" + std::to_string(K))}});
  }

  for (auto &Ins : Plan)
    std::stable_sort(Ins.begin(), Ins.end(),
                     [](const Insertion &L, const Insertion &R) {
                       return L.Round < R.Round;
                     });

  // ---- Emit the programs. -------------------------------------------------
  if (Spec.ForkJoin) {
    ThreadScript Root(P, threadName(0));
    for (uint32_t I = 1; I < Workers; ++I)
      Root.fork(threadName(I), "main.fork" + std::to_string(I));
  }

  for (uint32_t W = 0; W < Workers; ++W) {
    ThreadScript S(P, threadName(W));
    bool Isolated = HasFar && W >= RegularWorkers;
    size_t NextIns = 0;
    std::string TN = threadName(W);

    for (uint32_t R = 0; R < Rounds; ++R) {
      while (NextIns < Plan[W].size() && Plan[W][NextIns].Round <= R) {
        for (const ProgramOp &O : Plan[W][NextIns].Ops)
          P.thread(TN).Ops.push_back(O);
        ++NextIns;
      }

      // Noise round: a private critical section over this thread's own
      // locks (cycled so every private lock is exercised), or bare
      // thread-local accesses when the model has no locks.
      std::string LocalVar = "local_" + TN + "_" + std::to_string(R % 7);
      std::string RoundLoc = TN + ".round" + std::to_string(R % 23);
      if (PrivatePerThread > 0) {
        for (uint32_t J = 0; J < SectionsPerRound; ++J) {
          std::string L =
              "priv_" + TN + "_" +
              std::to_string((static_cast<uint64_t>(R) * SectionsPerRound +
                              J) %
                             PrivatePerThread);
          S.acq(L, RoundLoc + ".acq");
          S.read(LocalVar, RoundLoc + ".r");
          S.write(LocalVar, RoundLoc + ".w");
          S.rel(L, RoundLoc + ".rel");
        }
      } else {
        S.read(LocalVar, RoundLoc + ".r");
        S.write(LocalVar, RoundLoc + ".w");
      }

      // Shared protected counter every few rounds (never on isolated
      // threads — they must not share locks with anyone).
      if (!Isolated && GlobalLocks > 0 && R % 4 == W % 4) {
        uint32_t C = (R / 4 + W) % GlobalLocks;
        S.lockedIncrement("glock" + std::to_string(C),
                          "counter" + std::to_string(C),
                          TN + ".ctr" + std::to_string(C));
      }
    }
    // Flush any gadgets planned past the last round.
    while (NextIns < Plan[W].size()) {
      for (const ProgramOp &O : Plan[W][NextIns].Ops)
        P.thread(TN).Ops.push_back(O);
      ++NextIns;
    }
  }

  if (Spec.ForkJoin) {
    ThreadScript Root(P, threadName(0));
    for (uint32_t I = 1; I < Workers; ++I)
      Root.join(threadName(I), "main.join" + std::to_string(I));
  }

  SimOptions Opts;
  Opts.Seed = Spec.Seed;
  Opts.BurstPercent = 65;
  SimResult R = simulate(P, Opts);
  assert(R.Ok && "workload program failed to schedule");
  return std::move(R.T);
}

std::vector<WorkloadSpec> rapid::table1Workloads() {
  auto spec = [](const char *Name, uint32_t Threads, uint32_t Locks,
                 uint64_t Events, uint32_t Hb, uint32_t WcpOnly, uint32_t Far,
                 uint64_t PaperEvents, uint32_t PaperWcp, uint32_t PaperHb) {
    WorkloadSpec S;
    S.Name = Name;
    S.Threads = Threads;
    S.Locks = Locks;
    S.Events = Events;
    S.HbRaces = Hb;
    S.WcpOnlyRaces = WcpOnly;
    S.FarRaces = Far;
    S.PaperEvents = PaperEvents;
    S.PaperWcpRaces = PaperWcp;
    S.PaperHbRaces = PaperHb;
    return S;
  };
  // Name, threads, locks (Table 1 cols 4-5), scaled event target, planted
  // near HB / WCP-only / far races, paper's events and race counts
  // (cols 3, 6, 7). Race counts match the paper's exactly:
  // HB = near + far, WCP = HB + WCP-only.
  return {
      spec("account", 4, 3, 130, 4, 0, 0, 130, 4, 4),
      spec("airline", 2, 0, 128, 4, 0, 0, 128, 4, 4),
      spec("array", 3, 2, 64, 0, 0, 0, 47, 0, 0),
      spec("boundedbuffer", 2, 2, 333, 2, 0, 0, 333, 2, 2),
      spec("bubblesort", 10, 2, 4000, 6, 0, 0, 4000, 6, 6),
      spec("bufwriter", 6, 1, 300000, 1, 0, 1, 11700000, 2, 2),
      spec("critical", 4, 0, 80, 8, 0, 0, 55, 8, 8),
      spec("mergesort", 5, 3, 3000, 3, 0, 0, 3000, 3, 3),
      spec("pingpong", 4, 0, 146, 7, 0, 0, 146, 7, 7),
      spec("moldyn", 3, 2, 164000, 44, 0, 0, 164000, 44, 44),
      spec("montecarlo", 3, 3, 400000, 5, 0, 0, 7200000, 5, 5),
      spec("raytracer", 3, 8, 16000, 3, 0, 0, 16000, 3, 3),
      spec("derby", 4, 1112, 200000, 19, 0, 4, 1300000, 23, 23),
      spec("eclipse", 14, 8263, 400000, 38, 2, 26, 87000000, 66, 64),
      spec("ftpserver", 11, 304, 49000, 36, 0, 0, 49000, 36, 36),
      spec("jigsaw", 13, 280, 200000, 8, 3, 3, 3000000, 14, 11),
      spec("lusearch", 7, 118, 400000, 150, 0, 10, 216000000, 160, 160),
      spec("xalan", 6, 2494, 300000, 10, 3, 5, 122000000, 18, 15),
  };
}

WorkloadSpec rapid::workloadSpec(const std::string &Name) {
  for (const WorkloadSpec &S : table1Workloads())
    if (S.Name == Name)
      return S;
  assert(false && "unknown workload name");
  return WorkloadSpec{};
}

ZipfSampler::ZipfSampler(uint64_t N, double Theta) : N(N), Theta(Theta) {
  assert(N > 0 && "empty rank space");
  assert(Theta >= 0.0 && "negative skew is meaningless");
  Zetan = 0.0;
  if (Theta >= 1.0) {
    // Gray's closed form divides by (1 - theta); past it, keep the exact
    // cumulative table instead (construction was O(N) regardless).
    Cdf.reserve(N);
    for (uint64_t I = 1; I <= N; ++I) {
      Zetan += std::pow(static_cast<double>(I), -Theta);
      Cdf.push_back(Zetan);
    }
    Alpha = 0.0;
    Eta = 0.0;
    return;
  }
  for (uint64_t I = 1; I <= N; ++I)
    Zetan += std::pow(static_cast<double>(I), -Theta);
  Alpha = 1.0 / (1.0 - Theta);
  // For N <= 2 the two explicit branches in sample() cover the whole CDF
  // and Eta's denominator degenerates (zeta(2) == zeta(N)); it is unused.
  Eta = N <= 2 ? 0.0
               : (1.0 - std::pow(2.0 / static_cast<double>(N), 1.0 - Theta)) /
                     (1.0 - (1.0 + std::pow(0.5, Theta)) / Zetan);
}

uint64_t ZipfSampler::sample(Prng &Rng) const {
  double U = Rng.nextDouble();
  if (!Cdf.empty()) {
    // theta >= 1: exact inverse CDF by binary search.
    uint64_t K = static_cast<uint64_t>(
        std::lower_bound(Cdf.begin(), Cdf.end(), U * Zetan) - Cdf.begin());
    return K >= N ? N - 1 : K;
  }
  double Uz = U * Zetan;
  if (Uz < 1.0)
    return 0;
  if (Uz < 1.0 + std::pow(0.5, Theta))
    return 1;
  uint64_t K = static_cast<uint64_t>(
      static_cast<double>(N) * std::pow(Eta * U - Eta + 1.0, Alpha));
  return K >= N ? N - 1 : K;
}

Trace rapid::makeZipfWorkload(const ZipfWorkloadSpec &Spec) {
  assert(Spec.Threads >= 1 && Spec.Vars >= 1);
  ZipfSampler Zipf(Spec.Vars, Spec.Theta);

  // Round cost: acq + r + w + rel when striped, r + w bare. The main
  // thread works too, so the whole budget divides across Spec.Threads.
  const uint64_t RoundCost = Spec.Locks > 0 ? 4 : 2;
  const uint64_t ForkJoinCost =
      Spec.Threads > 1 ? 2ull * (Spec.Threads - 1) : 0;
  const uint64_t Budget =
      Spec.Events > ForkJoinCost ? Spec.Events - ForkJoinCost : RoundCost;
  const uint64_t Rounds =
      std::max<uint64_t>(1, Budget / (RoundCost * Spec.Threads));

  Program P;
  auto threadName = [](uint32_t I) { return "T" + std::to_string(I); };
  for (uint32_t W = 0; W < Spec.Threads; ++W)
    P.thread(threadName(W));
  if (Spec.Threads > 1) {
    ThreadScript Root(P, threadName(0));
    for (uint32_t W = 1; W < Spec.Threads; ++W)
      Root.fork(threadName(W), "main.fork" + std::to_string(W));
  }

  for (uint32_t W = 0; W < Spec.Threads; ++W) {
    // Per-thread stream split off the spec seed, so each worker draws an
    // independent — but fully seed-determined — rank sequence.
    Prng Rng(Spec.Seed ^ (0x9e3779b97f4a7c15ULL * (W + 1)));
    ThreadScript S(P, threadName(W));
    const std::string TN = threadName(W);
    for (uint64_t R = 0; R < Rounds; ++R) {
      uint64_t V = Zipf.sample(Rng);
      std::string Var = "zv" + std::to_string(V);
      std::string Loc = TN + ".z" + std::to_string(R);
      if (Spec.Locks > 0) {
        std::string L = "zl" + std::to_string(V % Spec.Locks);
        S.acq(L, Loc + ".acq");
        S.read(Var, Loc + ".r");
        S.write(Var, Loc + ".w");
        S.rel(L, Loc + ".rel");
      } else {
        S.read(Var, Loc + ".r");
        S.write(Var, Loc + ".w");
      }
    }
  }

  if (Spec.Threads > 1) {
    ThreadScript Root(P, threadName(0));
    for (uint32_t W = 1; W < Spec.Threads; ++W)
      Root.join(threadName(W), "main.join" + std::to_string(W));
  }

  SimOptions Opts;
  Opts.Seed = Spec.Seed;
  Opts.BurstPercent = 65;
  SimResult R = simulate(P, Opts);
  assert(R.Ok && "zipf program failed to schedule");
  return std::move(R.T);
}

// ---- Adversarial workload matrix --------------------------------------------

const char *rapid::workloadShapeName(WorkloadShape S) {
  switch (S) {
  case WorkloadShape::Uniform:
    return "uniform";
  case WorkloadShape::ZipfLight:
    return "zipf-0.6";
  case WorkloadShape::ZipfMedium:
    return "zipf-0.9";
  case WorkloadShape::ZipfHeavy:
    return "zipf-1.2";
  case WorkloadShape::ProducerConsumer:
    return "producer-consumer";
  case WorkloadShape::BarrierHeavy:
    return "barrier-heavy";
  case WorkloadShape::DeclarationDense:
    return "decl-dense";
  }
  return "unknown";
}

const std::vector<WorkloadShape> &rapid::allWorkloadShapes() {
  static const std::vector<WorkloadShape> Shapes = {
      WorkloadShape::Uniform,          WorkloadShape::ZipfLight,
      WorkloadShape::ZipfMedium,       WorkloadShape::ZipfHeavy,
      WorkloadShape::ProducerConsumer, WorkloadShape::BarrierHeavy,
      WorkloadShape::DeclarationDense,
  };
  return Shapes;
}

namespace {

Trace makeZipfShape(double Theta, uint64_t Seed) {
  ZipfWorkloadSpec Spec;
  Spec.Threads = 2 + Seed % 3;
  Spec.Vars = 12 + Seed % 9;
  // A third of the seeds drop the lock stripes: unprotected skewed
  // conflicts, so the shape also produces races to diff on.
  Spec.Locks = static_cast<uint32_t>(Seed % 3);
  Spec.Events = 140 + (Seed % 5) * 24;
  Spec.Theta = Theta;
  Spec.Seed = Seed;
  return makeZipfWorkload(Spec);
}

/// Producers hand items to consumers through a locked slot array; the
/// handoff (rel(q) -> acq(q)) orders the payload accesses, so those pairs
/// are racy for no sound detector — while the shared unprotected stats
/// counter races on purpose. The interesting part for SyncP is the
/// read-sees-write structure: every consumer read of a slot pins the
/// producer's critical section into any closure that includes it.
Trace makeProducerConsumer(uint64_t Seed) {
  const uint32_t Producers = 1 + Seed % 2;
  const uint32_t Consumers = 1 + (Seed >> 1) % 2;
  const uint32_t Items = 8 + Seed % 6;
  Program P;
  auto producerName = [](uint32_t I) { return "prod" + std::to_string(I); };
  auto consumerName = [](uint32_t I) { return "cons" + std::to_string(I); };

  // Register every thread before the first ThreadScript: Program::thread
  // may reallocate the thread table, and ThreadScript holds a reference.
  P.thread("main");
  for (uint32_t I = 0; I < Producers; ++I)
    P.thread(producerName(I));
  for (uint32_t I = 0; I < Consumers; ++I)
    P.thread(consumerName(I));

  ThreadScript Root(P, "main");
  for (uint32_t I = 0; I < Producers; ++I)
    Root.fork(producerName(I));
  for (uint32_t I = 0; I < Consumers; ++I)
    Root.fork(consumerName(I));

  for (uint32_t K = 0; K < Items; ++K) {
    const std::string KS = std::to_string(K);
    ThreadScript Prod(P, producerName(K % Producers));
    Prod.write("payload" + KS, "prod.pay" + KS);
    Prod.acq("q", "prod.acq" + KS);
    Prod.write("slot" + std::to_string(K % 4), "prod.slot" + KS);
    Prod.rel("q", "prod.rel" + KS);
    Prod.write("stats", "prod.stats" + std::to_string(K % 3));
    Prod.post("item" + KS);

    ThreadScript Cons(P, consumerName(K % Consumers));
    Cons.await("item" + KS);
    Cons.acq("q", "cons.acq" + KS);
    Cons.read("slot" + std::to_string(K % 4), "cons.slot" + KS);
    Cons.rel("q", "cons.rel" + KS);
    Cons.read("payload" + KS, "cons.pay" + KS);
    Cons.read("stats", "cons.stats" + std::to_string(K % 3));
  }

  for (uint32_t I = 0; I < Producers; ++I)
    Root.join(producerName(I));
  for (uint32_t I = 0; I < Consumers; ++I)
    Root.join(consumerName(I));

  SimOptions Opts;
  Opts.Seed = Seed;
  Opts.BurstPercent = 55;
  SimResult R = simulate(P, Opts);
  assert(R.Ok && "producer/consumer program failed to schedule");
  return std::move(R.T);
}

/// Lockstep rounds: every worker bumps the round counter under the
/// barrier lock, thread 0 gates the next round on everyone's arrival
/// ticket. Dense same-lock traffic from every thread, every round — the
/// shape that exercises lock-queue churn and the SP-closure's per-lock
/// maxima hardest. One unprotected scratch variable per round pair keeps
/// the race reports non-trivial.
Trace makeBarrierHeavy(uint64_t Seed) {
  const uint32_t Workers = 2 + Seed % 3;
  const uint32_t Rounds = 6 + Seed % 5;
  Program P;
  auto threadName = [](uint32_t I) { return "T" + std::to_string(I); };

  // Pre-register: ThreadScript references would dangle if thread() grew
  // the table after the first script was made.
  for (uint32_t W = 0; W < Workers; ++W)
    P.thread(threadName(W));

  ThreadScript Root(P, threadName(0));
  for (uint32_t W = 1; W < Workers; ++W)
    Root.fork(threadName(W));

  for (uint32_t R = 0; R < Rounds; ++R) {
    const std::string RS = std::to_string(R);
    for (uint32_t W = 0; W < Workers; ++W) {
      ThreadScript S(P, threadName(W));
      const std::string Loc = "r" + RS + ".t" + std::to_string(W);
      S.lockedIncrement("barrier", "arrivals" + RS, Loc);
      if ((R + W) % 3 == 0)
        S.write("scratch" + std::to_string(R % 2), Loc + ".scr");
      S.post("arrive" + RS + "_" + std::to_string(W));
      if (W == 0) {
        for (uint32_t V = 1; V < Workers; ++V)
          S.await("arrive" + RS + "_" + std::to_string(V));
        S.post("go" + RS);
      } else {
        S.await("go" + RS);
      }
    }
  }

  for (uint32_t W = 1; W < Workers; ++W)
    Root.join(threadName(W));

  SimOptions Opts;
  Opts.Seed = Seed;
  Opts.BurstPercent = 50;
  SimResult R = simulate(P, Opts);
  assert(R.Ok && "barrier program failed to schedule");
  return std::move(R.T);
}

/// A fork chain where each link starts mid-trace and every round touches
/// fresh variables and a fresh lock: thread, lock and variable ids keep
/// being declared until the end of the trace. Streaming runs see their id
/// tables grow constantly (the growable-state contract's worst case); the
/// one shared unprotected variable gives every thread pair a candidate.
Trace makeDeclarationDense(uint64_t Seed) {
  const uint32_t Links = 3 + Seed % 3;
  const uint32_t RoundsPerLink = 4 + Seed % 3;
  Program P;
  auto threadName = [](uint32_t I) { return "link" + std::to_string(I); };

  // Pre-register every link (see makeProducerConsumer).
  for (uint32_t L = 0; L < Links; ++L)
    P.thread(threadName(L));

  for (uint32_t L = 0; L < Links; ++L) {
    ThreadScript S(P, threadName(L));
    const std::string LS = std::to_string(L);
    for (uint32_t R = 0; R < RoundsPerLink; ++R) {
      const std::string RS = LS + "_" + std::to_string(R);
      // Fresh ids every round: one new lock, two new variables.
      S.acq("fresh_lock" + RS);
      S.write("fresh_var" + RS + "a", "l" + RS + ".a");
      S.read("fresh_var" + RS + "a", "l" + RS + ".ar");
      S.rel("fresh_lock" + RS);
      S.write("fresh_var" + RS + "b", "l" + RS + ".b");
      // Fork the next link halfway through this one's work.
      if (R == RoundsPerLink / 2 && L + 1 < Links)
        S.fork(threadName(L + 1), "l" + LS + ".fork");
      if ((R + L) % 2 == 0)
        S.write("shared", "l" + RS + ".shared");
    }
    if (L + 1 < Links)
      S.join(threadName(L + 1), "l" + LS + ".join");
  }

  SimOptions Opts;
  Opts.Seed = Seed;
  Opts.BurstPercent = 60;
  SimResult R = simulate(P, Opts);
  assert(R.Ok && "declaration-dense program failed to schedule");
  return std::move(R.T);
}

Trace makeUniformShape(uint64_t Seed) {
  RandomTraceParams P;
  P.Seed = Seed;
  P.NumThreads = 2 + Seed % 3;
  P.NumLocks = 1 + Seed % 3;
  P.NumVars = 3 + Seed % 4;
  P.OpsPerThread = 16 + Seed % 13;
  P.MaxLockNesting = 1 + Seed % 2;
  P.WithForkJoin = Seed % 3 == 0;
  return randomTrace(P);
}

} // namespace

Trace rapid::makeAdversarialTrace(WorkloadShape S, uint64_t Seed) {
  switch (S) {
  case WorkloadShape::Uniform:
    return makeUniformShape(Seed);
  case WorkloadShape::ZipfLight:
    return makeZipfShape(0.6, Seed);
  case WorkloadShape::ZipfMedium:
    return makeZipfShape(0.9, Seed);
  case WorkloadShape::ZipfHeavy:
    return makeZipfShape(1.2, Seed);
  case WorkloadShape::ProducerConsumer:
    return makeProducerConsumer(Seed);
  case WorkloadShape::BarrierHeavy:
    return makeBarrierHeavy(Seed);
  case WorkloadShape::DeclarationDense:
    return makeDeclarationDense(Seed);
  }
  return Trace();
}

Trace rapid::makeWcpQueueStress(const WcpQueueStressSpec &Spec) {
  assert(Spec.NestingDepth >= 1 && Spec.Chains >= 1);
  Program P;

  // Pre-register every thread (see makeProducerConsumer).
  P.thread("qa");
  P.thread("qb");
  if (Spec.LateThread)
    P.thread("qlate");

  ThreadScript A(P, "qa");
  ThreadScript B(P, "qb");

  for (uint32_t C = 0; C < Spec.Chains; ++C) {
    const std::string CS = std::to_string(C);
    // Deep nesting: A opens NestingDepth sections, touches the chain
    // variable at full depth, then unwinds — one long release chain. B
    // mirrors the identical nest strictly later (ticket-gated), so every
    // section pair on every nest lock conflicts across threads and WCP
    // must queue A's release clocks until B's sections drain them.
    for (uint32_t D = 0; D < Spec.NestingDepth; ++D)
      A.acq("nest" + CS + "_" + std::to_string(D), "qa.c" + CS);
    A.write("chain" + CS, "qa.c" + CS + ".w");
    for (uint32_t D = Spec.NestingDepth; D-- > 0;)
      A.rel("nest" + CS + "_" + std::to_string(D), "qa.c" + CS);
    A.post("chain" + CS);

    B.await("chain" + CS);
    for (uint32_t D = 0; D < Spec.NestingDepth; ++D)
      B.acq("nest" + CS + "_" + std::to_string(D), "qb.c" + CS);
    B.write("chain" + CS, "qb.c" + CS + ".w");
    for (uint32_t D = Spec.NestingDepth; D-- > 0;)
      B.rel("nest" + CS + "_" + std::to_string(D), "qb.c" + CS);

    // Fork the late thread halfway through the chain schedule.
    if (Spec.LateThread && C == Spec.Chains / 2)
      A.fork("qlate", "qa.fork");
  }

  // The flat many-lock release chain: back-to-back short conflicting
  // sections over ChainLocks distinct locks, first A then B.
  for (uint32_t L = 0; L < Spec.ChainLocks; ++L) {
    const std::string LS = std::to_string(L);
    A.lockedIncrement("flat" + LS, "flatvar" + LS, "qa.f" + LS);
  }
  A.post("flat");
  B.await("flat");
  for (uint32_t L = 0; L < Spec.ChainLocks; ++L) {
    const std::string LS = std::to_string(L);
    B.lockedIncrement("flat" + LS, "flatvar" + LS, "qb.f" + LS);
  }

  if (Spec.LateThread) {
    // The late thread conflicts, unprotected, on every chain variable:
    // candidates against both workers from a thread id the first half of
    // the trace never saw.
    ThreadScript Late(P, "qlate");
    for (uint32_t C = 0; C < Spec.Chains; ++C)
      Late.write("chain" + std::to_string(C), "qlate.c" + std::to_string(C));
    A.join("qlate", "qa.join");
  }

  SimOptions Opts;
  Opts.Seed = Spec.Seed;
  Opts.BurstPercent = 70;
  SimResult R = simulate(P, Opts);
  assert(R.Ok && "wcp queue stress program failed to schedule");
  return std::move(R.T);
}
