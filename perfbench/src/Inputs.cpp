//===- Inputs.cpp - Seeded inputs of the benchmark workloads --------------===//
//
// Part of rapidpp's benchmark (perfbench/).
//
//===----------------------------------------------------------------------===//
//
// Sizes are chosen so one iteration takes tenths of a second: a run of a
// few seconds then holds tens of samples, enough for a steady median.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"

#include "gen/RandomTraceGen.h"
#include "gen/Workloads.h"
#include "io/BinaryFormat.h"
#include "io/TextFormat.h"
#include "support/Prng.h"

using namespace perfbench;
using namespace rapid;

namespace {
/// Table 1 models are scaled from their default 400k events.
constexpr double McScale = 1.0;
constexpr double EclipseScale = 0.25;
/// Per-client random program of live_attach.
constexpr uint32_t LiveOpsPerThread = 20000;
/// Lock-dense SyncP program: the SP-closure grows fast with length.
constexpr uint32_t SyncPOpsPerThread = 600;
} // namespace

const std::vector<WorkloadDef> &perfbench::workloads() {
  using K = DetectorKind;
  static const std::vector<WorkloadDef> All = {
      {"mc_text", Delivery::TextFile, RunMode::Sequential, 0,
       {K::Wcp, K::Hb, K::FastTrack}, 1},
      {"eclipse_sharded", Delivery::BinaryFile, RunMode::VarSharded, 4,
       {K::Wcp, K::Hb}, 1},
      {"live_attach", Delivery::Socket, RunMode::Sequential, 0,
       {K::Hb, K::Wcp}, 2},
      {"syncp_dense", Delivery::BinaryFile, RunMode::Sequential, 0,
       {K::SyncP}, 1},
  };
  return All;
}

const WorkloadDef *perfbench::findWorkload(const std::string &Name) {
  for (const WorkloadDef &W : workloads())
    if (Name == W.Name)
      return &W;
  return nullptr;
}

std::vector<std::vector<Trace>> perfbench::makeTraces(const WorkloadDef &W,
                                                      uint64_t Seed) {
  // Each trace draws its own seed from one stream keyed by the run seed,
  // so the inputs of one run are independent of each other.
  Prng Seeds(Seed);
  const std::string Name = W.Name;
  std::vector<std::vector<Trace>> Out(InputsPerRun);
  if (Name == "mc_text" || Name == "eclipse_sharded") {
    WorkloadSpec Spec =
        workloadSpec(Name == "mc_text" ? "montecarlo" : "eclipse");
    for (std::vector<Trace> &In : Out) {
      Spec.Seed = Seeds.next();
      In.push_back(
          makeWorkload(Spec, Name == "mc_text" ? McScale : EclipseScale));
    }
    return Out;
  }
  RandomTraceParams P;
  if (Name == "live_attach") {
    P.NumThreads = 4;
    P.NumLocks = 8;
    P.NumVars = 64;
    P.OpsPerThread = LiveOpsPerThread;
    P.WithForkJoin = true;
  } else {
    P.NumThreads = 4;
    P.NumLocks = 4;
    P.NumVars = 64;
    P.OpsPerThread = SyncPOpsPerThread;
    P.MaxLockNesting = 2;
    P.ReleasePercent = 25;
  }
  for (std::vector<Trace> &In : Out)
    for (unsigned C = 0; C != W.Clients; ++C) {
      P.Seed = Seeds.next();
      In.push_back(randomTrace(P));
    }
  return Out;
}

std::string perfbench::serialize(const WorkloadDef &W, const Trace &T) {
  return W.How == Delivery::TextFile ? writeTextTrace(T)
                                     : writeBinaryTrace(T);
}

const char *perfbench::fileExtension(const WorkloadDef &W) {
  return W.How == Delivery::TextFile ? ".txt" : ".bin";
}

AnalysisConfig perfbench::sessionConfig(const WorkloadDef &W) {
  AnalysisConfig C;
  for (DetectorKind K : W.Lanes)
    C.addDetector(K);
  C.Mode = W.Mode;
  C.VarShards = W.VarShards;
  // One pool worker per shard, whatever the host's core count, so the
  // workload does the same work everywhere.
  if (W.Mode == RunMode::VarSharded)
    C.Threads = W.VarShards;
  return C;
}
