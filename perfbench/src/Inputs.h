//===- Inputs.h - Seeded inputs of the benchmark workloads ------*- C++ -*-===//
//
// Part of rapidpp's benchmark (perfbench/).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The four workloads and the inputs each one generates from its seed.
/// The program under test only ever sees these generated inputs; the same
/// seed gives byte-identical inputs (checked by the self-test).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_INPUTS_H
#define PERFBENCH_INPUTS_H

#include "api/AnalysisConfig.h"
#include "trace/Trace.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// How a workload delivers its input to the program.
enum class Delivery : uint8_t {
  TextFile,   ///< AnalysisSession::feedFile on a text trace.
  BinaryFile, ///< AnalysisSession::feedFile on a binary trace.
  Socket,     ///< In-process RaceServer, wire frames over a Unix socket.
};

struct WorkloadDef {
  const char *Name;
  Delivery How;
  rapid::RunMode Mode;
  uint32_t VarShards; ///< VarSharded mode only.
  std::vector<rapid::DetectorKind> Lanes;
  /// Concurrent clients (Socket) or 1.
  unsigned Clients;
};

/// Every workload, in the order the README lists them.
const std::vector<WorkloadDef> &workloads();
/// The workload named \p Name, or null.
const WorkloadDef *findWorkload(const std::string &Name);

/// Independent inputs per run. A run visits them round-robin, so one
/// unusual input moves the run's median less than it would alone.
inline constexpr unsigned InputsPerRun = 4;

/// The inputs \p W runs for \p Seed: InputsPerRun entries, each one trace
/// per client for Socket workloads and one trace otherwise.
std::vector<std::vector<rapid::Trace>> makeTraces(const WorkloadDef &W,
                                                  uint64_t Seed);

/// \p T serialized the way \p W delivers it (text for TextFile, the binary
/// container otherwise; Socket workloads use the binary form for their
/// offline layer probes).
std::string serialize(const WorkloadDef &W, const rapid::Trace &T);
/// ".txt" or ".bin".
const char *fileExtension(const WorkloadDef &W);

/// The session config \p W analyzes with.
rapid::AnalysisConfig sessionConfig(const WorkloadDef &W);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_H
