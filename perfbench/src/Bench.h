//===- Bench.h - Shared pieces of the benchmark program ---------*- C++ -*-===//
//
// Part of rapidpp's benchmark (perfbench/).
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "Inputs.h"
#include "Spans.h"
#include "Stats.h"

#include "api/AnalysisSession.h"

#include <string>
#include <vector>

namespace perfbench {

/// Events per wire frame a live client sends: the batch size of the
/// serving layer's own clients (WireClient, the interposer).
inline constexpr uint64_t LiveBatchEvents = 8192;

/// One input of a workload: a trace (one per client for live_attach),
/// written to disk, with the oracle's verdicts.
struct Case {
  std::vector<rapid::Trace> Traces;
  /// Files holding Traces[i] as the workload delivers it (the binary
  /// container for Socket workloads, used by the offline layer probes).
  std::vector<std::string> Files;
  /// canonicalReport of sequential runDetector per lane, on the trace read
  /// back from Files[i] by the batch loader.
  std::vector<std::string> Expected;
  uint64_t Events = 0; ///< Events over all traces of the case.
};

/// Everything a run of one workload needs, prepared before timing starts.
struct Prepared {
  const WorkloadDef *W = nullptr;
  std::vector<Case> Cases; ///< InputsPerRun of them.
  std::string SocketPath;
};

/// What a measured run collects. Times in seconds.
struct Collected {
  std::vector<double> EventsPerS;
  std::vector<double> FinishToReport;
  std::vector<double> Setup;
  /// Peak resident MB of the process during each iteration.
  std::vector<double> PeakRssMb;
  std::vector<double> LagMs; ///< Live only: Events frame -> Ack.
  /// EventsPerS split by input (filled by the measuring loop).
  std::vector<std::vector<double>> ByInput;
  uint64_t Parks = 0;        ///< Live only: serve.parks summed.
  uint64_t Attempted = 0;    ///< Analysis sessions started.
  uint64_t Failed = 0;       ///< ... that ended in an error.
  uint64_t Mismatches = 0;   ///< ... whose report differed from the oracle.
  std::vector<std::string> Errors; ///< First few failure messages.
  unsigned PeakThreads = 0;        ///< Threads alive after set-up.

  void fail(const std::string &Why);
  void mismatch(const std::string &Why);
  /// Text form, for handing a child process's samples to its parent.
  std::string serialize() const;
  /// Adds the samples and counts of a serialize()d Collected.
  void absorb(const std::string &Text);
};

/// Writes the workload's inputs under \p WorkDir and computes the oracle.
Prepared prepare(const WorkloadDef &W, uint64_t Seed,
                 const std::string &WorkDir);

/// The oracle: canonical report of sequential runDetector, one lane per
/// kind, on \p T.
std::string oracleReport(const rapid::Trace &T,
                         const std::vector<rapid::DetectorKind> &Lanes);

/// One end-to-end iteration of \p P on input \p C (a session over the
/// file, or a live server with its clients), appending to \p Out. Spans go
/// under \p Parent when \p Spans is enabled.
void runIteration(const Prepared &P, const Case &C, Collected &Out,
                  SpanRecorder &Spans, uint32_t Parent);

/// The traced run's per-layer probes on \p P's first input, each repeated
/// for about \p Budget seconds; adds every per-layer metric except the
/// tracing overhead to \p Out.
void runLayerProbes(const Prepared &P, double Budget, SpanRecorder &Spans,
                    uint32_t Parent, MetricSet &Out, Collected &Checks,
                    std::vector<std::string> &Notes);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
