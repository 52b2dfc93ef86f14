//===- Workloads.cpp - End-to-end iterations and their oracle -------------===//
//
// Part of rapidpp's benchmark (perfbench/).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "LiveClient.h"

#include "detect/DetectorRunner.h"
#include "io/TraceFile.h"
#include "serve/RaceServer.h"
#include "serve/ReportCanon.h"

#include <dirent.h>
#include <fstream>
#include <malloc.h>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

using namespace perfbench;
using namespace rapid;

void Collected::fail(const std::string &Why) {
  ++Failed;
  if (Errors.size() < 5)
    Errors.push_back(Why);
}

void Collected::mismatch(const std::string &Why) {
  ++Mismatches;
  if (Errors.size() < 5)
    Errors.push_back(Why);
}

// One line per field: "v <name> <values...>" for sample vectors,
// "c <name> <count>" for counts, "e <message>" for errors.
std::string Collected::serialize() const {
  std::string Out;
  auto Vec = [&](const std::string &Name, const std::vector<double> &V) {
    Out += "v " + Name;
    for (double X : V)
      Out += " " + fmtNumber(X);
    Out += "\n";
  };
  Vec("events_per_s", EventsPerS);
  Vec("finish_to_report_s", FinishToReport);
  Vec("setup_s", Setup);
  Vec("peak_rss_mb", PeakRssMb);
  Vec("lag_ms", LagMs);
  for (size_t I = 0; I != ByInput.size(); ++I)
    Vec("input." + std::to_string(I), ByInput[I]);
  for (auto [Name, N] : {std::pair<const char *, uint64_t>{"parks", Parks},
                         {"attempted", Attempted},
                         {"failed", Failed},
                         {"mismatches", Mismatches},
                         {"threads", PeakThreads}})
    Out += std::string("c ") + Name + " " + std::to_string(N) + "\n";
  for (const std::string &E : Errors)
    Out += "e " + E + "\n";
  return Out;
}

void Collected::absorb(const std::string &Text) {
  std::istringstream Lines(Text);
  std::string Line;
  while (std::getline(Lines, Line)) {
    std::istringstream F(Line);
    std::string Tag, Name;
    F >> Tag;
    if (Tag == "e") {
      if (Errors.size() < 5)
        Errors.push_back(Line.substr(2));
      continue;
    }
    F >> Name;
    if (Tag == "c") {
      uint64_t N = 0;
      F >> N;
      if (Name == "parks")
        Parks += N;
      else if (Name == "attempted")
        Attempted += N;
      else if (Name == "failed")
        Failed += N;
      else if (Name == "mismatches")
        Mismatches += N;
      else if (Name == "threads")
        PeakThreads = std::max<unsigned>(PeakThreads, N);
      continue;
    }
    std::vector<double> *V = Name == "events_per_s"         ? &EventsPerS
                             : Name == "finish_to_report_s" ? &FinishToReport
                             : Name == "setup_s"            ? &Setup
                             : Name == "peak_rss_mb"        ? &PeakRssMb
                             : Name == "lag_ms"             ? &LagMs
                                                            : nullptr;
    if (!V && Name.rfind("input.", 0) == 0) {
      const size_t I = std::stoul(Name.substr(6));
      if (ByInput.size() <= I)
        ByInput.resize(I + 1);
      V = &ByInput[I];
    }
    if (!V)
      throw std::runtime_error("unknown sample line: " + Line);
    double X;
    while (F >> X)
      V->push_back(X);
  }
}

/// Threads currently alive in this process.
static unsigned threadCount() {
  unsigned N = 0;
  if (DIR *D = ::opendir("/proc/self/task")) {
    while (dirent *E = ::readdir(D))
      if (E->d_name[0] != '.')
        ++N;
    ::closedir(D);
  }
  return N;
}

std::string perfbench::oracleReport(const Trace &T,
                                    const std::vector<DetectorKind> &Lanes) {
  AnalysisResult R;
  R.EventsIngested = T.size();
  for (DetectorKind K : Lanes) {
    std::unique_ptr<Detector> D = makeDetectorFactory(K)(T);
    RunResult Run = runDetector(*D, T);
    LaneReport L;
    L.DetectorName = Run.DetectorName;
    L.Report = std::move(Run.Report);
    L.EventsConsumed = T.size();
    R.Lanes.push_back(std::move(L));
  }
  return canonicalReport(R, T);
}

Prepared perfbench::prepare(const WorkloadDef &W, uint64_t Seed,
                            const std::string &WorkDir) {
  Prepared P;
  P.W = &W;
  for (std::vector<Trace> &Traces : makeTraces(W, Seed)) {
    Case C;
    C.Traces = std::move(Traces);
    for (const Trace &T : C.Traces) {
      const std::string Path = WorkDir + "/" + W.Name + "-" +
                               std::to_string(P.Cases.size()) + "-" +
                               std::to_string(C.Files.size()) +
                               fileExtension(W);
      const std::string Bytes = serialize(W, T);
      std::ofstream(Path, std::ios::binary).write(Bytes.data(), Bytes.size());
      // The oracle reads the file back through the batch loader, a path
      // independent of the streaming session under test.
      TraceLoadResult L = loadTraceFile(Path);
      if (!L.Ok || L.T.size() != T.size())
        throw std::runtime_error("cannot read back " + Path + ": " + L.Error);
      C.Files.push_back(Path);
      C.Expected.push_back(oracleReport(L.T, W.Lanes));
      C.Events += T.size();
    }
    P.Cases.push_back(std::move(C));
  }
  P.SocketPath = WorkDir + "/serve.sock";
  return P;
}

static void checkReport(Collected &Out, const std::string &Got,
                        const std::string &Want, const std::string &What) {
  if (Got != Want)
    Out.mismatch(What + ": report differs from sequential runDetector");
}

static void offlineIteration(const Prepared &P, const Case &In,
                             Collected &Out, SpanRecorder &Spans) {
  const uint64_t T0 = nowNs();
  std::unique_ptr<AnalysisSession> S;
  {
    Scope Sp(Spans, "api.AnalysisSession");
    S = std::make_unique<AnalysisSession>(sessionConfig(*P.W));
  }
  const uint64_t T1 = nowNs();
  Out.PeakThreads = std::max(Out.PeakThreads, threadCount());
  const uint64_t T2 = nowNs();
  Status Fed;
  {
    Scope Sp(Spans, "api.feedFile");
    Fed = S->feedFile(In.Files[0]);
  }
  const uint64_t T3 = nowNs();
  AnalysisResult R;
  {
    Scope Sp(Spans, "api.finish");
    R = S->finish();
  }
  const uint64_t T4 = nowNs();
  ++Out.Attempted;
  if (!Fed.ok() || !R.ok()) {
    Out.fail("session: " + (Fed.ok() ? R.firstError() : Fed).str());
    return;
  }
  checkReport(Out, canonicalReport(R, S->trace()), In.Expected[0],
              std::string(P.W->Name) + " session");
  Out.Setup.push_back((T1 - T0) / 1e9);
  Out.EventsPerS.push_back(In.Events / ((T4 - T2) / 1e9));
  Out.FinishToReport.push_back((T4 - T3) / 1e9);
}

static void liveIteration(const Prepared &P, const Case &In, Collected &Out,
                          SpanRecorder &Spans) {
  RaceServerConfig Cfg;
  Cfg.Session = sessionConfig(*P.W);
  Cfg.SocketPath = P.SocketPath;
  const size_t N = In.Traces.size();
  std::vector<std::unique_ptr<LiveClient>> Clients;
  std::vector<Status> St(N);

  const uint64_t T0 = nowNs();
  RaceServer Srv(Cfg);
  Status Started;
  {
    Scope Sp(Spans, "serve.RaceServer.start");
    Started = Srv.start();
  }
  const uint64_t FirstConnect = nowNs();
  for (size_t C = 0; C != N && Started.ok(); ++C) {
    Scope Sp(Spans, "serve.client.connect");
    Clients.push_back(std::make_unique<LiveClient>());
    St[C] = Clients[C]->connect(P.SocketPath, 2000);
  }
  const uint64_t T1 = nowNs();
  Out.Attempted += N;
  if (!Started.ok()) {
    Out.fail("server start: " + Started.str());
    Out.Failed += N - 1;
    return;
  }
  Out.PeakThreads = std::max(Out.PeakThreads, threadCount());

  std::vector<std::thread> Threads;
  {
    Scope Sp(Spans, "serve.clients.stream");
    for (size_t C = 0; C != N; ++C)
      if (St[C].ok())
        Threads.emplace_back([&, C, Parent = Sp.id()] {
          St[C] = Clients[C]->stream(In.Traces[C], LiveBatchEvents, Spans,
                                     Parent);
        });
    for (std::thread &T : Threads)
      T.join();
  }
  uint64_t LastReport = 0;
  for (size_t C = 0; C != N; ++C)
    LastReport = std::max(LastReport, Clients[C]->reportNs());
  // metrics() names drop the "serve." prefix.
  for (const MetricSample &M : Srv.metrics())
    if (M.Name == "parks")
      Out.Parks += M.Value;
  {
    Scope Sp(Spans, "serve.RaceServer.stop");
    Srv.stop();
  }
  const std::vector<SessionSummary> Finished = Srv.finishedSessions();
  bool AllOk = true;
  for (size_t C = 0; C != N; ++C) {
    for (const SessionSummary &S : Finished)
      if (St[C].ok() && S.Id == Clients[C]->sessionId() &&
          (!S.Outcome.ok() || !S.CleanFinish))
        St[C] = S.Outcome.ok() ? Status(StatusCode::InvalidState,
                                        "session evicted before Finish")
                               : S.Outcome;
    if (!St[C].ok()) {
      Out.fail("client " + std::to_string(C) + ": " + St[C].str());
      AllOk = false;
      continue;
    }
    checkReport(Out, Clients[C]->report(), In.Expected[C],
                "live client " + std::to_string(C));
    Out.FinishToReport.push_back(
        (Clients[C]->reportNs() - Clients[C]->finishSentNs()) / 1e9);
    const std::vector<double> &Lag = Clients[C]->appliedLagMs();
    Out.LagMs.insert(Out.LagMs.end(), Lag.begin(), Lag.end());
  }
  if (!AllOk)
    return;
  Out.Setup.push_back((T1 - T0) / 1e9);
  Out.EventsPerS.push_back(In.Events / ((LastReport - FirstConnect) / 1e9));
}

/// Returns freed heap to the kernel, then resets the kernel's peak-RSS mark
/// (VmHWM) to the current RSS, so each iteration's peak starts from the
/// same baseline instead of whatever the previous one left cached. Where
/// the kernel does not allow the reset, VmHWM stays the process peak.
static void resetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// VmHWM in MB, or 0 if /proc is unreadable.
static double peakRssMb() {
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::stod(Line.substr(6)) / 1024.0; // Reported in kB.
  return 0;
}

void perfbench::runIteration(const Prepared &P, const Case &In,
                             Collected &Out, SpanRecorder &Spans,
                             uint32_t Parent) {
  Scope It(Spans, "iteration", Parent);
  resetPeakRss();
  if (P.W->How == Delivery::Socket)
    liveIteration(P, In, Out, Spans);
  else
    offlineIteration(P, In, Out, Spans);
  Out.PeakRssMb.push_back(peakRssMb());
}
