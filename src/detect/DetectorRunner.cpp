//===- detect/DetectorRunner.cpp ----------------------------------------------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
// The session-free oracles: runDetector is the timed full-trace walk, and
// runDetectorWindowed the plain windowed loop (a fresh detector per window,
// merged in window order). The analysis engine (api/AnalysisSession.h)
// shares only runDetectorOnWindow, the per-window unit of work, with them.
//
//===----------------------------------------------------------------------===//

#include "detect/DetectorRunner.h"

#include "support/Timer.h"
#include "trace/Window.h"

using namespace rapid;

Detector::~Detector() = default;
ShardReplayer::~ShardReplayer() = default;
ShardContext::~ShardContext() = default;

RunResult rapid::runDetector(Detector &D, const Trace &T) {
  Timer Clock;
  const std::vector<Event> &Events = T.events();
  for (EventIdx I = 0, E = Events.size(); I != E; ++I)
    D.processEvent(Events[I], I);
  D.finish();
  RunResult Result;
  Result.Seconds = Clock.seconds();
  Result.Report = D.report();
  Result.DetectorName = D.name();
  return Result;
}

RaceReport rapid::runDetectorOnWindow(Detector &D, const TraceWindow &W) {
  const std::vector<Event> &Events = W.Fragment.events();
  for (EventIdx I = 0, E = Events.size(); I != E; ++I)
    D.processEvent(Events[I], I);
  D.finish();
  RaceReport Translated;
  for (RaceInstance Inst : D.report().instances()) {
    Inst.EarlierIdx = W.Original[Inst.EarlierIdx];
    Inst.LaterIdx = W.Original[Inst.LaterIdx];
    Translated.addRace(Inst);
  }
  return Translated;
}

RunResult rapid::runDetectorWindowed(const DetectorFactory &Make,
                                     const Trace &T, uint64_t WindowSize) {
  if (WindowSize == 0) {
    std::unique_ptr<Detector> D = Make(T);
    return runDetector(*D, T);
  }
  Timer Clock;
  RunResult Result;
  for (const TraceWindow &W : splitIntoWindows(T, WindowSize)) {
    std::unique_ptr<Detector> D = Make(W.Fragment);
    if (Result.DetectorName.empty())
      Result.DetectorName = D->name();
    Result.Report.mergeFrom(runDetectorOnWindow(*D, W));
  }
  if (Result.DetectorName.empty())
    Result.DetectorName = Make(T)->name(); // No windows: an empty trace.
  Result.DetectorName += "[w=" + std::to_string(WindowSize) + "]";
  Result.Seconds = Clock.seconds();
  return Result;
}
