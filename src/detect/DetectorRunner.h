//===- detect/DetectorRunner.h - Timed analysis driver ----------*- C++ -*-===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives a streaming detector over a full trace (the unwindowed mode the
/// paper insists on) or over fixed-size windows (the handicapped mode other
/// sound tools are forced into, §1/§4), timing the analysis.
///
/// These are the session-free oracles the analysis engine
/// (api/AnalysisSession.h) is pinned against: runDetector is the plain
/// sequential walk, runDetectorWindowed the plain windowed loop. Both stay
/// deliberately simple and independent of the session so that a bug in
/// the engine cannot hide in its own reference.
///
//===----------------------------------------------------------------------===//

#ifndef RAPID_DETECT_DETECTORRUNNER_H
#define RAPID_DETECT_DETECTORRUNNER_H

#include "detect/Detector.h"

#include <functional>
#include <memory>

namespace rapid {

/// Outcome of one oracle run.
struct RunResult {
  RaceReport Report;
  double Seconds = 0;
  std::string DetectorName;
};

/// Runs \p D over all of \p T in trace order.
RunResult runDetector(Detector &D, const Trace &T);

struct TraceWindow;

/// Walks \p D over the fragment of \p W and returns its report with race
/// indices translated back to the parent trace — the per-window unit of
/// work shared by runDetectorWindowed and the session's windowed mode.
RaceReport runDetectorOnWindow(Detector &D, const TraceWindow &W);

/// Factory signature for windowed runs: each window gets a fresh detector,
/// mirroring how windowed tools restart their analysis per fragment.
using DetectorFactory = std::function<std::unique_ptr<Detector>(const Trace &)>;

/// Splits \p T into windows of \p WindowSize events, runs a fresh detector
/// per window in window order and merges the reports. Race indices in the
/// merged report are translated back to the parent trace so distances stay
/// meaningful. The name is "<name>[w=WindowSize]"; WindowSize == 0 means
/// no windowing (one runDetector walk, plain name).
RunResult runDetectorWindowed(const DetectorFactory &Make, const Trace &T,
                              uint64_t WindowSize);

} // namespace rapid

#endif // RAPID_DETECT_DETECTORRUNNER_H
