//===- detect/Detector.h - Streaming detector interface ---------*- C++ -*-===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The common interface of all single-pass (streaming) race detectors: HB,
/// FastTrack, WCP and lockset. A detector is constructed against a trace's
/// dimensions (threads/locks/vars), consumes events in trace order, and
/// accumulates findings in a RaceReport.
///
//===----------------------------------------------------------------------===//

#ifndef RAPID_DETECT_DETECTOR_H
#define RAPID_DETECT_DETECTOR_H

#include "detect/RaceReport.h"
#include "obs/Metrics.h"
#include "trace/Trace.h"

#include <memory>
#include <string>
#include <vector>

namespace rapid {

class AccessChecker;
class AccessLog;

/// Abstract streaming race detector.
class Detector {
public:
  virtual ~Detector();

  /// Processes the \p Index-th event of the trace.
  virtual void processEvent(const Event &E, EventIdx Index) = 0;

  /// Per-variable sharded mode (detect/ShardedAccessHistory.h). A
  /// detector whose race checks partition by variable redirects them into
  /// \p Log — subsequent processEvent calls run only the clock machinery
  /// and append each read/write with its clocks — and returns true. The
  /// base class does not support it; such detectors run their lane
  /// sequentially in var-sharded runs.
  virtual bool beginCapture(AccessLog &Log) {
    (void)Log;
    return false;
  }

  /// Builds the per-variable check one shard of a var-sharded lane drains
  /// its accesses through: the same check the detector's sequential walk
  /// runs (detect/AccessChecker.h). \p NumLocalVars / \p NumThreads are
  /// sizing hints. Called only after beginCapture returned true, and the
  /// checker may read lane-wide state the detector owns, so the detector
  /// must outlive it. Default: null (no capture support).
  virtual std::unique_ptr<AccessChecker>
  makeAccessChecker(uint32_t NumLocalVars, uint32_t NumThreads) const;

  /// Called once after the last event; detectors with buffered state may
  /// flush diagnostics here.
  virtual void finish() {}

  /// Short name used by reports and tables ("HB", "WCP", ...).
  virtual std::string name() const = 0;

  /// Appends detector-specific metric samples to \p Out (e.g. WCP's
  /// "wcp.queue_peak_abstract" — the paper's Table 1 queue telemetry).
  /// Called under the owning lane's snapshot lock, possibly mid-stream:
  /// implementations must only read state, never mutate it. Default: no
  /// samples.
  virtual void telemetry(std::vector<MetricSample> &Out) const { (void)Out; }

  const RaceReport &report() const { return Report; }
  RaceReport &report() { return Report; }

protected:
  RaceReport Report;
};

} // namespace rapid

#endif // RAPID_DETECT_DETECTOR_H
