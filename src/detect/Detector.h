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

class AccessLog;
struct DeferredAccess;
class VectorClock;

/// How a capture-capable detector's deferred checks are replayed inside a
/// per-variable shard (detect/ShardedAccessHistory.h). Most detectors
/// replay through the shared full-history AccessHistory; FastTrack keeps
/// epoch/last-access state per variable instead, so its shard replay runs
/// the epoch algorithm; SyncP filters the full-history candidates through
/// its closure engine (src/syncp/), reached via the detector's
/// ShardContext.
enum class ShardReplay : uint8_t {
  FullHistory,    ///< AccessHistory checkRead/checkWrite + record (HB, WCP).
  FastTrackEpoch, ///< FastTrack's epoch checks, replayed per variable.
  SyncPClosure,   ///< Candidate pairs filtered by the SP-closure.
};

/// Per-shard replay engine for detectors whose shard checks need state
/// beyond the deferred access itself (ShardReplay::SyncPClosure). One
/// instance per shard, driven in that shard's trace order; instances for
/// distinct shards run concurrently, so anything shared through the
/// ShardContext must be safe to read in place.
class ShardReplayer {
public:
  virtual ~ShardReplayer();

  /// Replays one deferred access: run the detector-specific check, append
  /// findings (with \p A's parent-trace Var restored) to \p Out, record
  /// the access. \p Local is A.Var's dense shard-local id, \p Ce / \p Hard
  /// the clock snapshots the capture pass stored.
  virtual void replay(const DeferredAccess &A, VarId Local,
                      const VectorClock &Ce, const VectorClock *Hard,
                      std::vector<RaceInstance> &Out) = 0;
};

/// Read-only handle a capturing detector exports so shard checks can reach
/// lane-wide state the clock pass built (e.g. the SyncP event index). The
/// detector owns it and must outlive every shard using it; shard drains
/// read it concurrently with the capture pass appending, synchronized
/// through the AccessLog commit watermark.
class ShardContext {
public:
  virtual ~ShardContext();

  /// Builds the replay engine for one shard (sizing hints as in
  /// ShardChecker's constructor — engines grow on first touch).
  virtual std::unique_ptr<ShardReplayer>
  makeReplayer(uint32_t NumLocalVars, uint32_t NumThreads) const = 0;
};

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

  /// Which replay engine the shard phase must use for this detector's
  /// deferred checks. Only meaningful when beginCapture returned true.
  virtual ShardReplay shardReplay() const { return ShardReplay::FullHistory; }

  /// Lane-wide state the shard phase needs when shardReplay() is a
  /// context-bearing kind (SyncPClosure); null for the self-contained
  /// replays. Owned by the detector, which outlives every shard check.
  virtual const ShardContext *shardContext() const { return nullptr; }

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
