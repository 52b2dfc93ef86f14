//===- hb/FastTrackDetector.h - Epoch-optimized HB --------------*- C++ -*-===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// FastTrack [14]: the epoch optimization of the HB vector-clock algorithm.
/// The paper's conclusion lists "use of epoch based optimizations for
/// improving memory requirements" as future work; this detector implements
/// the optimization for the HB side and serves as the reference point for
/// what the optimization buys (bench_detectors).
///
/// Most variables have totally ordered access histories, so a single epoch
/// c@t replaces the O(T) vector; read histories adaptively promote to a
/// full vector clock when concurrent reads appear. FastTrack detects a race
/// on a variable iff the full-history detector does (it may report fewer
/// *distinct pairs* because it keeps only the most recent write).
///
//===----------------------------------------------------------------------===//

#ifndef RAPID_HB_FASTTRACKDETECTOR_H
#define RAPID_HB_FASTTRACKDETECTOR_H

#include "detect/AccessChecker.h"
#include "detect/Detector.h"
#include "vc/Epoch.h"
#include "vc/VectorClock.h"

#include <vector>

namespace rapid {

/// FastTrack's per-variable epoch state and checks: the one copy both the
/// sequential walk and every var-sharded drain run. C_t arrives as the
/// access's check clock (a broadcast snapshot in a drain), read only on
/// other threads' components.
class FastTrackChecker final : public AccessChecker {
public:
  FastTrackChecker(uint32_t NumVars, uint32_t NumThreads)
      : NumThreads(NumThreads), Vars(NumVars) {}

  void check(const DeferredAccess &A, VarId Local, const VectorClock &Ct,
             const VectorClock *Hard,
             std::vector<RaceInstance> &Out) override;

  /// Variables whose read history needed a full vector clock.
  uint64_t numReadVectorPromotions() const { return ReadPromotions; }

private:
  struct ReadLocInfo {
    LocId Loc;
    EventIdx Idx = 0;
  };

  struct VarState {
    Epoch Write;               ///< Last write epoch.
    LocId WriteLoc;            ///< Location of last write.
    EventIdx WriteIdx = 0;     ///< Trace index of last write.
    Epoch Read;                ///< Last read epoch (when not promoted).
    LocId ReadLoc;             ///< Location of last read (epoch mode).
    EventIdx ReadIdx = 0;      ///< Index of last read (epoch mode).
    bool ReadShared = false;   ///< True once promoted to a vector.
    VectorClock ReadVC;        ///< Per-thread read clocks (promoted mode).
    std::vector<ReadLocInfo> ReadInfo; ///< Per-thread read locs (promoted).
  };

  uint32_t NumThreads; ///< High-water accessing thread (promotion sizing).
  std::vector<VarState> Vars;
  uint64_t ReadPromotions = 0;
};

/// Streaming FastTrack detector.
class FastTrackDetector : public Detector {
public:
  explicit FastTrackDetector(const Trace &T);

  void processEvent(const Event &E, EventIdx Index) override;
  std::string name() const override { return "FastTrack"; }

  /// FastTrack's epoch checks partition by variable exactly like the
  /// full-history detectors' — all they need at an access is C_t, which
  /// the capture pass snapshots. Only the FastTrackChecker is deferred.
  bool beginCapture(AccessLog &Log) override {
    Capture = &Log;
    return true;
  }
  std::unique_ptr<AccessChecker>
  makeAccessChecker(uint32_t NumLocalVars, uint32_t NumThreads) const override {
    return std::make_unique<FastTrackChecker>(NumLocalVars, NumThreads);
  }

  /// Number of variables whose read history ever needed a full vector
  /// clock (telemetry: the paper's motivation for epochs is that this is
  /// rare). Zero in capture mode — promotion happens in the shards.
  uint64_t numReadVectorPromotions() const {
    return Checker.numReadVectorPromotions();
  }

private:
  /// Admits threads [size, T] (local time 1, as at construction).
  void ensureThread(ThreadId T);
  void ensureLock(LockId L);

  void incrementLocal(ThreadId T);

  std::vector<VectorClock> ThreadClocks;
  /// Change epoch of C_t (see HbDetector::ClockEpochs): O(1) snapshot
  /// dedup in capture mode; local increments do not bump it.
  std::vector<uint64_t> ClockEpochs;
  std::vector<VectorClock> LockClocks;
  FastTrackChecker Checker; ///< Sequential-mode checks.
  std::vector<RaceInstance> Scratch;
  AccessLog *Capture = nullptr; ///< Non-null in capture mode.
};

} // namespace rapid

#endif // RAPID_HB_FASTTRACKDETECTOR_H
