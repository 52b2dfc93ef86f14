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

#include "detect/Detector.h"
#include "vc/Epoch.h"
#include "vc/VectorClock.h"

#include <vector>

namespace rapid {

/// Streaming FastTrack detector.
class FastTrackDetector : public Detector {
public:
  explicit FastTrackDetector(const Trace &T);

  void processEvent(const Event &E, EventIdx Index) override;
  std::string name() const override { return "FastTrack"; }

  /// FastTrack's epoch checks partition by variable exactly like the
  /// full-history detectors' — all they need at an access is C_t, which
  /// the capture pass snapshots. Only the VarState machinery is deferred;
  /// the shard phase replays it with ShardReplay::FastTrackEpoch.
  bool beginCapture(AccessLog &Log) override {
    Capture = &Log;
    return true;
  }
  ShardReplay shardReplay() const override {
    return ShardReplay::FastTrackEpoch;
  }

  /// Number of variables whose read history ever needed a full vector
  /// clock (telemetry: the paper's motivation for epochs is that this is
  /// rare). Zero in capture mode — promotion happens in the shards.
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

  /// Admits threads [size, T] (local time 1, as at construction) and
  /// raises the high-water NumThreads.
  void ensureThread(ThreadId T);
  void ensureLock(LockId L);
  VarState &varState(VarId V);

  void incrementLocal(ThreadId T);
  void reportRace(EventIdx EarlierIdx, LocId EarlierLoc, EventIdx LaterIdx,
                  LocId LaterLoc, VarId Var);

  uint32_t NumThreads; ///< High-water thread count (promotion sizing).
  std::vector<VectorClock> ThreadClocks;
  /// Change epoch of C_t (see HbDetector::ClockEpochs): O(1) snapshot
  /// dedup in capture mode; local increments do not bump it.
  std::vector<uint64_t> ClockEpochs;
  std::vector<VectorClock> LockClocks;
  std::vector<VarState> Vars;
  uint64_t ReadPromotions = 0;
  AccessLog *Capture = nullptr; ///< Non-null in capture mode.
};

} // namespace rapid

#endif // RAPID_HB_FASTTRACKDETECTOR_H
