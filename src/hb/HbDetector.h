//===- hb/HbDetector.h - Happens-before vector-clock detector ---*- C++ -*-===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The classical linear-time HB race detector (Lamport [22], vector clocks
/// per Mattern [25], Djit+ [29]): the baseline RAPID also implements and
/// the paper compares against in Table 1 columns 7 and 13. Unlike the HB
/// baselines in prior evaluations ([18], [41]), this implementation is
/// deliberately *unwindowed* — §4.3 shows that windowed HB under-reports.
///
/// HB ordering (Definition 1): thread order, plus rel(l) before any later
/// acq(l). Fork/join edges are included the way RAPID consumes them from
/// RVPredict logs: fork before the child's first event, the child's last
/// event before join.
///
//===----------------------------------------------------------------------===//

#ifndef RAPID_HB_HBDETECTOR_H
#define RAPID_HB_HBDETECTOR_H

#include "detect/AccessChecker.h"
#include "detect/Detector.h"
#include "vc/VectorClock.h"

#include <vector>

namespace rapid {

/// Streaming HB detector with full per-thread access histories (reports
/// both endpoints of every distinct race pair). All state is growable:
/// threads, locks and variables first seen mid-stream are admitted with
/// the same initial state a full-table construction would have given
/// them, so a detector built against a trace prefix reports bit-for-bit
/// what a detector built against the final tables reports.
class HbDetector : public Detector {
public:
  explicit HbDetector(const Trace &T);

  void processEvent(const Event &E, EventIdx Index) override;
  std::string name() const override { return "HB"; }

  /// HB race checks depend only on C_t at the access, so they partition
  /// by variable: capture mode defers them into \p Log.
  bool beginCapture(AccessLog &Log) override {
    Capture = &Log;
    return true;
  }
  std::unique_ptr<AccessChecker>
  makeAccessChecker(uint32_t NumLocalVars, uint32_t NumThreads) const override {
    return std::make_unique<FullHistoryChecker>(NumLocalVars, NumThreads);
  }

  /// The HB time C_e of the last processed event (testing hook).
  const VectorClock &threadClock(ThreadId T) const {
    return ThreadClocks[T.value()];
  }

private:
  void incrementLocal(ThreadId T);
  /// Admits threads [size, T]: every new thread starts at local time 1,
  /// exactly as the constructor initializes declared-up-front threads.
  void ensureThread(ThreadId T);
  /// Admits locks up to \p L (new locks start at ⊥, as at construction).
  void ensureLock(LockId L);

  std::vector<VectorClock> ThreadClocks; ///< C_t per thread.
  /// Change epoch of C_t, bumped whenever a component other than C_t(t)
  /// mutates (acquire and join joins that added something). The
  /// release/fork increments touch only C_t(t), which no race check reads
  /// (the access carries it as DeferredAccess::N), so they leave the epoch
  /// alone. Capture mode hands it to the ClockBroadcast so consecutive
  /// accesses between sync events intern their snapshot in O(1) instead
  /// of an O(threads) content compare.
  std::vector<uint64_t> ClockEpochs;
  std::vector<VectorClock> LockClocks;   ///< L_l per lock.
  FullHistoryChecker Checker; ///< Sequential-mode checks.
  std::vector<RaceInstance> Scratch;
  AccessLog *Capture = nullptr; ///< Non-null in capture mode.
};

} // namespace rapid

#endif // RAPID_HB_HBDETECTOR_H
