//===- detect/AccessChecker.h - Per-variable race check ---------*- C++ -*-===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-variable half of a detector. The paper's race check (§3.2)
/// tests W_x ⊑ C_e at a read and R_x ⊔ W_x ⊑ C_e at a write; HB, WCP,
/// FastTrack and SyncP differ only in the clock that stands in for C_e and
/// in what filters a candidate. An AccessChecker is that check together
/// with the per-variable state it updates.
///
/// Each capturing detector has exactly one checker class, and it serves
/// both of the detector's walks: the sequential walk owns one checker of
/// the concrete (final) type and calls it directly, and every
/// per-variable shard of a var-sharded lane drains its accesses through
/// one built by Detector::makeAccessChecker. Conflicts only exist between
/// accesses to the same variable (§2.1), so a checker fed one shard's
/// accesses in trace order decides exactly what the sequential walk
/// decides for them.
///
//===----------------------------------------------------------------------===//

#ifndef RAPID_DETECT_ACCESSCHECKER_H
#define RAPID_DETECT_ACCESSCHECKER_H

#include "detect/AccessHistory.h"
#include "detect/Race.h"
#include "vc/VectorClock.h"

#include <cstdint>
#include <vector>

namespace rapid {

/// One read/write as a checker sees it. A var-sharded lane's clock pass
/// defers it into an AccessLog (detect/ShardedAccessHistory.h), with the
/// event's clocks referenced into the broadcast table; those snapshots
/// stand in for C_e on every component *except* the accessing thread's
/// own: checkers never read C_e(t(e)) (AccessHistory::checkAgainst skips
/// Self, and FastTrack guards each epoch test with Thread != T), and the
/// access carries that component as N. Capturing detectors rely on this
/// to keep their snapshot epoch across local clock increments.
struct DeferredAccess {
  static constexpr uint32_t NoClock = UINT32_MAX;

  EventIdx Idx = 0;     ///< Parent-trace index of the access.
  VarId Var;            ///< Accessed variable (selects the shard).
  ThreadId Thread;      ///< Accessing thread.
  LocId Loc;            ///< Program location.
  ClockValue N = 0;     ///< Local time to record (C_e's own component).
  bool IsWrite = false;
  uint32_t Clock = 0;   ///< Snapshot index of C_e (deferred accesses only).
  uint32_t Hard = NoClock; ///< Snapshot index of the hard clock, if any.
};

/// A detector's per-variable race check. Variables and threads first seen
/// mid-stream start in the state up-front construction gives them: the
/// constructor counts of every implementation are sizing hints only.
class AccessChecker {
public:
  virtual ~AccessChecker() = default;

  /// Checks \p A against its variable's history, appends one finding per
  /// race (carrying A's parent-trace Var) to \p Out, and records \p A.
  /// \p Local is A.Var's dense id in this checker's variable space (A.Var
  /// itself in a sequential walk). \p Ce stands in for C_e as described
  /// at DeferredAccess; \p Hard, when non-null, is a second clock
  /// consulted with ⊔ semantics (WCP's fork/join order K_t).
  virtual void check(const DeferredAccess &A, VarId Local,
                     const VectorClock &Ce, const VectorClock *Hard,
                     std::vector<RaceInstance> &Out) = 0;
};

/// The full-history check of HB and WCP: a race with every unordered last
/// access per (variable, thread) — see AccessHistory.
class FullHistoryChecker final : public AccessChecker {
public:
  FullHistoryChecker(uint32_t NumVars, uint32_t NumThreads)
      : History(NumVars, NumThreads) {}

  void check(const DeferredAccess &A, VarId Local, const VectorClock &Ce,
             const VectorClock *Hard,
             std::vector<RaceInstance> &Out) override {
    size_t Before = Out.size();
    if (A.IsWrite) {
      History.checkWrite(Local, A.Thread, Ce, A.Loc, A.Idx, Out, Hard);
      History.recordWrite(Local, A.Thread, A.N, A.Loc, A.Idx);
    } else {
      History.checkRead(Local, A.Thread, Ce, A.Loc, A.Idx, Out, Hard);
      History.recordRead(Local, A.Thread, A.N, A.Loc, A.Idx);
    }
    // The history only knows Local; report the parent variable.
    for (size_t R = Before; R != Out.size(); ++R)
      Out[R].Var = A.Var;
  }

private:
  AccessHistory History;
};

} // namespace rapid

#endif // RAPID_DETECT_ACCESSCHECKER_H
