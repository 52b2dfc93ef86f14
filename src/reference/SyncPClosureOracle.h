//===- reference/SyncPClosureOracle.h - Per-pair SP-closure -----*- C++ -*-===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reference sync-preserving decision procedure (after Mathur,
/// Pavlogiannis, Viswanathan, "Optimal Prediction of Synchronization-
/// Preserving Races", POPL'21 — PAPERS.md): for one candidate pair it
/// computes the SP-closure of the two program-order prefixes from scratch
/// and accepts iff neither endpoint is forced into it. On acceptance it
/// also returns the witness schedule (the ideal in trace order, then the
/// two candidates), which verify/Reordering's checkRaceWitness validates.
///
/// Cost is O(|ideal|) ⊆ O(E2) per pair — superlinear over a whole trace,
/// which is why the streaming lane uses syncp/'s incremental checker
/// instead. This engine is the oracle that checker is pinned against. It
/// derives its own per-event edges from the Trace (program-order
/// predecessor, starting fork, and the kind-specific read→last writer,
/// join→child's last event, acquire→matching release), so it shares no
/// code with the index the lane builds online.
///
//===----------------------------------------------------------------------===//

#ifndef RAPID_REFERENCE_SYNCPCLOSUREORACLE_H
#define RAPID_REFERENCE_SYNCPCLOSUREORACLE_H

#include "trace/Trace.h"

#include <vector>

namespace rapid {

/// Per-pair SP-closure over one trace; immutable after construction.
class SyncPClosureOracle {
public:
  explicit SyncPClosureOracle(const Trace &T);

  /// Decides whether the conflicting pair (\p E1, \p E2), E1 < E2 on
  /// different threads, is a sync-preserving race. On success,
  /// \p WitnessOut (if non-null) receives the witness schedule.
  bool isSyncPreservingRace(EventIdx E1, EventIdx E2,
                            std::vector<EventIdx> *WitnessOut = nullptr) const;

private:
  static constexpr EventIdx kNone = UINT64_MAX;

  struct Edges {
    uint32_t Thread = 0;
    EventKind Kind = EventKind::Read;
    uint32_t Lock = 0;     ///< Acquires only.
    EventIdx Prev = kNone; ///< Program-order predecessor.
    EventIdx Fork = kNone; ///< Fork that started the thread.
    EventIdx Aux = kNone;  ///< Read: last writer; Join: child's last
                           ///< event; Acquire: matching release.
  };

  std::vector<Edges> Nodes;
};

} // namespace rapid

#endif // RAPID_REFERENCE_SYNCPCLOSUREORACLE_H
