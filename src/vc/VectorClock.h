//===- vc/VectorClock.h - Vector times (paper §3.1) -------------*- C++ -*-===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Vector times as defined in §3.1 of the paper: a map Tid -> Nat with
/// pointwise comparison (⊑), pointwise-maximum join (⊔), component
/// assignment V[t := n], and the ⊥ time mapping every thread to 0.
///
/// The representation is a flat array with *implicit-zero extension*: a
/// clock conceptually maps every thread id to a value, and components at
/// or beyond the physical size read as 0. All operations are legal across
/// clocks of different physical sizes — join grows the receiver only as
/// far as the argument's physical size, comparison treats missing tails
/// as ⊥, assignment grows on demand (a zero assignment past the end is a
/// no-op), and equality is semantic (trailing zeros are invisible).
///
/// This is what lets detector state grow mid-stream: a detector built
/// against a trace prefix with fewer threads keeps analyzing, bit-for-bit
/// with a detector built against the final tables, because every clock it
/// owns behaves as if it had always been wide enough. Batch runs size
/// their clocks up front (the trace header records the counts) and never
/// hit the growth paths, so the hot loop still does no allocation.
///
//===----------------------------------------------------------------------===//

#ifndef RAPID_VC_VECTORCLOCK_H
#define RAPID_VC_VECTORCLOCK_H

#include "support/Ids.h"

#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace rapid {

/// A single component of a vector time: the local time of one thread.
using ClockValue = uint32_t;

class VectorClock;

/// Read-only view of a vector time stored outside a VectorClock (detectors
/// keep clocks they copy per event in flat arenas). Same implicit-zero
/// extension: components at or beyond Size read as 0.
struct ClockSpan {
  const ClockValue *Data = nullptr;
  uint32_t Size = 0;

  /// Pointwise comparison against \p Other, with implicit-zero tails.
  bool lessOrEqual(const VectorClock &Other) const;
};

/// Vector time over an open-ended set of threads (paper §3.1): components
/// beyond the physical size are implicitly 0.
class VectorClock {
public:
  /// The ⊥ clock, physically sized for \p NumThreads threads (all
  /// components zero; the size is a capacity hint, not a semantic bound).
  explicit VectorClock(uint32_t NumThreads = 0) : Values(NumThreads, 0) {}

  /// Physical size: the number of explicitly stored components.
  uint32_t size() const { return static_cast<uint32_t>(Values.size()); }

  /// Component read: V(t). Components past the physical size are 0.
  ClockValue get(ThreadId T) const {
    return T.value() < Values.size() ? Values[T.value()] : 0;
  }

  /// Component assignment: V[t := n]. Grows the physical representation on
  /// demand; assigning 0 past the end is the identity.
  void set(ThreadId T, ClockValue N) {
    if (T.value() >= Values.size()) {
      if (N == 0)
        return;
      Values.resize(T.value() + 1, 0);
    }
    Values[T.value()] = N;
  }

  /// Pointwise maximum: *this := *this ⊔ Other. Grows to Other's physical
  /// size when Other is wider. Returns true iff any component changed —
  /// the hook detectors use to keep their clock epochs (and with them the
  /// ClockBroadcast snapshot dedup) precise without a content compare.
  bool joinWith(const VectorClock &Other) { return joinWith(Other.span()); }
  bool joinWith(ClockSpan Other);

  /// Pointwise comparison: *this ⊑ Other, with implicit-zero tails.
  bool lessOrEqual(const VectorClock &Other) const {
    return span().lessOrEqual(Other);
  }

  /// Resets every component to zero (⊥). Keeps the physical capacity.
  void clear();

  /// Semantic equality: equal on every thread id, so physical sizes may
  /// differ as long as the longer tail is all zeros.
  bool operator==(const VectorClock &Other) const;
  bool operator!=(const VectorClock &Other) const {
    return !(*this == Other);
  }

  /// Renders as "[3, 0, 1]" for diagnostics (physical components only).
  std::string str() const;

  /// Direct access for the hot loops (DetectorRunner, queues). Only the
  /// physical components are addressable.
  const ClockValue *data() const { return Values.data(); }
  ClockValue *data() { return Values.data(); }

  /// The physical components as a span.
  ClockSpan span() const { return ClockSpan{Values.data(), size()}; }

  /// Copies the physical components into \p Dst and zero-fills it up to
  /// \p Width (>= size()): the stored copy is semantically this clock.
  void copyTo(ClockValue *Dst, uint32_t Width) const;

private:
  std::vector<ClockValue> Values;
};

/// Returns A ⊔ B as a fresh clock.
VectorClock join(const VectorClock &A, const VectorClock &B);

} // namespace rapid

#endif // RAPID_VC_VECTORCLOCK_H
