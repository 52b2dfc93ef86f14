//===- vc/VectorClock.cpp ---------------------------------------------------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//

#include "vc/VectorClock.h"

#include <algorithm>

using namespace rapid;

bool VectorClock::joinWith(ClockSpan Other) {
  // Components beyond Other's physical size are 0 in Other, so only the
  // overlap needs the max; beyond our own size we adopt Other's values.
  if (Other.Size > Values.size())
    Values.resize(Other.Size, 0);
  const ClockValue *Src = Other.Data;
  ClockValue *Dst = Values.data();
  bool Changed = false;
  for (size_t I = 0, E = Other.Size; I != E; ++I) {
    if (Src[I] > Dst[I]) {
      Dst[I] = Src[I];
      Changed = true;
    }
  }
  return Changed;
}

bool ClockSpan::lessOrEqual(const VectorClock &Other) const {
  const ClockValue *A = Data;
  const ClockValue *B = Other.data();
  const size_t Common = std::min<size_t>(Size, Other.size());
  for (size_t I = 0; I != Common; ++I)
    if (A[I] > B[I])
      return false;
  // Our tail past Other's physical size compares against implicit zeros.
  for (size_t I = Common; I != Size; ++I)
    if (A[I] != 0)
      return false;
  return true;
}

void VectorClock::copyTo(ClockValue *Dst, uint32_t Width) const {
  assert(Width >= size() && "destination narrower than the clock");
  std::copy(Values.begin(), Values.end(), Dst);
  std::fill(Dst + size(), Dst + Width, 0);
}

bool VectorClock::operator==(const VectorClock &Other) const {
  const ClockValue *A = Values.data();
  const ClockValue *B = Other.Values.data();
  const size_t Common = std::min(Values.size(), Other.Values.size());
  for (size_t I = 0; I != Common; ++I)
    if (A[I] != B[I])
      return false;
  for (size_t I = Common, E = Values.size(); I < E; ++I)
    if (A[I] != 0)
      return false;
  for (size_t I = Common, E = Other.Values.size(); I < E; ++I)
    if (B[I] != 0)
      return false;
  return true;
}

void VectorClock::clear() {
  std::fill(Values.begin(), Values.end(), 0);
}

std::string VectorClock::str() const {
  std::string Out = "[";
  for (size_t I = 0, E = Values.size(); I != E; ++I) {
    if (I != 0)
      Out += ", ";
    Out += std::to_string(Values[I]);
  }
  Out += "]";
  return Out;
}

VectorClock rapid::join(const VectorClock &A, const VectorClock &B) {
  VectorClock Result = A;
  Result.joinWith(B);
  return Result;
}
