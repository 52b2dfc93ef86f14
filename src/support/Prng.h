//===- support/Prng.h - Deterministic pseudo-random numbers ----*- C++ -*-===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small, fast, deterministic PRNG (splitmix64 seeded xoshiro256**) used
/// by the trace generators and the simulated scheduler. We avoid <random>
/// engines because their streams are not guaranteed identical across
/// standard library implementations, and every experiment in this repo must
/// be reproducible bit-for-bit from a seed. Header-only, so the LD_PRELOAD
/// interposer can draw its backoff jitter from it without linking rapid.
///
//===----------------------------------------------------------------------===//

#ifndef RAPID_SUPPORT_PRNG_H
#define RAPID_SUPPORT_PRNG_H

#include <cassert>
#include <cstdint>

namespace rapid {

/// Deterministic 64-bit PRNG with a tiny state.
class Prng {
public:
  explicit Prng(uint64_t Seed) { reseed(Seed); }

  /// Re-initializes the state from \p Seed via splitmix64.
  void reseed(uint64_t Seed) {
    for (uint64_t &Word : State)
      Word = splitmix64(Seed);
  }

  /// Next raw 64-bit value (a xoshiro256** step).
  uint64_t next() {
    const uint64_t Result = rotl(State[1] * 5, 7) * 9;
    const uint64_t T = State[1] << 17;
    State[2] ^= State[0];
    State[3] ^= State[1];
    State[1] ^= State[2];
    State[0] ^= State[3];
    State[2] ^= T;
    State[3] = rotl(State[3], 45);
    return Result;
  }

  /// Uniform value in [0, Bound). \p Bound must be nonzero. Uses rejection
  /// sampling to avoid modulo bias.
  uint64_t nextBelow(uint64_t Bound) {
    assert(Bound != 0 && "nextBelow(0) is meaningless");
    // Retry while the draw falls in the biased tail.
    const uint64_t Threshold = -Bound % Bound;
    for (;;) {
      const uint64_t Draw = next();
      if (Draw >= Threshold)
        return Draw % Bound;
    }
  }

  /// Uniform value in [Lo, Hi] inclusive.
  uint64_t nextInRange(uint64_t Lo, uint64_t Hi) {
    assert(Lo <= Hi && "empty range");
    return Lo + nextBelow(Hi - Lo + 1);
  }

  /// True with probability Num/Den.
  bool chance(uint64_t Num, uint64_t Den) {
    assert(Den != 0 && "zero denominator");
    return nextBelow(Den) < Num;
  }

  /// Uniform double in [0, 1).
  double nextDouble() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

private:
  static uint64_t splitmix64(uint64_t &X) {
    X += 0x9e3779b97f4a7c15ULL;
    uint64_t Z = X;
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }

  static uint64_t rotl(uint64_t X, int K) { return (X << K) | (X >> (64 - K)); }

  uint64_t State[4];
};

} // namespace rapid

#endif // RAPID_SUPPORT_PRNG_H
