//===- support/PublishedStore.h - Watermark-published SPMC store *- C++ -*-===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A single-writer, multi-reader append-only store published by an atomic
/// watermark — the session streaming engine's replacement for the
/// mutex-guarded prefix + per-consumer batch copies.
///
/// The idea is the degenerate (retry-free) case of a seqlock: data below a
/// monotone watermark is immutable, so readers never need a retry loop.
/// The writer appends into geometrically growing chunks reached through a
/// fixed directory of atomic pointers — growth allocates a new chunk and
/// never moves an element, so a reference obtained below the watermark
/// stays valid for the store's lifetime. Publication is one release-or-
/// stronger store of the watermark; consumption is one acquire load plus
/// in-place reads. Zero copies, zero locks on the hot path. A store can
/// also adopt a caller's complete array in place (adopt()) — how the
/// one-shot analyzeTrace runs the session engine without copying events.
///
/// Visibility argument (what makes the relaxed chunk-pointer loads sound):
/// every element write and every chunk-directory store by the writer is
/// sequenced before the watermark store that publishes it; a reader's
/// acquire load of the watermark therefore happens-after all of them, and
/// any subsequent read of a published slot — including the directory load
/// that locates it — is an ordinary read of memory written happens-before.
///
/// Blocking readers park on an eventcount (WaitM/WakeCV/Sleepers) with the
/// classic Dekker handshake: the parker registers in Sleepers and then
/// re-checks the watermark with a seq_cst load; the writer stores the
/// watermark seq_cst and then loads Sleepers seq_cst, taking the wake
/// mutex only when someone is actually parked. The seq_cst total order
/// guarantees at least one side sees the other, so wakeups cannot be lost
/// while the unparked fast path stays lock-free. External stop conditions
/// (ingestion done, session teardown) follow the same protocol: store the
/// flag with seq_cst, then call wakeAll().
///
//===----------------------------------------------------------------------===//

#ifndef RAPID_SUPPORT_PUBLISHEDSTORE_H
#define RAPID_SUPPORT_PUBLISHEDSTORE_H

#include "obs/Metrics.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>

namespace rapid {

/// Append-only SPMC storage over stable chunks, published by watermark.
/// Exactly one thread may call append()/publish() ("the writer"); any
/// number of threads may call published()/operator[]/forRange()/
/// waitPublished(). Indices below the last published watermark address
/// immutable, fully visible elements.
template <typename T> class PublishedStore {
  /// Chunk 0 holds 2^BaseLog2 elements; chunk k holds twice chunk k-1.
  /// 4096 events ≈ one stream batch, so the directory stays tiny while
  /// small sessions allocate one page-ish chunk.
  static constexpr unsigned BaseLog2 = 12;
  /// 48 geometric chunks cover ~2^60 elements — never the limit.
  static constexpr unsigned MaxChunks = 48;

public:
  PublishedStore() = default;
  ~PublishedStore() {
    if (Borrowed)
      return;
    for (std::atomic<T *> &C : Chunks)
      delete[] C.load(std::memory_order_relaxed);
  }

  PublishedStore(const PublishedStore &) = delete;
  PublishedStore &operator=(const PublishedStore &) = delete;

  // ---- Writer side ----------------------------------------------------------

  /// Appends one element past the current end. Not yet visible to
  /// readers; call publish() to move the watermark over it.
  void append(T V) {
    const uint64_t I = Count;
    const unsigned C = chunkOf(I);
    T *Ch = Chunks[C].load(std::memory_order_relaxed);
    if (!Ch) {
      Ch = new T[chunkCapacity(C)];
      // Plain visibility suffices: readers only reach this pointer
      // through a watermark acquire that the next publish() pairs with.
      Chunks[C].store(Ch, std::memory_order_relaxed);
    }
    Ch[I - chunkStart(C)] = std::move(V);
    Count = I + 1;
  }

  /// Adopts the caller's \p N contiguous elements at \p Data as a fully
  /// published store, copying nothing: chunk C's directory slot points at
  /// Data + chunkStart(C), so every index addresses the caller's element
  /// in place. Only valid on an empty store, and final — no append(),
  /// writerSlot() or further publish() afterwards. \p Data must stay
  /// alive and unmodified for the store's lifetime; the store never frees
  /// it.
  void adopt(const T *Data, uint64_t N) {
    for (unsigned C = 0; C != MaxChunks && chunkStart(C) < N; ++C)
      Chunks[C].store(const_cast<T *>(Data) + chunkStart(C),
                      std::memory_order_relaxed);
    Count = N;
    Borrowed = true;
    publish(N);
  }

  /// Elements appended so far — the writer's private count, ahead of (or
  /// equal to) the watermark. Only meaningful on the writer thread or
  /// after external synchronization with it.
  uint64_t size() const { return Count; }

  /// Writer-side mutable access to an appended slot — the one sanctioned
  /// relaxation of "published elements are immutable". The caller must
  /// guarantee that readers consult the mutated field only after
  /// synchronizing with a publish (of this or any fellow-traveler store)
  /// that the writer issued *after* the mutation; then the mutation is an
  /// ordinary write made visible by that release/acquire pair. Used by the
  /// SyncP index to backfill an acquire's matching-release edge: closures
  /// only read the edge once an event past the release is published.
  T &writerSlot(uint64_t I) {
    const unsigned C = chunkOf(I);
    return Chunks[C].load(std::memory_order_relaxed)[I - chunkStart(C)];
  }

  /// Publishes the prefix [0, UpTo): one watermark store, then a wake of
  /// parked readers if any. \p UpTo must be ≤ size() and monotone across
  /// calls. seq_cst (not just release) for the Dekker pairing with
  /// waitPublished's Sleepers registration.
  void publish(uint64_t UpTo) {
    Watermark.store(UpTo, std::memory_order_seq_cst);
    wakeAll();
  }

  /// Wakes every parked reader without moving the watermark — for
  /// external stop flags (which the caller must store with seq_cst
  /// *before* calling this, mirroring publish()'s watermark store).
  void wakeAll() {
    if (Sleepers.load(std::memory_order_seq_cst) == 0)
      return;
    std::lock_guard<std::mutex> G(WaitM);
    WakeCV.notify_all();
  }

  // ---- Reader side ----------------------------------------------------------

  /// The published watermark: indices below it are immutable and safe to
  /// read in place from any thread.
  uint64_t published() const {
    return Watermark.load(std::memory_order_acquire);
  }

  /// In-place element access. \p I must be below a watermark value this
  /// thread has observed (or otherwise synchronized with).
  const T &operator[](uint64_t I) const {
    const unsigned C = chunkOf(I);
    return Chunks[C].load(std::memory_order_relaxed)[I - chunkStart(C)];
  }

  /// Applies Fn(element, index) over [From, To), resolving each chunk
  /// pointer once per segment. Same precondition as operator[].
  template <typename Fn> void forRange(uint64_t From, uint64_t To, Fn &&F) const {
    while (From != To) {
      const unsigned C = chunkOf(From);
      const uint64_t Start = chunkStart(C);
      const uint64_t End = std::min(To, Start + chunkCapacity(C));
      const T *Ch = Chunks[C].load(std::memory_order_relaxed);
      for (uint64_t I = From; I != End; ++I)
        F(Ch[I - Start], I);
      From = End;
    }
  }

  /// Blocks until the watermark exceeds \p Current or \p Stop() turns
  /// true; returns the watermark seen last (== Current only if stopped).
  /// A short spin covers the common producer-just-behind case; the park
  /// itself is charged to \p ParkNs (null handle: uncharged).
  template <typename StopPred>
  uint64_t waitPublished(uint64_t Current, Counter ParkNs, StopPred Stop) {
    uint64_t W = 0;
    // Stop flags are raised after the final publish, so once Stop() holds
    // a fresh load sees the final watermark. Without that re-load, a last
    // publish landing between the first load and the stop check would be
    // dropped: the caller would stop short of the published end.
    auto Ready = [&] {
      W = Watermark.load(std::memory_order_seq_cst);
      if (W > Current)
        return true;
      if (!Stop())
        return false;
      W = Watermark.load(std::memory_order_seq_cst);
      return true;
    };
    for (int Spin = 0; Spin != 65; ++Spin)
      if (Ready())
        return W;
    {
      ScopedNs Park(ParkNs);
      std::unique_lock<std::mutex> Lk(WaitM);
      Sleepers.fetch_add(1, std::memory_order_seq_cst);
      WakeCV.wait(Lk, Ready);
      Sleepers.fetch_sub(1, std::memory_order_seq_cst);
    }
    return W;
  }

private:
  /// Directory math: index I lives in chunk floor(log2(I/2^BaseLog2 + 1)).
  static unsigned chunkOf(uint64_t I) {
    const uint64_t Q = (I >> BaseLog2) + 1;
    return 63 - static_cast<unsigned>(__builtin_clzll(Q));
  }
  static uint64_t chunkCapacity(unsigned C) {
    return uint64_t{1} << (BaseLog2 + C);
  }
  static uint64_t chunkStart(unsigned C) {
    return ((uint64_t{1} << C) - 1) << BaseLog2;
  }

  std::array<std::atomic<T *>, MaxChunks> Chunks{};
  uint64_t Count = 0; ///< Writer-private appended count.
  bool Borrowed = false; ///< adopt()ed: chunks belong to the caller.
  std::atomic<uint64_t> Watermark{0};

  // Eventcount parking (see file comment for the lost-wakeup argument).
  std::mutex WaitM;
  std::condition_variable WakeCV;
  std::atomic<uint32_t> Sleepers{0};
};

} // namespace rapid

#endif // RAPID_SUPPORT_PUBLISHEDSTORE_H
