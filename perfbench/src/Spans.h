//===- Spans.h - In-memory span recorder for traced runs --------*- C++ -*-===//
//
// Part of rapidpp's benchmark (perfbench/).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's spans: one per call the benchmark makes into a layer,
/// with its name, start, end and parent. Spans stay in memory and are
/// written once, at the end, as Chrome trace_event JSON that Perfetto
/// loads. A disabled recorder takes no lock and reads no clock, so the
/// untraced runs pay one branch per call site.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
uint64_t nowNs();

class SpanRecorder {
public:
  struct Span {
    std::string Name;
    uint32_t Id = 0;     ///< 1-based; 0 means "no span".
    uint32_t Parent = 0; ///< 0 for the root.
    uint32_t Tid = 0;    ///< Small per-thread number (Perfetto track).
    uint64_t StartNs = 0;
    uint64_t EndNs = 0;
  };

  explicit SpanRecorder(bool Enabled) : Enabled(Enabled) {}
  SpanRecorder(const SpanRecorder &) = delete;
  SpanRecorder &operator=(const SpanRecorder &) = delete;

  bool enabled() const { return Enabled; }
  /// Opens a span under \p Parent; returns its id (0 when disabled).
  uint32_t begin(const std::string &Name, uint32_t Parent);
  void end(uint32_t Id);

  std::vector<Span> spans() const;
  /// Chrome trace_event JSON ("X" slices, microsecond timestamps, the
  /// parent id in args).
  std::string perfettoJson() const;
  /// Per-name self time in seconds: each span's duration minus the union
  /// of its children's intervals, summed over spans of that name.
  std::map<std::string, double> selfSeconds() const;
  /// Empty iff every span is closed, every parent exists and encloses its
  /// children, and exactly one span (the root) has no parent.
  std::string checkNesting() const;

private:
  const bool Enabled;
  mutable std::mutex M;
  std::vector<Span> All;
};

/// The innermost open Scope of the calling thread (0 if none).
uint32_t currentSpan();

/// RAII span. Without an explicit parent it nests under the innermost
/// open Scope of the calling thread.
class Scope {
public:
  Scope(SpanRecorder &R, const std::string &Name);
  Scope(SpanRecorder &R, const std::string &Name, uint32_t Parent);
  ~Scope();
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;
  uint32_t id() const { return Id; }

private:
  SpanRecorder &R;
  uint32_t Id;
  uint32_t Saved;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
