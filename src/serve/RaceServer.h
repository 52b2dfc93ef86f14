//===- serve/RaceServer.h - Multi-session race-analysis server --*- C++ -*-===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving layer's multiplexer: a Unix-domain acceptor that gives
/// every connection its own AnalysisSession and drives all of them from
/// one poll loop plus one shared ThreadPool. `race_serverd` is a thin
/// CLI around this class; tests drive it in-process.
///
/// Threading model. The IO thread owns accept() and all socket *reads*;
/// raw bytes are handed to pool tasks that decode frames and feed the
/// session (serve/WireIngestor.h). At most one task per connection is in
/// flight, and consecutive tasks for a connection are ordered by the
/// pool's queue synchronization — which preserves the session's
/// single-producer contract without any per-event locking. Each
/// connection also has a ProduceM mutex held while its task touches the
/// session; cross-session control queries (partial result of session N
/// asked on connection M) try-lock it, so a busy producer yields a
/// "busy" error instead of a deadlock.
///
/// Backpressure. Budgets.MaxLagEvents bounds published-minus-consumed
/// lag per session. A connection whose session lags further is *parked*:
/// the IO thread stops polling its fd, the kernel socket buffer fills,
/// and the client's send() blocks — bounded memory, no dropped events.
/// Parked connections are rechecked every poll tick and resume at half
/// the budget (hysteresis); each transition counts in the roster's
/// `parks` and the `serve.parks` metric. Budgets.MaxSessionEvents is the
/// hard per-session event budget: beyond it the stream is frozen with a
/// loud error, never silently truncated.
///
/// Eviction. A peer that disconnects (cleanly or mid-frame) gets its
/// remaining buffered frames applied, then its session finalized; the
/// final canonical report is retained and queryable (FinalQuery) until
/// the server stops.
///
/// Fault tolerance (v2). Sessions and connections are separate objects:
/// a client whose Hello carries the Resumable flag gets a Welcome with a
/// resume token, its Events frames carry cumulative sequence numbers, and
/// a disconnect *detaches* the session instead of finalizing it. Within
/// ResumeGraceMs a new connection can send Resume(token, next-seq) to
/// re-attach; the ingestor's sequence dedup makes the client's
/// retransmission exactly-once, so the final report is byte-identical to
/// an uninterrupted run. Admission control (MaxSessions), idle eviction,
/// finished-roster GC, and grace expiry all run off a timer wheel on the
/// IO thread; shed clients get a retryable WireError with a retry-after
/// hint. stop() is a clean drain: stop accepting, apply buffered bytes,
/// finalize every live session, flush reports.
///
//===----------------------------------------------------------------------===//

#ifndef RAPID_SERVE_RACESERVER_H
#define RAPID_SERVE_RACESERVER_H

#include "api/AnalysisConfig.h"
#include "obs/Metrics.h"
#include "support/Status.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace rapid {

/// Per-session resource bounds.
struct ServeBudgets {
  /// Park a connection once its session's published-minus-consumed lag
  /// exceeds this many events (0 = never park).
  uint64_t MaxLagEvents = 1u << 14;
  /// Hard cap on events per session (0 = unlimited). Exceeding it
  /// freezes the stream with an InvalidState error frame.
  uint64_t MaxSessionEvents = 0;
};

struct RaceServerConfig {
  /// Template config for every accepted session (detectors, mode, ...).
  AnalysisConfig Session;
  /// Unix-domain socket path to listen on. Required.
  std::string SocketPath;
  ServeBudgets Budgets;
  /// Workers in the shared ingest pool (0 = hardware concurrency).
  unsigned IngestThreads = 2;

  // -- Fault tolerance / degradation knobs -----------------------------------

  /// Live-session admission cap (0 = unlimited). A Hello beyond it is
  /// shed with a retryable Overloaded error carrying RetryAfterMs.
  uint64_t MaxSessions = 0;
  /// How long a resumable session survives detached after its connection
  /// dies, waiting for a Resume (0 disables resume entirely).
  uint64_t ResumeGraceMs = 5000;
  /// Evict a live session that applied no bytes for this long
  /// (0 = never). Finalizes the prefix like any eviction.
  uint64_t IdleTimeoutMs = 0;
  /// Retain at most this many finished-session summaries (0 = unlimited);
  /// a periodic GC drops the oldest beyond the cap.
  size_t RosterMax = 0;
  /// The retry-after hint stamped into retryable shed/busy errors.
  uint32_t RetryAfterMs = 100;
};

/// One finished (evicted or cleanly finished) session's retained outcome.
struct SessionSummary {
  uint64_t Id = 0;
  uint64_t Events = 0;
  uint64_t Parks = 0;
  /// Times the session was re-attached via Resume.
  uint64_t Resumes = 0;
  /// Frames dropped/truncated by exactly-once sequence dedup.
  uint64_t DupFrames = 0;
  /// Resume token (0 = session was not resumable). Kept so a client whose
  /// connection died between Finish and Report can resume and get the
  /// retained report replayed.
  uint64_t Token = 0;
  /// Sticky stream status (ok for a clean stream).
  Status Outcome;
  /// True iff the client sent Finish (vs. eviction on disconnect/error).
  bool CleanFinish = false;
  /// canonicalReport() of the final result.
  std::string Canon;
};

/// The server. start() spawns the IO thread; stop() (or destruction)
/// finalizes every live session and joins.
class RaceServer {
public:
  explicit RaceServer(RaceServerConfig Config);
  ~RaceServer();

  RaceServer(const RaceServer &) = delete;
  RaceServer &operator=(const RaceServer &) = delete;

  Status start();
  void stop();

  const std::string &socketPath() const;

  /// Snapshot of retained finished-session outcomes, oldest first.
  std::vector<SessionSummary> finishedSessions() const;

  uint64_t activeSessions() const;

  /// serve.* metrics (accepted, active, active_peak, parks, evicted,
  /// finished, frames, events).
  std::vector<MetricSample> metrics() const;

private:
  struct Impl;
  std::unique_ptr<Impl> I;
};

} // namespace rapid

#endif // RAPID_SERVE_RACESERVER_H
