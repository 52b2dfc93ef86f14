//===- api/AnalysisSession.h - Push-based streaming analysis ----*- C++ -*-===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The session-oriented analysis API: the paper's single-linear-pass claim,
/// turned into a surface where the pass can *start before the trace ends*.
/// A session is opened from one validated AnalysisConfig, fed events
/// incrementally (push batches or a whole file), queried for partial
/// reports mid-stream, and finished into one AnalysisResult:
///
///   AnalysisSession S(Config);        // validated up front
///   S.feedFile("trace.bin");          // or declare*/feed(Event) pushes
///   AnalysisResult Mid = S.partialResult();   // races so far
///   AnalysisResult R = S.finish();    // joins lanes, full result
///
/// Every mode streams: ingestion publishes a growing event prefix (single
/// producer) and analysis consumes published ranges concurrently
/// (multiple consumers), so analysis overlaps ingestion — applied to all
/// three run modes. The session is the repo's one analysis engine: the
/// one-shot analyzeTrace() below is a session over a complete trace.
/// Reports are bit-identical to the independent oracles in every mode
/// (sequential runDetector; runDetectorWindowed's plain loop):
///
///   Sequential   one consumer thread per lane runs runDetector's walk,
///                spread over time;
///   Windowed     each window dispatches onto the session's thread pool
///                (a fresh detector per lane × window — no global state)
///                the moment its event range publishes, and window
///                reports merge deterministically in window order;
///   VarSharded   the same per-lane walk runs as the capture clock
///                pass behind ingestion, and per-shard check tasks replay
///                published AccessLog prefixes concurrently; only the
///                final trace-order merge waits for finish().
///
/// A lane whose detector throws fails alone: its LaneReport carries an
/// AnalysisError, the other lanes complete, and progress() stops counting
/// it (so a served client is never parked behind a dead lane).
///
/// Detectors are constructed when the session starts, against the id
/// tables (threads/locks/vars) that exist then — none for a streaming
/// session, all of them for analyzeTrace() — and *grow in place* as
/// tables grow afterwards: text inputs intern lazily; push feeds may
/// declare late. Every piece of detector state is size-polymorphic
/// (implicit-zero vector clocks, grow-on-first-touch access
/// histories/locksets/queues), so a mid-stream declaration is an O(1)
/// metadata update: no lane ever rebuilds or replays.
/// Declaring names up front (binary headers, declareTablesFrom) is still
/// good hygiene — it sizes state once — but is no longer required for
/// streaming: text files publish chunk by chunk exactly like binary ones,
/// so analysis overlaps ingestion for every input format.
///
/// Because lanes analyze events *live*, the session validates the §2.1
/// trace axioms on the producer side (trace/TraceValidator's streaming
/// form) before publication — detectors assume well-formed traces, and
/// an unvalidated release-without-acquire reaching a live lane would be
/// undefined behaviour. The first violation freezes ingestion with a
/// sticky ValidationError; everything validated up to it stays analyzed.
/// (The zero-copy analyzeTrace() below does NOT validate: batch callers
/// validate themselves, as race_cli always has.)
///
/// Sessions are single-producer: feeds and finish() must come from one
/// thread. partialResult() may be called concurrently with the producer
/// and with the consumers (e.g. from a monitoring thread); each snapshot
/// is internally consistent — a lane never reports progress or races
/// beyond the snapshot's EventsIngested, and windowed/var-sharded
/// snapshots are torn-merge free (always an exact prefix of the final
/// report). Errors are structured Statuses throughout — feeding a
/// finished session, double finish, unknown ids and IO/parse failures all
/// come back as codes, not strings to grep.
///
//===----------------------------------------------------------------------===//

#ifndef RAPID_API_ANALYSISSESSION_H
#define RAPID_API_ANALYSISSESSION_H

#include "api/AnalysisConfig.h"
#include "api/AnalysisResult.h"
#include "trace/Trace.h"

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace rapid {

/// A push-based analysis session. See the file comment for the model.
class AnalysisSession {
public:
  /// Opens a session; config validation failure is reported via status()
  /// and by every subsequent call.
  explicit AnalysisSession(AnalysisConfig Config);
  ~AnalysisSession();

  AnalysisSession(const AnalysisSession &) = delete;
  AnalysisSession &operator=(const AnalysisSession &) = delete;

  const AnalysisConfig &config() const;
  /// The sticky session status: config validation or ingestion failures.
  const Status &status() const;

  /// Name declaration for push ingestion: interns into the session's id
  /// tables and returns the id to use in fed events. Names may be
  /// declared at any point before their first use — mid-stream
  /// declarations grow detector state in place (no restart).
  ThreadId declareThread(std::string_view Name);
  LockId declareLock(std::string_view Name);
  VarId declareVar(std::string_view Name);
  LocId declareLoc(std::string_view Name);
  /// Adopts \p T's id tables wholesale (the push equivalent of a binary
  /// header). Only valid before any events or names exist. With
  /// feed(T.events()) after it, a session ingests a whole in-memory trace;
  /// prefer analyzeTrace() for zero-copy one-shot batch runs.
  Status declareTablesFrom(const Trace &T);

  /// Appends one event / a batch. Ids must already be declared; undeclared
  /// ids reject the whole batch with ValidationError (nothing is appended).
  Status feed(const Event &E);
  Status feed(const std::vector<Event> &Batch);

  /// Streams the file at \p Path into the session. Regular files are
  /// memory-mapped (io/MappedFile) and parsed zero-copy; other inputs go
  /// through the chunked reader. Both binary and text inputs publish to
  /// the lanes chunk by chunk, so analysis overlaps ingestion regardless
  /// of format (text id tables intern lazily; lanes grow in place). Must
  /// be the first ingestion; on failure the already-published prefix
  /// keeps its partial lane reports and the session status carries the
  /// error.
  Status feedFile(const std::string &Path);

  /// Events appended so far (>= published to lanes). Lock-free, like
  /// progress().
  uint64_t eventsFed() const;
  bool finished() const;

  /// Producer/consumer watermarks for backpressure decisions (the serving
  /// layer parks a connection whose Published - MinLaneConsumed lag grows
  /// past its budget). A failed lane no longer counts toward
  /// MinLaneConsumed. Lock-free — it never waits on the producer or on a
  /// lane mid-batch; safe to call concurrently with feeds and consumers,
  /// like partialResult().
  struct Progress {
    uint64_t Fed = 0;             ///< Events appended (>= Published).
    uint64_t Published = 0;       ///< Validated events visible to lanes.
    uint64_t MinLaneConsumed = 0; ///< Slowest live lane's watermark.
  };
  Progress progress() const;

  /// Mid-stream snapshot: per-lane races discovered so far and events
  /// consumed. Every mode reports live progress — sequential lanes
  /// return their detector's report so far; windowed
  /// lanes the merge of the retired-window prefix (EventsConsumed counts
  /// the events those windows cover); var-sharded lanes the merged
  /// findings below the fully checked frontier (EventsConsumed tracks the
  /// capture clock pass). A snapshot is always an exact prefix of the
  /// final report — never a torn merge. Safe to call concurrently with
  /// feeds and with the consumer threads.
  AnalysisResult partialResult();

  /// Ends ingestion, drains and joins the lanes (windowed sessions flush
  /// the trailing partial window and retire in-flight window tasks;
  /// var-sharded sessions finish the clock pass, drain the shard checks
  /// and merge in trace order), and returns the unified result. A second
  /// finish() returns InvalidState; feeds after finish() are rejected.
  AnalysisResult finish();

  /// The ingested trace (for rendering reports). Stable once finish()
  /// returned; do not call while feeds are still possible.
  const Trace &trace() const;

  /// The session timeline as Chrome trace_event JSON (one track per lane
  /// consumer / pool worker / the ingest producer, spans per pipeline
  /// stage, counter tracks for the published watermark, lane lag and pool
  /// queue depth) — open it in ui.perfetto.dev or chrome://tracing.
  /// Empty string unless AnalysisConfig::Timeline is set. Best called
  /// after finish(); mid-stream exports are valid but partial.
  std::string exportTimeline() const;

private:
  friend AnalysisResult analyzeTrace(const AnalysisConfig &, const Trace &);
  /// analyzeTrace's session: adopts \p Adopted as the fully published
  /// trace in place (no event copied, no §2.1 validation).
  AnalysisSession(AnalysisConfig Config, const Trace &Adopted);

  struct Impl;
  std::unique_ptr<Impl> I;
};

/// One-shot batch convenience: validates \p Config and runs a session
/// over \p T in place — the caller's event vector is the published store
/// (zero-copy), and \p T must outlive the call unmodified. Reports are
/// bit-identical to what a session fed the same events would produce;
/// the result has Streamed == false.
AnalysisResult analyzeTrace(const AnalysisConfig &Config, const Trace &T);

} // namespace rapid

#endif // RAPID_API_ANALYSISSESSION_H
