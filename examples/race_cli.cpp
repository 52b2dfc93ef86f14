//===- examples/race_cli.cpp - RAPID-style command-line tool ------------------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
// The equivalent of the paper's RAPID tool, rebuilt on the session API
// (api/AnalysisSession.h): flags map onto one AnalysisConfig, every run
// mode goes through the same validated entry point, and failures surface
// as structured statuses.
//
// Run `race_cli --help` for the full flag matrix. --stream composes with
// every mode (sequential, --window, --shards): the session's streaming
// engine overlaps analysis with ingestion — windows dispatch as their
// event range arrives; the var-sharded clock pass and shard checks run
// behind the reader. --json replaces the human-readable output with a
// machine-readable report mirroring BENCH_pipeline.json's style;
// --dry-run validates the flag combination and exits (the docs CI job
// uses it to keep every invocation quoted in docs/*.md parseable).
//
//===----------------------------------------------------------------------===//

#include "api/AnalysisSession.h"
#include "gen/Workloads.h"
#include "io/TraceFile.h"
#include "obs/Metrics.h"
#include "serve/ReportCanon.h"
#include "support/Json.h"
#include "support/TablePrinter.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"
#include "trace/TraceStats.h"
#include "trace/TraceValidator.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

using namespace rapid;

namespace {

struct Options {
  std::string Path;
  bool RunHb = false;
  bool RunWcp = false;
  bool RunFastTrack = false;
  bool RunEraser = false;
  bool RunSyncP = false;
  bool ShowStats = false;
  bool Stream = false;
  bool Json = false;
  bool DryRun = false;
  bool ShowMetrics = false; // --metrics: human-readable telemetry tables.
  bool NoMetrics = false;   // --no-metrics: zero-cost disable.
  std::string TraceOut;     // --trace-out: Perfetto timeline destination.
  std::string ReportOut;    // --report-out: canonical report destination.
  unsigned Threads = 0; // 0 = hardware concurrency.
  uint64_t Window = 0;  // 0 = unwindowed.
  uint32_t Shards = 0;  // 0 = no per-variable sharding.
};

void printHelp() {
  std::fputs(
      "usage: race_cli [trace-file] [options]\n"
      "\n"
      "Analyzes a trace (.bin or .txt; the built-in 'mergesort' workload\n"
      "model when no file is given) for predictable data races. Pass '-'\n"
      "to read a text trace from stdin (requires --stream: standard input\n"
      "cannot seek, so only the streaming session can consume it); FIFO\n"
      "paths stream the same way.\n"
      "\n"
      "detectors (default: --hb --wcp):\n"
      "  --hb           Djit+-style happens-before\n"
      "  --wcp          weak-causally-precedes (the paper's linear-time "
      "core)\n"
      "  --fasttrack    FastTrack epochs\n"
      "  --eraser       Eraser locksets\n"
      "  --syncp        sync-preserving race prediction (SP-closure;\n"
      "                 finds races WCP provably misses)\n"
      "\n"
      "modes (pick at most one; default is sequential lanes):\n"
      "  --window N     windowed baseline: fresh detector per N-event\n"
      "                 window (cross-window races lost by design)\n"
      "  --shards N     per-variable sharded checks, bit-identical to\n"
      "                 sequential for any N\n"
      "\n"
      "execution:\n"
      "  --stream       feed the file through a streaming session so\n"
      "                 analysis overlaps ingestion; composes with every\n"
      "                 mode (sequential lanes consume published chunks,\n"
      "                 windows dispatch as their range arrives, the\n"
      "                 var-sharded clock pass + shard checks run behind\n"
      "                 the reader). Requires a trace file; binary and\n"
      "                 text traces both publish chunk by chunk\n"
      "  --threads N    worker threads (0 or default: hardware "
      "concurrency)\n"
      "\n"
      "output:\n"
      "  --stats        print trace statistics first\n"
      "  --json         machine-readable report (schema shared with\n"
      "                 BENCH_pipeline.json tooling); includes per-lane\n"
      "                 and session \"telemetry\" objects\n"
      "  --metrics      print the telemetry tables (session counters,\n"
      "                 then one table per lane; see docs/OBSERVABILITY.md\n"
      "                 for the metric catalog)\n"
      "  --no-metrics   disable metric collection entirely (the zero-cost\n"
      "                 path: no atomics, no clock reads)\n"
      "  --trace-out F  write a Chrome/Perfetto trace_event timeline of\n"
      "                 the run to F (requires --stream; open the file at\n"
      "                 ui.perfetto.dev)\n"
      "  --report-out F write the canonical race report to F — the exact\n"
      "                 bytes race_serverd's Report frames carry, for\n"
      "                 diffing live sessions against offline replays\n"
      "  --dry-run      validate the flag combination and exit 0 without\n"
      "                 reading the trace or analyzing\n"
      "  --help         this text\n"
      "\n"
      "examples:\n"
      "  race_cli trace.bin --hb --wcp\n"
      "  race_cli trace.bin --stream --window 100000\n"
      "  race_cli trace.bin --stream --shards 8 --threads 4\n"
      "  race_cli trace.bin --stream --metrics\n"
      "  race_cli trace.bin --stream --window 100000 --trace-out run.json\n"
      "  race_cli trace.txt --json --fasttrack\n"
      "  race_cli trace.bin --wcp --syncp --shards 8\n"
      "  cat trace.txt | race_cli - --stream --hb --wcp\n"
      "  race_cli trace.txt --report-out report.txt\n",
      stdout);
}

/// Looks up one metric by name in a telemetry block. Returns false when
/// the sample is absent (metrics disabled, or the lane never registered
/// it).
bool findSample(const std::vector<MetricSample> &Telemetry,
                const char *Name, uint64_t &Value) {
  for (const MetricSample &S : Telemetry)
    if (S.Name == Name) {
      Value = S.Value;
      return true;
    }
  return false;
}

/// Renders a telemetry block as a JSON object: {"name": value, ...}.
/// Samples are already name-sorted by the session, so output is stable.
std::string renderTelemetryJson(const std::vector<MetricSample> &Telemetry,
                                const char *Indent) {
  std::string J = "{";
  for (size_t I = 0; I != Telemetry.size(); ++I) {
    if (I)
      J += ",";
    J += "\n";
    J += Indent;
    J += "  " + jsonQuote(Telemetry[I].Name) + ": " +
         std::to_string(Telemetry[I].Value);
  }
  if (!Telemetry.empty()) {
    J += "\n";
    J += Indent;
  }
  J += "}";
  return J;
}

/// The machine-readable report: same field style as BENCH_pipeline.json
/// so the two outputs can share tooling.
std::string renderJson(const AnalysisResult &R, const AnalysisConfig &Cfg,
                       bool Streamed) {
  std::string J;
  J += "{\n";
  J += "  \"tool\": \"race_cli\",\n";
  J += "  \"mode\": \"" + std::string(runModeName(Cfg.Mode)) + "\",\n";
  J += "  \"streamed\": " + std::string(Streamed ? "true" : "false") + ",\n";
  J += "  \"status\": " + jsonQuote(R.firstError().ok() ? "ok"
                                                      : R.firstError().str()) +
       ",\n";
  J += "  \"events\": " + std::to_string(R.EventsIngested) + ",\n";
  J += "  \"threads_used\": " + std::to_string(R.ThreadsUsed) + ",\n";
  J += "  \"window_events\": " + std::to_string(Cfg.WindowEvents) + ",\n";
  J += "  \"var_shards\": " + std::to_string(Cfg.VarShards) + ",\n";
  J += "  \"wall_seconds\": " + jsonNum(R.WallSeconds) + ",\n";
  J += "  \"ingest_seconds\": " + jsonNum(R.IngestSeconds) + ",\n";
  J += "  \"lane_seconds_total\": " + jsonNum(R.laneSecondsTotal()) + ",\n";
  J += "  \"tasks_stolen\": " + std::to_string(R.TasksStolen) + ",\n";
  // Per-lane restarts left the schema in the growable-state redesign:
  // detectors grow in place, so the count is structurally zero. The compat
  // note is the forwarding address for tooling that still greps for it.
  J += "  \"compat\": {\"restarts\": \"deprecated; detectors grow in place "
       "and never restart, so the per-lane count is structurally 0\"},\n";
  J += "  \"telemetry\": " + renderTelemetryJson(R.Telemetry, "  ") + ",\n";
  J += "  \"lanes\": [";
  for (size_t L = 0; L != R.Lanes.size(); ++L) {
    const LaneReport &Lane = R.Lanes[L];
    if (L)
      J += ",";
    J += "\n    {\"detector\": " + jsonQuote(Lane.DetectorName) +
         ", \"status\": " +
         jsonQuote(Lane.LaneStatus.ok() ? "ok" : Lane.LaneStatus.str()) +
         ", \"races\": " + std::to_string(Lane.Report.numDistinctPairs()) +
         ", \"instances\": " + std::to_string(Lane.Report.numInstances()) +
         ", \"maxdist\": " + std::to_string(Lane.Report.maxPairDistance()) +
         ", \"seconds\": " + jsonNum(Lane.Seconds) +
         ", \"events_consumed\": " + std::to_string(Lane.EventsConsumed) +
         ",\n     \"telemetry\": " +
         renderTelemetryJson(Lane.Telemetry, "     ") + "}";
  }
  J += "\n  ]\n}\n";
  return J;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--hb")
      Opts.RunHb = true;
    else if (Arg == "--wcp")
      Opts.RunWcp = true;
    else if (Arg == "--fasttrack")
      Opts.RunFastTrack = true;
    else if (Arg == "--eraser")
      Opts.RunEraser = true;
    else if (Arg == "--syncp")
      Opts.RunSyncP = true;
    else if (Arg == "--stats")
      Opts.ShowStats = true;
    else if (Arg == "--stream")
      Opts.Stream = true;
    else if (Arg == "--json")
      Opts.Json = true;
    else if (Arg == "--dry-run")
      Opts.DryRun = true;
    else if (Arg == "--metrics")
      Opts.ShowMetrics = true;
    else if (Arg == "--no-metrics")
      Opts.NoMetrics = true;
    else if (Arg == "--trace-out" && I + 1 < Argc)
      Opts.TraceOut = Argv[++I];
    else if (Arg.rfind("--trace-out=", 0) == 0)
      Opts.TraceOut = Arg.substr(std::strlen("--trace-out="));
    else if (Arg == "--report-out" && I + 1 < Argc)
      Opts.ReportOut = Argv[++I];
    else if (Arg.rfind("--report-out=", 0) == 0)
      Opts.ReportOut = Arg.substr(std::strlen("--report-out="));
    else if (Arg == "--help" || Arg == "-h") {
      printHelp();
      return 0;
    }
    else if (Arg == "--threads" && I + 1 < Argc)
      Opts.Threads =
          static_cast<unsigned>(std::strtoul(Argv[++I], nullptr, 10));
    else if (Arg == "--window" && I + 1 < Argc)
      Opts.Window = std::strtoull(Argv[++I], nullptr, 10);
    else if (Arg == "--shards" && I + 1 < Argc)
      Opts.Shards =
          static_cast<uint32_t>(std::strtoul(Argv[++I], nullptr, 10));
    else if (Arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown option '%s'\n", Arg.c_str());
      return 1;
    } else
      Opts.Path = Arg;
  }
  if (!Opts.RunHb && !Opts.RunWcp && !Opts.RunFastTrack && !Opts.RunEraser &&
      !Opts.RunSyncP)
    Opts.RunHb = Opts.RunWcp = true;
  if (Opts.Window > 0 && Opts.Shards > 0) {
    std::fprintf(stderr, "error: --window and --shards are mutually "
                         "exclusive (windowed vs per-variable sharding)\n");
    return 1;
  }
  // --stream composes with every mode: windowed sessions dispatch each
  // window as its event range publishes, var-sharded sessions run the
  // clock pass and shard checks behind ingestion.
  if (Opts.Stream && Opts.Path.empty() && !Opts.DryRun) {
    std::fprintf(stderr, "error: --stream needs a trace file\n");
    return 1;
  }
  if (Opts.Path == "-" && !Opts.Stream) {
    // Stdin cannot seek: the batch loaders (and the windowed baseline's
    // whole-trace cut) need a rewindable file, so '-' only composes with
    // the streaming session.
    std::fprintf(stderr,
                 "error: reading from '-' (stdin) requires --stream (stdin "
                 "cannot seek)\n");
    return 1;
  }
  if (!Opts.TraceOut.empty() && !Opts.Stream) {
    // The timeline is exported from the session object, which only the
    // streamed path keeps; the one-shot analyzeTrace returns a result.
    std::fprintf(stderr, "error: --trace-out requires --stream\n");
    return 1;
  }
  if (Opts.ShowMetrics && Opts.NoMetrics) {
    std::fprintf(stderr, "error: --metrics and --no-metrics conflict\n");
    return 1;
  }
  if (Opts.Threads == 0) {
    // "--threads 0" (or an unparsable count) must not build a zero-worker
    // pool; clamp to the hardware concurrency the pool would default to.
    Opts.Threads = ThreadPool::defaultConcurrency();
  }

  // Flags → the one declarative config every mode shares.
  AnalysisConfig Cfg;
  Cfg.Threads = Opts.Threads;
  Cfg.Metrics = !Opts.NoMetrics;
  Cfg.Timeline = !Opts.TraceOut.empty();
  if (Opts.Shards > 0) {
    Cfg.Mode = RunMode::VarSharded;
    Cfg.VarShards = Opts.Shards;
  } else if (Opts.Window > 0) {
    Cfg.Mode = RunMode::Windowed;
    Cfg.WindowEvents = Opts.Window;
  } else {
    Cfg.Mode = RunMode::Sequential;
  }
  if (Opts.RunHb)
    Cfg.addDetector(DetectorKind::Hb);
  // WCP's queue peaks (paper §4, Table 1 column 11) now ride the lane's
  // Telemetry block (Detector::telemetry), so the plain detector suffices.
  if (Opts.RunWcp)
    Cfg.addDetector(DetectorKind::Wcp);
  if (Opts.RunFastTrack)
    Cfg.addDetector(DetectorKind::FastTrack);
  if (Opts.RunEraser)
    Cfg.addDetector(DetectorKind::Eraser);
  if (Opts.RunSyncP)
    Cfg.addDetector(DetectorKind::SyncP);
  if (Status V = Cfg.validate(); !V.ok()) {
    std::fprintf(stderr, "error: %s\n", V.str().c_str());
    return 1;
  }
  if (Opts.DryRun) {
    std::printf("dry-run ok: mode=%s detectors=%zu threads=%u%s\n",
                runModeName(Cfg.Mode), Cfg.Detectors.size(), Cfg.Threads,
                Opts.Stream ? " streamed" : "");
    return 0;
  }

  // Run: either a streaming session over the file (ingest overlaps
  // analysis) or the one-shot batch path over an in-memory trace. The
  // session (when used) stays alive so its trace can be rendered without
  // a copy.
  AnalysisResult R;
  Trace Batch;
  std::optional<AnalysisSession> Session;
  double IngestSeconds = 0;
  if (Opts.Stream) {
    Session.emplace(Cfg);
    Status Fed = Session->feedFile(Opts.Path);
    if (!Fed.ok())
      std::fprintf(stderr, "error: %s\n", Fed.str().c_str());
    // Even on ingest failure, finish and render: the session's contract
    // is that the validated/published prefix stays analyzed, and --json
    // consumers always get a report (with the failure in its status).
    R = Session->finish();
    IngestSeconds = R.IngestSeconds;
    if (!Opts.TraceOut.empty()) {
      std::string Timeline = Session->exportTimeline();
      std::FILE *F = std::fopen(Opts.TraceOut.c_str(), "wb");
      if (!F || std::fwrite(Timeline.data(), 1, Timeline.size(), F) !=
                    Timeline.size()) {
        std::fprintf(stderr, "error: cannot write trace to '%s'\n",
                     Opts.TraceOut.c_str());
        if (F)
          std::fclose(F);
        return 1;
      }
      std::fclose(F);
      if (!Opts.Json)
        std::printf("timeline written to %s (open at ui.perfetto.dev)\n",
                    Opts.TraceOut.c_str());
    }
  } else {
    if (Opts.Path.empty()) {
      if (!Opts.Json)
        std::printf("no trace file given; analyzing the built-in "
                    "'mergesort' workload model\n\n");
      Batch = makeWorkload(workloadSpec("mergesort"));
    } else {
      Timer Ingest;
      TraceLoadResult Load = loadTraceFile(Opts.Path);
      if (!Load.Ok) {
        std::fprintf(stderr, "error: %s\n", Load.status().str().c_str());
        return 1;
      }
      IngestSeconds = Ingest.seconds();
      Batch = std::move(Load.T);
    }
    ValidationResult V = validateTrace(Batch);
    if (!V.ok()) {
      std::fprintf(stderr, "trace is not well-formed:\n%s", V.str().c_str());
      return 1;
    }
    R = analyzeTrace(Cfg, Batch);
  }
  const Trace &T = Opts.Stream ? Session->trace() : Batch;
  // (Streamed traces are validated *inside* the session, event by event
  // before publication — an ill-formed trace surfaces as a
  // ValidationError in R.Overall, in --json mode too.)

  if (!Opts.ReportOut.empty()) {
    const std::string Canon = canonicalReport(R, T);
    std::FILE *F = std::fopen(Opts.ReportOut.c_str(), "wb");
    if (!F ||
        std::fwrite(Canon.data(), 1, Canon.size(), F) != Canon.size()) {
      std::fprintf(stderr, "error: cannot write report to '%s'\n",
                   Opts.ReportOut.c_str());
      if (F)
        std::fclose(F);
      return 1;
    }
    std::fclose(F);
  }

  if (Opts.Json) {
    std::fputs(renderJson(R, Cfg, Opts.Stream).c_str(), stdout);
    return R.ok() ? 0 : 1;
  }

  if (Opts.ShowStats)
    std::printf("%s\n", computeStats(T).str().c_str());

  bool LaneFailed = false;
  TablePrinter Table({"analysis", "races", "instances", "maxdist", "time"});
  for (const LaneReport &L : R.Lanes) {
    if (!L.LaneStatus.ok()) {
      std::fprintf(stderr, "error: %s lane failed: %s\n",
                   L.DetectorName.c_str(), L.LaneStatus.str().c_str());
      LaneFailed = true;
      continue;
    }
    Table.addRow({L.DetectorName, std::to_string(L.Report.numDistinctPairs()),
                  std::to_string(L.Report.numInstances()),
                  std::to_string(L.Report.maxPairDistance()),
                  formatSeconds(L.Seconds)});
    std::printf("%s findings:\n%s\n", L.DetectorName.c_str(),
                L.Report.str(T).c_str());
  }
  Table.print();
  // Whole-trace WCP runs expose the paper's queue telemetry via the
  // lane's Telemetry block; windowed runs use a fresh detector per
  // window, so no whole-run peak exists — skip it there. (Absent when
  // --no-metrics.)
  if (Opts.RunWcp && Opts.Window == 0) {
    for (const LaneReport &L : R.Lanes) {
      uint64_t Abstract = 0;
      if (!findSample(L.Telemetry, "wcp.queue_peak_abstract", Abstract))
        continue;
      uint64_t Live = 0;
      findSample(L.Telemetry, "wcp.queue_peak_live", Live);
      double Pct = T.size() == 0 ? 0.0
                                 : 100.0 * static_cast<double>(Live) /
                                       static_cast<double>(T.size());
      std::printf("WCP queue peak: %llu abstract entries (%.2f%% of "
                  "events)\n",
                  (unsigned long long)Abstract, Pct);
      break;
    }
  }
  if (Opts.ShowMetrics) {
    // Session-scope table first, then one per lane — mirroring the
    // --json "telemetry" objects. See docs/OBSERVABILITY.md for what
    // each metric means.
    TablePrinter SessionTable({"session metric", "kind", "value"});
    for (const MetricSample &S : R.Telemetry)
      SessionTable.addRow(
          {S.Name, metricKindName(S.Kind), std::to_string(S.Value)});
    std::printf("\n");
    SessionTable.print();
    for (const LaneReport &L : R.Lanes) {
      if (L.Telemetry.empty())
        continue;
      TablePrinter LaneTable({L.DetectorName + " metric", "kind", "value"});
      for (const MetricSample &S : L.Telemetry)
        LaneTable.addRow(
            {S.Name, metricKindName(S.Kind), std::to_string(S.Value)});
      std::printf("\n");
      LaneTable.print();
    }
  }
  if (!R.Overall.ok()) {
    std::fprintf(stderr, "error: %s\n", R.Overall.str().c_str());
    LaneFailed = true;
  }

  if (Opts.Stream || Opts.Window > 0 || Opts.Shards > 0) {
    std::printf("\npipeline: %u thread(s), %llu shard(s), %llu var "
                "shard(s)/lane%s\n",
                R.ThreadsUsed, (unsigned long long)R.NumShards,
                (unsigned long long)R.VarShards,
                R.Streamed ? ", streamed" : "");
    double LaneTotal = R.laneSecondsTotal();
    std::printf("lane analysis %.3fs total in %.3fs wall", LaneTotal,
                R.WallSeconds);
    if (R.WallSeconds > 0 && LaneTotal > 0)
      std::printf(" (%.2fx concurrency)", LaneTotal / R.WallSeconds);
    std::printf("; ingest %.3fs\n", IngestSeconds);
  }
  return LaneFailed ? 1 : 0;
}
