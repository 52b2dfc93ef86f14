//===- Layers.cpp - Per-layer probes of the traced run --------------------===//
//
// Part of rapidpp's benchmark (perfbench/).
//
//===----------------------------------------------------------------------===//
//
// Each probe times the benchmark's own calls into one layer's public
// functions on the workload's input, under a span named after the call.
// Nothing here reaches inside the library: a layer's cost is what its
// public entry point costs a caller.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "LiveClient.h"

#include "detect/DetectorRunner.h"
#include "io/BinaryFormat.h"
#include "io/TextFormat.h"
#include "io/WireFormat.h"
#include "serve/RaceServer.h"
#include "serve/ReportCanon.h"
#include "serve/WireIngestor.h"
#include "support/Prng.h"
#include "trace/TraceValidator.h"
#include "vc/VectorClock.h"

#include <functional>
#include <memory>
#include <tuple>

using namespace perfbench;
using namespace rapid;

namespace {

/// SyncP's closure is superlinear in trace length, so on the long traces
/// of the other workloads its probe runs on a prefix of this many events.
constexpr uint64_t SyncPProbeEvents = 2400;
/// Clocks per VectorClock probe repetition.
constexpr uint32_t ClockPool = 4096;

struct Probe {
  double Budget;
  SpanRecorder &Spans;
  Collected &Checks;

  /// Runs \p Body at least three times and until the budget is spent,
  /// each call under a span named \p Name; returns seconds per call as
  /// \p Body reports them (the duration of the timed part it measured).
  std::vector<double> repeat(const std::string &Name,
                             const std::function<double()> &Body) {
    std::vector<double> Out;
    const uint64_t Start = nowNs();
    while (Out.size() < 3 ||
           (Out.size() < 1000 && (nowNs() - Start) / 1e9 < Budget)) {
      Scope Sp(Spans, Name);
      Out.push_back(Body());
    }
    return Out;
  }

  void require(bool Ok, const std::string &What) {
    ++Checks.Attempted;
    if (!Ok)
      Checks.fail(What);
  }
};

double seconds(uint64_t T0) { return (nowNs() - T0) / 1e9; }

Trace prefix(const Trace &T, uint64_t N) {
  Trace Out;
  Out.adoptTables(T);
  for (uint64_t I = 0; I != std::min(N, T.size()); ++I)
    Out.append(T.event(I));
  return Out;
}

/// ns per call of \p Op over \p ClockPool clock pairs of width \p Width;
/// the pool is rebuilt from the seed before every timed pass.
double clockProbe(Probe &Pr, const std::string &Name, uint32_t Width,
                  bool Join) {
  Prng Rng(Width);
  std::vector<VectorClock> A0(ClockPool, VectorClock(Width)),
      B(ClockPool, VectorClock(Width));
  for (uint32_t I = 0; I != ClockPool; ++I)
    for (uint32_t T = 0; T != Width; ++T) {
      A0[I].set(ThreadId(T), Rng.nextBelow(1000));
      B[I].set(ThreadId(T), Rng.nextBelow(1000));
    }
  // lessOrEqual is timed on pairs that compare true, so it scans the
  // whole width the way HB's ordered checks do.
  if (!Join)
    for (uint32_t I = 0; I != ClockPool; ++I)
      B[I].joinWith(A0[I]);
  std::vector<VectorClock> A = A0;
  uint64_t Sink = 0;
  std::vector<double> Ns = Pr.repeat(Name, [&] {
    A = A0;
    const uint64_t T0 = nowNs();
    for (uint32_t I = 0; I != ClockPool; ++I)
      Sink += Join ? A[I].joinWith(B[I]) : A[I].lessOrEqual(B[I]);
    return static_cast<double>(nowNs() - T0) / ClockPool;
  });
  if (!Join)
    Pr.require(Sink == Ns.size() * ClockPool,
               Name + ": ordered clocks compared unordered");
  return median(Ns);
}

/// ns/event of runDetector for \p K on \p T, with the detector's
/// telemetry from the last run.
double detectorProbe(Probe &Pr, DetectorKind K, const Trace &T,
                     std::vector<MetricSample> &Tel, uint64_t &Instances) {
  const std::string Name = std::string("runDetector.") + detectorKindName(K);
  std::vector<double> S = Pr.repeat(Name, [&] {
    std::unique_ptr<Detector> D = makeDetectorFactory(K)(T);
    const uint64_t T0 = nowNs();
    runDetector(*D, T);
    const double Dt = seconds(T0);
    Tel.clear();
    D->telemetry(Tel);
    Instances = D->report().numInstances();
    return Dt;
  });
  return median(S) * 1e9 / std::max<uint64_t>(1, T.size());
}

uint64_t sample(const std::vector<MetricSample> &Tel, const std::string &N) {
  for (const MetricSample &M : Tel)
    if (M.Name == N)
      return M.Value;
  return 0;
}

} // namespace

void perfbench::runLayerProbes(const Prepared &P, double Budget,
                               SpanRecorder &Spans, uint32_t Parent,
                               MetricSet &Out, Collected &Checks,
                               std::vector<std::string> &Notes) {
  Scope Layers(Spans, "layers", Parent);
  Probe Pr{Budget, Spans, Checks};
  const Case &In = P.Cases[0];
  const Trace &T = In.Traces[0];
  const double N = static_cast<double>(T.size());
  const AnalysisConfig Cfg = sessionConfig(*P.W);
  // The workload's lanes in the two modes the api/ probes compare.
  AnalysisConfig Seq = Cfg;
  Seq.Mode = RunMode::Sequential;
  Seq.VarShards = 0;
  Seq.Threads = 0;
  AnalysisConfig Sharded = Cfg;
  Sharded.Mode = RunMode::VarSharded;
  Sharded.VarShards = Sharded.Threads = 4;

  // io/: both file formats and the wire codec, on the same events.
  {
    Scope L(Spans, "layer.io");
    const std::string Text = writeTextTrace(T);
    Out.add("io.text_parse_ns_per_event",
            median(Pr.repeat("io.parseTextTrace", [&] {
              const uint64_t T0 = nowNs();
              TextParseResult R = parseTextTrace(Text);
              const double Dt = seconds(T0);
              Pr.require(R.Ok && R.T.size() == T.size(), "parseTextTrace");
              return Dt;
            })) * 1e9 / N);
    const std::string Bin = writeBinaryTrace(T);
    Out.add("io.binary_parse_ns_per_event",
            median(Pr.repeat("io.parseBinaryTrace", [&] {
              const uint64_t T0 = nowNs();
              BinaryParseResult R = parseBinaryTrace(Bin);
              const double Dt = seconds(T0);
              Pr.require(R.Ok && R.T.size() == T.size(), "parseBinaryTrace");
              return Dt;
            })) * 1e9 / N);
    const std::vector<std::string> Frames = encodeEventFrames(T);
    std::vector<Event> Decoded;
    Out.add("io.wire_decode_ns_per_event",
            median(Pr.repeat("io.decodeEventsPayload", [&] {
              Decoded.clear();
              bool Ok = true;
              const uint64_t T0 = nowNs();
              for (const std::string &F : Frames) {
                uint64_t Seq = 0;
                Ok &= decodeEventsPayload(std::string_view(F).substr(
                                              WireFrameHeaderSize),
                                          Seq, Decoded)
                          .ok();
              }
              const double Dt = seconds(T0);
              Pr.require(Ok && Decoded.size() == T.size(),
                         "decodeEventsPayload");
              return Dt;
            })) * 1e9 / N);
  }

  // trace/ and vc/.
  {
    Scope L(Spans, "layer.trace");
    Out.add("trace.validate_ns_per_event",
            median(Pr.repeat("trace.validateTrace", [&] {
              const uint64_t T0 = nowNs();
              const bool Ok = validateTrace(T).ok();
              const double Dt = seconds(T0);
              Pr.require(Ok, "validateTrace");
              return Dt;
            })) * 1e9 / N);
  }
  {
    Scope L(Spans, "layer.vc");
    Out.add("vc.join_ns.w3", clockProbe(Pr, "vc.joinWith.w3", 3, true));
    Out.add("vc.join_ns.w14", clockProbe(Pr, "vc.joinWith.w14", 14, true));
    Out.add("vc.leq_ns.w14", clockProbe(Pr, "vc.lessOrEqual.w14", 14, false));
  }

  // Detectors: wcp/, hb/, lockset/, syncp/.
  {
    Scope L(Spans, "layer.detect");
    std::vector<MetricSample> Tel;
    uint64_t Inst = 0;
    const double Wcp = detectorProbe(Pr, DetectorKind::Wcp, T, Tel, Inst);
    Out.add("wcp.ns_per_event", Wcp);
    const uint64_t QueuePeak = sample(Tel, "wcp.queue_peak_abstract");
    const double Hb = detectorProbe(Pr, DetectorKind::Hb, T, Tel, Inst);
    Out.add("hb.ns_per_event", Hb);
    Out.add("hb.fasttrack_ns_per_event",
            detectorProbe(Pr, DetectorKind::FastTrack, T, Tel, Inst));
    Out.add("lockset.eraser_ns_per_event",
            detectorProbe(Pr, DetectorKind::Eraser, T, Tel, Inst));
    Out.add("wcp.over_hb", Wcp / Hb);
    Out.add("wcp.queue_peak", static_cast<double>(QueuePeak));

    const Trace Pre = prefix(T, SyncPProbeEvents);
    if (Pre.size() != T.size())
      Notes.push_back("syncp probes ran on the first " +
                      std::to_string(Pre.size()) + " of " +
                      std::to_string(T.size()) + " events");
    Out.add("syncp.ns_per_event",
            detectorProbe(Pr, DetectorKind::SyncP, Pre, Tel, Inst));
    const uint64_t Cand = sample(Tel, "syncp.candidate_pairs");
    Out.add("syncp.candidate_pairs", static_cast<double>(Cand));
    Out.add("syncp.closure_iterations",
            static_cast<double>(sample(Tel, "syncp.closure_iterations")));
    Out.add("syncp.races_per_candidate",
            Cand ? static_cast<double>(Inst) / Cand : 0.0);
  }

  // api/: the session over the workload's file, and the batch entry point
  // in both modes that parallelize differently.
  {
    Scope L(Spans, "layer.api");
    std::vector<double> Ingest, Park, PoolRatio;
    auto Session = [&](const AnalysisConfig &C, const char *Name) {
      Scope Sp(Spans, Name);
      AnalysisSession S(C);
      const uint64_t T0 = nowNs();
      Status Fed;
      {
        Scope F(Spans, "api.feedFile");
        Fed = S.feedFile(In.Files[0]);
      }
      const double Dt = seconds(T0);
      AnalysisResult R;
      {
        Scope F(Spans, "api.finish");
        R = S.finish();
      }
      Pr.require(Fed.ok() && R.ok() &&
                     canonicalReport(R, S.trace()) == In.Expected[0],
                 std::string(Name) + " report");
      // Consumers park on the publish watermark: per lane in sequential
      // sessions, once per session in the shared-consumer modes.
      uint64_t ParkNs = sample(R.Telemetry, "consume.park_ns");
      for (const LaneReport &Lane : R.Lanes)
        ParkNs += sample(Lane.Telemetry, "park_ns");
      return std::make_tuple(Dt, ParkNs, R.Telemetry);
    };
    const uint64_t Start = nowNs();
    while (Ingest.size() < 3 ||
           (Ingest.size() < 1000 && seconds(Start) < Budget)) {
      auto [Dt, ParkNs, Tel] = Session(Seq, "api.session.sequential");
      Ingest.push_back(Dt);
      Park.push_back(ParkNs / 1e9);
      const std::vector<MetricSample> Tel2 =
          std::get<2>(Session(Sharded, "api.session.varsharded"));
      const uint64_t Run = sample(Tel2, "pool.run_ns");
      PoolRatio.push_back(Run ? double(sample(Tel2, "pool.task_wait_ns")) / Run
                              : 0.0);
    }
    Out.add("api.ingest_s", median(Ingest));
    Out.add("api.consume_park_s", median(Park));
    Out.add("api.pool_wait_over_run", median(PoolRatio));
    auto Analyze = [&](const AnalysisConfig &C, const char *Name) {
      return median(Pr.repeat(Name, [&] {
               const uint64_t T0 = nowNs();
               AnalysisResult R = analyzeTrace(C, T);
               const double Dt = seconds(T0);
               Pr.require(R.ok() && R.EventsIngested == T.size(), Name);
               return Dt;
             })) *
             1e9 / N;
    };
    Out.add("api.analyze_sequential_ns_per_event",
            Analyze(Seq, "api.analyzeTrace.sequential"));
    Out.add("api.analyze_varsharded_ns_per_event",
            Analyze(Sharded, "api.analyzeTrace.varsharded"));
  }

  // serve/: frames into a session without a socket, then over one.
  {
    Scope L(Spans, "layer.serve");
    std::string Bytes = wireHelloFrame() + encodeTraceFrames(T);
    wireAppendFrame(Bytes, WireFrame::Finish, {});
    Out.add("serve.ingest_ns_per_event",
            median(Pr.repeat("serve.WireIngestor.ingest", [&] {
              AnalysisSession S(Seq);
              WireIngestor Ing(S);
              const uint64_t T0 = nowNs();
              Ing.ingest(Bytes.data(), Bytes.size());
              const double Dt = seconds(T0);
              AnalysisResult R = S.finish();
              Pr.require(Ing.status().ok() && Ing.sawFinish() &&
                             canonicalReport(R, S.trace()) == In.Expected[0],
                         "WireIngestor report");
              return Dt;
            })) * 1e9 / N);

    std::vector<double> Lag;
    uint64_t Parks = 0;
    Pr.repeat("serve.live_session", [&] {
      RaceServerConfig SC;
      SC.Session = Seq;
      SC.SocketPath = P.SocketPath;
      RaceServer Srv(SC);
      const uint64_t T0 = nowNs();
      Status St = Srv.start();
      LiveClient C;
      if (St.ok())
        St = C.connect(P.SocketPath, 2000);
      if (St.ok())
        St = C.stream(T, LiveBatchEvents, Spans, currentSpan());
      // metrics() names drop the "serve." prefix.
      for (const MetricSample &M : Srv.metrics())
        if (M.Name == "parks")
          Parks += M.Value;
      Srv.stop();
      Pr.require(St.ok() && C.report() == In.Expected[0],
                 "live session report: " + St.str());
      Lag.insert(Lag.end(), C.appliedLagMs().begin(), C.appliedLagMs().end());
      return seconds(T0);
    });
    Out.add("serve.applied_lag_ms.p50", percentile(Lag, 50));
    Out.add("serve.applied_lag_ms.p99", percentile(Lag, 99));
    Out.add("serve.parks", static_cast<double>(Parks));
  }

  // obs/: the workload's own session with metrics on and off, interleaved.
  {
    Scope L(Spans, "layer.obs");
    std::vector<double> On, Off;
    const uint64_t Start = nowNs();
    while (On.size() < 3 || (On.size() < 1000 && seconds(Start) < Budget)) {
      for (bool Metrics : {true, false}) {
        Scope Sp(Spans, Metrics ? "obs.session.metrics_on"
                                : "obs.session.metrics_off");
        AnalysisConfig C = Cfg;
        C.Metrics = Metrics;
        const uint64_t T0 = nowNs();
        AnalysisSession S(C);
        Status Fed = S.feedFile(In.Files[0]);
        AnalysisResult R = S.finish();
        (Metrics ? On : Off).push_back(seconds(T0));
        Pr.require(Fed.ok() && R.ok(), "metrics on/off session");
      }
    }
    Out.add("obs.metrics_overhead_ratio", median(On) / median(Off));
  }
}
