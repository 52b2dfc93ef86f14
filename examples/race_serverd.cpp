//===- examples/race_serverd.cpp - Live race-analysis daemon ------------------===//
//
// Part of rapidpp (PLDI'17 WCP reproduction).
//
// The serving layer's daemon (serve/RaceServer.h): listens on a
// Unix-domain socket, runs one AnalysisSession per connection over a
// shared ingest pool, enforces per-session budgets with backpressure,
// answers mid-stream partial/timeline/roster queries, and retains every
// finished session's canonical report for final-report queries. Optional
// --fifo/--shm sources pump framed streams from pipes or shared-memory
// rings into their own sessions (io/FeedSource.h).
//
// `race_serverd --help` has the flag matrix; docs/SERVING.md documents
// the protocol and the LD_PRELOAD interposer that feeds this daemon.
//
//===----------------------------------------------------------------------===//

#include "api/AnalysisSession.h"
#include "hb/HbDetector.h"
#include "io/FaultInjector.h"
#include "io/FeedSource.h"
#include "serve/RaceServer.h"
#include "serve/ReportCanon.h"
#include "serve/WireIngestor.h"

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

using namespace rapid;

namespace {

std::atomic<bool> GotSignal{false};

void onSignal(int) { GotSignal.store(true); }

/// An HB lane that sleeps per event — a deterministic drag for exercising
/// the lag budget (a normal detector drains small test streams faster
/// than a client can send them, so parking would never trigger).
class SlowHbDetector : public HbDetector {
public:
  SlowHbDetector(const Trace &T, unsigned SlowUs)
      : HbDetector(T), SlowUs(SlowUs) {}

  void processEvent(const Event &E, EventIdx Index) override {
    HbDetector::processEvent(E, Index);
    if (SlowUs)
      std::this_thread::sleep_for(std::chrono::microseconds(SlowUs));
  }

  std::string name() const override { return "slow-HB"; }

private:
  unsigned SlowUs;
};

struct Options {
  std::string Socket;
  bool RunHb = false;
  bool RunWcp = false;
  bool RunFastTrack = false;
  bool RunEraser = false;
  bool RunSyncP = false;
  unsigned Threads = 0;
  uint64_t Window = 0;
  uint32_t Shards = 0;
  uint64_t StreamBatch = 0;
  uint64_t BudgetLag = ServeBudgets().MaxLagEvents;
  uint64_t MaxEvents = 0;
  unsigned IngestThreads = 2;
  uint64_t MaxSessions = 0;
  uint64_t ResumeGraceMs = 5000;
  uint64_t IdleTimeoutMs = 0;
  uint64_t RosterMax = 0;
  uint64_t RetryAfterMs = 100;
  uint64_t FaultSeed = 0;
  unsigned DebugSlowUs = 0;
  bool Quiet = false;
  bool DryRun = false;
  std::vector<std::string> Sources; ///< fifo:/shm: specs to pump.
};

void printHelp() {
  std::fputs(
      "usage: race_serverd --socket PATH [options]\n"
      "\n"
      "Live race-analysis daemon: every connection gets its own analysis\n"
      "session fed by length-prefixed wire frames (docs/SERVING.md).\n"
      "\n"
      "detectors (default: --hb --wcp):\n"
      "  --hb / --wcp / --fasttrack / --eraser / --syncp\n"
      "\n"
      "session shape (applies to every accepted session):\n"
      "  --window N        windowed mode, N events per window\n"
      "  --shards N        per-variable sharded mode, N shards per lane\n"
      "  --threads N       session worker threads (0 = hardware)\n"
      "  --stream-batch N  events per consumer batch\n"
      "\n"
      "serving:\n"
      "  --socket PATH     Unix-domain socket to listen on (required)\n"
      "  --budget-lag N    park a client once published-minus-consumed\n"
      "                    lag exceeds N events (default 16384; 0 off)\n"
      "  --max-events N    hard per-session event budget (0 = unlimited)\n"
      "  --ingest-threads N  shared decode/feed pool width (default 2)\n"
      "  --fifo PATH       also pump a FIFO feed into its own session\n"
      "  --shm PATH        also pump a shared-memory ring feed\n"
      "  --debug-slow-us N add a deliberately slow HB lane (N us/event) —\n"
      "                    test hook for deterministic backpressure\n"
      "  --quiet           no per-session reports on stdout\n"
      "  --dry-run         validate flags and exit\n"
      "\n"
      "fault tolerance / degradation (docs/SERVING.md#fault-tolerance):\n"
      "  --max-sessions N    shed Hellos beyond N live sessions with a\n"
      "                      retryable overloaded error (0 = unlimited)\n"
      "  --resume-grace-ms N park a disconnected resumable session this\n"
      "                      long awaiting Resume (default 5000; 0 off)\n"
      "  --idle-timeout-ms N evict sessions idle this long (0 = never)\n"
      "  --roster-max N      retain at most N finished summaries (0 = all)\n"
      "  --retry-after-ms N  hint stamped into retryable errors (default 100)\n"
      "  --fault-seed N      decorate --fifo/--shm feeds with deterministic\n"
      "                      delivery faults (short reads, EAGAIN, delays)\n"
      "                      from seed N — content is never altered (0 off)\n"
      "\n"
      "SIGTERM/SIGINT drain cleanly: buffered frames are applied, every\n"
      "live session is finalized, and its prefix report is printed.\n",
      stdout);
}

/// Pumps one fifo:/shm: source into a dedicated session; prints the
/// canonical report at EOF. Runs on its own thread — these sources are
/// single-stream, so the blocking pump is the right shape.
void pumpSource(const std::string &Spec, AnalysisConfig Cfg, bool Quiet,
                uint64_t FaultSeed) {
  Status Err;
  std::unique_ptr<FeedSource> Src = openFeedSource(Spec, Err);
  if (!Src) {
    std::fprintf(stderr, "race_serverd: %s: %s\n", Spec.c_str(),
                 Err.str().c_str());
    return;
  }
  if (FaultSeed != 0) {
    // Deterministic delivery faults (short reads, spurious EAGAIN, small
    // delays) — the decorator never alters content, so the report must
    // match a fault-free run byte for byte.
    FaultyFeedConfig FC;
    FC.Seed = FaultSeed;
    FC.ShortReadPermille = 300;
    FC.WouldBlockPermille = 100;
    FC.DelayPermille = 50;
    Src = makeFaultyFeedSource(std::move(Src), FC);
  }
  AnalysisSession S(Cfg);
  Status Pumped = pumpFeedSource(*Src, S);
  AnalysisResult R = S.finish();
  if (!Pumped.ok())
    std::fprintf(stderr, "race_serverd: %s: %s\n", Spec.c_str(),
                 Pumped.str().c_str());
  if (!Quiet) {
    std::printf("source %s:\n%s", Spec.c_str(),
                canonicalReport(R, S.trace()).c_str());
    std::fflush(stdout);
  }
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  auto NeedsValue = [&](int &I) -> const char * {
    if (I + 1 >= Argc) {
      std::fprintf(stderr, "error: %s needs a value\n", Argv[I]);
      std::exit(1);
    }
    return Argv[++I];
  };
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
    else if (Arg == "--quiet")
      Opts.Quiet = true;
    else if (Arg == "--dry-run")
      Opts.DryRun = true;
    else if (Arg == "--socket")
      Opts.Socket = NeedsValue(I);
    else if (Arg == "--fifo")
      Opts.Sources.push_back(std::string("fifo:") + NeedsValue(I));
    else if (Arg == "--shm")
      Opts.Sources.push_back(std::string("shm:") + NeedsValue(I));
    else if (Arg == "--threads")
      Opts.Threads =
          static_cast<unsigned>(std::strtoul(NeedsValue(I), nullptr, 10));
    else if (Arg == "--window")
      Opts.Window = std::strtoull(NeedsValue(I), nullptr, 10);
    else if (Arg == "--shards")
      Opts.Shards =
          static_cast<uint32_t>(std::strtoul(NeedsValue(I), nullptr, 10));
    else if (Arg == "--stream-batch")
      Opts.StreamBatch = std::strtoull(NeedsValue(I), nullptr, 10);
    else if (Arg == "--budget-lag")
      Opts.BudgetLag = std::strtoull(NeedsValue(I), nullptr, 10);
    else if (Arg == "--max-events")
      Opts.MaxEvents = std::strtoull(NeedsValue(I), nullptr, 10);
    else if (Arg == "--ingest-threads")
      Opts.IngestThreads =
          static_cast<unsigned>(std::strtoul(NeedsValue(I), nullptr, 10));
    else if (Arg == "--max-sessions")
      Opts.MaxSessions = std::strtoull(NeedsValue(I), nullptr, 10);
    else if (Arg == "--resume-grace-ms")
      Opts.ResumeGraceMs = std::strtoull(NeedsValue(I), nullptr, 10);
    else if (Arg == "--idle-timeout-ms")
      Opts.IdleTimeoutMs = std::strtoull(NeedsValue(I), nullptr, 10);
    else if (Arg == "--roster-max")
      Opts.RosterMax = std::strtoull(NeedsValue(I), nullptr, 10);
    else if (Arg == "--retry-after-ms")
      Opts.RetryAfterMs = std::strtoull(NeedsValue(I), nullptr, 10);
    else if (Arg == "--fault-seed")
      Opts.FaultSeed = std::strtoull(NeedsValue(I), nullptr, 10);
    else if (Arg == "--debug-slow-us")
      Opts.DebugSlowUs =
          static_cast<unsigned>(std::strtoul(NeedsValue(I), nullptr, 10));
    else if (Arg == "--help" || Arg == "-h") {
      printHelp();
      return 0;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", Arg.c_str());
      return 1;
    }
  }
  if (!Opts.RunHb && !Opts.RunWcp && !Opts.RunFastTrack &&
      !Opts.RunEraser && !Opts.RunSyncP)
    Opts.RunHb = Opts.RunWcp = true;
  if (Opts.Socket.empty() && !Opts.DryRun) {
    std::fprintf(stderr, "error: --socket PATH is required\n");
    return 1;
  }

  RaceServerConfig Cfg;
  Cfg.SocketPath = Opts.Socket;
  Cfg.Budgets.MaxLagEvents = Opts.BudgetLag;
  Cfg.Budgets.MaxSessionEvents = Opts.MaxEvents;
  Cfg.IngestThreads = Opts.IngestThreads;
  Cfg.MaxSessions = Opts.MaxSessions;
  Cfg.ResumeGraceMs = Opts.ResumeGraceMs;
  Cfg.IdleTimeoutMs = Opts.IdleTimeoutMs;
  Cfg.RosterMax = static_cast<size_t>(Opts.RosterMax);
  Cfg.RetryAfterMs = static_cast<uint32_t>(Opts.RetryAfterMs);
  AnalysisConfig &S = Cfg.Session;
  S.Threads = Opts.Threads;
  if (Opts.Shards > 0) {
    S.Mode = RunMode::VarSharded;
    S.VarShards = Opts.Shards;
  } else if (Opts.Window > 0) {
    S.Mode = RunMode::Windowed;
    S.WindowEvents = Opts.Window;
  }
  if (Opts.StreamBatch)
    S.StreamBatchEvents = Opts.StreamBatch;
  if (Opts.RunHb)
    S.addDetector(DetectorKind::Hb);
  if (Opts.RunWcp)
    S.addDetector(DetectorKind::Wcp);
  if (Opts.RunFastTrack)
    S.addDetector(DetectorKind::FastTrack);
  if (Opts.RunEraser)
    S.addDetector(DetectorKind::Eraser);
  if (Opts.RunSyncP)
    S.addDetector(DetectorKind::SyncP);
  if (Opts.DebugSlowUs) {
    const unsigned SlowUs = Opts.DebugSlowUs;
    S.addDetector(
        [SlowUs](const Trace &T) {
          return std::make_unique<SlowHbDetector>(T, SlowUs);
        },
        "slow-HB");
  }
  if (Status V = S.validate(); !V.ok()) {
    std::fprintf(stderr, "error: %s\n", V.str().c_str());
    return 1;
  }
  if (Opts.DryRun) {
    std::printf("dry-run ok: mode=%s detectors=%zu budget-lag=%llu\n",
                runModeName(S.Mode), S.Detectors.size(),
                (unsigned long long)Opts.BudgetLag);
    return 0;
  }

  RaceServer Server(Cfg);
  if (Status St = Server.start(); !St.ok()) {
    std::fprintf(stderr, "error: %s\n", St.str().c_str());
    return 1;
  }
  std::printf("listening on %s\n", Opts.Socket.c_str());
  std::fflush(stdout);

  std::vector<std::thread> Pumps;
  for (const std::string &Spec : Opts.Sources)
    Pumps.emplace_back(pumpSource, Spec, Cfg.Session, Opts.Quiet,
                       Opts.FaultSeed);

  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);
  while (!GotSignal.load())
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

  for (std::thread &T : Pumps)
    T.join();
  Server.stop();
  if (!Opts.Quiet) {
    for (const SessionSummary &Sum : Server.finishedSessions())
      std::printf("session %llu: events=%llu parks=%llu resumes=%llu "
                  "clean=%d %s\n",
                  (unsigned long long)Sum.Id, (unsigned long long)Sum.Events,
                  (unsigned long long)Sum.Parks,
                  (unsigned long long)Sum.Resumes, Sum.CleanFinish ? 1 : 0,
                  Sum.Outcome.str().c_str());
  }
  return 0;
}
