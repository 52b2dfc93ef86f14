//===- main.cpp - perfbench entry point -----------------------------------===//
//
// Part of rapidpp's benchmark (perfbench/).
//
//===----------------------------------------------------------------------===//
//
// Runs one workload for a fixed time and prints its figures. The process
// prepares the inputs and their oracle reports first. Untraced runs
// (--trace 0) then measure the end-to-end metrics in forked children;
// traced runs (--trace 1) alternate traced and untraced iterations for the
// tracing overhead, run the per-layer probes, and write the spans as
// Perfetto JSON.
//
// The last stdout line is "RESULT <json>" with correct/attempted/failed
// and the metrics; perfbench/run.py turns it into the benchmark's output.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/Json.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <csignal>
#include <sched.h>
#include <sys/prctl.h>
#include <stdexcept>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace perfbench;

namespace {

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string OutDir = ".bench_out";
  std::string Commit = "unknown";
};

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <name> [--seed N] [--seconds S]\n"
               "                 [--trace 0|1] [--out-dir DIR] [--commit ID]\n"
               "workloads:",
               Why);
  for (const WorkloadDef &W : workloads())
    std::fprintf(stderr, " %s", W.Name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    const std::string A = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + A).c_str());
    const char *V = Argv[++I];
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed")
      O.Seed = std::strtoull(V, nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::atof(V);
    else if (A == "--trace")
      O.Trace = std::strcmp(V, "0") != 0;
    else if (A == "--out-dir")
      O.OutDir = V;
    else if (A == "--commit")
      O.Commit = V;
    else
      usage(("unknown option " + A).c_str());
  }
  if (!findWorkload(O.Workload))
    usage(("unknown workload '" + O.Workload + "'").c_str());
  if (!(O.Seconds > 0))
    usage("--seconds must be positive");
  return O;
}

#if defined(__clang__)
const char *const Compiler = "clang " __clang_version__;
#else
const char *const Compiler = "gcc " __VERSION__;
#endif

unsigned hostCpus() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return static_cast<unsigned>(CPU_COUNT(&Set));
  return std::thread::hardware_concurrency();
}

std::string summaryLine(const std::string &Name, const char *Unit,
                        const std::vector<double> &S, bool HigherIsBetter) {
  const Summary Sum = summarize(S, HigherIsBetter);
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf), "%-20s median %.6g %s", Name.c_str(),
                Sum.Median, Unit);
  std::string Out = Buf;
  if (Sum.HasTail) {
    std::snprintf(Buf, sizeof(Buf), ", p%g %.6g", Sum.TailRank,
                  Sum.TailValue);
    Out += Buf;
  }
  return Out + " (n=" + std::to_string(Sum.Count) + ")";
}

std::string summaryJson(const std::vector<double> &S, bool HigherIsBetter) {
  const Summary Sum = summarize(S, HigherIsBetter);
  std::string Out = "{\"median\": " + fmtNumber(Sum.Median) +
                    ", \"count\": " + std::to_string(Sum.Count);
  if (Sum.HasTail)
    Out += ", \"tail_percentile\": " + fmtNumber(Sum.TailRank) +
           ", \"tail_value\": " + fmtNumber(Sum.TailValue);
  return Out + "}";
}

/// One discarded iteration per input fills caches and finishes lazy
/// set-up; its outputs are still checked (into \p Out's counts).
void warmUp(const Prepared &P, Collected &Out) {
  SpanRecorder Off(false);
  Collected Warm;
  for (const Case &C : P.Cases)
    runIteration(P, C, Warm, Off, 0);
  Out.Attempted += Warm.Attempted;
  Out.Failed += Warm.Failed;
  Out.Mismatches += Warm.Mismatches;
  Out.Errors.insert(Out.Errors.end(), Warm.Errors.begin(), Warm.Errors.end());
}

/// Runs iterations over the inputs round-robin until \p Seconds have
/// passed and every input ran \p MinRounds times. With \p TracedOut, every
/// other iteration is traced into \p Spans and collected there instead.
void measure(const Prepared &P, double Seconds, size_t MinRounds,
             Collected &Out, SpanRecorder &Spans, uint32_t Root,
             Collected *TracedOut) {
  SpanRecorder Off(false);
  const size_t Stride = TracedOut ? 2 : 1;
  const size_t MinIters = MinRounds * Stride * P.Cases.size();
  Out.ByInput.resize(P.Cases.size());
  const uint64_t Start = nowNs();
  for (size_t I = 0; I < MinIters || (nowNs() - Start) / 1e9 < Seconds; ++I) {
    const bool Traced = TracedOut && I % 2;
    const size_t In = I / Stride % P.Cases.size();
    Collected &C = Traced ? *TracedOut : Out;
    const size_t Before = C.EventsPerS.size();
    runIteration(P, P.Cases[In], C, Traced ? Spans : Off, Traced ? Root : 0);
    if (!Traced && C.EventsPerS.size() != Before)
      Out.ByInput[In].push_back(C.EventsPerS.back());
  }
}

/// Untraced measurement is split over this many processes run one after
/// another. On a shared host part of the run-to-run difference is fixed
/// per process (thread placement, memory layout), so a run spread over
/// several processes reads steadier than one long process.
constexpr unsigned MeasureProcesses = 4;

bool writeAll(int Fd, const std::string &S) {
  for (size_t Off = 0; Off != S.size();) {
    const ssize_t N = ::write(Fd, S.data() + Off, S.size() - Off);
    if (N < 0 && errno != EINTR)
      return false;
    Off += N > 0 ? static_cast<size_t>(N) : 0;
  }
  return true;
}

/// Measures \p P in MeasureProcesses forked children, each for an equal
/// share of \p Seconds after its own warm-up, and merges their samples
/// into \p Out. Safe to fork: the parent has started no thread yet
/// (prepare() runs none). Returns an error message, or "" on success.
std::string measureInChildren(const Prepared &P, double Seconds,
                              Collected &Out) {
  for (unsigned K = 0; K != MeasureProcesses; ++K) {
    int Fd[2];
    if (::pipe(Fd) != 0)
      return std::string("pipe: ") + std::strerror(errno);
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t Pid = ::fork();
    if (Pid < 0)
      return std::string("fork: ") + std::strerror(errno);
    if (Pid == 0) {
      // Die with the parent, so a killed run leaves no measuring child.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() == 1)
        ::_exit(1);
      ::close(Fd[0]);
      int Code = 0;
      try {
        Collected C;
        warmUp(P, C);
        SpanRecorder Off(false);
        measure(P, Seconds / MeasureProcesses, 2, C, Off, 0, nullptr);
        Code = writeAll(Fd[1], C.serialize()) ? 0 : 1;
      } catch (const std::exception &E) {
        std::fprintf(stderr, "perfbench: measuring child: %s\n", E.what());
        Code = 1;
      }
      // _exit: the child must not run the parent's cleanup destructors.
      ::_exit(Code);
    }
    ::close(Fd[1]);
    std::string Text;
    char Buf[1 << 16];
    for (ssize_t N; (N = ::read(Fd[0], Buf, sizeof(Buf))) != 0;) {
      if (N < 0 && errno == EINTR)
        continue;
      if (N < 0)
        break;
      Text.append(Buf, static_cast<size_t>(N));
    }
    ::close(Fd[0]);
    int St = 0;
    while (::waitpid(Pid, &St, 0) < 0 && errno == EINTR)
      ;
    if (!WIFEXITED(St) || WEXITSTATUS(St) != 0)
      return "measuring child " + std::to_string(K) + " failed";
    Out.absorb(Text);
  }
  return "";
}

} // namespace

int main(int Argc, char **Argv) {
  const Options O = parse(Argc, Argv);
  const WorkloadDef &W = *findWorkload(O.Workload);
  const std::string Tag = std::string(W.Name) + "-seed" +
                          std::to_string(O.Seed) + "-trace" +
                          (O.Trace ? "1" : "0");
  // Inputs and the server socket live in a per-process directory that is
  // removed on exit; the socket path must stay short, so it is relative.
  const std::string WorkDir =
      O.OutDir + "/work-" + std::to_string(::getpid());
  std::error_code Ec;
  std::filesystem::create_directories(WorkDir, Ec);
  if (Ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", WorkDir.c_str());
    return 1;
  }
  struct RemoveOnExit {
    std::string Dir;
    ~RemoveOnExit() {
      std::error_code Ec;
      std::filesystem::remove_all(Dir, Ec);
    }
  } Cleanup{WorkDir};

  try {
    Prepared P = prepare(W, O.Seed, WorkDir);
    uint64_t Events = 0;
    for (const Case &C : P.Cases)
      Events += C.Events;
    std::printf("perfbench %s seed=%llu trace=%d inputs=%zu events=%llu\n",
                W.Name, (unsigned long long)O.Seed, O.Trace ? 1 : 0,
                P.Cases.size(), (unsigned long long)Events);

    SpanRecorder Spans(O.Trace);
    Collected Untraced, Traced, Probes;
    MetricSet Metrics;
    std::vector<std::string> Notes;
    std::string SpansPath, Nesting;
    if (!O.Trace) {
      const std::string Err = measureInChildren(P, O.Seconds, Untraced);
      if (!Err.empty())
        throw std::runtime_error(Err);
      Metrics.add("events_per_s", median(Untraced.EventsPerS));
      Metrics.add("finish_to_report_s", median(Untraced.FinishToReport));
      Metrics.add("setup_s", median(Untraced.Setup));
      Metrics.add("peak_rss_mb", median(Untraced.PeakRssMb));
    } else {
      warmUp(P, Untraced);
      const uint32_t Root = Spans.begin(std::string("workload:") + W.Name, 0);
      // Probes get the larger share: there are many of them.
      measure(P, O.Seconds * 0.3, 1, Untraced, Spans, Root, &Traced);
      runLayerProbes(P, O.Seconds * 0.7 / 16, Spans, Root, Metrics, Probes,
                     Notes);
      Metrics.add("bench.trace_overhead_ratio",
                  median(Untraced.EventsPerS) / median(Traced.EventsPerS));
      Spans.end(Root);
      Nesting = Spans.checkNesting();
      SpansPath = O.OutDir + "/" + Tag + ".spans.json";
      std::ofstream(SpansPath) << Spans.perfettoJson();
    }

    // Verdict over everything this process ran.
    uint64_t Attempted = 0, Failed = 0, Mismatches = 0;
    std::vector<std::string> Errors;
    unsigned Threads = 0;
    for (const Collected *C : {&Untraced, &Traced, &Probes}) {
      Attempted += C->Attempted;
      Failed += C->Failed;
      Mismatches += C->Mismatches;
      Errors.insert(Errors.end(), C->Errors.begin(), C->Errors.end());
      Threads = std::max(Threads, C->PeakThreads);
    }
    if (!Nesting.empty())
      Errors.push_back("span nesting: " + Nesting);
    const bool Correct = Failed == 0 && Mismatches == 0 && Nesting.empty();

    const unsigned Cpus = hostCpus();
    const unsigned HwThreads = std::thread::hardware_concurrency();
    // Threads alive during measurement, the benchmark's own included.
    const bool Degraded = Threads > Cpus;
    std::string Host =
        "{\"nproc\": " + std::to_string(Cpus) +
        ", \"hardware_threads\": " + std::to_string(HwThreads) +
        ", \"build_type\": " + rapid::jsonQuote(PERFBENCH_BUILD_TYPE) +
        ", \"compiler\": " + rapid::jsonQuote(Compiler) +
        ", \"commit\": " + rapid::jsonQuote(O.Commit) +
        ", \"workers\": " + std::to_string(Threads) +
        ", \"degraded\": " + (Degraded ? "true" : "false") + "}";

    std::printf("host: %s\n", Host.c_str());
    const Collected &E2E = Untraced;
    std::printf("%s\n", summaryLine("events_per_s", "1/s", E2E.EventsPerS,
                                    true).c_str());
    for (size_t I = 0; I != E2E.ByInput.size(); ++I)
      std::printf("  input %zu (%llu events) %s\n", I,
                  (unsigned long long)P.Cases[I].Events,
                  summaryLine("", "1/s", E2E.ByInput[I], true).c_str());
    std::printf("%s\n", summaryLine("finish_to_report_s", "s",
                                    E2E.FinishToReport, false).c_str());
    std::printf("%s\n", summaryLine("setup_s", "s", E2E.Setup, false).c_str());
    std::printf("%s\n",
                summaryLine("peak_rss_mb", "MB", E2E.PeakRssMb, false).c_str());
    std::printf("%-20s %llu/%llu operations = %.6g\n", "failed_ratio",
                (unsigned long long)Failed, (unsigned long long)Attempted,
                Attempted ? double(Failed) / Attempted : 0.0);
    for (const MetricSet::Entry &E : Metrics.entries())
      if (E.Name.find('.') != std::string::npos)
        std::printf("%-38s %.6g %s\n", E.Name.c_str(), E.Value,
                    E.Unit.c_str());
    std::string SelfJson = "{";
    if (O.Trace) {
      std::printf("self time by span (s):\n");
      for (const auto &[Name, S] : Spans.selfSeconds()) {
        std::printf("  %-38s %.6f\n", Name.c_str(), S);
        SelfJson += (SelfJson.size() > 1 ? ", " : "") +
                    rapid::jsonQuote(Name) + ": " + fmtNumber(S);
      }
      std::printf("traced events_per_s: %s\n",
                  summaryLine("", "1/s", Traced.EventsPerS, true).c_str());
      std::printf("spans: %s\n", SpansPath.c_str());
    }
    SelfJson += "}";
    for (const std::string &N : Notes)
      std::printf("note: %s\n", N.c_str());
    for (const std::string &E : Errors)
      std::printf("error: %s\n", E.c_str());

    std::string ErrJson = "[";
    for (const std::string &E : Errors)
      ErrJson += (ErrJson.size() > 1 ? ", " : "") + rapid::jsonQuote(E);
    ErrJson += "]";
    const std::string Detail =
        "{\"workload\": " + rapid::jsonQuote(W.Name) +
        ", \"seed\": " + std::to_string(O.Seed) +
        ", \"trace\": " + (O.Trace ? "1" : "0") +
        ", \"inputs\": " + std::to_string(P.Cases.size()) +
        ", \"events\": " + std::to_string(Events) + ", \"host\": " + Host +
        ", \"events_per_s\": " + summaryJson(E2E.EventsPerS, true) +
        ", \"finish_to_report_s\": " + summaryJson(E2E.FinishToReport, false) +
        ", \"setup_s\": " + summaryJson(E2E.Setup, false) +
        ", \"peak_rss_mb\": " + summaryJson(E2E.PeakRssMb, false) +
        ", \"traced_events_per_s\": " + summaryJson(Traced.EventsPerS, true) +
        ", \"failed_ratio\": " +
        fmtNumber(Attempted ? double(Failed) / Attempted : 0.0) +
        ", \"metrics\": " + Metrics.json() + ", \"self_seconds\": " +
        SelfJson + ", \"spans\": " + rapid::jsonQuote(SpansPath) +
        ", \"errors\": " + ErrJson + "}\n";
    std::ofstream(O.OutDir + "/" + Tag + ".json") << Detail;

    std::printf("RESULT {\"correct\": %s, \"attempted\": %llu, \"failed\": "
                "%llu, \"metrics\": %s}\n",
                Correct ? "true" : "false", (unsigned long long)Attempted,
                (unsigned long long)Failed, Metrics.json().c_str());
    std::fflush(stdout);
    return 0;
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: %s\n", E.what());
    return 1;
  }
}
