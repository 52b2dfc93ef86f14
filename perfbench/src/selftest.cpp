//===- selftest.cpp - Self-tests of the benchmark's own helpers -----------===//
//
// Part of rapidpp's benchmark (perfbench/).
//
//===----------------------------------------------------------------------===//
//
// Plain-main checks, run by `ctest` in the benchmark's build directory and
// by `python3 perfbench/run.py --selftest`. Exit status 0 iff all pass.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"
#include "Spans.h"
#include "Stats.h"

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

using namespace perfbench;

static int Failures = 0;

static void check(bool Ok, const std::string &What) {
  if (!Ok) {
    ++Failures;
    std::printf("FAIL: %s\n", What.c_str());
  }
}

static std::vector<double> iota(size_t N) {
  std::vector<double> V;
  for (size_t I = 1; I <= N; ++I)
    V.push_back(static_cast<double>(I));
  return V;
}

/// A tail percentile is emitted only with at least ten samples beyond it.
static void testTailPercentile() {
  check(!summarize(iota(20), false).HasTail, "20 samples: no tail");
  check(!summarize(iota(39), false).HasTail, "39 samples: p75 has 9 beyond");
  Summary S = summarize(iota(40), false);
  check(S.HasTail && S.TailRank == 75 && S.TailValue == 30,
        "40 samples: p75 = 30 with 10 beyond");
  S = summarize(iota(100), false);
  check(S.HasTail && S.TailRank == 90 && S.TailValue == 90,
        "100 samples: p90 = 90 with 10 beyond");
  S = summarize(iota(1000), false);
  check(S.HasTail && S.TailRank == 99 && S.TailValue == 990,
        "1000 samples: p99 = 990 with 10 beyond");
  S = summarize(iota(100), true);
  check(S.HasTail && S.TailRank == 10 && S.TailValue == 11,
        "higher-is-better: the tail is the low end (p10 = 11)");
  check(summarize(iota(100), false).Median == 50.5, "median of 1..100");
  for (size_t N : {1, 9, 11, 57, 99, 100, 101, 250, 1000, 1001}) {
    for (bool Higher : {false, true}) {
      S = summarize(iota(N), Higher);
      if (!S.HasTail)
        continue;
      size_t Beyond = 0;
      for (double V : iota(N))
        Beyond += Higher ? V < S.TailValue : V > S.TailValue;
      check(Beyond >= 10, "n=" + std::to_string(N) + ": " +
                              std::to_string(Beyond) + " beyond the tail");
    }
  }
}

/// Every catalogued name is well formed and carries a unit; MetricSet
/// refuses anything else.
static void testNames() {
  for (const MetricDef &D : metricCatalogue()) {
    check(validMetricName(D.Name), std::string("bad name ") + D.Name);
    check(validMetricUnit(D.Unit), std::string("bad unit for ") + D.Name);
  }
  check(!validMetricName("has space"), "space in a name");
  check(!validMetricName(".leading_dot"), "leading dot");
  check(!validMetricName(std::string(65, 'a')), "65-character name");
  check(!validMetricUnit(""), "empty unit");
  MetricSet M;
  M.add("events_per_s", 1.5);
  bool Threw = false;
  try {
    M.add("not_a_metric", 1);
  } catch (const std::invalid_argument &) {
    Threw = true;
  }
  check(Threw, "uncatalogued name accepted");
  Threw = false;
  try {
    M.add("events_per_s", 2);
  } catch (const std::invalid_argument &) {
    Threw = true;
  }
  check(Threw, "duplicate name accepted");
  check(M.json() ==
            "{\"events_per_s\": {\"value\": 1.5, \"unit\": \"1/s\"}}",
        "json: " + M.json());
}

/// The same seed gives byte-identical inputs; another seed does not.
static void testSeeds() {
  for (const WorkloadDef &W : workloads()) {
    auto Bytes = [&](uint64_t Seed) {
      std::string All;
      for (const std::vector<rapid::Trace> &In : makeTraces(W, Seed))
        for (const rapid::Trace &T : In)
          All += serialize(W, T);
      return All;
    };
    const std::string A = Bytes(7), B = Bytes(7), C = Bytes(8);
    check(!A.empty() && A == B,
          std::string(W.Name) + ": same seed, different inputs");
    check(A != C, std::string(W.Name) + ": seeds 7 and 8 gave equal inputs");
  }
}

/// Spans nest, and self time excludes children.
static void testSpans() {
  SpanRecorder R(true);
  {
    Scope Root(R, "root", 0);
    { Scope Child(R, "child"); }
  }
  const std::vector<SpanRecorder::Span> S = R.spans();
  check(S.size() == 2 && S[1].Parent == S[0].Id, "child under root");
  check(R.checkNesting().empty(), "nesting: " + R.checkNesting());
  const auto Self = R.selfSeconds();
  const double RootDur = (S[0].EndNs - S[0].StartNs) / 1e9;
  const double ChildDur = (S[1].EndNs - S[1].StartNs) / 1e9;
  check(Self.at("root") <= RootDur - ChildDur + 1e-9, "root self time");
  SpanRecorder Off(false);
  { Scope X(Off, "x"); }
  check(Off.spans().empty(), "disabled recorder kept a span");
}

int main() {
  testTailPercentile();
  testNames();
  testSeeds();
  testSpans();
  std::printf("perfbench selftest: %s\n", Failures ? "FAILED" : "ok");
  return Failures ? 1 : 0;
}
