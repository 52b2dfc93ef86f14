//===- Stats.cpp - Sample summaries and the metric catalogue --------------===//
//
// Part of rapidpp's benchmark (perfbench/).
//
//===----------------------------------------------------------------------===//

#include "Stats.h"

#include "support/Json.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <stdexcept>

using namespace perfbench;

double perfbench::median(std::vector<double> Samples) {
  if (Samples.empty())
    return 0;
  std::sort(Samples.begin(), Samples.end());
  const size_t N = Samples.size();
  return N % 2 ? Samples[N / 2] : (Samples[N / 2 - 1] + Samples[N / 2]) / 2;
}

/// 0-based nearest-rank index of percentile \p P among \p N samples.
static size_t rankIndex(size_t N, double P) {
  const double K = std::ceil(P / 100.0 * static_cast<double>(N));
  return K < 1 ? 0 : std::min(N, static_cast<size_t>(K)) - 1;
}

double perfbench::percentile(std::vector<double> Samples, double P) {
  if (Samples.empty())
    return 0;
  std::sort(Samples.begin(), Samples.end());
  return Samples[rankIndex(Samples.size(), P)];
}

Summary perfbench::summarize(const std::vector<double> &Samples,
                             bool HigherIsBetter) {
  Summary S;
  S.Count = Samples.size();
  S.Median = median(Samples);
  if (Samples.empty())
    return S;
  std::vector<double> Sorted = Samples;
  std::sort(Sorted.begin(), Sorted.end());
  if (HigherIsBetter)
    std::reverse(Sorted.begin(), Sorted.end());
  // Sorted now runs from best to worst; the tail is the worse end. Take
  // the highest candidate rank that leaves at least ten samples past it.
  for (double P : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    const size_t K = rankIndex(Sorted.size(), P);
    if (Sorted.size() - 1 - K >= 10) {
      S.HasTail = true;
      S.TailRank = HigherIsBetter ? 100.0 - P : P;
      S.TailValue = Sorted[K];
      break;
    }
  }
  return S;
}

const std::vector<MetricDef> &perfbench::metricCatalogue() {
  static const std::vector<MetricDef> Catalogue = {
      // End to end, measured with tracing off.
      {"events_per_s", "1/s"},
      {"finish_to_report_s", "s"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
      // Per layer, measured by a traced run on the workload's input.
      {"io.text_parse_ns_per_event", "ns"},
      {"io.binary_parse_ns_per_event", "ns"},
      {"io.wire_decode_ns_per_event", "ns"},
      {"trace.validate_ns_per_event", "ns"},
      {"vc.join_ns.w3", "ns"},
      {"vc.join_ns.w14", "ns"},
      {"vc.leq_ns.w14", "ns"},
      {"wcp.ns_per_event", "ns"},
      {"hb.ns_per_event", "ns"},
      {"hb.fasttrack_ns_per_event", "ns"},
      {"lockset.eraser_ns_per_event", "ns"},
      {"wcp.over_hb", "ratio"},
      {"wcp.queue_peak", "count"},
      {"api.ingest_s", "s"},
      {"api.analyze_sequential_ns_per_event", "ns"},
      {"api.analyze_varsharded_ns_per_event", "ns"},
      {"api.consume_park_s", "s"},
      {"api.pool_wait_over_run", "ratio"},
      {"serve.ingest_ns_per_event", "ns"},
      {"serve.applied_lag_ms.p50", "ms"},
      {"serve.applied_lag_ms.p99", "ms"},
      {"serve.parks", "count"},
      {"syncp.ns_per_event", "ns"},
      {"syncp.candidate_pairs", "count"},
      {"syncp.closure_iterations", "count"},
      {"syncp.races_per_candidate", "ratio"},
      {"obs.metrics_overhead_ratio", "ratio"},
      {"bench.trace_overhead_ratio", "ratio"},
  };
  return Catalogue;
}

bool perfbench::validMetricName(const std::string &Name) {
  if (Name.empty() || Name.size() > 64 || !std::isalnum((unsigned char)Name[0]))
    return false;
  return std::all_of(Name.begin(), Name.end(), [](char C) {
    return std::isalnum((unsigned char)C) || C == '_' || C == '.' || C == '-';
  });
}

bool perfbench::validMetricUnit(const std::string &Unit) {
  if (Unit.empty() || Unit.size() > 16)
    return false;
  return std::all_of(Unit.begin(), Unit.end(), [](char C) {
    return std::isalnum((unsigned char)C) || C == '_' || C == '/' ||
           C == '%' || C == '.' || C == '-';
  });
}

void MetricSet::add(const std::string &Name, double Value) {
  const std::vector<MetricDef> &Cat = metricCatalogue();
  auto It = std::find_if(Cat.begin(), Cat.end(),
                         [&](const MetricDef &D) { return Name == D.Name; });
  if (It == Cat.end() || !validMetricName(Name) || !validMetricUnit(It->Unit))
    throw std::invalid_argument("metric '" + Name + "' is not catalogued");
  for (const Entry &E : Entries)
    if (E.Name == Name)
      throw std::invalid_argument("metric '" + Name + "' emitted twice");
  Entries.push_back({Name, It->Unit, Value});
}

std::string MetricSet::json() const {
  std::string Out = "{";
  for (size_t I = 0; I != Entries.size(); ++I) {
    if (I)
      Out += ", ";
    Out += rapid::jsonQuote(Entries[I].Name) +
           ": {\"value\": " + fmtNumber(Entries[I].Value) +
           ", \"unit\": " + rapid::jsonQuote(Entries[I].Unit) + "}";
  }
  return Out + "}";
}

std::string perfbench::fmtNumber(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}
