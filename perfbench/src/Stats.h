//===- Stats.h - Sample summaries and the metric catalogue ------*- C++ -*-===//
//
// Part of rapidpp's benchmark (perfbench/).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// How the benchmark turns repeated timings into reported figures, and the
/// one list of metric names and units it may emit. Every figure it prints
/// goes through MetricSet::add, which refuses a name outside the catalogue,
/// so the output can never drift from BENCHMARK.json silently.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// A timing distribution as the benchmark reports it: the median, the
/// highest tail percentile with at least ten samples beyond it (in the
/// direction that is worse for the metric), and the sample count.
struct Summary {
  size_t Count = 0;
  double Median = 0;
  bool HasTail = false;
  /// Percentile rank of the tail, as printed ("p90" for a lower-is-better
  /// metric; "p10" is its higher-is-better mirror).
  double TailRank = 0;
  double TailValue = 0;
};

/// Median of \p Samples (mean of the middle two for an even count); 0 for
/// an empty vector.
double median(std::vector<double> Samples);

/// Nearest-rank percentile of \p Samples at \p P in (0, 100].
double percentile(std::vector<double> Samples, double P);

/// Summarizes \p Samples. When \p HigherIsBetter, the worse tail is the low
/// end, so the tail is reported as the (100 - p)-th percentile.
Summary summarize(const std::vector<double> &Samples, bool HigherIsBetter);

/// One metric the benchmark may emit.
struct MetricDef {
  const char *Name;
  const char *Unit;
};

/// Every metric the benchmark may emit, in output order.
const std::vector<MetricDef> &metricCatalogue();

/// True iff \p Name is a well-formed metric name: starts with a letter or
/// digit, at most 64 characters of [A-Za-z0-9_.-].
bool validMetricName(const std::string &Name);
/// True iff \p Unit is 1..16 characters of [A-Za-z0-9_/%.-].
bool validMetricUnit(const std::string &Unit);

/// An ordered set of emitted figures.
class MetricSet {
public:
  struct Entry {
    std::string Name;
    std::string Unit;
    double Value;
  };
  /// Records \p Value under \p Name with its catalogue unit. Throws
  /// std::invalid_argument for a name outside the catalogue or one
  /// already recorded.
  void add(const std::string &Name, double Value);
  const std::vector<Entry> &entries() const { return Entries; }
  /// {"name": {"value": v, "unit": "u"}, ...}
  std::string json() const;

private:
  std::vector<Entry> Entries;
};

/// Formats \p V with all its significant digits (%.17g).
std::string fmtNumber(double V);

} // namespace perfbench

#endif // PERFBENCH_STATS_H
