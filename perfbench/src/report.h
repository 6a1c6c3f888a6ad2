// Shared pieces of the layer-ledger benchmark program: command-line
// options, the metric report printed as the run's last line, order
// statistics, and the re-implementations the correctness checks use in
// place of the program's own code (blocking key, part-number segments,
// link quality).
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/item.h"
#include "linking/matcher.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MillisBetween(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - begin).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// Metrics of one run plus its operation counts. Print() writes one
// "name = value unit" line per metric, then the JSON object perfbench/run.py
// reads as the last line of standard output.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  // Counts one operation; `ok` false counts it as failed.
  void Count(bool ok, std::uint64_t n = 1);
  // A property of the whole run (not of one operation) did not hold.
  void Fail(const std::string& what);
  void Note(const std::string& line);
  void Print() const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> errors_;
};

// Median of `values` (mean of the middle two for even sizes).
double Median(std::vector<double> values);

// The q-quantile of `values` by linear interpolation between order
// statistics. Refuses (returns false) when fewer than 40 samples exist or
// fewer than ten lie beyond the requested rank, the benchmark's rule for
// reporting a percentile at all.
bool TailQuantile(std::vector<double> values, double q, double* out);

// Peak resident set size of this process in MB (VmHWM).
double PeakRssMb();

// nproc and CPU model, printed at the top of every run.
std::string HostDescription();

// The serve matcher: a cascade-boundable Levenshtein rule, bigram, exact
// and token rules on the part number, and a Monge-Elkan rule on the
// manufacturer. Both workloads link with it at threshold kThreshold.
std::vector<rulelink::linking::AttributeRule> MatcherRules();
inline constexpr double kThreshold = 0.6;

// Independent checks: written from the method's definitions, sharing no
// code with the library paths they check.

// Standard-blocking key: the first 4 bytes of the first part-number value,
// ASCII-lowercased; empty when the item has no part number.
std::string BlockKey(const rulelink::core::Item& item);

// Part-number segments: maximal runs of ASCII letters and digits.
void SplitSegments(std::string_view value, std::vector<std::string_view>* out);

// Precision/recall/F1 from raw counts (0 when undefined).
struct Quality {
  std::size_t emitted = 0;
  std::size_t correct = 0;
  std::size_t gold = 0;
  double f1() const;
};

// Closed-loop query latency summary in microseconds.
struct LatencySummary {
  bool ok = false;
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::size_t samples = 0;
};
LatencySummary SummarizeLatency(std::vector<double> micros);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
