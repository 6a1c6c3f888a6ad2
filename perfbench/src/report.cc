#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "datagen/config.h"

namespace perfbench {

namespace props = rulelink::datagen::props;
using rulelink::linking::AttributeRule;
using rulelink::linking::SimilarityMeasure;

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) Fail("metric " + name + " is not finite");
  metrics_.push_back({name, {value, unit}});
}

void Report::Count(bool ok, std::uint64_t n) {
  attempted_ += n;
  if (!ok) failed_ += n;
}

void Report::Fail(const std::string& what) { errors_.push_back(what); }

void Report::Note(const std::string& line) {
  std::cout << line << "\n";
}

namespace {

std::string Number(double value) {
  if (!std::isfinite(value)) return "0";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

void Report::Print() const {
  for (const std::string& error : errors_) {
    std::cout << "CHECK FAILED: " << error << "\n";
  }
  for (const auto& [name, value] : metrics_) {
    std::cout << "metric " << name << " = " << Number(value.first) << " "
              << value.second << "\n";
  }
  std::cout << "operations attempted = " << attempted_
            << ", failed = " << failed_ << "\n";
  std::string json = "{\"correct\": ";
  json += errors_.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) json += ", ";
    json += JsonString(metrics_[i].first) + ": {\"value\": " +
            Number(metrics_[i].second.first) +
            ", \"unit\": " + JsonString(metrics_[i].second.second) + "}";
  }
  json += "}}";
  std::cout << json << std::endl;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

bool TailQuantile(std::vector<double> values, double q, double* out) {
  const std::size_t n = values.size();
  if (n < 40) return false;
  const double rank = q * static_cast<double>(n - 1);
  if (static_cast<double>(n - 1) - rank < 10.0) return false;
  std::sort(values.begin(), values.end());
  const std::size_t lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  *out = values[lo] + frac * (values[std::min(lo + 1, n - 1)] - values[lo]);
  return true;
}

LatencySummary SummarizeLatency(std::vector<double> micros) {
  LatencySummary s;
  s.samples = micros.size();
  s.ok = TailQuantile(micros, 0.5, &s.p50_us) &&
         TailQuantile(std::move(micros), 0.99, &s.p99_us);
  return s;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

std::string HostDescription() {
  std::string model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) model = line.substr(colon + 2);
      break;
    }
  }
  return "nproc " + std::to_string(std::thread::hardware_concurrency()) +
         ", cpu " + model;
}

std::vector<AttributeRule> MatcherRules() {
  return {
      {props::kPartNumber, props::kPartNumber,
       SimilarityMeasure::kLevenshtein, 3.0},
      {props::kPartNumber, props::kPartNumber,
       SimilarityMeasure::kDiceBigram, 1.5},
      {props::kPartNumber, props::kPartNumber, SimilarityMeasure::kExact,
       1.0},
      {props::kPartNumber, props::kPartNumber,
       SimilarityMeasure::kJaccardTokens, 0.5},
      {props::kManufacturer, props::kManufacturer,
       SimilarityMeasure::kMongeElkan, 0.5},
  };
}

std::string BlockKey(const rulelink::core::Item& item) {
  for (const auto& fact : item.facts) {
    if (fact.property != props::kPartNumber) continue;
    std::string key = fact.value.substr(0, 4);
    for (char& c : key) {
      if (c >= 'A' && c <= 'Z') c = static_cast<char>(c + ('a' - 'A'));
    }
    return key;
  }
  return "";
}

void SplitSegments(std::string_view value,
                   std::vector<std::string_view>* out) {
  std::size_t start = 0;
  for (std::size_t i = 0; i <= value.size(); ++i) {
    const bool alnum =
        i < value.size() &&
        ((value[i] >= 'a' && value[i] <= 'z') ||
         (value[i] >= 'A' && value[i] <= 'Z') ||
         (value[i] >= '0' && value[i] <= '9'));
    if (!alnum) {
      if (i > start) out->push_back(value.substr(start, i - start));
      start = i + 1;
    }
  }
}

double Quality::f1() const {
  if (emitted == 0 || gold == 0 || correct == 0) return 0.0;
  const double precision =
      static_cast<double>(correct) / static_cast<double>(emitted);
  const double recall =
      static_cast<double>(correct) / static_cast<double>(gold);
  return 2.0 * precision * recall / (precision + recall);
}

}  // namespace perfbench
