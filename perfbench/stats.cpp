#include "stats.h"

#include <algorithm>
#include <limits>

namespace perfbench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  if (q <= 0.0) return values.front();
  if (q >= 1.0) return values.back();
  const double rank = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  if (lo + 1 >= values.size()) return values.back();
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[lo + 1] - values[lo]);
}

namespace {

bool IsAlnum(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9');
}

}  // namespace

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64 || !IsAlnum(name.front())) {
    return false;
  }
  return std::all_of(name.begin(), name.end(), [](char c) {
    return IsAlnum(c) || c == '_' || c == '.' || c == '-';
  });
}

bool ValidUnit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return IsAlnum(c) || c == '_' || c == '/' || c == '%' || c == '.' ||
           c == '-';
  });
}

bool Ops::Check(bool ok, std::string_view what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (messages_.size() < kMaxMessages) messages_.emplace_back(what);
  }
  return ok;
}

bool Ops::Check(const lshclust::Status& status, std::string_view what) {
  if (status.ok()) return Check(true, what);
  return Check(false, std::string(what) + ": " + status.ToString());
}

void Ops::Merge(const Ops& other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  for (const std::string& message : other.messages_) {
    if (messages_.size() < kMaxMessages) messages_.push_back(message);
  }
}

void MetricSet::Add(std::string_view name, double value,
                    std::string_view unit, Ops& ops) {
  const bool duplicate =
      std::any_of(metrics_.begin(), metrics_.end(),
                  [&](const Metric& metric) { return metric.name == name; });
  const bool valid = ValidMetricName(name) && ValidUnit(unit) &&
                     !duplicate && std::isfinite(value);
  if (!ops.Check(valid, "metric " + std::string(name) + " is invalid")) {
    return;
  }
  metrics_.push_back({std::string(name), value, std::string(unit)});
}

std::string MetricSet::ResultLine(bool correct, const Ops& ops) const {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(ops.attempted());
  line += ", \"failed\": " + std::to_string(ops.failed());
  line += ", \"metrics\": {";
  char number[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    // %.17g keeps every digit of a double and prints counts below 2^53
    // as exact integers.
    std::snprintf(number, sizeof(number), "%.17g", metrics_[i].value);
    if (i > 0) line += ", ";
    line += "\"" + metrics_[i].name + "\": {\"value\": " + number +
            ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  line += "}}";
  return line;
}

}  // namespace perfbench
