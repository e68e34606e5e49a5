#pragma once

/// \file stats.h
/// \brief The harness's own helpers: order statistics over timing samples,
/// counting of attempted and failed operations, and the metric set that
/// becomes the benchmark's result line. Kept free of library types apart
/// from Status so selftest.cpp can test them in isolation.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace perfbench {

/// Linear-interpolation percentile (q in [0, 1]) of unsorted samples. NaN
/// on an empty sample, so a metric that was never measured cannot pass as
/// a number.
double Percentile(std::vector<double> values, double q);

inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// Metric names: a letter or digit, then letters, digits, '_', '.', '-';
/// at most 64 characters.
bool ValidMetricName(std::string_view name);

/// Units: 1 to 16 of letters, digits, '_', '/', '%', '.', '-'.
bool ValidUnit(std::string_view unit);

/// \brief Attempted / failed operation counts. Every public call whose
/// outcome the benchmark checks, and every correctness comparison, is one
/// attempted operation; a non-OK Status or a failed comparison is one
/// failure. Not thread-safe: each thread counts into its own Ops and the
/// owner merges after joining.
class Ops {
 public:
  /// Counts one operation; returns `ok`. The first few failure messages
  /// are kept for the report.
  bool Check(bool ok, std::string_view what);
  bool Check(const lshclust::Status& status, std::string_view what);
  template <typename T>
  bool Check(const lshclust::Result<T>& result, std::string_view what) {
    return Check(result.status(), what);
  }

  void Merge(const Ops& other);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  static constexpr size_t kMaxMessages = 16;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> messages_;
};

/// \brief Named metrics with units, in insertion order, rendered as the
/// result line `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
class MetricSet {
 public:
  /// Adds a metric. An invalid name or unit, a duplicate name or a
  /// non-finite value is a failed operation in `ops` (the metric is then
  /// dropped, so the line stays valid JSON and the run reports failure).
  void Add(std::string_view name, double value, std::string_view unit,
           Ops& ops);

  size_t size() const { return metrics_.size(); }

  /// The result line (no trailing newline). `correct` is reported as
  /// given; callers pass ops.failed() == 0.
  std::string ResultLine(bool correct, const Ops& ops) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

}  // namespace perfbench
