#pragma once

/// \file common.h
/// \brief Shared machinery for the per-figure bench drivers.
///
/// Every driver accepts:
///   --scale=<f>   linear scale on items and clusters (default 0.1: the
///                 paper's 90000x20000 becomes 9000x2000 so the whole
///                 suite runs in minutes)
///   --paper       run the paper-scale configuration (hours, like the
///                 original; implies --scale=1)
///   --seed=<n>    master seed (data generation + shared initial centroids)
///   --max-iters   refinement iteration cap (0 = the paper's setting)
///   --json=<path> additionally write machine-readable records (a JSON
///                 array of flat objects) to <path>; empty disables
///
/// Output is the tabular form of the corresponding figure panels: the same
/// series (time/iteration, avg shortlist, moves, totals, purity) the paper
/// plots, printed by core/reporters.h.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/reporters.h"
#include "datagen/conjunctive_generator.h"
#include "simd/dispatch.h"
#include "util/flags.h"
#include "util/logging.h"

namespace lshclust::bench {

/// \brief The `q`-quantile (q in [0, 1]) of `values`, by linear
/// interpolation between closest ranks — the definition numpy calls
/// "linear", so p50 of {1,2,3,4} is 2.5, not either neighbour. The input
/// need not be sorted (a sorted copy is made; this is bench-path code).
/// Returns 0.0 for an empty span; q is clamped to [0, 1].
inline double Percentile(std::span<const double> values, double q) {
  if (values.empty()) return 0.0;
  std::vector<double> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  if (q <= 0.0) return sorted.front();
  if (q >= 1.0) return sorted.back();
  const double rank = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  if (lo + 1 >= sorted.size()) return sorted.back();
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[lo + 1] - sorted[lo]);
}

/// \brief Collects flat key/value records and writes them as a JSON array
/// of objects — the machine-readable twin of the printed tables, so perf
/// trajectories can be scraped without parsing stdout. No external JSON
/// dependency: records are flat and values are numbers or short strings.
class JsonBenchWriter {
 public:
  /// Starts a record. Records are written in Begin order. Every record is
  /// stamped with the SIMD dispatch tier active at Begin time plus the
  /// detected CPU features, so perf records from different machines (or
  /// forced-tier runs) stay comparable after the fact.
  void BeginRecord() {
    records_.emplace_back();
    first_field_ = true;
    Add("simd_tier", simd::TierName(simd::ActiveTier()));
    Add("cpu_features", simd::CpuFeatureString());
  }

  void Add(const char* key, const std::string& value) {
    AddRaw(key, "\"" + Escaped(value) + "\"");
  }
  void Add(const char* key, const char* value) {
    Add(key, std::string(value));
  }
  void Add(const char* key, double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    AddRaw(key, buffer);
  }
  void Add(const char* key, uint64_t value) {
    AddRaw(key, std::to_string(value));
  }
  void Add(const char* key, int64_t value) {
    AddRaw(key, std::to_string(value));
  }
  void Add(const char* key, uint32_t value) {
    Add(key, static_cast<uint64_t>(value));
  }

  size_t num_records() const { return records_.size(); }

  /// Writes `[ {..}, {..} ]` to `path`. Returns false (with a message on
  /// stderr) when the file cannot be written.
  bool WriteFile(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write JSON output to %s\n",
                   path.c_str());
      return false;
    }
    out << "[\n";
    for (size_t i = 0; i < records_.size(); ++i) {
      out << "  {" << records_[i] << "}";
      if (i + 1 < records_.size()) out << ",";
      out << "\n";
    }
    out << "]\n";
    return out.good();
  }

 private:
  static std::string Escaped(const std::string& value) {
    std::string escaped;
    escaped.reserve(value.size());
    for (const char c : value) {
      switch (c) {
        case '"': escaped += "\\\""; break;
        case '\\': escaped += "\\\\"; break;
        case '\n': escaped += "\\n"; break;
        case '\t': escaped += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buffer[8];
            std::snprintf(buffer, sizeof buffer, "\\u%04x", c);
            escaped += buffer;
          } else {
            escaped += c;
          }
      }
    }
    return escaped;
  }

  void AddRaw(const char* key, const std::string& value) {
    LSHC_CHECK(!records_.empty()) << "BeginRecord() before Add()";
    std::string& record = records_.back();
    if (!first_field_) record += ", ";
    first_field_ = false;
    record += "\"";
    record += Escaped(key);
    record += "\": ";
    record += value;
  }

  std::vector<std::string> records_;
  bool first_field_ = true;
};

/// \brief Flags common to every figure driver.
struct DriverOptions {
  double scale = 0.1;
  bool paper = false;
  int64_t seed = 42;
  int64_t max_iterations = 0;
  std::string json;

  /// Registers the shared flags on `flags`.
  void Register(FlagSet* flags) {
    flags->AddDouble("scale", &scale,
                     "linear scale on items and clusters vs the paper");
    flags->AddBool("paper", &paper,
                   "run the full paper-scale configuration (slow)");
    flags->AddInt64("seed", &seed, "master RNG seed");
    flags->AddInt64("max-iters", &max_iterations,
                    "refinement iteration cap (0 = figure default)");
    flags->AddString("json", &json,
                     "write machine-readable records to this path "
                     "(empty = off)");
  }

  /// Parses argv; returns false when the program should exit (e.g. --help
  /// printed). Dies on malformed flags.
  bool Parse(FlagSet* flags, int argc, char** argv) {
    const Status status = flags->Parse(argc, argv);
    if (status.IsAlreadyExists()) return false;  // --help
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      std::exit(2);
    }
    if (paper) scale = 1.0;
    LSHC_CHECK(scale > 0.0 && scale <= 1.0)
        << "--scale must be in (0, 1]";
    return true;
  }

  /// Applies the scale to a paper-size dataset shape: items and clusters
  /// shrink linearly, attributes and domain stay (they set the geometry of
  /// the similarity space, not the amount of work per the paper's axes).
  ConjunctiveDataOptions ScaledData(uint32_t paper_items,
                                    uint32_t paper_attributes,
                                    uint32_t paper_clusters) const {
    ConjunctiveDataOptions data;
    data.num_items =
        std::max<uint32_t>(64, static_cast<uint32_t>(paper_items * scale));
    data.num_attributes = paper_attributes;
    data.num_clusters =
        std::max<uint32_t>(8, static_cast<uint32_t>(paper_clusters * scale));
    data.domain_size = 40000;  // the paper's domain (§IV-A)
    data.seed = static_cast<uint64_t>(seed);
    return data;
  }
};

/// \brief Generates a synthetic dataset, runs the comparison, and prints
/// the requested figure panels. Shared by the fig2/3/4/5 drivers.
inline std::vector<MethodRun> RunSyntheticFigure(
    const std::string& figure_name, const ConjunctiveDataOptions& data,
    const std::vector<MethodSpec>& methods, const DriverOptions& driver,
    uint32_t default_max_iterations,
    const std::vector<IterationField>& panels) {
  PrintExperimentHeader(std::cout, figure_name, data.num_items,
                        data.num_attributes, data.num_clusters);
  std::printf("generating dataset (domain %u, seed %llu)...\n",
              data.domain_size,
              static_cast<unsigned long long>(data.seed));
  auto dataset_result = GenerateConjunctiveRuleData(data);
  LSHC_CHECK_OK(dataset_result.status());
  const CategoricalDataset& dataset = *dataset_result;

  ComparisonOptions options;
  options.num_clusters = data.num_clusters;
  options.max_iterations =
      driver.max_iterations > 0
          ? static_cast<uint32_t>(driver.max_iterations)
          : default_max_iterations;
  options.seed = static_cast<uint64_t>(driver.seed);

  auto runs_result = RunComparison(dataset, options, methods);
  LSHC_CHECK_OK(runs_result.status());
  std::vector<MethodRun> runs = std::move(runs_result).ValueOrDie();

  for (const IterationField field : panels) {
    PrintIterationSeries(std::cout, figure_name, runs, field);
  }
  PrintSummaryTable(std::cout, figure_name, runs);

  if (!driver.json.empty()) {
    JsonBenchWriter writer;
    for (const MethodRun& run : runs) {
      writer.BeginRecord();
      writer.Add("figure", figure_name);
      writer.Add("method", run.spec.label);
      writer.Add("items", data.num_items);
      writer.Add("clusters", data.num_clusters);
      writer.Add("iterations",
                 static_cast<uint64_t>(run.result.iterations.size()));
      writer.Add("converged", static_cast<uint64_t>(run.result.converged));
      writer.Add("total_seconds", run.result.total_seconds);
      writer.Add("init_seconds", run.result.init_seconds);
      writer.Add("initial_assign_seconds", run.result.initial_assign_seconds);
      writer.Add("refine_seconds", run.result.RefinementSeconds());
      writer.Add("centroid_update_seconds",
                 run.result.centroid_update_seconds);
      writer.Add("index_build_seconds", run.result.index_build_seconds);
      writer.Add("final_cost", run.result.final_cost);
      writer.Add("moves", run.result.TotalMoves());
      writer.Add("purity", run.purity);
    }
    writer.WriteFile(driver.json);
  }
  return runs;
}

}  // namespace lshclust::bench
