#pragma once

/// \file workloads.h
/// \brief The benchmark's three workloads (see README.md for why each
/// exists and which layer it isolates). Each drives the library through
/// its public API only and adds its metrics to the run's MetricSet:
/// the end-to-end set when tracing is off, the per-layer set when on.

#include <cstdint>
#include <string>

#include "stats.h"
#include "trace.h"

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  /// Which of a run's datasets to make: the data seed mixes `seed` with
  /// it (see DataSeed), so the processes of one end-to-end run each
  /// measure their own draw of the workload's data.
  uint32_t part = 0;
  double seconds = 10;
  bool trace = false;
  /// Tiny sizes that exercise every code path and check in a second; used
  /// by the benchmark's own tests, never for measurement.
  bool smoke = false;
  /// Directory for model files and the trace file (created by the caller).
  std::string workdir;
};

struct RunContext {
  const RunOptions& options;
  Tracer& tracer;
  Ops& ops;
  MetricSet& metrics;
};

void RunFitCategorical(RunContext& context);
void RunFitNumeric(RunContext& context);
void RunServeLive(RunContext& context);

/// Thrown after a failed operation has been counted, when the workload
/// cannot go on without its result.
struct Abort {};

}  // namespace perfbench
