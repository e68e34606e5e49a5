// The lshclust benchmark binary; run.py builds it and passes its own
// arguments through:
//
//   perfbench --workload=fit_categorical|fit_numeric|serve_live --seed=N
//             [--part=P] --seconds=S --trace=0|1 --workdir=DIR [--smoke]
//
// Prints one line per fit (the unaccounted-time line) and, last, the JSON
// result line. Exit code 0 once a result line is printed; 2 on bad flags.

#include <cstdio>
#include <filesystem>
#include <string>

#include "stats.h"
#include "trace.h"
#include "util/flags.h"
#include "workloads.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  int64_t seed = 1;
  int64_t part = 0;
  int64_t trace = 0;
  lshclust::FlagSet flags("perfbench");
  flags.AddString("workload", &options.workload,
                  "fit_categorical, fit_numeric or serve_live");
  flags.AddInt64("seed", &seed, "input seed");
  flags.AddInt64("part", &part, "which of the seed's datasets to make");
  flags.AddDouble("seconds", &options.seconds, "measured seconds");
  flags.AddInt64("trace", &trace, "1: traced run printing per-layer metrics");
  flags.AddBool("smoke", &options.smoke, "tiny sizes for self-tests");
  flags.AddString("workdir", &options.workdir,
                  "directory for model and trace files");
  const lshclust::Status parsed = flags.Parse(argc, argv);
  if (parsed.IsAlreadyExists()) return 0;
  void (*run)(RunContext&) = nullptr;
  if (options.workload == "fit_categorical") run = RunFitCategorical;
  if (options.workload == "fit_numeric") run = RunFitNumeric;
  if (options.workload == "serve_live") run = RunServeLive;
  if (!parsed.ok() || run == nullptr || seed < 0 || part < 0 ||
      part > UINT32_MAX || options.seconds <= 0 ||
      (trace != 0 && trace != 1) || options.workdir.empty()) {
    std::fprintf(stderr, "perfbench: bad arguments: %s\n%s",
                 parsed.ToString().c_str(), flags.Usage().c_str());
    return 2;
  }
  options.seed = static_cast<uint64_t>(seed);
  options.part = static_cast<uint32_t>(part);
  options.trace = trace == 1;
  std::filesystem::create_directories(options.workdir);

  Tracer tracer(options.trace);
  Ops ops;
  MetricSet metrics;
  RunContext context{options, tracer, ops, metrics};
  bool complete = true;
  try {
    run(context);
  } catch (const Abort&) {
    complete = false;
  }
  if (options.trace) {
    const std::string path = options.workdir + "/trace-" + options.workload +
                             "-" + std::to_string(options.seed) + ".jsonl";
    ops.Check(tracer.Write(path), "write trace");
  }
  for (const std::string& message : ops.messages()) {
    std::fprintf(stderr, "perfbench: failed: %s\n", message.c_str());
  }
  const bool correct = complete && ops.failed() == 0;
  std::printf("%s\n", metrics.ResultLine(correct, ops).c_str());
  return 0;
}
