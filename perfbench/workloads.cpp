#include "workloads.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/clusterer.h"
#include "datagen/conjunctive_generator.h"
#include "datagen/gaussian_mixture.h"
#include "metrics/metrics.h"
#include "persist/model_io.h"
#include "serving/frozen_model.h"
#include "serving/model_server.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using lshclust::Accelerator;
using lshclust::CategoricalDataset;
using lshclust::Clusterer;
using lshclust::ClustererSpec;
using lshclust::FitReport;
using lshclust::Modality;
using lshclust::NumericDataset;
using lshclust::Result;
using lshclust::serving::FrozenModel;
using lshclust::serving::ModelServer;
using Model = std::shared_ptr<const FrozenModel>;
using Clock = std::chrono::steady_clock;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// Publishes and loads per fit_* round: cheap next to the fit, so each
/// round takes several samples of them.
constexpr int kRepeatsPerRound = 3;
/// Every workload caps refinement below the fewest iterations any seed
/// needs to converge (5, 10 and 5), so each seed does the same number of
/// passes and fit times differ by machine noise, not by convergence luck.
/// Rounds (fit_*) or epochs (serve_live) run even when --seconds has
/// already elapsed: two to check that results repeat, and in trace mode
/// three, to compare traced rounds with untraced ones after the first.
constexpr int kMinRounds = 2;
constexpr int kMinTracedRounds = 3;
/// Queries per routed batch.
constexpr uint32_t kBatch = 64;
/// Seed of the order queries are dealt into batches; fixed, so a run's
/// batches depend on --seed only through the queries themselves.
constexpr uint64_t kBatchOrderSeed = 0xBA7C4;
/// Length of the windows routing throughput is counted in:
/// route_items_per_s is the median rate over every window of the run, so a
/// stall of the machine spoils a few windows, not the run's figure.
constexpr int64_t kRateWindowNs = 100'000'000;
/// A fit_* round's routing block runs in parts of this length, each on the
/// next CPU (see PinnedToCpu).
constexpr int64_t kRoutePartNs = 500'000'000;
/// Repetitions of each trace-only Predict throughput measurement.
constexpr int kPredictRepetitions = 3;
/// Fitted items whose candidate sets the trace run enumerates.
constexpr uint32_t kProbeSample = 256;

// --seed makes the inputs only: every workload keeps the engine's and the
// hash families' default seeds, as a user of the library would. With a
// seed-dependent initialisation, K-Means cost on fit_numeric varied by
// 20% between seeds; with a fixed one the same item indices seed every
// run, and cost varies only with the data.

/// (name, unit) of every end-to-end metric, in output order.
constexpr std::pair<const char*, const char*> kEndToEnd[] = {
    {"setup_s", "s"},
    {"fit_s", "s"},
    {"fit_purity", "fraction"},
    {"fit_cost", "cost"},
    {"route_items_per_s", "1/s"},
    {"route_agreement", "fraction"},
    {"route_batch_p50_us", "us"},
    {"ingest_rows_per_s", "1/s"},
    {"publish_p50_ms", "ms"},
    {"load_s", "s"},
    {"model_bytes", "bytes"},
    {"peak_rss_bytes", "bytes"},
};

/// Layers that spans are attributed to; self.<layer>_s reports each.
constexpr const char* kSpanLayers[] = {"bench", "datagen", "clustering",
                                       "api",   "serving", "core",
                                       "persist", "lsh"};

/// (name, unit) of every per-layer metric, in output order. The
/// self.<layer>_s entries follow these.
constexpr std::pair<const char*, const char*> kLayers[] = {
    {"api.predict_items_per_s", "1/s"},
    {"api.predict_routed_items_per_s", "1/s"},
    {"clustering.init_s", "s"},
    {"clustering.assign0_s", "s"},
    {"clustering.refine_s", "s"},
    {"clustering.unaccounted_s", "s"},
    {"clustering.iterations", "count"},
    {"clustering.moves", "count"},
    {"clustering.mean_shortlist", "count"},
    {"clustering.exact_distances", "count"},
    {"clustering.sketch_pruned", "count"},
    {"clustering.exact_bytes_computed", "bytes"},
    {"hashing.sign_s", "s"},
    {"lsh.index_build_s", "s"},
    {"lsh.buckets", "count"},
    {"lsh.largest_bucket", "count"},
    {"lsh.mean_bucket", "count"},
    {"lsh.index_bytes", "bytes"},
    {"lsh.sketch_bytes", "bytes"},
    {"lsh.probe_items_per_item", "count"},
    {"lsh.probe_clusters_per_item", "count"},
    {"lsh.dedup_yield", "fraction"},
    {"serving.snapshot_ms", "ms"},
    {"serving.publish_ms", "ms"},
    {"serving.acquire_us_p99", "us"},
    {"serving.route_batch_us_p50", "us"},
    {"serving.batch_us_p99", "us"},
    {"serving.snapshot_bytes", "bytes"},
    {"serving.swaps_observed", "count"},
    {"core.ingest_batch_ms_p50", "ms"},
    {"core.ingest_batch_ms_p99", "ms"},
    {"core.writer_publish_share", "fraction"},
    {"core.fallback_ratio", "fraction"},
    {"core.rewalk_ratio", "fraction"},
    {"core.mean_shortlist", "count"},
    {"core.exact_distances", "count"},
    {"persist.save_s", "s"},
    {"persist.decode_s", "s"},
    {"persist.adopt_s", "s"},
    {"shard.predict_scaling", "ratio"},
    {"trace.overhead_share", "fraction"},
};

using Values = std::map<std::string, double>;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Millis(double seconds) { return seconds * 1e3; }

void Append(std::vector<double>& into, const std::vector<double>& from) {
  into.insert(into.end(), from.begin(), from.end());
}

template <typename T>
T Must(Result<T> result, Ops& ops, std::string_view what) {
  if (!ops.Check(result, what)) throw Abort{};
  return std::move(result).ValueOrDie();
}

void Must(const lshclust::Status& status, Ops& ops, std::string_view what) {
  if (!ops.Check(status, what)) throw Abort{};
}

double PeakRssBytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0;  // Linux: KiB
}

double Share(double part, double whole) {
  return whole > 0 ? part / whole : kNaN;
}

/// Pins the calling thread to one of the CPUs it may run on for as long as
/// it lives, then restores the thread's CPU set. On a shared VM the CPUs'
/// speeds drift apart by tens of percent over seconds (see README.md), and
/// the scheduler keeps a lone busy thread on one CPU for long stretches, so
/// a single-threaded step's median would follow whichever CPU it landed
/// on. CpuTurns hands out pins round-robin to spread the samples over
/// every CPU. Only around single-threaded steps: threads started inside
/// inherit the pin.
class PinnedToCpu {
 public:
  explicit PinnedToCpu(uint64_t turn) {
    if (pthread_getaffinity_np(pthread_self(), sizeof(saved_), &saved_) !=
        0) {
      return;
    }
    std::vector<int> cpus;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &saved_)) cpus.push_back(cpu);
    }
    if (cpus.size() < 2) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus[turn % cpus.size()], &one);
    pinned_ = pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0;
  }
  PinnedToCpu(const PinnedToCpu&) = delete;
  PinnedToCpu& operator=(const PinnedToCpu&) = delete;
  ~PinnedToCpu() {
    if (pinned_) {
      pthread_setaffinity_np(pthread_self(), sizeof(saved_), &saved_);
    }
  }

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

/// Round-robin source of PinnedToCpu turns, one per workload run.
struct CpuTurns {
  uint64_t next = 0;
  PinnedToCpu Next() { return PinnedToCpu(next++); }
};

/// The seed of the generated data: --seed and --part mixed by SplitMix64,
/// so every (seed, part) pair draws its own dataset.
uint64_t DataSeed(const RunOptions& options) {
  uint64_t z = options.seed + 0x9E3779B97F4A7C15ull * (options.part + 1ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Fraction of equal entries; the routed-vs-exhaustive agreement.
double Agreement(const std::vector<uint32_t>& a,
                 const std::vector<uint32_t>& b) {
  if (a.size() != b.size() || a.empty()) return kNaN;
  size_t same = 0;
  for (size_t i = 0; i < a.size(); ++i) same += a[i] == b[i] ? 1 : 0;
  return static_cast<double>(same) / static_cast<double>(a.size());
}

/// Checks that a value every round or epoch computes repeats exactly.
void CheckRepeats(double first, double again, std::string_view what,
                  Ops& ops) {
  ops.Check(first == again, std::string(what) + " changed between rounds");
}

/// Items `items` of `dataset`, in that order, as a new dataset (labels
/// and absent codes kept).
Result<CategoricalDataset> Gather(const CategoricalDataset& dataset,
                                  const std::vector<uint32_t>& items) {
  const uint32_t m = dataset.num_attributes();
  std::vector<uint32_t> codes;
  codes.reserve(items.size() * m);
  std::vector<uint32_t> labels;
  for (const uint32_t item : items) {
    const auto row = dataset.codes().subspan(static_cast<size_t>(item) * m, m);
    codes.insert(codes.end(), row.begin(), row.end());
    if (!dataset.labels().empty()) labels.push_back(dataset.labels()[item]);
  }
  std::vector<bool> absent;
  if (dataset.has_absence_semantics()) {
    absent.resize(dataset.num_codes());
    for (uint32_t code = 0; code < dataset.num_codes(); ++code) {
      absent[code] = !dataset.IsPresent(code);
    }
  }
  return CategoricalDataset::FromCodes(
      static_cast<uint32_t>(items.size()), m, dataset.num_codes(),
      std::move(codes), std::move(labels), std::move(absent));
}

Result<NumericDataset> Gather(const NumericDataset& dataset,
                              const std::vector<uint32_t>& items) {
  std::vector<double> values;
  values.reserve(items.size() * dataset.dimensions());
  std::vector<uint32_t> labels;
  for (const uint32_t item : items) {
    const std::span<const double> row = dataset.Row(item);
    values.insert(values.end(), row.begin(), row.end());
    if (!dataset.labels().empty()) labels.push_back(dataset.labels()[item]);
  }
  return NumericDataset::FromValues(static_cast<uint32_t>(items.size()),
                                    dataset.dimensions(), std::move(values),
                                    std::move(labels));
}

/// Training items, held-out queries (same generator, so they belong to
/// the same true clusters) and the queries dealt into routing batches in
/// a fixed shuffled order. The generators put item i in cluster i mod k,
/// so 64 consecutive queries would hold 64 consecutive clusters, and
/// batches would differ in cost by which clusters they hold. Shuffled,
/// every batch is a like mix, as from independent callers.
template <typename Dataset>
struct Split {
  Dataset train;
  Dataset queries;
  std::vector<Dataset> batches;
};

template <typename Dataset>
Split<Dataset> MakeSplit(const Dataset& all, uint32_t train_items,
                         uint32_t query_items, Ops& ops) {
  Split<Dataset> split;
  auto range = [](uint32_t begin, uint32_t end) {
    std::vector<uint32_t> items(end - begin);
    std::iota(items.begin(), items.end(), begin);
    return items;
  };
  split.train = Must(Gather(all, range(0, train_items)), ops, "slice train");
  split.queries =
      Must(Gather(all, range(train_items, train_items + query_items)), ops,
           "slice queries");
  std::vector<uint32_t> order = range(0, query_items);
  lshclust::Rng rng(kBatchOrderSeed);
  for (uint32_t i = query_items; i > 1; --i) {
    std::swap(order[i - 1], order[rng.Below(i)]);
  }
  for (uint32_t begin = 0; begin + kBatch <= query_items; begin += kBatch) {
    const std::vector<uint32_t> items(order.begin() + begin,
                                      order.begin() + begin + kBatch);
    split.batches.push_back(
        Must(Gather(split.queries, items), ops, "gather batch"));
  }
  return split;
}

/// Per-batch timings of closed-loop routing through a ModelServer reader.
struct RouteSamples {
  std::vector<double> batch_us;    // Reader::Current + RouteInto
  std::vector<double> acquire_us;  // Reader::Current alone
  std::vector<double> route_us;    // RouteInto alone
  std::vector<int64_t> start_ns;
  std::vector<int64_t> end_ns;
  uint64_t swaps = 0;
  uint64_t last_version = 0;
  std::unique_ptr<FrozenModel::RouteScratch> scratch;
  std::vector<uint32_t> out = std::vector<uint32_t>(kBatch);
};

/// Samples both kinds of workload take the same way; Summarize turns them
/// into the shared end-to-end and per-layer numbers.
struct Samples {
  std::vector<double> setup_s;
  std::vector<double> snapshot_ms;      // Snapshot alone
  std::vector<double> publish_only_ms;  // Publish alone
  std::vector<double> publish_ms;       // Snapshot + Publish
  std::vector<double> save_s;
  std::vector<double> load_s;
  std::vector<double> decode_s;      // trace runs only
  std::vector<double> route_rates;   // items/s per kRateWindowNs window
  std::vector<double> round_s;       // wall time of each round or epoch
  RouteSamples route;
};

/// Routes one batch: the steady-state reader pattern of
/// serving/model_server.h, timed as a whole and per call. A version lower
/// than the last one this reader saw is a failure.
template <typename Dataset>
void RouteBatch(ModelServer::Reader& reader, const Dataset& batch,
                RouteSamples& samples, Ops& ops, SpanLog& log) {
  const int64_t start = Tracer::NowNs();
  const Model* model = nullptr;
  {
    auto span = log.Span("serving", "Reader::Current");
    model = &reader.Current();
  }
  const int64_t acquired = Tracer::NowNs();
  if (!ops.Check(*model != nullptr, "reader found no published model")) {
    return;
  }
  const uint64_t version = (*model)->version();
  ops.Check(version >= samples.last_version,
            "reader saw the version go backwards");
  if (version != samples.last_version) {
    ++samples.swaps;
    samples.last_version = version;
  }
  if (samples.scratch == nullptr) samples.scratch = (*model)->MakeScratch();
  lshclust::Status status;
  {
    auto span = log.Span("serving", "FrozenModel::RouteInto");
    status = (*model)->RouteInto(batch, *samples.scratch, samples.out);
  }
  const int64_t end = Tracer::NowNs();
  ops.Check(status, "RouteInto");
  samples.batch_us.push_back(static_cast<double>(end - start) * 1e-3);
  samples.acquire_us.push_back(static_cast<double>(acquired - start) * 1e-3);
  samples.route_us.push_back(static_cast<double>(end - acquired) * 1e-3);
  samples.start_ns.push_back(start);
  samples.end_ns.push_back(end);
}

/// Items per second in each whole kRateWindowNs window of [begin, end)
/// (one window of the whole interval when it is shorter), counting every
/// batch at its end time. `ends` may mix several readers' batches and
/// batches outside the interval.
std::vector<double> WindowRates(const std::vector<int64_t>& ends,
                                int64_t begin, int64_t end) {
  const int64_t length = std::min(kRateWindowNs, end - begin);
  const auto windows = static_cast<size_t>((end - begin) / length);
  std::vector<double> rates(windows, 0.0);
  for (const int64_t t : ends) {
    if (t < begin) continue;
    const auto window = static_cast<size_t>((t - begin) / length);
    if (window < windows) rates[window] += kBatch;
  }
  for (double& rate : rates) rate /= static_cast<double>(length) * 1e-9;
  return rates;
}

/// Takes a snapshot with `snapshot()` and publishes it to `server`,
/// timing each step and both together.
template <typename SnapshotFn>
Model SnapshotAndPublish(SnapshotFn snapshot, ModelServer& server,
                         Samples& samples, Ops& ops, SpanLog& log) {
  const Clock::time_point snapshot_start = Clock::now();
  Model model;
  {
    auto span = log.Span("serving", "Snapshot");
    model = Must(snapshot(), ops, "Snapshot");
  }
  const Clock::time_point publish_start = Clock::now();
  {
    auto span = log.Span("serving", "ModelServer::Publish");
    server.Publish(model);
  }
  samples.snapshot_ms.push_back(Millis(
      std::chrono::duration<double>(publish_start - snapshot_start).count()));
  samples.publish_only_ms.push_back(Millis(SecondsSince(publish_start)));
  samples.publish_ms.push_back(Millis(SecondsSince(snapshot_start)));
  return model;
}

/// Saves `model`, returning the file size; times the save.
uint64_t SaveModel(const FrozenModel& model, const std::string& path,
                   std::vector<double>& save_s, Ops& ops, SpanLog& log) {
  auto span = log.Span("persist", "SaveFrozenModel");
  const Clock::time_point start = Clock::now();
  Must(lshclust::serving::SaveFrozenModel(model, path), ops,
       "SaveFrozenModel");
  save_s.push_back(SecondsSince(start));
  return std::filesystem::file_size(path);
}

/// FromSnapshot of a saved model, timed; with `decode_s`, also times the
/// decode step alone (trace runs) so adopt = load - decode.
Clusterer LoadModel(const std::string& path, std::vector<double>& load_s,
                    std::vector<double>* decode_s, Ops& ops, SpanLog& log) {
  if (decode_s != nullptr) {
    auto span = log.Span("persist", "DecodeModelFile");
    const Clock::time_point start = Clock::now();
    Must(lshclust::persist::DecodeModelFile(path), ops, "DecodeModelFile");
    decode_s->push_back(SecondsSince(start));
  }
  auto span = log.Span("persist", "Clusterer::FromSnapshot");
  const Clock::time_point start = Clock::now();
  Clusterer loaded = Must(Clusterer::FromSnapshot(path), ops, "FromSnapshot");
  load_s.push_back(SecondsSince(start));
  return loaded;
}

/// The correctness checks every workload makes on its routed model:
/// `model`'s Route equals `reference.PredictRouted` on the queries, and
/// the saved-then-loaded copy routes bit-identically to `model`. Returns
/// the routed answers.
template <typename Dataset>
std::vector<uint32_t> CheckRouting(const FrozenModel& model,
                                   const Clusterer& reference,
                                   const Clusterer& loaded,
                                   const Dataset& queries, Ops& ops,
                                   SpanLog& log) {
  auto span = log.Span("bench", "check_routing");
  std::vector<uint32_t> routed =
      Must(model.Route(queries), ops, "FrozenModel::Route");
  ops.Check(Must(reference.PredictRouted(queries), ops, "PredictRouted") ==
                routed,
            "snapshot Route differs from PredictRouted");
  const Model reloaded = Must(loaded.Snapshot(), ops, "loaded Snapshot");
  ops.Check(Must(reloaded->Route(queries), ops, "loaded Route") == routed,
            "saved-then-loaded model routes differently from the snapshot");
  return routed;
}

/// Median items per second of `repetitions` timed calls of `predict`.
template <typename Fn>
double PredictRate(Fn predict, uint32_t items, Ops& ops, SpanLog& log,
                   const char* name) {
  std::vector<double> rates;
  for (int rep = 0; rep < kPredictRepetitions; ++rep) {
    auto span = log.Span("api", name);
    const Clock::time_point start = Clock::now();
    ops.Check(predict(), name);
    rates.push_back(items / SecondsSince(start));
  }
  return Median(rates);
}

/// Layer metrics of a fit: clustering/hashing/lsh numbers from the fit
/// reports (timings as medians, counts from the first report — fits are
/// deterministic), candidate enumeration on a fixed sample through the
/// retained IndexHandle, Predict / PredictRouted throughput, and
/// Predict's scaling from a 1-thread FromSnapshot copy to the fit's
/// thread count.
template <typename Dataset>
void FitLayers(const std::vector<FitReport>& reports,
               const std::vector<double>& fit_s, const Clusterer& fitted,
               const Dataset& train, const Dataset& queries,
               double row_bytes, const std::string& workdir, Ops& ops,
               SpanLog& log, Values& layers) {
  auto median_of = [&](auto field) {
    std::vector<double> values;
    for (const FitReport& report : reports) values.push_back(field(report));
    return Median(values);
  };
  const auto& first = reports.front().result;
  layers["clustering.init_s"] =
      median_of([](const FitReport& r) { return r.result.init_seconds; });
  layers["clustering.assign0_s"] = median_of(
      [](const FitReport& r) { return r.result.initial_assign_seconds; });
  layers["clustering.refine_s"] = median_of(
      [](const FitReport& r) { return r.result.RefinementSeconds(); });
  layers["hashing.sign_s"] =
      median_of([](const FitReport& r) { return r.signature_seconds; });
  layers["lsh.index_build_s"] =
      median_of([](const FitReport& r) { return r.index_seconds; });
  std::vector<double> unaccounted;
  for (size_t i = 0; i < reports.size(); ++i) {
    const auto& r = reports[i].result;
    unaccounted.push_back(fit_s[i] - r.init_seconds -
                          r.initial_assign_seconds -
                          reports[i].signature_seconds -
                          reports[i].index_seconds - r.RefinementSeconds());
  }
  layers["clustering.unaccounted_s"] = Median(unaccounted);
  layers["clustering.iterations"] =
      static_cast<double>(first.iterations.size());
  layers["clustering.moves"] = static_cast<double>(first.TotalMoves());
  double shortlist = 0;
  for (const auto& iteration : first.iterations) {
    shortlist += iteration.mean_shortlist;
  }
  layers["clustering.mean_shortlist"] =
      first.iterations.empty()
          ? 0.0
          : shortlist / static_cast<double>(first.iterations.size());
  layers["clustering.exact_distances"] =
      static_cast<double>(first.exact_distances_evaluated);
  layers["clustering.sketch_pruned"] =
      static_cast<double>(first.exact_distances_pruned);
  // Computed from array sizes, not measured: every exact distance of the
  // initial exhaustive pass (n x k) and of refinement reads one item row
  // and one centroid row in full (the early-exit kernel may read less).
  const double distances =
      static_cast<double>(train.num_items()) *
          fitted.spec().engine.num_clusters +
      static_cast<double>(first.exact_distances_evaluated);
  layers["clustering.exact_bytes_computed"] = distances * 2.0 * row_bytes;

  const FitReport& report = reports.front();
  layers["lsh.buckets"] = static_cast<double>(report.index_stats.total_buckets);
  layers["lsh.largest_bucket"] =
      static_cast<double>(report.index_stats.largest_bucket);
  layers["lsh.mean_bucket"] = report.index_stats.mean_bucket_size;
  layers["lsh.index_bytes"] = static_cast<double>(report.index_memory_bytes);
  const lshclust::IndexHandle handle =
      Must(fitted.index(), ops, "Clusterer::index");
  layers["lsh.sketch_bytes"] =
      static_cast<double>(handle.sketch_memory_bytes());
  {
    auto span = log.Span("lsh", "IndexHandle::Candidates");
    const uint32_t n = handle.num_indexed_items();
    const uint32_t sample = std::min(kProbeSample, n);
    double items = 0;
    double clusters = 0;
    for (uint32_t i = 0; i < sample; ++i) {
      const auto item =
          static_cast<uint32_t>(static_cast<uint64_t>(i) * n / sample);
      items += static_cast<double>(handle.CandidateItemsOf(item).size());
      clusters += static_cast<double>(handle.CandidateClustersOf(item).size());
    }
    layers["lsh.probe_items_per_item"] = items / sample;
    layers["lsh.probe_clusters_per_item"] = clusters / sample;
    layers["lsh.dedup_yield"] = clusters / items;
  }

  const uint32_t q = queries.num_items();
  const double predict = PredictRate(
      [&] { return fitted.Predict(queries).status(); }, q, ops, log,
      "Clusterer::Predict");
  layers["api.predict_items_per_s"] = predict;
  layers["api.predict_routed_items_per_s"] = PredictRate(
      [&] { return fitted.PredictRouted(queries).status(); }, q, ops, log,
      "Clusterer::PredictRouted");
  const std::string path = workdir + "/scaling.lshm";
  std::vector<double> ignored;
  const Model snapshot = Must(fitted.Snapshot(), ops, "Clusterer::Snapshot");
  SaveModel(*snapshot, path, ignored, ops, log);
  const Clusterer single = LoadModel(path, ignored, nullptr, ops, log);
  std::filesystem::remove(path);
  layers["shard.predict_scaling"] =
      predict / PredictRate([&] { return single.Predict(queries).status(); },
                            q, ops, log, "Clusterer::Predict");
}

// ------------------------------------------------------------ serve_live --

struct ServeShape {
  lshclust::ConjunctiveDataOptions data;  // warmup + stream + queries
  uint32_t warmup_items = 0;
  uint32_t stream_rows = 0;  // a multiple of publish_every
  uint32_t query_items = 0;
  uint32_t readers = 2;
  uint32_t ingest_rows = 256;
  uint32_t publish_every = 4096;
  ClustererSpec spec;
};

ServeShape MakeServeShape(uint64_t seed, bool smoke) {
  ServeShape shape;
  shape.warmup_items = smoke ? 2000 : 40000;
  shape.publish_every = smoke ? 512 : 4096;
  shape.stream_rows = shape.publish_every * (smoke ? 4 : 16);
  shape.query_items = smoke ? 512 : 4096;
  shape.data.num_items =
      shape.warmup_items + shape.stream_rows + shape.query_items;
  shape.data.num_attributes = smoke ? 10 : 20;
  shape.data.num_clusters = smoke ? 50 : 1000;
  shape.data.domain_size = 40000;
  shape.data.seed = seed;
  shape.spec.modality = Modality::kCategorical;
  shape.spec.accelerator = Accelerator::kMinHash;
  shape.spec.engine.num_clusters = shape.data.num_clusters;
  shape.spec.engine.max_iterations = 5;
  shape.spec.minhash.banding = {8, 2};
  // The sketch prefilter is on here only: snapshots then carry sketch
  // tables, which publish and load pay for.
  shape.spec.minhash.sketch.enabled = true;
  return shape;
}

/// What one serve_live epoch measured.
struct Epoch {
  std::vector<double> bootstrap_s;  // the kept bootstrap, then the re-run
  double writer_s = kNaN;
  double publish_s = 0;  // the writer's time in Snapshot + Publish
  double purity = kNaN;
  double cost = kNaN;
  double agreement = kNaN;
  uint64_t model_bytes = 0;
  uint64_t snapshot_bytes = 0;
  uint64_t swaps = 0;
  std::vector<double> ingest_ms;
  std::vector<double> ingest_rates;  // rows/s per publish interval
  lshclust::StreamingMHKModes::Stats stats;
};

/// Stops and joins the reader threads on every exit path.
class ReaderThreads {
 public:
  ReaderThreads() = default;
  ReaderThreads(const ReaderThreads&) = delete;
  ReaderThreads& operator=(const ReaderThreads&) = delete;
  ~ReaderThreads() { StopAndJoin(); }

  template <typename Fn>
  void Start(Fn fn) {
    threads_.emplace_back(std::move(fn));
  }
  bool stopping() const { return stop_.load(std::memory_order_acquire); }
  void StopAndJoin() {
    stop_.store(true, std::memory_order_release);
    for (std::thread& thread : threads_) {
      if (thread.joinable()) thread.join();
    }
  }

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// One serve_live epoch: set-up (data, session bootstrap, first publish),
/// then `readers` closed-loop reader threads route batches while the
/// writer ingests the fixed stream and publishes every `publish_every`
/// rows, then the final snapshot is saved, reloaded and checked. The
/// ingested rows are fixed, so every count and the final model repeat
/// exactly at a fixed seed.
Epoch ServeEpoch(RunContext& context, const ServeShape& shape,
                 const std::string& model_path, Samples& samples,
                 CpuTurns& turns, Split<CategoricalDataset>* data_out) {
  Ops& ops = context.ops;
  SpanLog& log = context.tracer.main();
  auto epoch_span = log.Span("bench", "epoch");
  Epoch epoch;

  const Clock::time_point setup_start = Clock::now();
  auto setup_span = log.Span("bench", "setup");
  CategoricalDataset all;
  {
    auto span = log.Span("datagen", "GenerateConjunctiveRuleData");
    all = Must(lshclust::GenerateConjunctiveRuleData(shape.data), ops,
               "generate");
  }
  // Layout: warmup items, then the held-out queries, then the stream.
  const uint32_t m = all.num_attributes();
  const uint32_t stream_begin = shape.warmup_items + shape.query_items;
  Split<CategoricalDataset> split =
      MakeSplit(all, shape.warmup_items, shape.query_items, ops);
  const CategoricalDataset& warmup = split.train;
  Clusterer clusterer =
      Must(Clusterer::Create(shape.spec), ops, "Clusterer::Create");
  // Bootstraps a session on the warm-up items, timed.
  auto bootstrap = [&] {
    const PinnedToCpu pin = turns.Next();
    auto span = log.Span("core", "Clusterer::MakeStreamingSession");
    const Clock::time_point start = Clock::now();
    lshclust::StreamingSession made = Must(
        clusterer.MakeStreamingSession(warmup), ops, "MakeStreamingSession");
    epoch.bootstrap_s.push_back(SecondsSince(start));
    return made;
  };
  std::optional<lshclust::StreamingSession> session(bootstrap());
  ModelServer server;
  Model model;
  {
    auto span = log.Span("serving", "StreamingSession::Snapshot");
    model = Must(session->Snapshot(), ops, "StreamingSession::Snapshot");
  }
  {
    auto span = log.Span("serving", "ModelServer::Publish");
    server.Publish(model);
  }
  setup_span.End();
  samples.setup_s.push_back(SecondsSince(setup_start));
  const std::vector<uint32_t> bootstrap_assignment =
      session->bootstrap_result().assignment;
  const size_t bootstrap_iterations =
      session->bootstrap_result().iterations.size();
  epoch.purity =
      Must(lshclust::ComputePurity(bootstrap_assignment, warmup.labels()),
           ops, "ComputePurity");
  epoch.cost = session->bootstrap_result().final_cost;

  // Readers: closed loop over the query batches until the writer is done.
  std::vector<RouteSamples> reader_samples(shape.readers);
  std::vector<Ops> reader_ops(shape.readers);
  std::vector<SpanLog*> reader_logs;
  for (uint32_t r = 0; r < shape.readers; ++r) {
    reader_logs.push_back(&context.tracer.NewLog(log));
  }
  int64_t window_start = 0;
  int64_t window_end = 0;
  {
    ReaderThreads readers;
    for (uint32_t r = 0; r < shape.readers; ++r) {
      readers.Start([&, r] {
        ModelServer::Reader reader(server);
        size_t next = r;  // readers start on different batches
        while (!readers.stopping()) {
          RouteBatch(reader, split.batches[next % split.batches.size()],
                     reader_samples[r], reader_ops[r], *reader_logs[r]);
          ++next;
        }
      });
    }

    // Writer: the fixed stream in IngestBatch chunks, with a timed
    // Snapshot + Publish every publish_every rows.
    auto writer_span = log.Span("bench", "writer");
    window_start = Tracer::NowNs();
    Clock::time_point interval_start = Clock::now();
    uint32_t since_publish = 0;
    for (uint32_t row = 0; row < shape.stream_rows; row += shape.ingest_rows) {
      const std::span<const uint32_t> rows(
          all.codes().data() + static_cast<size_t>(stream_begin + row) * m,
          static_cast<size_t>(shape.ingest_rows) * m);
      const Clock::time_point ingest_start = Clock::now();
      {
        auto span = log.Span("core", "StreamingSession::IngestBatch");
        Must(session->IngestBatch(rows), ops, "IngestBatch");
      }
      epoch.ingest_ms.push_back(Millis(SecondsSince(ingest_start)));
      since_publish += shape.ingest_rows;
      if (since_publish < shape.publish_every) continue;
      since_publish = 0;
      model = SnapshotAndPublish([&] { return session->Snapshot(); }, server,
                                 samples, ops, log);
      epoch.publish_s += samples.publish_ms.back() * 1e-3;
      epoch.ingest_rates.push_back(shape.publish_every /
                                   SecondsSince(interval_start));
      interval_start = Clock::now();
    }
    window_end = Tracer::NowNs();
    readers.StopAndJoin();
  }
  epoch.writer_s = static_cast<double>(window_end - window_start) * 1e-9;

  // Throughput and latencies count the batches that ran wholly inside the
  // writer's window.
  std::vector<int64_t> ends;
  for (uint32_t r = 0; r < shape.readers; ++r) {
    ops.Merge(reader_ops[r]);
    const RouteSamples& reader = reader_samples[r];
    for (size_t i = 0; i < reader.batch_us.size(); ++i) {
      if (reader.start_ns[i] < window_start || reader.end_ns[i] > window_end) {
        continue;
      }
      ends.push_back(reader.end_ns[i]);
      samples.route.batch_us.push_back(reader.batch_us[i]);
      samples.route.acquire_us.push_back(reader.acquire_us[i]);
      samples.route.route_us.push_back(reader.route_us[i]);
    }
    epoch.swaps += reader.swaps;
  }
  Append(samples.route_rates, WindowRates(ends, window_start, window_end));
  epoch.stats = session->stats();
  epoch.snapshot_bytes = model->memory_bytes();
  session.reset();

  // The final snapshot saved and reloaded: its Predict is the reference
  // for the routed answers.
  epoch.model_bytes =
      SaveModel(*model, model_path, samples.save_s, ops, log);
  const Clusterer loaded =
      LoadModel(model_path, samples.load_s,
                context.options.trace ? &samples.decode_s : nullptr, ops, log);
  const std::vector<uint32_t> routed =
      CheckRouting(*model, loaded, loaded, split.queries, ops, log);
  epoch.agreement = Agreement(
      routed, Must(loaded.Predict(split.queries), ops, "Predict"));

  // The warm-up bootstrapped again and dropped, so fit_s takes two samples
  // per epoch. The bootstrap is deterministic: it must repeat exactly.
  {
    const lshclust::StreamingSession again = bootstrap();
    CheckRepeats(epoch.cost, again.bootstrap_result().final_cost,
                 "bootstrap cost", ops);
    ops.Check(again.bootstrap_result().assignment == bootstrap_assignment,
              "bootstrap assignment changed between bootstraps");
  }
  std::printf(
      "epoch: setup_s %.4f, bootstraps %.4f %.4f s (%zu iterations)\n",
      samples.setup_s.back(), epoch.bootstrap_s.front(),
      epoch.bootstrap_s.back(), bootstrap_iterations);
  if (data_out != nullptr) *data_out = std::move(split);
  return epoch;
}

void CoreLayers(const std::vector<Epoch>& epochs, Values& layers) {
  std::vector<double> ingest_ms;
  double publish_s = 0;
  double writer_s = 0;
  for (const Epoch& epoch : epochs) {
    Append(ingest_ms, epoch.ingest_ms);
    publish_s += epoch.publish_s;
    writer_s += epoch.writer_s;
  }
  const auto& stats = epochs.front().stats;
  const auto ingested = static_cast<double>(stats.ingested);
  layers["core.ingest_batch_ms_p50"] = Percentile(ingest_ms, 0.5);
  layers["core.ingest_batch_ms_p99"] = Percentile(ingest_ms, 0.99);
  layers["core.writer_publish_share"] = Share(publish_s, writer_s);
  layers["core.fallback_ratio"] =
      Share(static_cast<double>(stats.exhaustive_fallbacks), ingested);
  layers["core.rewalk_ratio"] =
      Share(static_cast<double>(stats.rewalked), ingested);
  layers["core.mean_shortlist"] = stats.mean_shortlist();
  layers["core.exact_distances"] =
      static_cast<double>(stats.exact_distances_evaluated);
}

/// FromSnapshot minus its decode step: each round or epoch decodes the
/// file once on its own, then loads it.
double AdoptSeconds(const std::vector<double>& load_s,
                    const std::vector<double>& decode_s) {
  std::vector<double> adopt;
  for (size_t i = 0; i < decode_s.size(); ++i) {
    adopt.push_back(load_s[i] - decode_s[i]);
  }
  return Median(adopt);
}

void AddSelfTimes(const Tracer& tracer, Values& layers) {
  const std::map<std::string, double> self = tracer.SelfSeconds();
  for (const char* layer : kSpanLayers) {
    const auto it = self.find(layer);
    layers[std::string("self.") + layer + "_s"] =
        it == self.end() ? 0.0 : it->second;
  }
}

/// Traced rounds run slower than untraced ones by the tracing overhead.
/// Round 0 is untraced and also runs the one-off checks, so it is left
/// out.
double OverheadShare(const std::vector<double>& round_s) {
  std::vector<double> traced;
  std::vector<double> untraced;
  for (size_t round = 1; round < round_s.size(); ++round) {
    (round % 2 == 1 ? traced : untraced).push_back(round_s[round]);
  }
  return Median(traced) / Median(untraced) - 1.0;
}

/// The numbers both kinds of workload derive the same way from their
/// Samples. Call last: the self times cover every span recorded so far.
void Summarize(const Samples& samples, const RunContext& context,
               Values& values) {
  values["setup_s"] = Median(samples.setup_s);
  values["route_items_per_s"] = Median(samples.route_rates);
  values["route_batch_p50_us"] = Percentile(samples.route.batch_us, 0.5);
  values["publish_p50_ms"] = Median(samples.publish_ms);
  values["load_s"] = Median(samples.load_s);
  values["peak_rss_bytes"] = PeakRssBytes();
  if (!context.options.trace) return;
  values["serving.batch_us_p99"] = Percentile(samples.route.batch_us, 0.99);
  values["serving.snapshot_ms"] = Median(samples.snapshot_ms);
  values["serving.publish_ms"] = Median(samples.publish_only_ms);
  values["serving.acquire_us_p99"] =
      Percentile(samples.route.acquire_us, 0.99);
  values["serving.route_batch_us_p50"] =
      Percentile(samples.route.route_us, 0.5);
  values["persist.save_s"] = Median(samples.save_s);
  values["persist.decode_s"] = Median(samples.decode_s);
  values["persist.adopt_s"] = AdoptSeconds(samples.load_s, samples.decode_s);
  values["trace.overhead_share"] = OverheadShare(samples.round_s);
  AddSelfTimes(context.tracer, values);
}

void Emit(RunContext& context, const Values& values) {
  const bool trace = context.options.trace;
  auto find = [&](const std::string& name) {
    const auto it = values.find(name);
    return it == values.end() ? kNaN : it->second;
  };
  if (!trace) {
    for (const auto& [name, unit] : kEndToEnd) {
      context.metrics.Add(name, find(name), unit, context.ops);
    }
    return;
  }
  for (const auto& [name, unit] : kLayers) {
    context.metrics.Add(name, find(name), unit, context.ops);
  }
  for (const char* layer : kSpanLayers) {
    const std::string name = std::string("self.") + layer + "_s";
    context.metrics.Add(name, find(name), "s", context.ops);
  }
}

/// Whether round `round` is traced: in a trace run, odd rounds; set-up
/// and the trace-only measurements after the rounds are traced too.
bool Traced(const RunContext& context, int round) {
  return context.options.trace && round % 2 == 1;
}

/// Whether to start round `round`. Past the minimum, a round starts only
/// when it is expected to end nearer the deadline than stopping before it
/// would, judging by the median of the rounds so far (`round_s`). So a run
/// ends about --seconds after it started, whatever a round costs.
bool KeepGoing(const RunContext& context, int round,
               Clock::time_point deadline,
               const std::vector<double>& round_s) {
  if (round < (context.options.trace ? kMinTracedRounds : kMinRounds)) {
    return true;
  }
  if (context.options.smoke) return false;
  const auto half_round = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(Median(round_s) / 2));
  return Clock::now() + half_round < deadline;
}

// --------------------------------------------------------------- fit_* --

struct FitShape {
  uint32_t train_items = 0;
  uint32_t query_items = 0;
  int64_t route_block_ns = 0;  // closed-loop routing per round
  double row_bytes = 0;      // bytes of one item row
  ClustererSpec spec;
};

template <typename Dataset, typename Generate>
void RunFit(RunContext& context, const FitShape& shape, Generate generate) {
  Ops& ops = context.ops;
  Tracer& tracer = context.tracer;
  SpanLog& log = tracer.main();
  const std::string& workdir = context.options.workdir;
  const std::string model_path = workdir + "/fit.lshm";
  Values values;
  Samples samples;
  CpuTurns turns;

  // Set-up generates and splits the data. Each round sets up again and
  // drops the result, so setup_s is a median spread over the run.
  auto set_up = [&] {
    auto span = log.Span("bench", "setup");
    const Clock::time_point start = Clock::now();
    Dataset all;
    {
      auto generate_span = log.Span("datagen", "generate");
      all = Must(generate(), ops, "generate");
    }
    Split<Dataset> made =
        MakeSplit(all, shape.train_items, shape.query_items, ops);
    samples.setup_s.push_back(SecondsSince(start));
    return made;
  };
  const Split<Dataset> split = set_up();

  Clusterer clusterer =
      Must(Clusterer::Create(shape.spec), ops, "Clusterer::Create");
  ModelServer server;
  ModelServer::Reader reader(server);
  std::vector<FitReport> reports;
  std::vector<double> fit_s;
  uint64_t snapshot_bytes = 0;
  const Clock::time_point deadline =
      Clock::now() +
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(context.options.seconds));
  for (int round = 0; KeepGoing(context, round, deadline, samples.round_s);
       ++round) {
    tracer.set_enabled(Traced(context, round));
    const Clock::time_point round_start = Clock::now();
    auto round_span = log.Span("bench", "round");
    set_up();

    FitReport report;
    {
      std::optional<PinnedToCpu> pin;
      if (shape.spec.engine.num_threads <= 1) pin.emplace(turns.next++);
      auto span = log.Span("clustering", "Clusterer::Fit");
      const Clock::time_point start = Clock::now();
      report = Must(clusterer.Fit(split.train), ops, "Clusterer::Fit");
      fit_s.push_back(SecondsSince(start));
    }
    Must(report.status, ops, "fit status");
    const auto& result = report.result;
    std::printf(
        "fit %d: fit_s %.4f = init %.4f + assign0 %.4f + sign %.4f + index "
        "%.4f + refine %.4f + unaccounted %.4f (%zu iterations)\n",
        round, fit_s.back(), result.init_seconds,
        result.initial_assign_seconds, report.signature_seconds,
        report.index_seconds, result.RefinementSeconds(),
        fit_s.back() - result.init_seconds - result.initial_assign_seconds -
            report.signature_seconds - report.index_seconds -
            result.RefinementSeconds(),
        result.iterations.size());
    if (!reports.empty()) {
      const FitReport& first = reports.front();
      CheckRepeats(first.result.final_cost, result.final_cost, "fit cost",
                   ops);
      ops.Check(first.result.assignment == result.assignment,
                "refit assignment changed between rounds");
    }

    Model model;
    for (int rep = 0; rep < kRepeatsPerRound; ++rep) {
      const PinnedToCpu pin = turns.Next();
      model = SnapshotAndPublish([&] { return clusterer.Snapshot(); }, server,
                                 samples, ops, log);
    }
    snapshot_bytes = model->memory_bytes();

    const uint64_t bytes =
        SaveModel(*model, model_path, samples.save_s, ops, log);
    std::vector<double>* decode =
        context.options.trace ? &samples.decode_s : nullptr;
    const Clusterer loaded = [&] {
      const PinnedToCpu pin = turns.Next();
      return LoadModel(model_path, samples.load_s, decode, ops, log);
    }();
    for (int rep = 1; rep < kRepeatsPerRound; ++rep) {
      const PinnedToCpu pin = turns.Next();
      LoadModel(model_path, samples.load_s, decode, ops, log);
    }
    if (reports.empty()) {
      values["model_bytes"] = static_cast<double>(bytes);
      values["fit_purity"] =
          Must(lshclust::ComputePurity(result.assignment,
                                       split.train.labels()),
               ops, "ComputePurity");
      values["fit_cost"] = result.final_cost;
      const std::vector<uint32_t> routed =
          CheckRouting(*model, clusterer, loaded, split.queries, ops, log);
      values["route_agreement"] = Agreement(
          routed, Must(clusterer.Predict(split.queries), ops, "Predict"));
    } else {
      CheckRepeats(values["model_bytes"], static_cast<double>(bytes),
                   "model bytes", ops);
    }
    reports.push_back(std::move(report));

    {
      auto span = log.Span("bench", "route_block");
      size_t next = 0;
      // Each part of the block routes on the next CPU in turn.
      for (int64_t done_ns = 0; done_ns < shape.route_block_ns;
           done_ns += kRoutePartNs) {
        const PinnedToCpu pin = turns.Next();
        const int64_t start = Tracer::NowNs();
        const int64_t end =
            start + std::min(kRoutePartNs, shape.route_block_ns - done_ns);
        while (Tracer::NowNs() < end) {
          RouteBatch(reader, split.batches[next++ % split.batches.size()],
                     samples.route, ops, log);
        }
        Append(samples.route_rates,
               WindowRates(samples.route.end_ns, start, end));
      }
    }
    samples.round_s.push_back(SecondsSince(round_start));
  }
  tracer.set_enabled(context.options.trace);
  std::filesystem::remove(model_path);

  values["fit_s"] = Median(fit_s);
  // fit_* take rows in through Fit only: rows fitted per second.
  values["ingest_rows_per_s"] = shape.train_items / values["fit_s"];
  if (context.options.trace) {
    FitLayers(reports, fit_s, clusterer, split.train, split.queries,
              shape.row_bytes, workdir, ops, log, values);
    values["serving.snapshot_bytes"] = static_cast<double>(snapshot_bytes);
    values["serving.swaps_observed"] =
        static_cast<double>(samples.route.swaps) /
        static_cast<double>(samples.round_s.size());
    // fit_* have no streaming layer; the core numbers come from one
    // smoke-size serve_live epoch so every trace run carries every layer.
    Samples ignored;
    std::vector<Epoch> epochs;
    epochs.push_back(ServeEpoch(context,
                                MakeServeShape(DataSeed(context.options), true),
                                workdir + "/core.lshm", ignored, turns,
                                nullptr));
    std::filesystem::remove(workdir + "/core.lshm");
    CoreLayers(epochs, values);
  }
  Summarize(samples, context, values);
  Emit(context, values);
}

}  // namespace

void RunFitCategorical(RunContext& context) {
  const bool smoke = context.options.smoke;
  lshclust::ConjunctiveDataOptions data;
  // The paper's Fig. 2 data at 0.2 scale: 90000 items x 20000 rules.
  FitShape shape;
  shape.train_items = smoke ? 600 : 18000;
  shape.query_items = smoke ? 256 : 4096;
  shape.route_block_ns = smoke ? 200'000'000 : 2'500'000'000;
  data.num_items = shape.train_items + shape.query_items;
  data.num_attributes = smoke ? 20 : 100;
  data.num_clusters = smoke ? 40 : 4000;
  data.domain_size = 40000;
  data.seed = DataSeed(context.options);
  shape.row_bytes = data.num_attributes * sizeof(uint32_t);
  shape.spec.modality = Modality::kCategorical;
  shape.spec.accelerator = Accelerator::kMinHash;
  shape.spec.engine.num_clusters = data.num_clusters;
  shape.spec.engine.max_iterations = 5;
  shape.spec.minhash.banding = {20, 2};
  RunFit<CategoricalDataset>(context, shape, [&] {
    return lshclust::GenerateConjunctiveRuleData(data);
  });
}

void RunFitNumeric(RunContext& context) {
  const bool smoke = context.options.smoke;
  lshclust::GaussianMixtureOptions data;
  FitShape shape;
  shape.train_items = smoke ? 1000 : 40000;
  shape.query_items = smoke ? 256 : 8192;
  shape.route_block_ns = smoke ? 200'000'000 : 2'500'000'000;
  data.num_items = shape.train_items + shape.query_items;
  data.dimensions = smoke ? 8 : 32;
  data.num_clusters = smoke ? 20 : 400;
  data.center_box = 20.0;
  data.stddev = 1.0;
  data.seed = DataSeed(context.options);
  shape.row_bytes = data.dimensions * sizeof(double);
  shape.spec.modality = Modality::kNumeric;
  shape.spec.accelerator = Accelerator::kSimHash;
  shape.spec.engine.num_clusters = data.num_clusters;
  shape.spec.engine.max_iterations = 10;
  shape.spec.engine.num_threads = 2;
  shape.spec.engine.num_shards = 2;
  // As examples/numeric_kmeans.cpp: SimHash bits are weak, so bands need
  // many rows.
  shape.spec.simhash.banding = {12, 10};
  RunFit<NumericDataset>(context, shape, [&] {
    return lshclust::GenerateGaussianMixture(data);
  });
}

void RunServeLive(RunContext& context) {
  Ops& ops = context.ops;
  Tracer& tracer = context.tracer;
  const std::string& workdir = context.options.workdir;
  const ServeShape shape =
      MakeServeShape(DataSeed(context.options), context.options.smoke);
  Values values;
  Samples samples;
  CpuTurns turns;
  std::vector<Epoch> epochs;
  Split<CategoricalDataset> data;
  const Clock::time_point deadline =
      Clock::now() +
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(context.options.seconds));
  for (int round = 0; KeepGoing(context, round, deadline, samples.round_s);
       ++round) {
    tracer.set_enabled(Traced(context, round));
    const Clock::time_point start = Clock::now();
    epochs.push_back(ServeEpoch(context, shape, workdir + "/serve.lshm",
                                samples, turns,
                                round == 0 ? &data : nullptr));
    samples.round_s.push_back(SecondsSince(start));
    const Epoch& first = epochs.front();
    const Epoch& last = epochs.back();
    CheckRepeats(first.purity, last.purity, "bootstrap purity", ops);
    CheckRepeats(first.cost, last.cost, "bootstrap cost", ops);
    CheckRepeats(first.agreement, last.agreement, "route agreement", ops);
    CheckRepeats(static_cast<double>(first.model_bytes),
                 static_cast<double>(last.model_bytes), "model bytes", ops);
  }
  tracer.set_enabled(context.options.trace);
  std::filesystem::remove(workdir + "/serve.lshm");

  std::vector<double> bootstrap_s, ingest_rates, swaps;
  for (const Epoch& epoch : epochs) {
    Append(bootstrap_s, epoch.bootstrap_s);
    Append(ingest_rates, epoch.ingest_rates);
    swaps.push_back(static_cast<double>(epoch.swaps));
  }
  const Epoch& first = epochs.front();
  values["fit_s"] = Median(bootstrap_s);
  values["fit_purity"] = first.purity;
  values["fit_cost"] = first.cost;
  values["route_agreement"] = first.agreement;
  values["ingest_rows_per_s"] = Median(ingest_rates);
  values["model_bytes"] = static_cast<double>(first.model_bytes);

  if (context.options.trace) {
    SpanLog& log = tracer.main();
    // The session's bootstrap is a Fit with the same spec; fitting it
    // through the Clusterer exposes the FitReport and IndexHandle the
    // session keeps to itself.
    Clusterer clusterer =
        Must(Clusterer::Create(shape.spec), ops, "Clusterer::Create");
    std::vector<FitReport> reports;
    std::vector<double> fit_s;
    {
      auto span = log.Span("clustering", "Clusterer::Fit");
      const Clock::time_point start = Clock::now();
      reports.push_back(
          Must(clusterer.Fit(data.train), ops, "Clusterer::Fit"));
      fit_s.push_back(SecondsSince(start));
    }
    FitLayers(reports, fit_s, clusterer, data.train, data.queries,
              shape.data.num_attributes * sizeof(uint32_t), workdir, ops,
              log, values);
    values["serving.snapshot_bytes"] =
        static_cast<double>(first.snapshot_bytes);
    values["serving.swaps_observed"] = Median(swaps);
    CoreLayers(epochs, values);
  }
  Summarize(samples, context, values);
  Emit(context, values);
}

}  // namespace perfbench
