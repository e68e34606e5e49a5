// Self-test of the benchmark's own helpers: percentiles, failure counting,
// the metric-name and unit charsets, the result line, and span self time.
// Exits 0 when every check passes; prints each failed check otherwise.
//
//   perfbench_selftest

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>

#include "stats.h"
#include "trace.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (ok) return;
  ++failures;
  std::fprintf(stderr, "selftest.cpp:%d: failed: %s\n", line, what);
}

#define EXPECT(condition) Expect((condition), #condition, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void TestPercentile() {
  using perfbench::Median;
  using perfbench::Percentile;
  EXPECT(std::isnan(Percentile({}, 0.5)));
  EXPECT(Near(Median({3.0}), 3.0));
  EXPECT(Near(Median({5.0, 1.0, 3.0}), 3.0));        // unsorted input
  EXPECT(Near(Median({4.0, 1.0, 3.0, 2.0}), 2.5));   // interpolates
  EXPECT(Near(Percentile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.0), 1.0));
  EXPECT(Near(Percentile({1.0, 2.0, 3.0, 4.0, 5.0}, 1.0), 5.0));
  EXPECT(Near(Percentile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.25), 2.0));
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  EXPECT(Near(Percentile(hundred, 0.99), 99.01));
}

void TestOps() {
  perfbench::Ops ops;
  EXPECT(ops.Check(true, "ok"));
  EXPECT(!ops.Check(false, "bad"));
  EXPECT(ops.Check(lshclust::Status::OK(), "status ok"));
  EXPECT(!ops.Check(lshclust::Status::InvalidArgument("nope"), "status"));
  EXPECT(ops.attempted() == 4 && ops.failed() == 2);
  EXPECT(ops.messages().size() == 2 && ops.messages()[0] == "bad");
  EXPECT(ops.messages()[1].find("nope") != std::string::npos);

  perfbench::Ops other;
  for (int i = 0; i < 40; ++i) other.Check(false, "many");
  ops.Merge(other);
  EXPECT(ops.attempted() == 44 && ops.failed() == 42);
  EXPECT(ops.messages().size() == 16);  // messages are capped, counts not
}

void TestCharsets() {
  using perfbench::ValidMetricName;
  using perfbench::ValidUnit;
  EXPECT(ValidMetricName("setup_s"));
  EXPECT(ValidMetricName("lsh.probe_items_per_item"));
  EXPECT(ValidMetricName("9-lives.x"));
  EXPECT(!ValidMetricName(""));
  EXPECT(!ValidMetricName("_leading"));
  EXPECT(!ValidMetricName(".leading"));
  EXPECT(!ValidMetricName("has space"));
  EXPECT(!ValidMetricName("slash/no"));
  EXPECT(ValidMetricName(std::string(64, 'a')));
  EXPECT(!ValidMetricName(std::string(65, 'a')));
  EXPECT(ValidUnit("ms") && ValidUnit("1/s") && ValidUnit("%") &&
         ValidUnit("count"));
  EXPECT(!ValidUnit("") && !ValidUnit("micro seconds") &&
         !ValidUnit(std::string(17, 's')));
}

void TestMetricSet() {
  perfbench::Ops ops;
  perfbench::MetricSet metrics;
  metrics.Add("latency_ms", 1.25, "ms", ops);
  metrics.Add("count", 3, "count", ops);
  EXPECT(ops.failed() == 0 && metrics.size() == 2);
  metrics.Add("latency_ms", 2.0, "ms", ops);  // duplicate
  metrics.Add("nan", std::nan(""), "ms", ops);
  metrics.Add("bad unit", 1.0, "ms", ops);
  EXPECT(ops.failed() == 3 && metrics.size() == 2);
  EXPECT(metrics.ResultLine(false, ops) ==
         "{\"correct\": false, \"attempted\": 5, \"failed\": 3, "
         "\"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, "
         "\"count\": {\"value\": 3, \"unit\": \"count\"}}}");
  perfbench::MetricSet digits;
  digits.Add("x", 0.1, "s", ops);
  EXPECT(digits.ResultLine(true, ops).find("0.10000000000000001") !=
         std::string::npos);
}

void TestSelfTime() {
  perfbench::Tracer off(false);
  { auto span = off.main().Span("api", "call"); }
  EXPECT(off.span_count() == 0);

  perfbench::Tracer tracer(true);
  perfbench::SpanLog& log = tracer.main();
  const auto sleep = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  };
  {
    auto parent = log.Span("bench", "round");
    sleep();
    {
      auto child = log.Span("api", "call");
      sleep();
    }
    auto ended = log.Span("persist", "save");
    ended.End();
    ended.End();  // idempotent
  }
  EXPECT(tracer.span_count() == 3);
  const auto self = tracer.SelfSeconds();
  // The child's time is not the parent's self time.
  EXPECT(self.at("api") >= 0.02 && self.at("bench") >= 0.02);
  EXPECT(self.at("bench") < 0.04);
  EXPECT(self.at("persist") >= 0 && self.at("persist") < 0.01);

  // A thread's log is separate: its spans never count as children.
  perfbench::SpanLog& other = tracer.NewLog(log);
  std::thread thread([&] { auto span = other.Span("serving", "route"); });
  thread.join();
  EXPECT(tracer.span_count() == 4);
}

}  // namespace

int main() {
  TestPercentile();
  TestOps();
  TestCharsets();
  TestMetricSet();
  TestSelfTime();
  if (failures > 0) {
    std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n",
                 failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
