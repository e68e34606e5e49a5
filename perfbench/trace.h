#pragma once

/// \file trace.h
/// \brief In-memory spans around the benchmark's calls into each layer.
///
/// A span records its layer, name, start, end and the span that caused
/// it. Each thread writes into its own SpanLog (no locking on the span
/// path); the Tracer owns the logs, computes each layer's self time
/// (span duration minus the part its same-thread child spans cover) and
/// writes every span out when the run ends. With tracing off a Scope
/// reads no clock and records nothing.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

class SpanLog {
 public:
  /// Ends its span on destruction; inert when tracing is off.
  class Scope {
   public:
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { End(); }

    /// Ends the span before the scope does; later calls do nothing.
    void End();

   private:
    friend class SpanLog;
    Scope(SpanLog* log, int32_t index) : log_(log), index_(index) {}
    SpanLog* log_;
    int32_t index_;
  };

  /// Opens a span whose parent is the innermost open span of this log (or,
  /// for a root span, the span that started this log's thread). `layer`
  /// and `name` must be string literals.
  [[nodiscard]] Scope Span(const char* layer, const char* name);

  /// Whether spans are currently recorded. Set between phases by the
  /// owning thread before any thread that logs into this log starts.
  void set_enabled(bool enabled) { enabled_ = enabled; }

 private:
  friend class Tracer;
  struct Record {
    const char* layer;
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;  // index in this log, -1 for a root span
  };
  SpanLog(uint32_t id, uint32_t cause_log, int32_t cause_span, bool enabled)
      : id_(id), cause_log_(cause_log), cause_span_(cause_span),
        enabled_(enabled) {}

  uint32_t id_;
  uint32_t cause_log_;   // log holding the span that started this thread
  int32_t cause_span_;   // -1 when there is none
  bool enabled_;
  std::vector<Record> records_;
  std::vector<int32_t> open_;
};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Tracer(bool enabled);

  /// The main thread's log.
  SpanLog& main() { return *logs_.front(); }

  /// A log for a new thread whose spans were caused by the innermost
  /// open span of `cause` (typically the main log). Call before starting
  /// the thread; the log lives as long as the tracer.
  SpanLog& NewLog(const SpanLog& cause);

  /// Enables or disables recording on every log.
  void set_enabled(bool enabled);

  /// Seconds of self time per layer over every recorded span.
  std::map<std::string, double> SelfSeconds() const;

  uint64_t span_count() const;

  /// Writes every span as one JSON object per line: log, index, layer,
  /// name, start/end in ns since the tracer was created, parent index and
  /// (for root spans of a thread) the causing log and span.
  [[nodiscard]] lshclust::Status Write(const std::string& path) const;

  static int64_t NowNs();

 private:
  bool enabled_;
  std::mutex mutex_;  // guards logs_ growth
  std::vector<std::unique_ptr<SpanLog>> logs_;
};

}  // namespace perfbench
