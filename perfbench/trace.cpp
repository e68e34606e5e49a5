#include "trace.h"

#include <cstdio>

namespace perfbench {

int64_t Tracer::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

SpanLog::Scope SpanLog::Span(const char* layer, const char* name) {
  if (!enabled_) return Scope(nullptr, -1);
  const int32_t parent = open_.empty() ? -1 : open_.back();
  const auto index = static_cast<int32_t>(records_.size());
  records_.push_back({layer, name, Tracer::NowNs(), 0, parent});
  open_.push_back(index);
  return Scope(this, index);
}

void SpanLog::Scope::End() {
  if (log_ == nullptr) return;
  log_->records_[static_cast<size_t>(index_)].end_ns = Tracer::NowNs();
  log_->open_.pop_back();
  log_ = nullptr;
}

Tracer::Tracer(bool enabled) : enabled_(enabled) {
  logs_.push_back(std::unique_ptr<SpanLog>(new SpanLog(0, 0, -1, enabled)));
}

SpanLog& Tracer::NewLog(const SpanLog& cause) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const int32_t cause_span = cause.open_.empty() ? -1 : cause.open_.back();
  logs_.push_back(std::unique_ptr<SpanLog>(
      new SpanLog(static_cast<uint32_t>(logs_.size()), cause.id_, cause_span,
                  enabled_)));
  return *logs_.back();
}

void Tracer::set_enabled(bool enabled) {
  const std::lock_guard<std::mutex> lock(mutex_);
  enabled_ = enabled;
  for (const auto& log : logs_) log->set_enabled(enabled);
}

std::map<std::string, double> Tracer::SelfSeconds() const {
  std::map<std::string, double> self;
  for (const auto& log : logs_) {
    const std::vector<SpanLog::Record>& records = log->records_;
    std::vector<int64_t> child_ns(records.size(), 0);
    for (const SpanLog::Record& record : records) {
      if (record.parent >= 0) {
        child_ns[static_cast<size_t>(record.parent)] +=
            record.end_ns - record.start_ns;
      }
    }
    for (size_t i = 0; i < records.size(); ++i) {
      const int64_t own =
          records[i].end_ns - records[i].start_ns - child_ns[i];
      self[records[i].layer] += static_cast<double>(own) * 1e-9;
    }
  }
  return self;
}

uint64_t Tracer::span_count() const {
  uint64_t count = 0;
  for (const auto& log : logs_) count += log->records_.size();
  return count;
}

lshclust::Status Tracer::Write(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return lshclust::Status::IOError("cannot open trace file " + path);
  }
  for (const auto& log : logs_) {
    for (size_t i = 0; i < log->records_.size(); ++i) {
      const SpanLog::Record& record = log->records_[i];
      std::fprintf(file,
                   "{\"log\": %u, \"span\": %zu, \"layer\": \"%s\", "
                   "\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                   "\"parent\": %d, \"cause_log\": %u, \"cause_span\": %d}\n",
                   log->id_, i, record.layer, record.name,
                   static_cast<long long>(record.start_ns),
                   static_cast<long long>(record.end_ns), record.parent,
                   log->cause_log_, record.parent < 0 ? log->cause_span_ : -1);
    }
  }
  if (std::fclose(file) != 0) {
    return lshclust::Status::IOError("cannot write trace file " + path);
  }
  return lshclust::Status::OK();
}

}  // namespace perfbench
