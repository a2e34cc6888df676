#include "span_log.h"

#include <cstdio>

namespace perfbench {

SpanLog::Scope::Scope(SpanLog* log, const char* layer, const char* op)
    : log_(log), start_s_(0) {
  if (log_->enabled_) {
    Span span;
    span.layer = layer;
    span.op = op;
    span.id = log_->spans_.size() + 1;
    span.parent =
        log_->open_.empty() ? 0 : log_->spans_[log_->open_.back()].id;
    index_ = log_->spans_.size();
    log_->spans_.push_back(span);
    log_->open_.push_back(index_);
  } else {
    log_ = nullptr;
  }
  start_s_ = NowS();
}

double SpanLog::Scope::Close() {
  if (duration_s_ >= 0) return duration_s_;
  const double end_s = NowS();
  duration_s_ = end_s - start_s_;
  if (log_ != nullptr) {
    Span& span = log_->spans_[index_];
    span.start_s = start_s_;
    span.end_s = end_s;
    log_->open_.pop_back();
  }
  return duration_s_;
}

std::vector<double> SpanLog::ChildSeconds() const {
  std::vector<double> covered(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent != 0) covered[span.parent - 1] += span.duration();
  }
  return covered;
}

std::map<std::string, double> SpanLog::SelfSecondsByLayer() const {
  const std::vector<double> covered = ChildSeconds();
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[spans_[i].layer] += spans_[i].duration() - covered[i];
  }
  return self;
}

std::map<std::string, double> SpanLog::CoverageByRoot() const {
  const std::vector<double> covered = ChildSeconds();
  std::map<std::string, std::pair<double, double>> sums;  // covered, total
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent != 0) continue;
    sums[spans_[i].layer].first += covered[i];
    sums[spans_[i].layer].second += spans_[i].duration();
  }
  std::map<std::string, double> coverage;
  for (const auto& [root, sum] : sums) {
    coverage[root] = sum.second > 0 ? sum.first / sum.second : 0.0;
  }
  return coverage;
}

bool SpanLog::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double epoch = spans_.empty() ? 0.0 : spans_.front().start_s;
  for (const Span& span : spans_) {
    std::fprintf(f,
                 "{\"span_id\":%llu,\"parent_id\":%llu,\"layer\":\"%s\","
                 "\"op\":\"%s\",\"t_s\":%.9f,\"dur_s\":%.9f}\n",
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent), span.layer,
                 span.op, span.start_s - epoch, span.duration());
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
