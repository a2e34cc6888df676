#ifndef DISC_PERFBENCH_SPAN_LOG_H_
#define DISC_PERFBENCH_SPAN_LOG_H_

// Benchmark-side tracing: spans recorded around each public library call
// the benchmark makes, kept in memory and written out when the run ends.
// Single-threaded by design — every span is opened on the benchmark's main
// thread, around a call the main thread makes — so nesting is a plain
// stack and no locking is needed.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/trace.h"
#include "obs/explain.h"

namespace perfbench {

/// Steady-clock seconds (arbitrary epoch).
inline double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One finished span. `layer` names the src/ module the wrapped call
/// belongs to (or, for a root, the end-to-end interval); `op` names the
/// call. Both point at string literals.
struct Span {
  const char* layer = "";
  const char* op = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for a root span
  double start_s = 0;
  double end_s = 0;
  double duration() const { return end_s - start_s; }
};

/// In-memory span recorder. Disabled, Open() returns inert scopes that
/// still time their interval (Close() reports the duration either way), so
/// call sites need no branches.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  class Scope {
   public:
    Scope(SpanLog* log, const char* layer, const char* op);
    ~Scope() { Close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Ends the span (idempotent) and returns its duration in seconds.
    double Close();

   private:
    SpanLog* log_;
    std::size_t index_ = 0;  ///< into log_->spans_ when recording
    double start_s_;
    double duration_s_ = -1;
  };

  Scope Open(const char* layer, const char* op) { return {this, layer, op}; }
  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Self time per layer: each span's duration minus the time its direct
  /// children cover (children never overlap — they run sequentially on the
  /// one thread), summed by layer name.
  std::map<std::string, double> SelfSecondsByLayer() const;

  /// For each root layer (end-to-end interval): the share of its summed
  /// duration that its direct children cover.
  std::map<std::string, double> CoverageByRoot() const;

  /// Writes every span as one JSON line (times relative to the first span).
  bool WriteJsonl(const std::string& path) const;

 private:
  /// Per span (by index), the summed duration of its direct children.
  std::vector<double> ChildSeconds() const;

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  ///< stack of indices into spans_
};

/// Thread-safe in-memory TraceSink: SaveAll emits from its batch-end drain.
class MemoryTraceSink : public disc::TraceSink {
 public:
  void Emit(const disc::TraceSpan& span) override {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }
  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

 private:
  mutable std::mutex mu_;
  std::vector<disc::TraceSpan> spans_;
};

/// Thread-safe in-memory ExplainSink; logs are read back after the batch.
class MemoryExplainSink : public disc::ExplainSink {
 public:
  void Emit(const disc::ExplainSearchLog& log) override {
    std::lock_guard<std::mutex> lock(mu_);
    logs_.push_back(log);
  }
  /// Moves the collected logs out. Call only after the batch returned.
  std::vector<disc::ExplainSearchLog> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(logs_);
  }

 private:
  std::mutex mu_;
  std::vector<disc::ExplainSearchLog> logs_;
};

}  // namespace perfbench

#endif  // DISC_PERFBENCH_SPAN_LOG_H_
