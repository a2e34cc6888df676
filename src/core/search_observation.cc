#include "core/search_observation.h"

#include <algorithm>
#include <utility>

namespace disc {

void SearchObservation::FoldPhases() const {
  if (profiler == nullptr) return;
  for (std::size_t p = 0; p < kTracePhaseCount; ++p) {
    if (phases[p].count != 0) {
      profiler->Add(static_cast<TracePhase>(p), phases[p].ns);
    }
  }
}

void SearchObservation::Finish(const SearchVerdict& verdict,
                               const SearchStats& stats,
                               SearchRecord* record) {
  if (spans) {
    record->spans.reserve(record->spans.size() + 1 + kTracePhaseCount);
    // `ordinal` keys each search span back to its input position.
    TraceSpan search;
    search.name = "search";
    search.start_ns = stats.start_ns;
    search.duration_ns = stats.wall_nanos;
    search.trace_id = trace_id;
    search.span_id = search_span_id;
    search.parent_id = root_span_id;
    search.Int("ordinal", verdict.ordinal)
        .Str("termination", SaveTerminationName(verdict.termination));
    stats.AttachTo(&search);
    record->spans.push_back(std::move(search));
    for (std::size_t p = 0; p < kTracePhaseCount; ++p) {
      const PhaseAcc& acc = phases[p];
      if (acc.count == 0) continue;
      const TracePhase phase = static_cast<TracePhase>(p);
      TraceSpan span;
      span.name = TracePhaseName(phase);
      span.start_ns = acc.first_start_ns;
      span.duration_ns = acc.ns;
      span.trace_id = trace_id;
      span.span_id = PhaseSpanId(phase);
      span.parent_id = search_span_id;
      span.Int("count", acc.count);
      record->spans.push_back(std::move(span));
    }
  }
  if (explain) {
    // The verdict fields and the SearchStats mirrors the analyzer
    // cross-checks the events against (scripts/analyze_explain.py).
    ExplainSearchLog& log = record->log.emplace();
    log.ordinal = verdict.ordinal;
    log.trace_id = trace_id;
    log.attempt = verdict.attempt;
    log.algo = verdict.algo;
    log.termination = SaveTerminationName(verdict.termination);
    log.feasible = verdict.feasible;
    if (verdict.feasible) log.final_cost = verdict.cost;
    log.global_lb = verdict.global_lb;
    log.wall_nanos = stats.wall_nanos;
    log.visited_sets = stats.visited_sets;
    log.lb_prunes = stats.lb_prunes;
    log.nodes_expanded = stats.nodes_expanded;
    log.revert_refines = stats.revert_refines;
    log.abandoned_scans = abandoned_scans;
    log.dropped_events = dropped_events;
    log.events = std::move(events);
  }
}

void ObservationSinks::Publish(std::vector<SearchRecord> records) const {
  std::vector<TraceSpan> spans;
  std::vector<ExplainSearchLog> logs;
  for (SearchRecord& record : records) {
    for (TraceSpan& span : record.spans) spans.push_back(std::move(span));
    if (record.log.has_value()) logs.push_back(std::move(*record.log));
  }
  std::stable_sort(spans.begin(), spans.end(),
                   [](const TraceSpan& a, const TraceSpan& b) {
                     if (a.trace_id != b.trace_id) {
                       return a.trace_id < b.trace_id;
                     }
                     return a.span_id < b.span_id;
                   });
  // Only the top-level search spans feed the /tracez ring; phase and
  // estimate spans stay in the sink.
  for (const TraceSpan& span : spans) {
    if (trace_recorder != nullptr && span.name == "search") {
      trace_recorder->RecordFinished(span);
    }
    if (trace != nullptr) trace->Emit(span);
  }
  for (const ExplainSearchLog& log : logs) {
    if (explain_recorder != nullptr) explain_recorder->RecordSearch(log);
    if (explain != nullptr) explain->Emit(log);
  }
  FlushExplainMetrics(metrics, logs);
}

PhaseScope::PhaseScope(SearchObservation* obs, TracePhase phase)
    : obs_(obs), prev_(nullptr), phase_(phase) {
  if (obs_ == nullptr || !obs_->timed()) {
    obs_ = nullptr;
    return;
  }
  const std::uint64_t now = TraceNowNs();
  prev_ = obs_->active_scope;
  if (prev_ != nullptr) {
    // Pause the enclosing phase: bank its running segment.
    prev_->banked_ns_ += now - prev_->segment_start_ns_;
  }
  first_start_ns_ = now;
  segment_start_ns_ = now;
  obs_->active_scope = this;
}

PhaseScope::~PhaseScope() {
  if (obs_ == nullptr) return;
  const std::uint64_t now = TraceNowNs();
  banked_ns_ += now - segment_start_ns_;
  SearchObservation::PhaseAcc& acc =
      obs_->phases[static_cast<std::size_t>(phase_)];
  acc.ns += banked_ns_;
  acc.count += 1;
  if (acc.first_start_ns == 0) acc.first_start_ns = first_start_ns_;
  if (prev_ != nullptr) prev_->segment_start_ns_ = now;  // resume outer
  obs_->active_scope = prev_;
}

}  // namespace disc
