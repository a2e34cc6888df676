#ifndef DISC_CORE_SEARCH_OBSERVATION_H_
#define DISC_CORE_SEARCH_OBSERVATION_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/trace.h"
#include "core/search_budget.h"
#include "core/search_stats.h"
#include "obs/explain.h"

namespace disc {

class MetricsRegistry;
class PhaseScope;

/// Everything one finished search publishes, stored at its batch ordinal
/// (`records[ordinal]`, the race-free per-ordinal pattern of the results):
/// the spans of its tree and, when explained, its decision log. Aborted
/// retry attempts and journal-restored ordinals publish nothing.
struct SearchRecord {
  std::vector<TraceSpan> spans;
  std::optional<ExplainSearchLog> log;
};

/// How a search ended, as its record reports it.
struct SearchVerdict {
  const char* algo = "disc";  ///< "disc" or "exact"
  std::uint64_t ordinal = 0;  ///< input position in the batch
  std::uint64_t attempt = 1;  ///< final attempt number (1 = no retries)
  SaveTermination termination = SaveTermination::kCompleted;
  bool feasible = false;
  double cost = 0;       ///< final adjustment cost when feasible
  double global_lb = 0;  ///< Lemma-2 bound (0 when uninformative or exact)
};

/// What one search (one retry attempt) observed about itself, riding on its
/// BudgetGauge (DESIGN.md §13): the gauge already flows DiscSaver →
/// BoundsEngine → SearchDistanceCache → index queries, so every phase edge
/// and decision of the search reaches this one context. Owned by exactly
/// one thread, the search's: every scan of the search runs inline on it.
///
/// The consumers are chosen by the batch: `spans` builds the span tree,
/// `profiler` folds phase time into /profilez, `explain` captures the
/// decision log. With none set a search carries no observation at all and
/// every site is one null check.
struct SearchObservation {
  bool spans = false;
  bool explain = false;
  WallPhaseProfiler* profiler = nullptr;

  /// Derived identity (common/trace.h). `trace_id` is set whenever spans or
  /// decisions are captured, the span ids only when spans are.
  std::uint64_t trace_id = 0;
  std::uint64_t root_span_id = 0;    ///< the `save_outlier` pipeline span
  std::uint64_t search_span_id = 0;  ///< parent of every phase span

  struct PhaseAcc {
    std::uint64_t ns = 0;
    std::uint64_t count = 0;
    std::uint64_t first_start_ns = 0;
  };
  std::array<PhaseAcc, kTracePhaseCount> phases{};
  /// Innermost live PhaseScope on the owning thread (intrusive stack).
  PhaseScope* active_scope = nullptr;

  /// The decision log (obs/explain.h), captured when `explain` is set.
  std::vector<ExplainEvent> events;
  /// Events beyond kExplainMaxEventsPerSearch (counted, not stored).
  std::uint64_t dropped_events = 0;
  /// Bound scans cut short by the budget layer (the scan returned its safe
  /// uninformative value); a high count flags bound-quality data polluted
  /// by truncation.
  std::uint64_t abandoned_scans = 0;

  /// True when phase edges are timed; every clock read is gated on it.
  bool timed() const { return spans || profiler != nullptr; }

  /// The deterministic span id of this search's `phase` span.
  std::uint64_t PhaseSpanId(TracePhase phase) const {
    return DeriveSpanId(search_span_id, TraceSpanKind::kPhase,
                        static_cast<std::uint64_t>(phase));
  }

  /// Appends one decision; past kExplainMaxEventsPerSearch it is only
  /// counted, so the stored prefix is the same at any thread count.
  void Record(const ExplainEvent& event) {
    if (events.size() >= kExplainMaxEventsPerSearch) {
      ++dropped_events;
      return;
    }
    events.push_back(event);
  }
  void NoteAbandonedScan() { ++abandoned_scans; }

  /// Folds each touched phase's time into the profiler. Call once per
  /// attempt: an aborted attempt's time was spent, so /profilez counts it.
  void FoldPhases() const;

  /// Finishes the search whose result stands into `record`: its `search`
  /// span (carrying the ordinal, the termination and `stats`) and one
  /// aggregated span per touched phase when `spans` is set, and the
  /// decision log when `explain` is set. Moves the events out.
  void Finish(const SearchVerdict& verdict, const SearchStats& stats,
              SearchRecord* record);
};

/// The observation context on `gauge` when it captures decisions, else null.
/// Decision sites build their events only behind this check.
inline SearchObservation* DecisionsOf(const BudgetGauge* gauge) {
  SearchObservation* obs = gauge != nullptr ? gauge->observation() : nullptr;
  return obs != nullptr && obs->explain ? obs : nullptr;
}

/// Where a batch's records go. Null members are detached.
struct ObservationSinks {
  TraceSink* trace = nullptr;
  TraceRecorder* trace_recorder = nullptr;
  ExplainSink* explain = nullptr;
  ExplainRecorder* explain_recorder = nullptr;
  MetricsRegistry* metrics = nullptr;

  /// True when anything consumes spans / decision logs.
  bool spans() const { return trace != nullptr || trace_recorder != nullptr; }
  bool explaining() const {
    return explain != nullptr || explain_recorder != nullptr;
  }

  /// Publishes one batch, after it joined: every span sorted by (trace_id,
  /// span_id) to `trace`, the `search` spans also to `trace_recorder`; the
  /// logs in ordinal order to `explain` and `explain_recorder`, then one
  /// FlushExplainMetrics into `metrics`. The order is a function of the
  /// records alone, so publishing is identical for every thread count.
  void Publish(std::vector<SearchRecord> records) const;
};

/// RAII wall-phase marker. Entering a phase pauses the enclosing one (its
/// elapsed time is banked) and resumes it on exit, so exactly one phase is
/// charged at any instant and each edge costs one clock read. No-op (two
/// checks) when the search is unobserved or untimed.
class PhaseScope {
 public:
  PhaseScope(SearchObservation* obs, TracePhase phase);
  ~PhaseScope();

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  SearchObservation* obs_;
  PhaseScope* prev_;
  TracePhase phase_;
  std::uint64_t first_start_ns_ = 0;  ///< construction time
  std::uint64_t segment_start_ns_ = 0;
  std::uint64_t banked_ns_ = 0;  ///< finished segments (excludes children)
};

}  // namespace disc

#endif  // DISC_CORE_SEARCH_OBSERVATION_H_
