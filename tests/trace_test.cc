// Unit tests for the hierarchical tracing primitives (DESIGN.md §13):
// deterministic id derivation, the PhaseScope pause/resume discipline on a
// SearchObservation, finishing an observation into its record, the one
// publish path's span ordering and /tracez feed, the WallPhaseProfiler
// accumulators, and the TraceRecorder ring behind /tracez. The span-set
// parity of a full pipeline run lives in trace_determinism_test.cc.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/trace.h"
#include "core/search_observation.h"

namespace disc {
namespace {

TEST(TraceIds, DerivationIsDeterministicAndCollisionFree) {
  SetTraceBatchCounterForTest(42);
  const std::uint64_t seed_a = NextTraceBatchSeed();
  SetTraceBatchCounterForTest(42);
  const std::uint64_t seed_b = NextTraceBatchSeed();
  EXPECT_EQ(seed_a, seed_b);
  EXPECT_NE(seed_a, NextTraceBatchSeed());  // counter advanced

  EXPECT_EQ(DeriveTraceId(seed_a, 3), DeriveTraceId(seed_a, 3));
  EXPECT_NE(DeriveTraceId(seed_a, 3), DeriveTraceId(seed_a, 4));

  // Distinct positions in the tree — different kind or ordinal or parent —
  // must yield distinct span ids (splitmix over structural inputs).
  const std::uint64_t trace = DeriveTraceId(seed_a, 0);
  std::set<std::uint64_t> ids;
  for (TraceSpanKind kind :
       {TraceSpanKind::kRoot, TraceSpanKind::kSearch, TraceSpanKind::kPhase,
        TraceSpanKind::kEstimate}) {
    for (std::uint64_t ordinal = 0; ordinal < 8; ++ordinal) {
      ids.insert(DeriveSpanId(trace, kind, ordinal));
    }
  }
  EXPECT_EQ(ids.size(), 4u * 8u);
  EXPECT_EQ(DeriveSpanId(trace, TraceSpanKind::kSearch, 1),
            DeriveSpanId(trace, TraceSpanKind::kSearch, 1));
}

TEST(TraceIds, MixIsDeterministic) {
  EXPECT_EQ(TraceMix(7, 9), TraceMix(7, 9));
  EXPECT_NE(TraceMix(7, 9), TraceMix(9, 7));
}

/// Spins until the steady clock advanced by at least `ns`.
void SpinFor(std::uint64_t ns) {
  const std::uint64_t until = TraceNowNs() + ns;
  while (TraceNowNs() < until) {
  }
}

/// A timed observation with derived ids, as SaveAll builds for ordinal 0.
SearchObservation TracedObservation(WallPhaseProfiler* profiler) {
  SearchObservation obs;
  obs.spans = true;
  obs.profiler = profiler;
  obs.trace_id = DeriveTraceId(1, 0);
  obs.root_span_id = DeriveSpanId(obs.trace_id, TraceSpanKind::kRoot, 0);
  obs.search_span_id =
      DeriveSpanId(obs.root_span_id, TraceSpanKind::kSearch, 0);
  return obs;
}

TEST(PhaseScopeTest, NestedScopePausesTheOuterPhase) {
  WallPhaseProfiler profiler;
  SearchObservation obs = TracedObservation(&profiler);
  ASSERT_TRUE(obs.timed());

  const std::uint64_t start = TraceNowNs();
  {
    PhaseScope outer(&obs, TracePhase::kBoundsScan);
    SpinFor(200'000);
    {
      PhaseScope inner(&obs, TracePhase::kIndexQuery);
      SpinFor(200'000);
    }
    SpinFor(200'000);
  }
  const std::uint64_t elapsed = TraceNowNs() - start;

  const auto& bounds =
      obs.phases[static_cast<std::size_t>(TracePhase::kBoundsScan)];
  const auto& index =
      obs.phases[static_cast<std::size_t>(TracePhase::kIndexQuery)];
  EXPECT_EQ(bounds.count, 1u);
  EXPECT_EQ(index.count, 1u);
  EXPECT_GE(index.ns, 200'000u);
  EXPECT_GE(bounds.ns, 400'000u);
  // Exclusive accounting: the inner phase's time is *not* also charged to
  // the outer one, so the per-phase total stays <= the real elapsed wall.
  EXPECT_LE(bounds.ns + index.ns, elapsed);

  obs.FoldPhases();
  SearchRecord record;
  obs.Finish({"disc", 0, 1, SaveTermination::kCompleted}, SearchStats(),
             &record);
  ASSERT_EQ(record.spans.size(), 3u);  // the search span + two phases
  EXPECT_EQ(record.spans[0].name, "search");
  EXPECT_EQ(record.spans[0].span_id, obs.search_span_id);
  EXPECT_EQ(record.spans[0].parent_id, obs.root_span_id);
  for (std::size_t i = 1; i < record.spans.size(); ++i) {
    const TraceSpan& span = record.spans[i];
    EXPECT_EQ(span.trace_id, obs.trace_id);
    EXPECT_EQ(span.parent_id, obs.search_span_id);
    const TracePhase phase = span.name == "index_query"
                                 ? TracePhase::kIndexQuery
                                 : TracePhase::kBoundsScan;
    EXPECT_EQ(span.span_id, obs.PhaseSpanId(phase)) << span.name;
  }
  EXPECT_FALSE(record.log.has_value());  // explain was off

  // The same totals were folded into the profiler.
  const auto snap = profiler.Snapshot();
  EXPECT_EQ(snap[static_cast<std::size_t>(TracePhase::kBoundsScan)].ns,
            bounds.ns);
  EXPECT_EQ(snap[static_cast<std::size_t>(TracePhase::kIndexQuery)].count,
            1u);
}

TEST(PhaseScopeTest, UntimedObservationIsANoOp) {
  SearchObservation obs;  // no spans, no profiler
  obs.explain = true;     // decisions alone never read the clock
  EXPECT_FALSE(obs.timed());
  {
    PhaseScope scope(&obs, TracePhase::kVerdict);
    PhaseScope null_scope(nullptr, TracePhase::kVerdict);
  }
  for (const auto& acc : obs.phases) {
    EXPECT_EQ(acc.ns, 0u);
    EXPECT_EQ(acc.count, 0u);
  }
}

TEST(SearchObservationTest, FinishAppendsTheSearchSpanAfterExistingSpans) {
  SearchObservation obs = TracedObservation(nullptr);
  { PhaseScope scope(&obs, TracePhase::kBoundsScan); }

  SearchRecord record;
  record.spans.push_back(TraceSpan());  // e.g. the estimate pass's span
  SearchStats stats;
  stats.nodes_expanded = 5;
  obs.Finish({"disc", 3, 2, SaveTermination::kFault}, stats, &record);
  ASSERT_EQ(record.spans.size(), 3u);
  EXPECT_EQ(record.spans[1].name, "search");
  EXPECT_EQ(record.spans[2].name, "bounds_scan");
  const TraceSpan& search = record.spans[1];
  const auto has_int = [&](const char* key, std::uint64_t value) {
    for (const auto& [k, v] : search.int_attrs) {
      if (k == key) return v == value;
    }
    return false;
  };
  EXPECT_TRUE(has_int("ordinal", 3));
  EXPECT_TRUE(has_int("nodes_expanded", 5));
  ASSERT_FALSE(search.str_attrs.empty());
  EXPECT_EQ(search.str_attrs[0].second, "fault");
}

/// Thread-safe in-memory trace sink.
class CaptureTraceSink : public TraceSink {
 public:
  void Emit(const TraceSpan& span) override {
    std::lock_guard<std::mutex> lock(mu_);
    spans.push_back(span);
  }
  std::mutex mu_;
  std::vector<TraceSpan> spans;
};

TEST(ObservationSinksTest, PublishSortsSpansAndFeedsTracezOnlySearchSpans) {
  auto make = [](const char* name, std::uint64_t trace_id,
                 std::uint64_t span_id) {
    TraceSpan span;
    span.name = name;
    span.trace_id = trace_id;
    span.span_id = span_id;
    span.duration_ns = 1000 + span_id;
    return span;
  };
  // Filled out of ordinal order, as workers finish them.
  std::vector<SearchRecord> records(3);
  records[2].spans = {make("search", 1, 9), make("bounds_scan", 1, 3)};
  records[0].spans = {make("verdict", 2, 1), make("search", 2, 0)};
  records[1].spans = {make("estimate", 1, 4)};

  CaptureTraceSink sink;
  TraceRecorder recorder;
  ObservationSinks sinks;
  sinks.trace = &sink;
  sinks.trace_recorder = &recorder;
  ASSERT_TRUE(sinks.spans());
  EXPECT_FALSE(sinks.explaining());
  sinks.Publish(std::move(records));

  std::vector<std::pair<std::uint64_t, std::uint64_t>> order;
  for (const TraceSpan& span : sink.spans) {
    order.emplace_back(span.trace_id, span.span_id);
  }
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> want = {
      {1, 3}, {1, 4}, {1, 9}, {2, 0}, {2, 1}};
  EXPECT_EQ(order, want);

  // /tracez sees the two search spans and nothing else.
  const std::string json = recorder.ToJson();
  std::size_t entries = 0;
  for (std::size_t at = json.find("\"span\":"); at != std::string::npos;
       at = json.find("\"span\":", at + 1)) {
    ++entries;
  }
  EXPECT_EQ(entries, 2u) << json;
  EXPECT_EQ(json.find("bounds_scan"), std::string::npos) << json;
  EXPECT_EQ(json.find("estimate"), std::string::npos) << json;
  EXPECT_EQ(json.find("verdict"), std::string::npos) << json;
}

TEST(WallPhaseProfilerTest, ResetIsLosslessAndJsonCarriesFoldedStacks) {
  WallPhaseProfiler profiler;
  profiler.Add(TracePhase::kIndexQuery, 100);
  profiler.Add(TracePhase::kIndexQuery, 50);
  profiler.Add(TracePhase::kStealIdle, 7);

  auto snap = profiler.Snapshot();
  EXPECT_EQ(snap[static_cast<std::size_t>(TracePhase::kIndexQuery)].ns, 150u);
  EXPECT_EQ(snap[static_cast<std::size_t>(TracePhase::kIndexQuery)].count,
            2u);
  EXPECT_EQ(snap[static_cast<std::size_t>(TracePhase::kStealIdle)].ns, 7u);

  profiler.Reset();
  snap = profiler.Snapshot();
  for (const auto& total : snap) {
    EXPECT_EQ(total.ns, 0u);
    EXPECT_EQ(total.count, 0u);
  }
  // Activity after the reset is reported in full — nothing was dropped.
  profiler.Add(TracePhase::kVerdict, 33);
  snap = profiler.Snapshot();
  EXPECT_EQ(snap[static_cast<std::size_t>(TracePhase::kVerdict)].ns, 33u);
  EXPECT_EQ(snap[static_cast<std::size_t>(TracePhase::kVerdict)].count, 1u);

  const std::string json = profiler.ToJson();
  EXPECT_NE(json.find("\"schema_version\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"verdict\":{\"wall_ns\":33,\"count\":1}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"disc_save;verdict 33\""), std::string::npos) << json;
  // steal_idle folds under the pool root, not the save pipeline.
  profiler.Add(TracePhase::kStealIdle, 5);
  EXPECT_NE(profiler.ToJson().find("\"disc_pool;steal_idle 5\""),
            std::string::npos);
}

TraceSpan FinishedSpan(const char* name, std::uint64_t trace_id,
                       std::uint64_t dur_ns) {
  TraceSpan span;
  span.name = name;
  span.trace_id = trace_id;
  span.span_id = DeriveSpanId(trace_id, TraceSpanKind::kRoot, 0);
  span.start_ns = TraceNowNs();
  span.duration_ns = dur_ns;
  return span;
}

TEST(TraceRecorderTest, RingKeepsNewestAndAppliesSlowThreshold) {
  TraceRecorder recorder(/*recent_capacity=*/2, /*slow_threshold_ns=*/1000);
  recorder.RecordFinished(FinishedSpan("search", 111, 500));  // below cutoff
  recorder.RecordFinished(FinishedSpan("search", 222, 2000));
  recorder.RecordFinished(FinishedSpan("search", 333, 3000));
  recorder.RecordFinished(FinishedSpan("search", 444, 4000));

  const std::string json = recorder.ToJson();
  EXPECT_NE(json.find("\"recent_capacity\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"slow_threshold_ns\":1000"), std::string::npos);
  EXPECT_EQ(json.find("\"trace_id\":111"), std::string::npos) << json;
  EXPECT_EQ(json.find("\"trace_id\":222"), std::string::npos) << json;
  EXPECT_NE(json.find("\"trace_id\":333"), std::string::npos) << json;
  EXPECT_NE(json.find("\"trace_id\":444"), std::string::npos) << json;
}

TEST(TraceRecorderTest, ActiveSlotsPublishAndRelease) {
  TraceRecorder recorder;
  const int slot = recorder.BeginActive("search", 77, 88, TraceNowNs());
  ASSERT_GE(slot, 0);
  std::string json = recorder.ToJson();
  EXPECT_NE(json.find("\"trace_id\":77"), std::string::npos) << json;
  EXPECT_NE(json.find("\"elapsed_ns\":"), std::string::npos) << json;

  recorder.EndActive(slot);
  json = recorder.ToJson();
  EXPECT_NE(json.find("\"active\":[]"), std::string::npos) << json;
}

TEST(TraceRecorderTest, ActiveTableExhaustionIsBestEffort) {
  TraceRecorder recorder;
  std::vector<int> slots;
  for (int i = 0; i < 64; ++i) {
    const int slot = recorder.BeginActive("search", 1, i + 1, TraceNowNs());
    ASSERT_GE(slot, 0) << "slot " << i;
    slots.push_back(slot);
  }
  // All 64 slots busy: the 65th search goes unlisted instead of blocking.
  EXPECT_EQ(recorder.BeginActive("search", 1, 999, TraceNowNs()), -1);
  recorder.EndActive(slots[0]);
  EXPECT_GE(recorder.BeginActive("search", 1, 999, TraceNowNs()), 0);
  for (std::size_t i = 1; i < slots.size(); ++i) {
    recorder.EndActive(slots[i]);
  }
}

TEST(GlobalHooks, AttachDetachRoundTrip) {
  EXPECT_EQ(GlobalTraceRecorder(), nullptr);
  EXPECT_EQ(GlobalWallProfiler(), nullptr);
  TraceRecorder recorder;
  WallPhaseProfiler profiler;
  AttachGlobalTraceRecorder(&recorder);
  AttachGlobalWallProfiler(&profiler);
  EXPECT_EQ(GlobalTraceRecorder(), &recorder);
  EXPECT_EQ(GlobalWallProfiler(), &profiler);
  AttachGlobalTraceRecorder(nullptr);
  AttachGlobalWallProfiler(nullptr);
  EXPECT_EQ(GlobalTraceRecorder(), nullptr);
  EXPECT_EQ(GlobalWallProfiler(), nullptr);
}

}  // namespace
}  // namespace disc
