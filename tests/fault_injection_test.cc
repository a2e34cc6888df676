// FaultInjector semantics: spec parsing, trigger forms (nth / every /
// schedule / seeded probability), fault kinds, determinism across runs with
// the same seed, the max_fires cap under concurrent hits, the global
// attach/detach contract, the zero-overhead no-op path when detached, and
// a search-level `bounds.scan` fault: sound abort, clean retry; and a
// retried search publishing only its standing attempt's spans and log.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/disc_saver.h"
#include "obs/explain.h"

namespace disc {
namespace {

TEST(ParseFaultSpecs, FullGrammarRoundTrips) {
  Result<std::vector<FaultSpec>> parsed = ParseFaultSpecs(
      "search.node:cancel:nth=100;"
      "dcache.fill:latency:ms=5,every=10;"
      "journal.append:kill:at=3+9+12,max=2;"
      "index.query:error:p=0.25,code=io_error;"
      "pool.task:alloc");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const std::vector<FaultSpec>& specs = parsed.value();
  ASSERT_EQ(specs.size(), 5u);

  EXPECT_EQ(specs[0].site, "search.node");
  EXPECT_EQ(specs[0].kind, FaultKind::kCancel);
  EXPECT_EQ(specs[0].nth, 100u);

  EXPECT_EQ(specs[1].kind, FaultKind::kLatency);
  EXPECT_EQ(specs[1].latency_ms, 5u);
  EXPECT_EQ(specs[1].every, 10u);

  EXPECT_EQ(specs[2].kind, FaultKind::kKill);
  EXPECT_EQ(specs[2].schedule, (std::vector<std::uint64_t>{3, 9, 12}));
  EXPECT_EQ(specs[2].max_fires, 2u);

  EXPECT_EQ(specs[3].kind, FaultKind::kError);
  EXPECT_DOUBLE_EQ(specs[3].probability, 0.25);
  EXPECT_EQ(specs[3].code, StatusCode::kIoError);

  EXPECT_EQ(specs[4].kind, FaultKind::kAllocFail);
}

TEST(ParseFaultSpecs, RejectsMalformedInput) {
  EXPECT_FALSE(ParseFaultSpecs("justasite").ok());
  EXPECT_FALSE(ParseFaultSpecs("site:unknownkind").ok());
  EXPECT_FALSE(ParseFaultSpecs("site:error:nokeyvalue").ok());
  EXPECT_FALSE(ParseFaultSpecs("site:error:bogus=1").ok());
  EXPECT_FALSE(ParseFaultSpecs("site:error:nth=abc").ok());
  EXPECT_FALSE(ParseFaultSpecs("site:error:p=1.5").ok());
  EXPECT_FALSE(ParseFaultSpecs("site:error:code=nope").ok());
  EXPECT_FALSE(ParseFaultSpecs(":error").ok());
  // Empty input arms nothing but is not an error (disabled == default).
  Result<std::vector<FaultSpec>> empty = ParseFaultSpecs("");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty.value().empty());
}

TEST(FaultInjector, NthTriggerFiresExactlyOnce) {
  FaultInjector injector;
  FaultSpec spec;
  spec.site = "s";
  spec.kind = FaultKind::kError;
  spec.nth = 2;
  injector.Add(spec);
  FaultInjector::Site* site = injector.site("s");
  EXPECT_TRUE(site->Hit().ok());   // hit 0
  EXPECT_TRUE(site->Hit().ok());   // hit 1
  EXPECT_FALSE(site->Hit().ok());  // hit 2 fires
  EXPECT_TRUE(site->Hit().ok());   // hit 3
  EXPECT_EQ(site->hits(), 4u);
  EXPECT_EQ(site->fires(), 1u);
  EXPECT_EQ(injector.total_fires(), 1u);
}

TEST(FaultInjector, EveryTriggerIsPeriodicFromNth) {
  FaultInjector injector;
  FaultSpec spec;
  spec.site = "s";
  spec.kind = FaultKind::kError;
  spec.nth = 1;
  spec.every = 3;
  injector.Add(spec);
  FaultInjector::Site* site = injector.site("s");
  std::vector<bool> fired;
  for (int i = 0; i < 8; ++i) fired.push_back(!site->Hit().ok());
  // Hits 1, 4, 7 fire.
  EXPECT_EQ(fired, (std::vector<bool>{false, true, false, false, true, false,
                                      false, true}));
}

TEST(FaultInjector, ScheduleTriggerFiresAtListedHits) {
  FaultInjector injector;
  FaultSpec spec;
  spec.site = "s";
  spec.kind = FaultKind::kError;
  spec.schedule = {0, 3};
  injector.Add(spec);
  FaultInjector::Site* site = injector.site("s");
  EXPECT_FALSE(site->Hit().ok());
  EXPECT_TRUE(site->Hit().ok());
  EXPECT_TRUE(site->Hit().ok());
  EXPECT_FALSE(site->Hit().ok());
  EXPECT_TRUE(site->Hit().ok());
}

TEST(FaultInjector, ProbabilityTriggerIsSeedDeterministic) {
  // Same seed → identical fire pattern; different seed → (almost surely)
  // a different one. Never flaky: both patterns are pure functions of
  // (seed, site, hit index).
  auto pattern = [](std::uint64_t seed) {
    FaultInjector injector(seed);
    FaultSpec spec;
    spec.site = "s";
    spec.kind = FaultKind::kError;
    spec.probability = 0.5;
    injector.Add(spec);
    FaultInjector::Site* site = injector.site("s");
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) fired.push_back(!site->Hit().ok());
    return fired;
  };
  const std::vector<bool> a = pattern(42);
  EXPECT_EQ(a, pattern(42));
  EXPECT_NE(a, pattern(43));
  // Roughly half fire (loose bounds; the draw is uniform).
  const std::size_t fires =
      static_cast<std::size_t>(std::count(a.begin(), a.end(), true));
  EXPECT_GT(fires, 16u);
  EXPECT_LT(fires, 48u);
}

TEST(FaultInjector, ErrorKindCarriesConfiguredCode) {
  FaultInjector injector;
  FaultSpec spec;
  spec.site = "s";
  spec.kind = FaultKind::kError;
  spec.code = StatusCode::kIoError;
  injector.Add(spec);
  Status status = injector.site("s")->Hit();
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find("injected fault"), std::string::npos);
}

TEST(FaultInjector, CancelKindTripsTokenAndMirrors) {
  FaultInjector injector;
  CancellationSource mirror;
  injector.MirrorCancelTo(mirror);
  FaultSpec spec;
  spec.site = "s";
  spec.kind = FaultKind::kCancel;
  injector.Add(spec);
  CancellationToken token = injector.token();
  EXPECT_FALSE(token.cancelled());
  EXPECT_TRUE(injector.site("s")->Hit().ok());  // cancel returns OK
  EXPECT_TRUE(token.cancelled());
  EXPECT_TRUE(injector.cancel_fired());
  EXPECT_TRUE(mirror.cancel_requested());
}

TEST(FaultInjector, KillKindThrowsFaultInjectedError) {
  FaultInjector injector;
  FaultSpec spec;
  spec.site = "s";
  spec.kind = FaultKind::kKill;
  injector.Add(spec);
  EXPECT_THROW(injector.site("s")->Hit(), FaultInjectedError);
}

TEST(FaultInjector, MaxFiresCapsConcurrentHitsExactly) {
  FaultInjector injector;
  FaultSpec spec;
  spec.site = "s";
  spec.kind = FaultKind::kError;
  spec.nth = 0;
  spec.every = 1;  // would fire on every hit...
  spec.max_fires = 10;  // ...but is capped
  injector.Add(spec);
  FaultInjector::Site* site = injector.site("s");
  std::atomic<std::uint64_t> errors{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 1000; ++i) {
        if (!site->Hit().ok()) errors.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(errors.load(), 10u);
  EXPECT_EQ(site->hits(), 4000u);
  EXPECT_EQ(site->fires(), 10u);
}

TEST(FaultInjector, GlobalAttachDetachAndMacro) {
  EXPECT_EQ(GlobalFaultInjector(), nullptr);
  EXPECT_EQ(FaultSiteFor("anything"), nullptr);
  EXPECT_TRUE(DISC_FAULT_POINT("anything").ok());  // detached → no-op

  FaultInjector injector;
  FaultSpec spec;
  spec.site = "macro.site";
  spec.kind = FaultKind::kError;
  injector.Add(spec);
  AttachGlobalFaultInjector(&injector);
  EXPECT_EQ(GlobalFaultInjector(), &injector);
  EXPECT_NE(FaultSiteFor("macro.site"), nullptr);
  EXPECT_FALSE(DISC_FAULT_POINT("macro.site").ok());
  AttachGlobalFaultInjector(nullptr);
  EXPECT_TRUE(DISC_FAULT_POINT("macro.site").ok());
  EXPECT_EQ(injector.hit_count("macro.site"), 1u);
}

TEST(FaultInjector, FiresBumpTheMetricsCounter) {
  MetricsRegistry metrics;
  AttachGlobalMetrics(&metrics);
  FaultInjector injector;
  FaultSpec spec;
  spec.site = "s";
  spec.kind = FaultKind::kError;
  spec.nth = 1;
  injector.Add(spec);
  FaultInjector::Site* site = injector.site("s");
  EXPECT_TRUE(site->Hit().ok());   // no fire, no count
  EXPECT_FALSE(site->Hit().ok());  // fire
  AttachGlobalMetrics(nullptr);
  Counter* c = metrics.GetCounter("disc_fault_injected_total");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->Value(), 1u);
}

TEST(FaultInjector, SitePointersAreStableAndUnarmedSitesAreFree) {
  FaultInjector injector;
  FaultInjector::Site* a = injector.site("a");
  EXPECT_EQ(injector.site("a"), a);
  // An unarmed site records hits but never fires.
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(a->Hit().ok());
  EXPECT_EQ(a->hits(), 100u);
  EXPECT_EQ(a->fires(), 0u);
}

TEST(FaultInjector, AddFromStringArmsMultipleSites) {
  FaultInjector injector;
  ASSERT_TRUE(injector.AddFromString("a:error:nth=0;b:error:nth=0").ok());
  EXPECT_FALSE(injector.site("a")->Hit().ok());
  EXPECT_FALSE(injector.site("b")->Hit().ok());
  EXPECT_FALSE(injector.AddFromString("bad spec").ok());
}

/// Inliers: one Gaussian cluster. Outliers: cluster points with one or two
/// attributes pushed far away, so each search scans many bands.
struct ClusterScenario {
  Relation inliers{Schema::Numeric(3)};
  std::vector<Tuple> outliers;

  ClusterScenario() {
    Rng rng(2027);
    for (int i = 0; i < 300; ++i) {
      inliers.AppendUnchecked(Tuple::Numeric(
          {rng.Gaussian(0, 1), rng.Gaussian(0, 1), rng.Gaussian(0, 1)}));
    }
    for (int i = 0; i < 4; ++i) {
      Tuple t = Tuple::Numeric(
          {rng.Gaussian(0, 0.5), rng.Gaussian(0, 0.5), rng.Gaussian(0, 0.5)});
      t[i % 3] = Value(12.0 + i);
      if (i == 3) t[0] = Value(-9.0);
      outliers.push_back(std::move(t));
    }
  }
};

TEST(FaultInjector, BoundsScanFaultAbortsSearchSoundlyAndRetriesClean) {
  const ClusterScenario scenario;
  const Relation& inliers = scenario.inliers;
  const std::vector<Tuple>& outliers = scenario.outliers;
  DistanceEvaluator ev(inliers.schema());
  DiscSaver saver(inliers, ev, {1.0, 5});
  const std::vector<SaveResult> clean = saver.SaveAll(outliers);
  for (const SaveResult& r : clean) {
    ASSERT_EQ(r.termination, SaveTermination::kCompleted);
  }

  // A fault mid-search: kFault, and the tuple is either a feasible
  // adjustment (the incumbent) or left untouched — never a partial one.
  for (const char* spec : {"bounds.scan:error:nth=3",
                           "bounds.scan:error:nth=12"}) {
    FaultInjector injector;
    ASSERT_TRUE(injector.AddFromString(spec).ok());
    AttachGlobalFaultInjector(&injector);
    const SaveResult faulted = saver.Save(outliers[0]);
    AttachGlobalFaultInjector(nullptr);
    EXPECT_EQ(injector.fires("bounds.scan"), 1u) << spec;
    EXPECT_EQ(faulted.termination, SaveTermination::kFault) << spec;
    EXPECT_TRUE(faulted.adjusted == outliers[0] ||
                saver.bounds().IsFeasible(faulted.adjusted))
        << spec;
    if (faulted.feasible) {
      EXPECT_TRUE(saver.bounds().IsFeasible(faulted.adjusted)) << spec;
    }
  }

  // One fault in the batch, retried once: bit-identical to the clean run.
  FaultInjector injector;
  ASSERT_TRUE(injector.AddFromString("bounds.scan:error:nth=12,max=1").ok());
  AttachGlobalFaultInjector(&injector);
  BatchRecovery recovery;
  recovery.retry.max_attempts = 2;
  recovery.retry.initial_backoff = std::chrono::milliseconds(1);
  const std::vector<SaveResult> retried =
      saver.SaveAll(outliers, {}, nullptr, {}, nullptr, recovery);
  AttachGlobalFaultInjector(nullptr);
  EXPECT_EQ(injector.fires("bounds.scan"), 1u);
  ASSERT_EQ(retried.size(), clean.size());
  std::uint64_t retries = 0;
  for (std::size_t i = 0; i < clean.size(); ++i) {
    EXPECT_EQ(retried[i].termination, clean[i].termination) << i;
    EXPECT_EQ(retried[i].feasible, clean[i].feasible) << i;
    EXPECT_TRUE(retried[i].adjusted == clean[i].adjusted) << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(retried[i].cost),
              std::bit_cast<std::uint64_t>(clean[i].cost))
        << i;
    SearchStats work = retried[i].stats;
    retries += work.retries;
    work.retries = clean[i].stats.retries;
    EXPECT_TRUE(work.SameWork(clean[i].stats)) << i;
  }
  EXPECT_EQ(retries, 1u);
}

class CaptureTraceSink : public TraceSink {
 public:
  void Emit(const TraceSpan& span) override {
    std::lock_guard<std::mutex> lock(mu_);
    spans.push_back(span);
  }
  std::mutex mu_;
  std::vector<TraceSpan> spans;
};

class CaptureExplainSink : public ExplainSink {
 public:
  void Emit(const ExplainSearchLog& log) override {
    std::lock_guard<std::mutex> lock(mu_);
    logs.push_back(log);
  }
  std::mutex mu_;
  std::vector<ExplainSearchLog> logs;
};

TEST(FaultInjector, RetriedSearchPublishesOnlyItsFinalAttempt) {
  // A search.node fault aborts one search mid-walk, after its first phases
  // ran; the retry then stands. Only the standing attempt may publish, so
  // no span may point at the aborted attempt's search span.
  const ClusterScenario scenario;
  DistanceEvaluator ev(scenario.inliers.schema());
  DiscSaver saver(scenario.inliers, ev, {1.0, 5});
  BatchRecovery recovery;
  recovery.retry.max_attempts = 3;
  recovery.retry.initial_backoff = std::chrono::milliseconds(1);
  for (std::size_t threads : {1u, 4u}) {
    WorkStealingPool pool(threads);
    FaultInjector injector;
    ASSERT_TRUE(injector.AddFromString("search.node:error:nth=3,max=2").ok());
    CaptureTraceSink trace;
    CaptureExplainSink explain;
    AttachGlobalFaultInjector(&injector);
    const std::vector<SaveResult> results =
        saver.SaveAll(scenario.outliers, {}, threads > 1 ? &pool : nullptr,
                      {}, &trace, recovery, &explain);
    AttachGlobalFaultInjector(nullptr);
    ASSERT_GE(injector.fires("search.node"), 1u) << threads;

    // Every parent is emitted, or is a save_outlier root (SaveOutliers
    // emits those around SaveAll).
    std::set<std::uint64_t> ids;
    for (const SaveResult& r : results) {
      ids.insert(DeriveSpanId(r.trace_id, TraceSpanKind::kRoot, 0));
    }
    for (const TraceSpan& span : trace.spans) ids.insert(span.span_id);
    for (const TraceSpan& span : trace.spans) {
      if (span.trace_id == 0 || span.parent_id == 0) continue;
      EXPECT_EQ(ids.count(span.parent_id), 1u)
          << span.name << " orphaned at " << threads << " threads";
    }

    ASSERT_EQ(explain.logs.size(), results.size());
    std::size_t retried = 0;
    for (const ExplainSearchLog& log : explain.logs) {
      const SaveResult& r = results[log.ordinal];
      EXPECT_EQ(log.attempt, r.stats.retries + 1) << log.ordinal;
      if (r.stats.retries == 0) continue;
      ++retried;
      EXPECT_EQ(log.attempt, 2u) << log.ordinal;
      EXPECT_EQ(r.termination, SaveTermination::kCompleted) << log.ordinal;
    }
    EXPECT_EQ(retried, 1u) << threads;
  }
}

}  // namespace
}  // namespace disc
