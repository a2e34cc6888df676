// The DISC saving benchmark.
//
//   disc_perfbench --workload letter|flight|restaurant --seed N
//                  --seconds S --trace 0|1 [--out DIR]
//
// Builds a seeded in-tree stand-in for one of the paper's Table 1 datasets
// (MakePaperDataset), then drives the library only through its public entry
// points — MakeNeighborIndex, SplitInliersOutliers, the DiscSaver
// constructor, DiscSaver::Save/SaveAll, SaveOutliers, and the BoundsEngine /
// KthNeighborCache / ColumnarView / DistanceEvaluator calls — timing each
// from outside. Every pass uses κ = 2 and the dataset's suggested (ε, η);
// parallel passes share one WorkStealingPool of one worker per usable CPU.
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 is
// the separate traced run that reports the per-layer metrics. Both run the
// correctness checks. The last line of stdout is one JSON object
// {"correct", "attempted", "failed", "metrics"}; the exit code is nonzero
// when any check failed. See README.md for every metric's definition.

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/cpu_features.h"
#include "common/json_writer.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "constraints/distance_constraint.h"
#include "core/bounds.h"
#include "core/disc_saver.h"
#include "core/outlier_saving.h"
#include "core/search_distance_cache.h"
#include "core/search_stats.h"
#include "data/datasets.h"
#include "distance/columnar.h"
#include "distance/evaluator.h"
#include "index/index_factory.h"
#include "index/kth_neighbor_cache.h"
#include "obs/explain.h"
#include "span_log.h"

namespace perfbench {
namespace {

using disc::AttributeSet;
using disc::DiscSaver;
using disc::ExplainAction;
using disc::ExplainEvent;
using disc::ExplainSearchLog;
using disc::Relation;
using disc::SaveResult;
using disc::SearchStats;
using disc::Tuple;

constexpr std::size_t kKappa = 2;
/// Set-ups per measurement round; setup_s is the mean over all of them.
constexpr int kSetupRepsPerRound = 2;
/// Parallel and observed SaveAll passes per measurement round, alternating.
/// A parallel pass is short next to the sequential ones, so a round repeats
/// it to give the parallel metrics as many samples as the run allows.
constexpr int kParallelRepsPerRound = 3;
/// Rounds every end-to-end run makes at least, whatever --seconds says.
constexpr int kMinRounds = 3;
/// The latency tail is the highest percentile with this many samples
/// beyond it.
constexpr std::size_t kTailBeyond = 10;
/// Repetitions of the set-up component probe in the traced run.
constexpr int kComponentReps = 3;
/// Pairs in the fixed DistanceEvaluator::Distance sample.
constexpr std::size_t kPairSample = 20000;
/// Instance seed of the quality guards (MakePaperDataset's default). The
/// guards are exact functions of the search's answers, so on one fixed
/// instance they read the same on every run and any change in what the
/// search finds moves them, whatever --seed the run was given.
constexpr std::uint64_t kQualitySeed = 42;

struct WorkloadSpec {
  const char* name;
  double scale;  ///< MakePaperDataset scale factor
};

// Sizes fit one measurement round into a few seconds on a 4-core machine;
// README.md records why each workload exists.
constexpr WorkloadSpec kWorkloads[] = {
    {"letter", 0.15},
    {"flight", 0.03},
    {"restaurant", 1.0},
};

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

std::size_t UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

long CacheBytes(int name) {
  long v = sysconf(name);
  return v > 0 ? v : 0;
}

/// Median with Python's statistics.median convention (mean of the middle
/// two for an even count). NaN for an empty sample.
double Median(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Nearest-rank percentile of a sorted sample, p in (0, 100].
double NearestRank(const std::vector<double>& sorted, double p) {
  auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

/// The highest percentile (one decimal) with at least kTailBeyond samples
/// beyond its nearest rank; 0 when the sample is too small to have one.
double TailPercentile(std::size_t samples) {
  if (samples <= kTailBeyond) return 0;
  double p = std::floor(1000.0 * static_cast<double>(samples - kTailBeyond) /
                        static_cast<double>(samples)) /
             10.0;
  while (p > 0) {
    auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(samples)));
    if (samples - rank >= kTailBeyond) break;
    p -= 0.1;
  }
  return p;
}

bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// The bit-identity contract between two saves of the same outlier.
bool SameResult(const SaveResult& a, const SaveResult& b) {
  return a.feasible == b.feasible && a.termination == b.termination &&
         a.adjusted == b.adjusted && SameBits(a.cost, b.cost) &&
         a.adjusted_attributes == b.adjusted_attributes &&
         SameBits(a.lower_bound, b.lower_bound) &&
         a.kappa_exceeded == b.kappa_exceeded && a.stats.SameWork(b.stats);
}

/// A SaveOutliers record against the SaveAll result for the same outlier
/// (no natural-outlier threshold is set, so saved ⇔ feasible, and a
/// κ-blocked search is reported as a natural outlier).
bool SameRecord(const disc::OutlierRecord& r, const SaveResult& s) {
  const disc::OutlierDisposition want =
      s.feasible         ? disc::OutlierDisposition::kSaved
      : s.kappa_exceeded ? disc::OutlierDisposition::kNaturalOutlier
                         : disc::OutlierDisposition::kInfeasible;
  return r.disposition == want && r.termination == s.termination &&
         r.adjusted == s.adjusted && SameBits(r.cost, s.cost) &&
         r.adjusted_attributes == s.adjusted_attributes &&
         SameBits(r.lower_bound, s.lower_bound) && r.stats.SameWork(s.stats);
}

/// A saved tuple must pass the exact feasibility test and its certified
/// lower bound must not exceed its cost.
bool Sound(const DiscSaver& saver, const SaveResult& res) {
  return !res.feasible || (saver.bounds().IsFeasible(res.adjusted) &&
                           res.lower_bound <= res.cost);
}

// ---------------------------------------------------------------------------
// Correctness checks
// ---------------------------------------------------------------------------

/// Every checked result is one attempt; a result failing any check of its
/// kind is one failure. The first few failures are kept for the report.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> first_failures;

  void Record(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (first_failures.size() < 8) first_failures.push_back(what);
  }
  double error_rate() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

// ---------------------------------------------------------------------------
// Workload and set-up
// ---------------------------------------------------------------------------

struct Workload {
  std::string name;
  std::uint64_t seed = 0;
  double scale = 1;
  disc::PaperDataset ds;
  std::unique_ptr<disc::DistanceEvaluator> evaluator;
  disc::DistanceConstraint constraint;
  disc::SaveOptions options;
  std::size_t threads = 1;

  const Relation& data() const { return ds.dirty; }
};

Workload MakeWorkload(const WorkloadSpec& spec, std::uint64_t seed,
                      std::size_t threads) {
  Workload w;
  w.name = spec.name;
  w.seed = seed;
  w.scale = spec.scale;
  w.ds = disc::MakePaperDataset(spec.name, seed, spec.scale);
  w.evaluator =
      std::make_unique<disc::DistanceEvaluator>(w.ds.dirty.schema());
  w.constraint = w.ds.suggested;
  w.options.kappa = kKappa;
  w.threads = threads;
  return w;
}

/// Everything from the relation in memory to a ready DiscSaver. Held by
/// unique_ptr: the saver keeps references to `inliers`.
struct Prepared {
  std::unique_ptr<disc::NeighborIndex> index;
  disc::InlierOutlierSplit split;
  Relation inliers;
  std::vector<Tuple> outliers;
  std::unique_ptr<DiscSaver> saver;
};

std::unique_ptr<Prepared> Prepare(const Workload& w, SpanLog* spans) {
  auto p = std::make_unique<Prepared>();
  {
    auto s = spans->Open("index", "MakeNeighborIndex");
    p->index = disc::MakeNeighborIndex(w.data(), *w.evaluator,
                                       w.constraint.epsilon);
  }
  {
    auto s = spans->Open("constraints", "SplitInliersOutliers");
    p->split = disc::SplitInliersOutliers(w.data(), *p->index, w.constraint);
  }
  {
    auto s = spans->Open("common.relation", "Select");
    p->inliers = w.data().Select(p->split.inlier_rows);
    p->outliers.reserve(p->split.outlier_rows.size());
    for (std::size_t row : p->split.outlier_rows) {
      p->outliers.push_back(w.data()[row]);
    }
  }
  {
    auto s = spans->Open("core.search", "DiscSaver");
    p->saver = std::make_unique<DiscSaver>(p->inliers, *w.evaluator,
                                           w.constraint);
  }
  return p;
}

// ---------------------------------------------------------------------------
// One measurement round
// ---------------------------------------------------------------------------

struct Round {
  bool traced = false;
  std::vector<double> setup_s;
  double pipeline_s = 0;
  double save_1t_s = 0;
  std::vector<double> save_par_s;      ///< one per parallel pass
  std::vector<double> save_par_cpu_s;  ///< process CPU of each parallel pass
  double save_loop_s = 0;
  std::vector<double> save_observed_s;  ///< one per observed pass
  std::vector<double> latencies_ms;  ///< sorted per-outlier Save() latencies
  double latency_p50_ms = 0;
  double latency_tail_ms = 0;
  double tail_percentile = 0;
  std::size_t outliers = 0;
  std::size_t inliers = 0;
  std::string index_name;
  SearchStats stats_1t;  ///< merged over the 1-thread pass
  disc::WorkStealingPool::SchedStats sched;  ///< first parallel pass's delta
  // The obs and explain counts below come from the first observed pass.
  std::size_t obs_spans = 0;
  std::uint64_t explain_events = 0;
  std::uint64_t explain_dropped = 0;
  std::uint64_t memo_hits = 0;
  std::uint64_t incumbent_updates = 0;  ///< non-seed explain events
  // Kept for the traced run's replay.
  std::unique_ptr<Prepared> prepared;
  std::vector<SaveResult> results_1t;
  std::vector<ExplainSearchLog> logs;

  /// Sum of the end-to-end intervals, for the tracing-overhead figure.
  double e2e_total_s() const {
    double s = pipeline_s + save_1t_s + save_loop_s;
    for (const std::vector<double>* reps :
         {&setup_s, &save_par_s, &save_observed_s}) {
      for (double v : *reps) s += v;
    }
    return s;
  }
};

Round RunRound(const Workload& w, disc::WorkStealingPool* pool, SpanLog* spans,
               Checks* checks) {
  Round r;
  r.traced = spans->enabled();

  // Set-up: relation in memory → ready DiscSaver.
  for (int rep = 0; rep < kSetupRepsPerRound; ++rep) {
    r.prepared.reset();  // the previous set-up's teardown stays untimed
    auto root = spans->Open("setup", "setup");
    r.prepared = Prepare(w, spans);
    r.setup_s.push_back(root.Close());
  }
  const Prepared& p = *r.prepared;
  const DiscSaver& saver = *p.saver;
  const std::vector<Tuple>& outliers = p.outliers;
  const std::size_t n = outliers.size();
  checks->Record(n > 0, "the workload has no outliers to save");
  r.outliers = n;
  r.inliers = p.inliers.size();
  r.index_name = p.index->Name();

  // The disc_cli path: one SaveOutliers call at nproc threads.
  disc::OutlierSavingOptions popts;
  popts.constraint = w.constraint;
  popts.save = w.options;
  popts.num_threads = w.threads;
  disc::SavedDataset pipeline;
  {
    auto root = spans->Open("pipeline", "pipeline");
    auto s = spans->Open("core.pipeline", "SaveOutliers");
    pipeline = disc::SaveOutliers(w.data(), *w.evaluator, popts);
    s.Close();
    r.pipeline_s = root.Close();
  }

  // Sequential batch (pool == nullptr).
  {
    auto root = spans->Open("save_1t", "save_1t");
    auto s = spans->Open("core.search", "SaveAll");
    r.results_1t = saver.SaveAll(outliers, w.options, nullptr);
    s.Close();
    r.save_1t_s = root.Close();
  }
  const std::vector<SaveResult>& base = r.results_1t;
  checks->Record(base.size() == n,
                 "SaveAll(1t) result count differs from outlier count");

  // Each batch result must equal the sequential one, ordinal by ordinal.
  auto check_batch = [&](const std::vector<SaveResult>& got,
                         const std::string& what) {
    if (got.size() != n || base.size() != n) {
      checks->Record(false, what + " result count differs from outlier count");
      return;
    }
    for (std::size_t i = 0; i < n; ++i) {
      checks->Record(SameResult(got[i], base[i]),
                     what + " differs from SaveAll(1t) at ordinal " +
                         std::to_string(i));
    }
  };

  // Parallel batches on the shared pool, with their CPU time, alternating
  // with observed ones: a metrics registry, a trace sink and an explain
  // sink, as a metrics-enabled disc_cli run has them. The registry is
  // attached while an (untimed) saver is built, because the saver's
  // ColumnarView resolves its kernel counters at construction, and again
  // around each observed pass. SaveAll flushes the explain metrics itself;
  // the batch's SearchStats flush is the one SaveOutliers adds.
  disc::MetricsRegistry registry;
  disc::AttachGlobalMetrics(&registry);
  const DiscSaver observed_saver(p.inliers, *w.evaluator, w.constraint);
  disc::AttachGlobalMetrics(nullptr);
  for (int rep = 0; rep < kParallelRepsPerRound; ++rep) {
    {
      const auto sched0 = pool->stats();
      const double cpu0 = CpuSeconds();
      auto root = spans->Open("save_par", "save_par");
      auto s = spans->Open("core.search", "SaveAll");
      const std::vector<SaveResult> par =
          saver.SaveAll(outliers, w.options, pool);
      s.Close();
      r.save_par_s.push_back(root.Close());
      r.save_par_cpu_s.push_back(CpuSeconds() - cpu0);
      if (rep == 0) {
        const auto sched1 = pool->stats();
        r.sched.tasks = sched1.tasks - sched0.tasks;
        r.sched.steals = sched1.steals - sched0.steals;
        r.sched.nested_chunks = sched1.nested_chunks - sched0.nested_chunks;
      }
      check_batch(par, "SaveAll(pool)");
    }
    {
      MemoryTraceSink trace_sink;
      MemoryExplainSink explain_sink;
      std::vector<SaveResult> observed;
      disc::AttachGlobalMetrics(&registry);
      auto root = spans->Open("save_observed", "save_observed");
      {
        auto s = spans->Open("core.search", "SaveAll");
        observed = observed_saver.SaveAll(outliers, w.options, pool, {},
                                          &trace_sink, {}, &explain_sink);
      }
      {
        auto s = spans->Open("obs", "FlushTo");
        SearchStats merged;
        for (const SaveResult& res : observed) merged.MergeFrom(res.stats);
        merged.FlushTo(&registry);
      }
      r.save_observed_s.push_back(root.Close());
      disc::AttachGlobalMetrics(nullptr);
      if (rep == 0) {
        r.logs = explain_sink.Take();
        r.obs_spans = trace_sink.size();
      }
      check_batch(observed, "observed SaveAll");
    }
  }

  // Sequential Save() loop: per-outlier latency.
  std::vector<double>& latencies_ms = r.latencies_ms;
  latencies_ms.reserve(n);
  {
    auto root = spans->Open("save_loop", "save_loop");
    for (std::size_t i = 0; i < n; ++i) {
      auto s = spans->Open("core.search", "Save");
      SaveResult one = saver.Save(outliers[i], w.options);
      latencies_ms.push_back(1e3 * s.Close());
      checks->Record(SameResult(one, base[i]),
                     "Save() differs from SaveAll(1t) at ordinal " +
                         std::to_string(i));
    }
    r.save_loop_s = root.Close();
  }
  std::sort(latencies_ms.begin(), latencies_ms.end());
  r.tail_percentile = TailPercentile(latencies_ms.size());
  if (!latencies_ms.empty()) {
    r.latency_p50_ms = NearestRank(latencies_ms, 50);
    r.latency_tail_ms = r.tail_percentile > 0
                            ? NearestRank(latencies_ms, r.tail_percentile)
                            : latencies_ms.back();
  }

  for (const ExplainSearchLog& log : r.logs) {
    r.explain_events += log.events.size();
    r.explain_dropped += log.dropped_events;
    for (const ExplainEvent& e : log.events) {
      if (e.action == ExplainAction::kMemoHit) ++r.memo_hits;
      if (e.action == ExplainAction::kIncumbentUpdate && !e.seed) {
        ++r.incumbent_updates;
      }
    }
  }

  // Correctness beyond the batch parity above: pipeline records equal to
  // the batch results, feasibility, LB ≤ cost.
  const bool pipeline_ok = pipeline.status.ok() &&
                           pipeline.outlier_rows == p.split.outlier_rows &&
                           pipeline.records.size() == n;
  for (std::size_t i = 0; i < n && base.size() == n; ++i) {
    const std::string at = " at ordinal " + std::to_string(i);
    checks->Record(pipeline_ok && SameRecord(pipeline.records[i], base[i]),
                   "SaveOutliers record differs from SaveAll" + at);
    checks->Record(Sound(saver, base[i]),
                   "saved tuple infeasible or lower_bound > cost" + at);
    r.stats_1t.MergeFrom(base[i].stats);
  }
  return r;
}

// ---------------------------------------------------------------------------
// Quality guards
// ---------------------------------------------------------------------------

struct Quality {
  double saved_fraction = 0;
  double mean_adjust_cost = 0;
};

/// Saved fraction and mean adjustment cost of one parallel SaveAll on the
/// workload's instance at kQualitySeed, under the same checks as a round.
Quality MeasureQuality(const WorkloadSpec& spec, disc::WorkStealingPool* pool,
                       Checks* checks) {
  const Workload q = MakeWorkload(spec, kQualitySeed, pool->size());
  SpanLog off(false);
  const std::unique_ptr<Prepared> p = Prepare(q, &off);
  const std::vector<SaveResult> results =
      p->saver->SaveAll(p->outliers, q.options, pool);
  const std::size_t n = p->outliers.size();
  checks->Record(n > 0 && results.size() == n,
                 "quality instance: no outliers or wrong result count");
  std::size_t saved = 0;
  double cost_sum = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    checks->Record(Sound(*p->saver, results[i]),
                   "quality instance: saved tuple infeasible or "
                   "lower_bound > cost at ordinal " +
                       std::to_string(i));
    if (results[i].feasible) {
      ++saved;
      cost_sum += results[i].cost;
    }
  }
  return {Ratio(static_cast<double>(saved), static_cast<double>(n)),
          Ratio(cost_sum, static_cast<double>(saved))};
}

// ---------------------------------------------------------------------------
// Traced-run probes
// ---------------------------------------------------------------------------

/// Set-up decomposed through each component's own public constructor,
/// next to the DiscSaver constructor that bundles them.
struct Components {
  double index_build_s = 0;
  double kth_cache_build_s = 0;
  double columnar_build_s = 0;
  double saver_ctor_s = 0;
  double split_s = 0;
  std::uint64_t split_index_queries = 0;
};

Components ProbeComponents(const Workload& w, const Prepared& p,
                           SpanLog* spans) {
  std::vector<double> index_s, kth_s, col_s, ctor_s, split_s;
  Components c;
  for (int rep = 0; rep < kComponentReps; ++rep) {
    auto root = spans->Open("setup_parts", "setup_parts");
    {
      auto s = spans->Open("index", "MakeNeighborIndex");
      auto index = disc::MakeNeighborIndex(w.data(), *w.evaluator,
                                           w.constraint.epsilon);
      s.Close();
      SearchStats stats;
      disc::StatsNeighborIndex counted(*index, &stats);
      auto t = spans->Open("constraints", "SplitInliersOutliers");
      disc::SplitInliersOutliers(w.data(), counted, w.constraint);
      split_s.push_back(t.Close());
      c.split_index_queries = stats.index_queries;
    }
    {
      auto s = spans->Open("index", "MakeNeighborIndex");
      auto index = disc::MakeNeighborIndex(p.inliers, *w.evaluator,
                                           w.constraint.epsilon);
      index_s.push_back(s.Close());
      auto t = spans->Open("index", "KthNeighborCache");
      disc::KthNeighborCache cache(p.inliers, *index, w.constraint.eta);
      kth_s.push_back(t.Close());
    }
    {
      auto s = spans->Open("distance", "ColumnarView::Build");
      auto view = disc::ColumnarView::Build(p.inliers, *w.evaluator);
      col_s.push_back(s.Close());
    }
    {
      auto s = spans->Open("core.search", "DiscSaver");
      DiscSaver saver(p.inliers, *w.evaluator, w.constraint);
      ctor_s.push_back(s.Close());
    }
  }
  c.index_build_s = Median(index_s);
  c.kth_cache_build_s = Median(kth_s);
  c.columnar_build_s = Median(col_s);
  c.saver_ctor_s = Median(ctor_s);
  c.split_s = Median(split_s);
  return c;
}

struct LayerProbes {
  double knn_us_per_query = 0;
  double pair_ns = 0;
  double row_fill_ns = 0;  ///< per inlier row of the dcache's full fill
};

LayerProbes ProbeLayers(const Workload& w, const Prepared& p,
                        const disc::ColumnarView* view, SpanLog* spans) {
  LayerProbes out;
  auto root = spans->Open("probes", "probes");
  const std::size_t n_out = p.outliers.size();
  const std::size_t n_in = p.inliers.size();
  if (n_out == 0 || n_in == 0) return out;

  // The η-NN estimate query SaveAll makes per outlier (η−1 neighbors).
  auto index =
      disc::MakeNeighborIndex(p.inliers, *w.evaluator, w.constraint.epsilon);
  const std::size_t k = w.constraint.eta > 1 ? w.constraint.eta - 1 : 1;
  double knn_s = 0;
  for (const Tuple& o : p.outliers) {
    auto s = spans->Open("index", "KNearest");
    index->KNearest(o, k);
    knn_s += s.Close();
  }
  out.knn_us_per_query = 1e6 * knn_s / static_cast<double>(n_out);

  // DistanceEvaluator::Distance over a fixed outlier × inlier pair sample.
  {
    auto s = spans->Open("distance", "Distance");
    for (std::size_t i = 0; i < kPairSample; ++i) {
      w.evaluator->Distance(p.outliers[i % n_out],
                            p.inliers[(i * 7919) % n_in]);
    }
    out.pair_ns = 1e9 * s.Close() / static_cast<double>(kPairSample);
  }

  // The full-distance row fill behind the per-search cache, one inlier row
  // per outlier: FlatKernel::FillDistances when the relation has a
  // ColumnarView, DistanceEvaluator::Distance per row (the scalar-backed
  // cache's fill) otherwise.
  std::vector<double> row(n_in);
  auto s = spans->Open("distance", view != nullptr ? "FillDistances"
                                                   : "Distance");
  for (const Tuple& o : p.outliers) {
    if (view != nullptr) {
      disc::FlatKernel(*view, o).FillDistances(row.data(), 0, n_in);
    } else {
      for (std::size_t i = 0; i < n_in; ++i) {
        row[i] = w.evaluator->Distance(o, p.inliers[i]);
      }
    }
  }
  out.row_fill_ns = 1e9 * s.Close() / static_cast<double>(n_out * n_in);
  return out;
}

/// Replays each search's visited X from its explain log through
/// saver.bounds() with a per-outlier SearchDistanceCache, timing every
/// bound call and counting the Prop-3 band of every replayed X. Each
/// outlier's replay runs right after a timed Save() of the same outlier, so
/// the bound busy time and the save time it is a share of are measured
/// under the same machine conditions.
struct Replay {
  double save_s = 0;  ///< Σ sequential Save() wall time, same outliers
  std::uint64_t lb_calls = 0;
  std::uint64_t ub_calls = 0;
  std::uint64_t feasibility_calls = 0;  ///< explicit + inside UpperBoundForX
  double lb_busy_s = 0;
  double ub_busy_s = 0;
  double feasibility_busy_s = 0;  ///< explicit (revert-refine) calls only
  double dcache_build_s = 0;
  std::uint64_t rows_scanned = 0;  ///< lb_calls × inliers
  std::uint64_t band_rows = 0;
  bool counts_match = true;
  bool values_match = true;
  std::string first_mismatch;

  void Mismatch(bool* flag, const std::string& what) {
    if (*flag && counts_match && values_match) first_mismatch = what;
    *flag = false;
  }
};

Replay RunReplay(const Workload& w, const Prepared& p,
                 const disc::ColumnarView* view,
                 const std::vector<SaveResult>& results,
                 const std::vector<ExplainSearchLog>& logs, SpanLog* spans) {
  Replay t;
  const disc::BoundsEngine& bounds = p.saver->bounds();
  const disc::DistanceEvaluator& ev = *w.evaluator;
  const std::size_t arity = ev.arity();
  const std::size_t n_in = p.inliers.size();
  const double eps = w.constraint.epsilon;
  const bool restricted =
      w.options.kappa != 0 && w.options.kappa < arity;
  if (logs.size() != p.outliers.size()) {
    t.Mismatch(&t.counts_match, "explain log count differs from outliers");
    return t;
  }

  for (const ExplainSearchLog& log : logs) {
    const std::size_t i = log.ordinal;
    const std::string at = " at ordinal " + std::to_string(i);
    if (i >= p.outliers.size() || log.attempt != 1) {
      t.Mismatch(&t.counts_match, "unexpected explain log identity" + at);
      continue;
    }
    const Tuple& o = p.outliers[i];
    const SearchStats& want = results[i].stats;
    auto root = spans->Open("replay", "replay");
    {
      auto s = spans->Open("core.search", "Save");
      p.saver->Save(o, w.options);
      t.save_s += s.Close();
    }
    disc::SearchBudget unlimited;
    disc::BudgetGauge gauge(&unlimited);
    std::uint64_t lb = 0, ub = 0, feas = 0, reverts = 0;
    std::vector<AttributeSet> band_sets;

    auto dscope = spans->Open("core.dcache", "SearchDistanceCache");
    disc::SearchDistanceCache dcache(p.inliers, ev, o, view, &gauge.stats());
    t.dcache_build_s += dscope.Close();

    auto upper = [&](AttributeSet x) {
      const std::uint64_t f0 = gauge.stats().feasibility_checks;
      auto s = spans->Open("core.bounds", "UpperBoundForX");
      auto bound = bounds.UpperBoundForX(o, x, &gauge, &dcache);
      t.ub_busy_s += s.Close();
      ++ub;
      feas += gauge.stats().feasibility_checks - f0;
      return bound;
    };
    auto same_ub = [](const std::optional<disc::BoundsEngine::UpperBound>& u,
                      const ExplainEvent& e) {
      return u.has_value() ? SameBits(u->cost, e.ub) &&
                                 u->donor_row == e.donor_row
                           : std::isnan(e.ub);
    };
    // RevertRefine, re-driven through the public IsFeasible.
    auto refine = [&](Tuple adjusted) {
      bool changed = true;
      while (changed) {
        changed = false;
        std::vector<std::pair<double, std::size_t>> order;
        for (std::size_t a = 0; a < arity; ++a) {
          if (adjusted[a] == o[a]) continue;
          order.emplace_back(ev.AttributeDistance(a, o[a], adjusted[a]), a);
        }
        std::sort(order.begin(), order.end());
        for (const auto& [contribution, a] : order) {
          Tuple trial = adjusted;
          trial[a] = o[a];
          auto s = spans->Open("core.bounds", "IsFeasible");
          const bool ok = bounds.IsFeasible(trial, &gauge);
          t.feasibility_busy_s += s.Close();
          ++feas;
          if (ok) {
            adjusted = std::move(trial);
            ++reverts;
            changed = true;
            break;
          }
        }
      }
    };

    const auto seed = upper(AttributeSet());
    bool found = !restricted && seed.has_value();
    Tuple best = found ? seed->adjusted : Tuple();
    std::uint64_t logged_reverts = 0;
    for (const ExplainEvent& e : log.events) {
      if (e.action == ExplainAction::kMemoHit) continue;
      if (e.action == ExplainAction::kRevertRefine) {
        ++logged_reverts;
        continue;
      }
      if (e.seed) {
        if (!same_ub(seed, e)) t.Mismatch(&t.values_match, "seed ub" + at);
        continue;
      }
      if (e.action == ExplainAction::kPruneBudget) {
        t.Mismatch(&t.counts_match, "budget stop in an unlimited search" + at);
        continue;
      }
      const AttributeSet x(e.x_bits);
      auto s = spans->Open("core.bounds", "LowerBoundForX");
      const double lbv = bounds.LowerBoundForX(o, x, &gauge, &dcache);
      t.lb_busy_s += s.Close();
      ++lb;
      if (!SameBits(lbv, e.lb)) t.Mismatch(&t.values_match, "lb" + at);
      band_sets.push_back(x);
      if (e.action == ExplainAction::kPruneLb ||
          e.action == ExplainAction::kInfeasible) {
        continue;
      }
      const auto u = upper(x);
      if (!same_ub(u, e)) t.Mismatch(&t.values_match, "ub" + at);
      if (e.action == ExplainAction::kIncumbentUpdate && u.has_value()) {
        best = u->adjusted;
        found = true;
      }
    }
    if (found) refine(best);
    if (restricted && seed.has_value()) refine(seed->adjusted);
    root.Close();

    // Prop-3 band of every replayed X: inliers within ε of the outlier on
    // X. Benchmark work, so it runs outside the replay interval.
    auto band = spans->Open("band_count", "band_count");
    for (const AttributeSet& x : band_sets) {
      for (std::size_t row = 0; row < n_in; ++row) {
        if (dcache.DistanceOnWithin(x, row, eps) <= eps) ++t.band_rows;
      }
      t.rows_scanned += n_in;
    }
    band.Close();

    t.lb_calls += lb;
    t.ub_calls += ub;
    t.feasibility_calls += feas;
    if (lb != want.prop3_bounds || ub != want.prop5_bounds ||
        feas != want.feasibility_checks) {
      t.Mismatch(&t.counts_match,
                 "bound call counts differ from SearchStats" + at);
    }
    if (reverts != want.revert_refines || reverts != logged_reverts) {
      t.Mismatch(&t.counts_match, "revert count differs" + at);
    }
  }
  return t;
}

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  ///< non-empty marks the value invalid (printed null)
};

void NumberOrNull(disc::JsonWriter& json, double v) {
  if (!std::isfinite(v)) {
    json.Raw("null");
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  json.Raw(buf);
}

void AppendMetrics(disc::JsonWriter& json, const std::vector<Metric>& metrics) {
  json.BeginObject();
  for (const Metric& m : metrics) {
    json.Key(m.name).BeginObject().Key("value");
    if (m.note.empty()) {
      NumberOrNull(json, m.value);
    } else {
      json.Raw("null");
    }
    json.Key("unit").String(m.unit);
    if (!m.note.empty()) json.Key("invalid").String(m.note);
    json.EndObject();
  }
  json.EndObject();
}

struct Meta {
  std::size_t nproc = 0;
  std::string simd_tier;
  std::string build_type;
  long l2_bytes = 0;
  long l3_bytes = 0;
  std::size_t tuples = 0;
  std::size_t attributes = 0;
  std::size_t inliers = 0;
  std::size_t outliers = 0;
  std::string index;
  double tail_percentile = 0;
  std::size_t latency_samples = 0;
  int rounds = 0;
};

void AppendMeta(disc::JsonWriter& json, const Workload& w, const Meta& m) {
  json.BeginObject()
      .Key("workload").String(w.name)
      .Key("dataset").String(w.ds.name)
      .Key("scale");
  NumberOrNull(json, w.scale);
  json.Key("seed").Uint(w.seed)
      .Key("nproc").Uint(m.nproc)
      .Key("simd_tier").String(m.simd_tier)
      .Key("build_type").String(m.build_type)
      .Key("l2_bytes").Int(m.l2_bytes)
      .Key("l3_bytes").Int(m.l3_bytes)
      .Key("epsilon");
  NumberOrNull(json, w.constraint.epsilon);
  json.Key("eta").Uint(w.constraint.eta)
      .Key("kappa").Uint(w.options.kappa)
      .Key("tuples").Uint(m.tuples)
      .Key("attributes").Uint(m.attributes)
      .Key("inliers").Uint(m.inliers)
      .Key("outliers").Uint(m.outliers)
      .Key("working_set_bytes").Uint(m.inliers * m.attributes * 8)
      .Key("index").String(m.index)
      .Key("latency_tail_percentile");
  NumberOrNull(json, m.tail_percentile);
  json.Key("latency_samples_per_round").Uint(m.latency_samples)
      .Key("rounds").Int(m.rounds)
      .EndObject();
}

/// The per-run artifact: metadata, checks, metrics and the raw per-round
/// values the metrics were computed from.
void WriteArtifact(const std::string& path, const Workload& w,
                   const Meta& meta, const Checks& checks,
                   const std::vector<Metric>& metrics,
                   const std::vector<Round>& rounds) {
  disc::JsonWriter art;
  art.BeginObject().Key("meta");
  AppendMeta(art, w, meta);
  art.Key("correct").Bool(checks.failed == 0)
      .Key("attempted").Uint(checks.attempted)
      .Key("failed").Uint(checks.failed)
      .Key("error_rate");
  NumberOrNull(art, checks.error_rate());
  art.Key("metrics");
  AppendMetrics(art, metrics);
  art.Key("rounds").BeginArray();
  for (const Round& r : rounds) {
    art.BeginObject().Key("traced").Bool(r.traced);
    for (const auto& [key, reps] :
         {std::pair{"setup_s", &r.setup_s},
          std::pair{"save_par_s", &r.save_par_s},
          std::pair{"save_par_cpu_s", &r.save_par_cpu_s},
          std::pair{"save_observed_s", &r.save_observed_s}}) {
      art.Key(key).BeginArray();
      for (double v : *reps) NumberOrNull(art, v);
      art.EndArray();
    }
    for (const auto& [key, v] :
         {std::pair{"pipeline_s", r.pipeline_s},
          std::pair{"save_1t_s", r.save_1t_s},
          std::pair{"save_loop_s", r.save_loop_s},
          std::pair{"latency_p50_ms", r.latency_p50_ms},
          std::pair{"latency_tail_ms", r.latency_tail_ms}}) {
      art.Key(key);
      NumberOrNull(art, v);
    }
    art.EndObject();
  }
  art.EndArray().EndObject();
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fputs(art.str().c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
  }
}

// ---------------------------------------------------------------------------
// Metric assembly
// ---------------------------------------------------------------------------

template <typename F>
double MedianOver(const std::vector<Round>& rounds, F f) {
  std::vector<double> v;
  for (const Round& r : rounds) v.push_back(f(r));
  return Median(v);
}

// Per-round times are averaged, not medianed: the host's single-thread
// speed flips between two modes for seconds at a time, and the median of a
// two-mode sample jumps between them while the mean moves with the mix.
template <typename F>
double MeanOver(const std::vector<Round>& rounds, F f) {
  double sum = 0;
  for (const Round& r : rounds) sum += f(r);
  return sum / static_cast<double>(rounds.size());
}

/// Mean over every repetition of every round, e.g. &Round::save_par_s.
double MeanOfReps(const std::vector<Round>& rounds,
                  std::vector<double> Round::*reps) {
  double sum = 0;
  std::size_t count = 0;
  for (const Round& r : rounds) {
    for (double v : r.*reps) sum += v;
    count += (r.*reps).size();
  }
  return sum / static_cast<double>(count);
}

std::vector<Metric> EndToEndMetrics(const std::vector<Round>& rounds,
                                    const Quality& quality) {
  std::vector<double> latencies;
  for (const Round& r : rounds) {
    latencies.insert(latencies.end(), r.latencies_ms.begin(),
                     r.latencies_ms.end());
  }
  std::sort(latencies.begin(), latencies.end());
  const double outliers = static_cast<double>(rounds.back().outliers);
  return {
      {"setup_s", MeanOfReps(rounds, &Round::setup_s), "s", ""},
      {"pipeline_s", MeanOver(rounds, [](const Round& r) {
         return r.pipeline_s;
       }), "s", ""},
      {"save_throughput_1t_per_s",
       outliers / MeanOver(rounds, [](const Round& r) { return r.save_1t_s; }),
       "1/s", ""},
      {"save_throughput_par_per_s",
       outliers / MeanOfReps(rounds, &Round::save_par_s), "1/s", ""},
      {"save_cpu_ms_per_outlier_par",
       1e3 * MeanOfReps(rounds, &Round::save_par_cpu_s) / outliers,
       "ms", ""},
      {"save_latency_p50_ms",
       latencies.empty() ? 0.0 : NearestRank(latencies, 50), "ms", ""},
      {"save_latency_tail_ms", MedianOver(rounds, [](const Round& r) {
         return r.latency_tail_ms;
       }), "ms", ""},
      {"save_observed_throughput_per_s",
       outliers / MeanOfReps(rounds, &Round::save_observed_s), "1/s", ""},
      {"peak_rss_mb", PeakRssMb(), "MB", ""},
      {"saved_fraction", quality.saved_fraction, "ratio", ""},
      {"mean_adjust_cost", quality.mean_adjust_cost, "cost", ""},
  };
}

std::vector<Metric> PerLayerMetrics(const Workload& w,
                                    const std::vector<Round>& rounds,
                                    const Round& traced, const Components& c,
                                    const LayerProbes& probes,
                                    const Replay& rp, const SpanLog& spans) {
  const SearchStats& s = traced.stats_1t;
  const double outliers = static_cast<double>(traced.outliers);
  const auto u = [](std::uint64_t v) { return static_cast<double>(v); };
  const double par_wall = MeanOfReps(rounds, &Round::save_par_s);
  const double par_cpu = MeanOfReps(rounds, &Round::save_par_cpu_s);
  const double tput_1t =
      outliers / MeanOver(rounds, [](const Round& r) { return r.save_1t_s; });
  const double tput_par = outliers / par_wall;
  const double tput_obs =
      outliers / MeanOfReps(rounds, &Round::save_observed_s);
  const double threads = static_cast<double>(w.threads);
  const double bounds_busy =
      rp.lb_busy_s + rp.ub_busy_s + rp.feasibility_busy_s;

  std::string invalid;
  if (!rp.counts_match || !rp.values_match) {
    invalid = "replay mismatch: " + rp.first_mismatch;
  }
  std::vector<double> untraced;
  for (const Round& r : rounds) {
    if (!r.traced) untraced.push_back(r.e2e_total_s());
  }

  std::vector<Metric> m = {
      // index
      {"index.build_s", c.index_build_s, "s", ""},
      {"index.kth_cache_build_s", c.kth_cache_build_s, "s", ""},
      {"index.knn_us_per_query", probes.knn_us_per_query, "us", ""},
      {"index.range_queries", u(s.index_range_queries), "count", ""},
      {"index.count_queries", u(s.index_count_queries), "count", ""},
      {"index.knn_queries", u(s.index_knn_queries), "count", ""},
      // constraints
      {"constraints.split_s", c.split_s, "s", ""},
      {"constraints.split_index_queries", u(c.split_index_queries), "count",
       ""},
      // distance
      {"distance.pair_ns", probes.pair_ns, "ns", ""},
      {"distance.columnar_row_ns", probes.row_fill_ns, "ns", ""},
      {"distance.columnar_build_s", c.columnar_build_s, "s", ""},
      // core.dcache
      {"dcache.build_us_per_outlier", 1e6 * rp.dcache_build_s / outliers,
       "us", ""},
      {"dcache.hits", u(s.dcache_hits), "count", ""},
      {"dcache.misses", u(s.dcache_misses), "count", ""},
      {"dcache.hit_ratio",
       Ratio(u(s.dcache_hits), u(s.dcache_hits + s.dcache_misses)), "ratio",
       ""},
      // core.bounds (replayed)
      {"bounds.lb_calls", u(rp.lb_calls), "count", invalid},
      {"bounds.lb_busy_s", rp.lb_busy_s, "s", invalid},
      {"bounds.ub_calls", u(rp.ub_calls), "count", invalid},
      {"bounds.ub_busy_s", rp.ub_busy_s, "s", invalid},
      {"bounds.feasibility_calls", u(rp.feasibility_calls), "count", invalid},
      {"bounds.feasibility_busy_s", rp.feasibility_busy_s, "s", invalid},
      {"bounds.share_of_save", Ratio(bounds_busy, rp.save_s), "ratio",
       invalid},
      {"bounds.rows_scanned", u(rp.rows_scanned), "count", invalid},
      {"bounds.band_rows", u(rp.band_rows), "count", invalid},
      {"bounds.band_ratio", Ratio(u(rp.band_rows), u(rp.rows_scanned)),
       "ratio", invalid},
      {"bounds.prune_ratio", Ratio(u(s.lb_prunes), u(rp.lb_calls)), "ratio",
       invalid},
      {"bounds.ub_adopt_ratio",
       Ratio(u(traced.incumbent_updates), u(rp.ub_calls)), "ratio", invalid},
      // core.search
      {"search.nodes_expanded", u(s.nodes_expanded), "count", ""},
      {"search.visited_sets", u(s.visited_sets), "count", ""},
      {"search.lb_prunes", u(s.lb_prunes), "count", ""},
      {"search.memo_hits", u(traced.memo_hits), "count", ""},
      {"search.revert_refines", u(s.revert_refines), "count", ""},
      {"search.self_s", rp.save_s - bounds_busy - rp.dcache_build_s, "s",
       invalid},
      // common.pool
      {"pool.tasks", u(traced.sched.tasks), "count", ""},
      {"pool.steals", u(traced.sched.steals), "count", ""},
      {"pool.nested_chunks", u(traced.sched.nested_chunks), "count", ""},
      {"pool.idle_s", threads * par_wall - par_cpu, "s", ""},
      {"pool.efficiency", Ratio(tput_par, threads * tput_1t), "ratio", ""},
      // obs
      {"obs.spans", u(traced.obs_spans), "count", ""},
      {"obs.explain_events", u(traced.explain_events), "count", ""},
      {"obs.dropped_events", u(traced.explain_dropped), "count", ""},
      {"obs.overhead_ratio", 1.0 - Ratio(tput_obs, tput_par), "ratio", ""},
      // set-up accounting
      {"setup.components_s",
       c.index_build_s + c.kth_cache_build_s + c.columnar_build_s, "s", ""},
      {"setup.saver_ctor_s", c.saver_ctor_s, "s", ""},
      {"setup.gap_s",
       c.saver_ctor_s -
           (c.index_build_s + c.kth_cache_build_s + c.columnar_build_s),
       "s", ""},
      // benchmark-side tracing
      {"trace.overhead_ratio",
       untraced.empty() ? 0.0
                        : traced.e2e_total_s() / Median(untraced) - 1.0,
       "ratio", ""},
  };
  const std::map<std::string, double> self = spans.SelfSecondsByLayer();
  for (const char* layer :
       {"index", "constraints", "common.relation", "distance", "core.dcache",
        "core.bounds", "core.search", "core.pipeline", "obs"}) {
    auto it = self.find(layer);
    m.push_back({std::string("self_s.") + layer,
                 it == self.end() ? 0.0 : it->second, "s", ""});
  }
  const std::map<std::string, double> cover = spans.CoverageByRoot();
  for (const char* root :
       {"setup", "pipeline", "save_1t", "save_par", "save_loop",
        "save_observed", "setup_parts", "probes", "replay"}) {
    auto it = cover.find(root);
    m.push_back({std::string("cover.") + root,
                 it == cover.end() ? 0.0 : it->second, "ratio", ""});
  }
  return m;
}

// ---------------------------------------------------------------------------
// main
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30;
  bool trace = false;
  std::string out_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "--out") {
      args->out_dir = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty();
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: disc_perfbench --workload letter|flight|restaurant "
                 "--seed N --seconds S --trace 0|1 [--out DIR]\n");
    return 2;
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& s : kWorkloads) {
    if (args.workload == s.name) spec = &s;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  disc::SetMinLogLevel(disc::LogLevel::kWarn);

  const Workload w = MakeWorkload(*spec, args.seed, UsableCpus());
  disc::WorkStealingPool pool(w.threads);

  const double start = NowS();
  const double deadline = start + args.seconds;
  Checks checks;
  SpanLog spans(false);
  std::vector<Round> rounds;
  Components components;
  LayerProbes probes;
  Replay replay;
  std::size_t traced_index = 0;
  double longest_round = 0;

  // Only the traced round keeps its set-up, results and logs (the replay
  // needs them); the others drop theirs so memory stays flat.
  auto run_round = [&](bool traced) {
    spans.set_enabled(traced);
    const double t0 = NowS();
    rounds.push_back(RunRound(w, &pool, &spans, &checks));
    longest_round = std::max(longest_round, NowS() - t0);
    spans.set_enabled(false);
    if (!traced) {
      rounds.back().prepared.reset();
      rounds.back().results_1t.clear();
      rounds.back().logs.clear();
    }
  };

  Quality quality;
  if (!args.trace) {
    quality = MeasureQuality(*spec, &pool, &checks);
    do {
      run_round(false);
    } while (static_cast<int>(rounds.size()) < kMinRounds ||
             NowS() + longest_round <= deadline);
  } else {
    // Warm-up round untraced, then the traced round and the layer probes,
    // then untraced rounds while time remains (they anchor the tracing
    // overhead and the medians of the timing-derived layer metrics).
    run_round(false);
    run_round(true);
    traced_index = rounds.size() - 1;
    Round& traced = rounds[traced_index];
    spans.set_enabled(true);
    const Prepared& p = *traced.prepared;
    auto view = disc::ColumnarView::Build(p.inliers, *w.evaluator);
    components = ProbeComponents(w, p, &spans);
    probes = ProbeLayers(w, p, view.get(), &spans);
    replay = RunReplay(w, p, view.get(), traced.results_1t, traced.logs,
                       &spans);
    spans.set_enabled(false);
    while (NowS() + longest_round <= deadline) run_round(false);
  }

  const Round& ref = rounds[traced_index];
  Meta meta;
  meta.nproc = w.threads;
  meta.simd_tier = disc::SimdTierName(disc::ActiveSimdTier());
  meta.build_type = DISC_BUILD_TYPE;
  meta.l2_bytes = CacheBytes(_SC_LEVEL2_CACHE_SIZE);
  meta.l3_bytes = CacheBytes(_SC_LEVEL3_CACHE_SIZE);
  meta.tuples = w.data().size();
  meta.attributes = w.data().arity();
  meta.inliers = ref.inliers;
  meta.outliers = ref.outliers;
  meta.index = ref.index_name;
  meta.tail_percentile = ref.tail_percentile;
  meta.latency_samples = ref.latencies_ms.size();
  meta.rounds = static_cast<int>(rounds.size());

  const std::vector<Metric> metrics =
      args.trace ? PerLayerMetrics(w, rounds, ref, components, probes, replay,
                                   spans)
                 : EndToEndMetrics(rounds, quality);

  // Human-readable report first; the contract line comes last.
  std::printf("# workload=%s seed=%llu trace=%d rounds=%d nproc=%zu simd=%s\n",
              w.name.c_str(), static_cast<unsigned long long>(w.seed),
              args.trace ? 1 : 0, meta.rounds, meta.nproc,
              meta.simd_tier.c_str());
  for (const Metric& m : metrics) {
    if (m.note.empty()) {
      std::printf("%-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    } else {
      std::printf("%-34s invalid (%s)\n", m.name.c_str(), m.note.c_str());
    }
  }
  std::printf("%-34s %.6g ratio (%llu of %llu checked results)\n",
              "error_rate", checks.error_rate(),
              static_cast<unsigned long long>(checks.failed),
              static_cast<unsigned long long>(checks.attempted));
  std::printf("%-34s p%.1f over %zu samples per round\n", "latency_tail",
              meta.tail_percentile, meta.latency_samples);
  for (const std::string& f : checks.first_failures) {
    std::printf("CHECK FAILED: %s\n", f.c_str());
  }
  if (args.trace) {
    std::printf("%-34s %s\n", "replay",
                replay.counts_match && replay.values_match
                    ? "counts and bound values match SearchStats and explain"
                    : ("MISMATCH: " + replay.first_mismatch).c_str());
  }

  disc::JsonWriter meta_json;
  AppendMeta(meta_json, w, meta);
  std::printf("# meta %s\n", meta_json.str().c_str());

  if (!args.out_dir.empty()) {
    const std::string stem = args.out_dir + "/" + w.name + "-seed" +
                             std::to_string(w.seed) + "-trace" +
                             (args.trace ? "1" : "0");
    WriteArtifact(stem + ".json", w, meta, checks, metrics, rounds);
    if (args.trace) spans.WriteJsonl(stem + "-spans.jsonl");
  }

  disc::JsonWriter result;
  result.BeginObject()
      .Key("correct").Bool(checks.failed == 0)
      .Key("attempted").Uint(checks.attempted)
      .Key("failed").Uint(checks.failed)
      .Key("metrics");
  AppendMetrics(result, metrics);
  result.EndObject();
  std::printf("%s\n", result.str().c_str());
  std::fflush(stdout);
  return checks.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
