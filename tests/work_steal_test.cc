// WorkStealingPool scheduler semantics plus the determinism contract of the
// cost-ordered parallel saving path built on it: every index runs exactly
// once, priority order is respected, steals happen under contention,
// exceptions propagate without wedging the pool, and DiscSaver::SaveAll
// stays bit-identical (including SearchStats::SameWork) across thread
// counts, under cancellation fired mid-batch, on a large relation, and
// under a `bounds.scan` fault that every scan meets whatever the thread
// count. Runs under TSan in the tsan-core CI shard.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "common/cancellation.h"
#include "common/fault.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/disc_saver.h"
#include "core/outlier_saving.h"
#include "data/generators.h"
#include "index/index_factory.h"

namespace disc {
namespace {

std::vector<std::size_t> Iota(std::size_t n) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  return order;
}

TEST(WorkStealingPool, RunBatchExecutesEveryIndexExactlyOnce) {
  WorkStealingPool pool(4);
  const std::size_t n = 100;
  std::vector<std::size_t> order = Iota(n);
  // A scrambled priority order must not change coverage.
  std::reverse(order.begin() + 10, order.end() - 10);

  std::vector<std::atomic<int>> runs(n);
  const WorkStealingPool::SchedStats before = pool.stats();
  pool.RunBatch(order, [&](std::size_t i) {
    runs[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(runs[i].load(), 1) << "index " << i;
  }
  const WorkStealingPool::SchedStats after = pool.stats();
  EXPECT_EQ(after.tasks - before.tasks, n);
  EXPECT_EQ(pool.queue_depth(), 0u);
}

TEST(WorkStealingPool, SingleWorkerRunsPriorityOrderFrontToBack) {
  // With one worker there is exactly one deque and no thief: execution
  // order must equal the caller's priority order (hardest first), which is
  // the property the cost-ordered SaveAll scheduling relies on.
  WorkStealingPool pool(1);
  const std::vector<std::size_t> order = {5, 2, 7, 0, 6, 1, 4, 3};
  std::vector<std::size_t> sequence;
  std::mutex mu;
  pool.RunBatch(order, [&](std::size_t i) {
    std::lock_guard<std::mutex> lock(mu);
    sequence.push_back(i);
  });
  EXPECT_EQ(sequence, order);
}

TEST(WorkStealingPool, StealsOccurWhenOneWorkerIsBusy) {
  // Priority slot 0 lands on worker 0's deque and sleeps; the rest of
  // worker 0's queue can only drain through steals by worker 1. This is
  // the steal-under-contention stress the scheduler exists for.
  WorkStealingPool pool(2);
  const std::size_t n = 40;
  std::atomic<int> ran{0};
  const WorkStealingPool::SchedStats before = pool.stats();
  pool.RunBatch(Iota(n), [&](std::size_t i) {
    if (i == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(ran.load(), static_cast<int>(n));
  const WorkStealingPool::SchedStats after = pool.stats();
  EXPECT_GE(after.steals - before.steals, 1u)
      << "idle worker never stole from the busy worker's deque";
}

TEST(WorkStealingPool, BatchExceptionPropagatesAndPoolStaysUsable) {
  WorkStealingPool pool(2);
  const std::size_t n = 16;
  std::atomic<int> ran{0};
  EXPECT_THROW(
      pool.RunBatch(Iota(n),
                    [&](std::size_t i) {
                      ran.fetch_add(1, std::memory_order_relaxed);
                      if (i == 3) throw std::runtime_error("task 3 failed");
                    }),
      std::runtime_error);
  // The batch drains: every task still ran exactly once.
  EXPECT_EQ(ran.load(), static_cast<int>(n));

  // The pool survives the failed batch.
  std::atomic<int> again{0};
  pool.RunBatch(Iota(n), [&](std::size_t) {
    again.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(again.load(), static_cast<int>(n));
}

// ---------------------------------------------------------------------------
// Cost-ordered SaveAll on top of the pool.

/// Clusters with a strided slice of corrupted rows whose displacement
/// varies widely, so the batch has genuinely skewed search costs.
Relation MakeSkewedDataset(std::uint64_t seed, std::size_t per_cluster,
                           std::size_t corrupt_stride) {
  std::vector<ClusterSpec> specs = {
      {{0, 0, 0, 0}, 0.5, per_cluster},
      {{12, 12, 0, 0}, 0.5, per_cluster},
      {{0, 12, 12, 0}, 0.5, per_cluster},
      {{12, 0, 0, 12}, 0.5, per_cluster},
  };
  LabeledRelation mixture = GenerateGaussianMixture(specs, seed);
  Rng rng(seed + 1);
  for (std::size_t row = corrupt_stride / 2; row < mixture.data.size();
       row += corrupt_stride) {
    const std::size_t a = static_cast<std::size_t>(rng.UniformInt(0, 3));
    const double magnitude = 18.0 + rng.Uniform() * 60.0;
    const double sign = rng.Bernoulli(0.5) ? 1.0 : -1.0;
    mixture.data[row][a] = Value(mixture.data[row][a].num() + sign * magnitude);
    if (row % (3 * corrupt_stride) < corrupt_stride) {
      mixture.data[row][(a + 2) % 4] = Value(-20.0 - rng.Uniform() * 10.0);
    }
  }
  return std::move(mixture.data);
}

struct SaverFixture {
  Relation inliers;
  std::vector<Tuple> outliers;
  std::unique_ptr<DiscSaver> saver;
};

SaverFixture MakeSaver(Relation data, const DistanceEvaluator& evaluator,
                       DistanceConstraint constraint) {
  SaverFixture f;
  std::unique_ptr<NeighborIndex> index =
      MakeNeighborIndex(data, evaluator, constraint.epsilon);
  InlierOutlierSplit split = SplitInliersOutliers(data, *index, constraint);
  f.inliers = data.Select(split.inlier_rows);
  for (std::size_t row : split.outlier_rows) f.outliers.push_back(data[row]);
  f.saver = std::make_unique<DiscSaver>(f.inliers, evaluator, constraint);
  return f;
}

void ExpectBitIdentical(const std::vector<SaveResult>& a,
                        const std::vector<SaveResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].feasible, b[i].feasible) << "outlier " << i;
    EXPECT_EQ(a[i].adjusted, b[i].adjusted) << "outlier " << i;
    EXPECT_EQ(a[i].cost, b[i].cost) << "outlier " << i;
    EXPECT_EQ(a[i].termination, b[i].termination) << "outlier " << i;
    EXPECT_EQ(a[i].lower_bound, b[i].lower_bound) << "outlier " << i;
    EXPECT_EQ(a[i].adjusted_attributes.bits(), b[i].adjusted_attributes.bits());
    EXPECT_EQ(a[i].kappa_exceeded, b[i].kappa_exceeded) << "outlier " << i;
    EXPECT_EQ(a[i].index_queries, b[i].index_queries) << "outlier " << i;
    EXPECT_TRUE(a[i].stats.SameWork(b[i].stats))
        << "outlier " << i << " did schedule-dependent work";
  }
}

TEST(CostOrderedSaveAll, BitIdenticalAcrossThreadCounts) {
  Relation data = MakeSkewedDataset(/*seed=*/71, /*per_cluster=*/80,
                                    /*corrupt_stride=*/9);
  DistanceEvaluator evaluator(data.schema());
  SaverFixture f = MakeSaver(std::move(data), evaluator, {1.6, 5});
  ASSERT_GT(f.outliers.size(), 10u);

  SaveOptions options;
  options.kappa = 2;
  std::vector<SaveResult> reference = f.saver->SaveAll(f.outliers, options);
  for (std::size_t threads : {1u, 4u, 8u}) {
    WorkStealingPool pool(threads);
    std::vector<SaveResult> got =
        f.saver->SaveAll(f.outliers, options, &pool);
    ExpectBitIdentical(reference, got);
  }
}

TEST(CostOrderedSaveAll, CancellationMidBatchIsSoundAndPoolReusable) {
  Relation data = MakeSkewedDataset(/*seed=*/29, /*per_cluster=*/80,
                                    /*corrupt_stride=*/9);
  DistanceEvaluator evaluator(data.schema());
  SaverFixture f = MakeSaver(std::move(data), evaluator, {1.6, 5});
  ASSERT_GT(f.outliers.size(), 10u);

  WorkStealingPool pool(4);
  SaveOptions options;
  options.kappa = 2;

  // Fire batch-wide cancellation from inside a running search, after the
  // batch has expanded a few dozen nodes across its workers — mid-batch,
  // while steals are in flight. The injected kCancel
  // fault at the 48th `search.node` hit replaces the old per-node hook:
  // hit indices are assigned atomically across workers, so the fault fires
  // exactly once, on some node of some in-flight search.
  FaultInjector injector;
  FaultSpec cancel_spec;
  cancel_spec.site = "search.node";
  cancel_spec.kind = FaultKind::kCancel;
  cancel_spec.nth = 48;
  injector.Add(cancel_spec);
  AttachGlobalFaultInjector(&injector);
  BatchBudget batch;
  batch.cancellation = injector.token();

  std::vector<SaveResult> degraded =
      f.saver->SaveAll(f.outliers, options, &pool, batch);
  AttachGlobalFaultInjector(nullptr);
  ASSERT_EQ(degraded.size(), f.outliers.size())
      << "every outlier must be recorded, cancelled or not";
  for (std::size_t i = 0; i < degraded.size(); ++i) {
    const SaveResult& r = degraded[i];
    const bool sound = r.termination == SaveTermination::kCompleted ||
                       r.termination == SaveTermination::kInfeasible ||
                       r.termination == SaveTermination::kCancelled;
    EXPECT_TRUE(sound) << "outlier " << i << " termination "
                       << static_cast<int>(r.termination);
    if (r.termination == SaveTermination::kCancelled && !r.feasible) {
      EXPECT_EQ(r.adjusted, f.outliers[i])
          << "cancelled search without incumbent must return the input";
    }
  }
  EXPECT_TRUE(injector.cancel_fired());

  // The pool must come out of a cancelled batch fully serviceable: a clean
  // rerun on the same pool matches the no-pool reference bit for bit.
  SaveOptions clean;
  clean.kappa = 2;
  std::vector<SaveResult> reference = f.saver->SaveAll(f.outliers, clean);
  std::vector<SaveResult> rerun =
      f.saver->SaveAll(f.outliers, clean, &pool);
  ExpectBitIdentical(reference, rerun);
}

/// 4 clusters x 5000 tuples, so every bound scans more than 16,384
/// inliers. Built once: the index and the δ_η cache over 20k rows dominate
/// the tests that share it.
const SaverFixture& LargeSaver() {
  static const Relation data = MakeSkewedDataset(
      /*seed=*/83, /*per_cluster=*/5000, /*corrupt_stride=*/2500);
  static const DistanceEvaluator evaluator(data.schema());
  static const SaverFixture fixture = MakeSaver(data, evaluator, {1.6, 5});
  return fixture;
}

TEST(CostOrderedSaveAll, BitIdenticalOnLargeRelation) {
  // The pool-backed runs must match the sequential run bit for bit.
  const SaverFixture& f = LargeSaver();
  ASSERT_GE(f.inliers.size(), 2u * 8192u);
  ASSERT_GT(f.outliers.size(), 2u);

  SaveOptions options;
  options.kappa = 2;
  std::vector<SaveResult> reference = f.saver->SaveAll(f.outliers, options);
  for (std::size_t threads : {1u, 4u, 8u}) {
    WorkStealingPool pool(threads);
    std::vector<SaveResult> got =
        f.saver->SaveAll(f.outliers, options, &pool);
    ExpectBitIdentical(reference, got);
  }
}

TEST(CostOrderedSaveAll, ScanFaultHitsEverySearchAtAnyThreadCount) {
  // Every bound scan polls the `bounds.scan` fault site on its search's own
  // worker, so a fault armed on every poll aborts every search, with or
  // without a pool.
  const SaverFixture& f = LargeSaver();
  ASSERT_GE(f.inliers.size(), 2u * 8192u);
  ASSERT_GT(f.outliers.size(), 2u);

  auto run = [&](WorkStealingPool* pool) {
    FaultInjector injector;
    EXPECT_TRUE(injector.AddFromString("bounds.scan:error:nth=0,every=1").ok());
    AttachGlobalFaultInjector(&injector);
    std::vector<SaveResult> results = f.saver->SaveAll(f.outliers, {}, pool);
    AttachGlobalFaultInjector(nullptr);
    EXPECT_EQ(injector.fires("bounds.scan"), f.outliers.size());
    return results;
  };
  const std::vector<SaveResult> inline_results = run(nullptr);
  WorkStealingPool pool(4);
  const std::vector<SaveResult> pooled_results = run(&pool);
  for (const std::vector<SaveResult>* results :
       {&inline_results, &pooled_results}) {
    for (std::size_t i = 0; i < results->size(); ++i) {
      EXPECT_EQ((*results)[i].termination, SaveTermination::kFault)
          << "outlier " << i;
    }
  }
  ExpectBitIdentical(inline_results, pooled_results);
}

}  // namespace
}  // namespace disc
