#ifndef DISC_CORE_DISC_SAVER_H_
#define DISC_CORE_DISC_SAVER_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "common/relation.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/tuple.h"
#include "constraints/distance_constraint.h"
#include "core/bounds.h"
#include "core/search_budget.h"
#include "core/search_distance_cache.h"
#include "distance/columnar.h"
#include "distance/evaluator.h"
#include "index/kth_neighbor_cache.h"
#include "index/neighbor_index.h"

namespace disc {

class ExplainSink;
class TraceSink;
class SaveJournalWriter;
struct SaveJournal;

/// Widest relation the savers support. Adjusted-attribute bookkeeping
/// (ChangedAttributes, the B&B search over attribute sets X) uses
/// AttributeSet bitmasks, so schemas beyond this arity must be rejected with
/// a Status — never silently truncated. Covers every dataset in the paper
/// (max 57 attributes for Spam).
inline constexpr std::size_t kMaxSaveableAttributes = AttributeSet::kCapacity;

/// OK iff a relation of `arity` attributes fits the savers' AttributeSet
/// bookkeeping; InvalidArgument naming the cap otherwise. Every saving entry
/// point (SaveOutliers, DiscSaver::SaveAll) checks this before any search.
Status ValidateSaveArity(std::size_t arity);

/// Knobs for a single Save() call.
struct SaveOptions {
  /// Maximum number of attributes the adjustment may change. 0 means
  /// unrestricted (Algorithm 1 starting from X = ∅, O(2^m · n) worst case).
  /// A positive κ runs the restricted variant of §3.3.3: only X with
  /// |X| >= m − κ are explored, O(m^{κ+1} · n).
  std::size_t kappa = 0;
  /// Lower-bound pruning (Algorithm 1 line 2). Disable only for ablation.
  bool use_lower_bound_pruning = true;
  /// Execution budget: deadline, cancellation, visited-set and index-query
  /// caps (all optional). On any limit the best incumbent found so far is
  /// returned and SaveResult::termination records why the search stopped —
  /// a truncated search is never silently passed off as a completed one.
  SearchBudget budget;
  /// Revert refinement: after the bound-guided search, greedily restore
  /// adjusted attributes to their original values while the adjustment
  /// stays feasible (checked exactly, not via the Proposition-5 sufficient
  /// condition). Strictly reduces the cost, so every guarantee of §3.4
  /// still holds; it also concentrates the change onto the genuinely
  /// erroneous attributes (the minimum-change goal of §2.2). Disable only
  /// for ablation.
  bool use_revert_refinement = true;
};

/// Outcome of saving one outlier.
struct SaveResult {
  /// True iff a feasible adjustment was found.
  bool feasible = false;
  /// How the search ended. kCompleted/kInfeasible are definitive answers;
  /// the other values mean the search was truncated (deadline, budget,
  /// cancellation) and `adjusted` is the best — still fully feasible —
  /// incumbent found up to that point (Proposition 5 or better), or the
  /// unmodified input when no incumbent existed yet (`feasible` == false).
  SaveTermination termination = SaveTermination::kCompleted;
  /// The adjusted tuple t_o' (equals the input when infeasible).
  Tuple adjusted;
  /// Adjustment cost Δ(t_o, t_o').
  double cost = 0;
  /// Attributes whose value actually changed.
  AttributeSet adjusted_attributes;
  /// Global lower bound of Lemma 2 (0 when uninformative). Together with
  /// `cost` this certifies the approximation quality of this answer:
  /// cost / max(lower_bound, optimal) bounds the ratio of Proposition 6.
  double lower_bound = 0;
  /// Number of distinct unadjusted-attribute sets X explored.
  std::size_t visited_sets = 0;
  /// Number of subtrees cut by the lower-bound pruning rule.
  std::size_t pruned_sets = 0;
  /// Logical neighbor-index queries spent (bound scans, kNN, feasibility
  /// checks) — the unit metered by SearchBudget::max_index_queries.
  std::size_t index_queries = 0;
  /// True when no adjustment within the κ attribute budget was found but a
  /// feasible adjustment touching more attributes exists — the signature of
  /// a natural outlier under §1.2's reading.
  bool kappa_exceeded = false;
  /// Full per-search work counters (node expansions, typed bound
  /// computations, feasibility checks, cache traffic, wall time). The
  /// legacy mirrors above (`visited_sets`, `pruned_sets`, `index_queries`)
  /// always equal the corresponding stats fields.
  SearchStats stats;
  /// Trace identity of this save when the batch was traced or explained (0
  /// otherwise, including journal-restored results). Derived from the batch
  /// seed and the input ordinal — never from time or scheduling — so it is
  /// excluded from work-parity comparisons the same way wall_nanos is.
  /// Links the result to its span tree, decision log and histogram
  /// exemplars.
  std::uint64_t trace_id = 0;
};

/// Crash-safety and self-healing controls for one SaveAll batch
/// (DESIGN.md §11). The all-default value is a strict no-op: no journal,
/// no resume, no retries — SaveAll behaves exactly as before.
struct BatchRecovery {
  /// When non-null, every definitively finished outlier (termination
  /// kCompleted or kInfeasible) is appended — and flushed — as it
  /// completes, so a crash loses at most in-flight searches. Degraded
  /// results are not journaled: a resumed run re-attempts them with a
  /// fresh budget, which is what makes the merged output of
  /// crash-then-resume bit-identical to an uninterrupted run.
  SaveJournalWriter* journal = nullptr;
  /// When non-null, ordinals recorded in the journal restore their results
  /// verbatim and skip their searches (no estimate query, no search span).
  /// The journal must belong to this batch — validate with
  /// SaveJournal::Matches first; entries whose ordinal is out of range are
  /// ignored.
  const SaveJournal* resume = nullptr;
  /// Re-runs searches ending in a transient termination (injected faults,
  /// visit/query budget) with exponential backoff, while batch deadline
  /// slack allows. The final attempt's result is reported with
  /// SearchStats::retries = attempts − 1.
  RetryPolicy retry;
};

/// The DISC approximation (Algorithm 1): branch-and-bound over sets X of
/// unadjusted attributes, keeping the best Proposition-5 upper bound as the
/// incumbent and cutting subtrees whose Proposition-3 lower bound cannot
/// beat it.
///
/// Typical use: build once per (inlier set, constraint), then Save() each
/// outlier — or SaveAll() a batch, optionally across a WorkStealingPool.
///
/// Thread-safety: after construction, Save()/SaveAll() are const and touch
/// only immutable shared state (the inlier relation, evaluator,
/// NeighborIndex, KthNeighborCache and BoundsEngine are all read-only after
/// their constructors) plus a per-call SearchState, so any number of threads
/// may call them concurrently on one DiscSaver.
class DiscSaver {
 public:
  /// `inliers` is the outlier-free set r; all tuples in it are assumed to
  /// satisfy the constraint. The relation and evaluator must outlive the
  /// saver.
  ///
  /// Every search serves its bound scans from a per-search distance cache.
  /// `enable_fast_path` only chooses that cache's backing: the columnar
  /// kernels when the inlier relation is all-numeric and every metric is a
  /// scaled absolute difference (ColumnarView::Eligible), the scalar
  /// DistanceEvaluator otherwise or when disabled. Results are
  /// bit-identical either way; disabling exists for reference comparisons
  /// in tests and benchmarks.
  DiscSaver(const Relation& inliers, const DistanceEvaluator& evaluator,
            DistanceConstraint constraint, bool enable_fast_path = true);

  /// Finds a near-optimal adjustment of `outlier` under the constraint.
  /// Anytime: with a SaveOptions::budget the call returns the best feasible
  /// incumbent found when the budget runs out (never a partial adjustment),
  /// with SaveResult::termination saying why it stopped.
  SaveResult Save(const Tuple& outlier, const SaveOptions& options = {}) const;

  /// Saves a batch of outliers, one independent Save() per tuple. With a
  /// non-null `pool` of more than one worker the searches run concurrently
  /// against the shared read-only index state, scheduled cost-ordered:
  /// each outlier's search cost is estimated up front (its η−1-NN distance
  /// — how far it sits from the inlier mass predicts how much bound work
  /// the B&B search needs), the estimates are sorted descending, and the
  /// pool's work-stealing deques start the hardest searches first while
  /// idle workers steal the cheap ones from the back. Each search runs
  /// its O(n) bound scans inline on its own worker.
  ///
  /// Determinism: the schedule orders only *execution*; every per-outlier
  /// search performs identical work to a plain Save() call (the cost
  /// estimates run outside the per-search SearchStats), and results are
  /// merged by input order — so the returned vector, including the
  /// attached stats (SearchStats::SameWork), is bit-identical for every
  /// thread count (including pool == nullptr). The estimate queries do
  /// bump the process-wide disc_index_* metrics; that telemetry is the
  /// only observable difference between the parallel and sequential
  /// paths. `outliers` and `options` must stay alive and unmodified until
  /// SaveAll returns.
  ///
  /// Batch budget: `batch.deadline` bounds the whole batch. Each task
  /// computes a fair slice of the remaining time when it starts (remaining
  /// wall clock × worker parallelism ÷ outliers left), intersected with
  /// `batch.per_outlier_limit` and the per-search budget in `options`.
  /// Once the batch deadline passes or `batch.cancellation` fires, queued
  /// tasks drain-and-skip: they still pop off the pool queue but complete
  /// immediately with an untouched tuple and termination kDeadline /
  /// kCancelled, so pool shutdown is never blocked. A batch with an
  /// unlimited budget is bit-identical to one saved without this
  /// parameter.
  ///
  /// Observability: when a global ProgressRegistry is attached
  /// (AttachGlobalProgress), the batch registers a "save_all" tracker and
  /// each worker records its outlier as it finishes, so /statusz sees live
  /// counts. With a non-null `trace` (or a global TraceRecorder), each
  /// search's span tree — the "search" span carrying the ordinal and the
  /// full SearchStats, and its phase spans — lands in its per-ordinal
  /// record and is published once the batch joins, sorted by (trace_id,
  /// span_id). Only the attempt whose result stands publishes; aborted
  /// retry attempts leave no spans. Neither hook touches the search itself:
  /// results stay bit-identical with or without them. Scheduler telemetry
  /// (task/steal deltas, live queue depth) flows into the global
  /// MetricsRegistry as disc_sched_* when one is attached.
  ///
  /// Recovery: with `recovery.journal` each definitive result is made
  /// durable as it lands; with `recovery.resume` journaled ordinals are
  /// restored instead of searched; `recovery.retry` re-runs transient
  /// failures. See BatchRecovery — the default is a strict no-op.
  ///
  /// Explain (DESIGN.md §14): with a non-null `explain` sink — or a global
  /// ExplainRecorder attached — each search's final attempt captures its
  /// full decision log (obs/explain.h) into the same per-ordinal record,
  /// published in input order: sink emission order, the /explainz feed and
  /// the disc_explain_* metric flush are all deterministic.
  /// Capture rides the BudgetGauge, so the logged events are the search's
  /// actual decisions and the log is bit-identical for every thread count
  /// (explain_determinism_test). Detached, every capture site is one null
  /// check. Skipped and journal-restored ordinals emit no log.
  std::vector<SaveResult> SaveAll(const std::vector<Tuple>& outliers,
                                  const SaveOptions& options = {},
                                  WorkStealingPool* pool = nullptr,
                                  const BatchBudget& batch = {},
                                  TraceSink* trace = nullptr,
                                  const BatchRecovery& recovery = {},
                                  ExplainSink* explain = nullptr) const;

  /// The bounds engine (exposed for tests and diagnostics).
  const BoundsEngine& bounds() const { return *bounds_; }

 private:
  struct SearchState;
  /// `obs`, when non-null, rides on the BudgetGauge through every bound
  /// computation and records the wall phases and decisions of this search
  /// (core/search_observation.h); observing never changes what is
  /// computed.
  SaveResult SaveImpl(const Tuple& outlier, const SaveOptions& options,
                      Deadline task_deadline,
                      const CancellationToken& batch_cancellation,
                      SearchObservation* obs = nullptr) const;
  /// Scheduling cost estimate for one outlier: its η−1-NN distance in r.
  /// Cheap (one grid-accelerated kNN query), correlates with how much of
  /// the space the B&B search must cover, and runs outside any BudgetGauge
  /// so per-search stats stay schedule-independent.
  double EstimateSearchCost(const Tuple& outlier) const;
  void Explore(const Tuple& outlier, AttributeSet x, const SaveOptions& options,
               SearchState* state) const;
  void RevertRefine(const Tuple& outlier, Tuple* adjusted,
                    BudgetGauge* gauge) const;

  const Relation& inliers_;
  const DistanceEvaluator& evaluator_;
  DistanceConstraint constraint_;
  std::unique_ptr<NeighborIndex> index_;
  std::unique_ptr<KthNeighborCache> cache_;
  std::unique_ptr<BoundsEngine> bounds_;
  std::unique_ptr<ColumnarView> columnar_;  ///< null when ineligible/disabled
};

/// Computes which attributes differ between `original` and `adjusted`.
/// Only the first kMaxSaveableAttributes attributes are representable;
/// callers must have rejected wider tuples via ValidateSaveArity.
AttributeSet ChangedAttributes(const Tuple& original, const Tuple& adjusted);

}  // namespace disc

#endif  // DISC_CORE_DISC_SAVER_H_
