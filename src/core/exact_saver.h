#ifndef DISC_CORE_EXACT_SAVER_H_
#define DISC_CORE_EXACT_SAVER_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "common/cancellation.h"
#include "common/deadline.h"
#include "common/relation.h"
#include "common/tuple.h"
#include "constraints/distance_constraint.h"
#include "core/disc_saver.h"
#include "core/search_budget.h"
#include "distance/evaluator.h"
#include "index/neighbor_index.h"

namespace disc {

/// Knobs for ExactSaver.
struct ExactOptions {
  /// Safety cap on feasibility checks (candidate tuples fully evaluated);
  /// 0 = unlimited. When hit, the best candidate so far is returned and the
  /// result's termination reads kVisitBudget.
  std::size_t max_candidates = 0;
  /// Execution budget. The exact enumerator checks it once per fully
  /// evaluated candidate (the unit `max_candidates` also counts, so
  /// budget.max_visited_sets acts as a second candidate cap); deadline and
  /// cancellation additionally interrupt long enumerations between leaves.
  /// On any limit the best candidate so far is returned with the
  /// termination recording why — the result may then be suboptimal, but it
  /// is still a fully verified feasible adjustment (or the untouched input).
  SearchBudget budget;
  /// Optional observation context (core/search_observation.h). With
  /// `explain` set the enumerator records its decisions: it has no bounds,
  /// so only incumbent_update events (x_bits = the candidate's
  /// *changed*-attribute mask, ub = its cost) and a prune_budget event when
  /// the budget layer stops it. A timed context charges the feasibility
  /// checks to the index_query wall phase, its only phased work. Not owned.
  SearchObservation* observation = nullptr;
};

/// Outcome of an exact save.
struct ExactResult {
  bool feasible = false;
  /// How the enumeration ended. kCompleted means the full cross-product was
  /// covered and `adjusted` is optimal; kInfeasible means it was covered and
  /// no feasible adjustment exists; any other value means truncation
  /// (candidate cap, deadline, cancellation) and `adjusted` is the best
  /// fully verified candidate found so far, or the unmodified input.
  SaveTermination termination = SaveTermination::kCompleted;
  Tuple adjusted;
  double cost = 0;
  AttributeSet adjusted_attributes;
  /// Number of candidate tuples whose feasibility was checked.
  std::size_t candidates_checked = 0;
  /// Logical neighbor-index queries spent on feasibility checks.
  std::size_t index_queries = 0;
  /// Full per-search work counters (nodes_expanded counts fully assembled
  /// candidates here; the legacy mirrors above stay equal to their stats
  /// fields).
  SearchStats stats;
};

/// The straightforward exact algorithm of §2.3: enumerate, per attribute,
/// every value occurring in r (plus the outlier's own value), test each
/// combined tuple for feasibility, and return the feasible combination with
/// minimum adjustment cost. O(d^m · n) — tractable only for small m / d,
/// which is exactly the trade-off Figures 6 and 7 chart.
///
/// Partial-cost pruning: a prefix whose accumulated cost already exceeds the
/// incumbent is abandoned, which keeps small instances fast without
/// affecting exactness.
class ExactSaver {
 public:
  /// `inliers` is the outlier-free set r. References must outlive the saver.
  ExactSaver(const Relation& inliers, const DistanceEvaluator& evaluator,
             DistanceConstraint constraint);

  /// Finds the minimum-cost feasible adjustment of `outlier` over the
  /// cross-product of attribute domains. `extra_deadline` and
  /// `extra_cancellation` are intersected with options.budget — batch
  /// drivers use them to impose per-task slices without mutating the shared
  /// options (see DiscSaver::SaveAll for the slicing policy).
  ExactResult Save(const Tuple& outlier, const ExactOptions& options = {},
                   Deadline extra_deadline = Deadline::Infinite(),
                   const CancellationToken& extra_cancellation =
                       CancellationToken()) const;

 private:
  struct EnumState;
  void Enumerate(const Tuple& outlier, std::size_t attr, Tuple* candidate,
                 double partial_cost_sq, const ExactOptions& options,
                 EnumState* state) const;
  bool IsFeasible(const Tuple& candidate, BudgetGauge* gauge) const;

  const Relation& inliers_;
  const DistanceEvaluator& evaluator_;
  DistanceConstraint constraint_;
  std::unique_ptr<NeighborIndex> index_;
  std::vector<std::vector<Value>> domains_;
};

}  // namespace disc

#endif  // DISC_CORE_EXACT_SAVER_H_
