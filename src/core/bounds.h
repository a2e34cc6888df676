#ifndef DISC_CORE_BOUNDS_H_
#define DISC_CORE_BOUNDS_H_

#include <cstddef>
#include <optional>
#include <vector>

#include "common/relation.h"
#include "common/tuple.h"
#include "constraints/distance_constraint.h"
#include "core/search_budget.h"
#include "core/search_distance_cache.h"
#include "distance/evaluator.h"
#include "index/kth_neighbor_cache.h"
#include "index/neighbor_index.h"

namespace disc {

/// Bound computations of §3.1 / §3.2, shared by the DISC approximation and
/// by tests that sandwich the exact optimum.
///
/// Context: an outlier tuple t_o is to be adjusted under constraint (ε, η)
/// against the inlier set r. The bounds are parameterized by the set X of
/// *unadjusted* attributes (the adjustment may only change R \ X).
///
/// Every method but GlobalLowerBound (one pass over the search's cached
/// distances, never metered) takes an optional BudgetGauge. With a gauge,
/// each bound computation is metered as one logical index query and the
/// O(n) row scans poll the gauge every kScanPollStride rows, so an expired
/// deadline or a cancellation stops a scan mid-flight. An abandoned
/// computation returns a *safe* value — an uninformative lower bound (0),
/// no upper bound, or "not feasible" — never a partial result; callers
/// detect the stop via gauge->stopped() and unwind with their incumbent.
/// Without a gauge, behaviour is unchanged.
///
/// LowerBoundForX and UpperBoundForX each scan the band once, with one row
/// loop run by the row-scan primitive of core/row_scan.h, inline on the
/// calling search's thread and in ascending row order. A metered scan polls
/// KeepScanning() every kScanPollStride rows, which also hits the
/// `bounds.scan` fault site, so every scan of every search meets the same
/// polls whatever the batch's thread count.
class BoundsEngine {
 public:
  /// `relation` is the inlier set r; `cache` holds δ_η(t) per inlier
  /// (Proposition 5 needs "t has η (ε − Δ(t_o[X], t[X]))-neighbors", which
  /// is exactly δ_η(t) ≤ ε − Δ(t_o[X], t[X])). All references must outlive
  /// the engine.
  BoundsEngine(const Relation& relation, const DistanceEvaluator& evaluator,
               const NeighborIndex& index, const KthNeighborCache& cache,
               DistanceConstraint constraint);

  /// Lower bound of Lemma 2 (X = ∅ special case): Δ(t_o, t_1) − ε where t_1
  /// is the η-th nearest inlier to t_o (η−1 besides t_o's self-count),
  /// clamped at 0. Returns 0 when η ≤ 1 or fewer than η−1 inliers exist
  /// (no informative bound). Reads the full-space distances of `dcache`,
  /// the per-search cache built for t_o over this relation: no index query,
  /// no metering, no gauge polls (one O(n) pass over cached doubles).
  double GlobalLowerBound(const SearchDistanceCache& dcache) const;

  /// Lower bound of Proposition 3: Δ(t_o, t_1) − ε where t_1 is the η-th
  /// nearest neighbor of t_o within r_ε(t_o[X]) (inliers whose distance to
  /// t_o *on X* is ≤ ε). Returns +infinity when fewer than η inliers
  /// qualify — no feasible adjustment with unadjusted X exists at all.
  ///
  /// `dcache` must be non-null: the per-search cache built for this
  /// `outlier` over this relation, whose full-space distances and memoized
  /// attribute rows the scan reads.
  double LowerBoundForX(const Tuple& outlier, const AttributeSet& x,
                        BudgetGauge* gauge,
                        const SearchDistanceCache* dcache) const;

  /// Upper bound of Proposition 5. Finds t_2 ∈ r_ε(t_o[X]) with
  /// δ_η(t_2) ≤ ε − Δ(t_o[X], t_2[X]) minimizing Δ(t_o[R\X], t_2[R\X]), and
  /// returns the spliced tuple t_o^u (t_o on X, t_2 on R\X) together with
  /// its adjustment cost. Empty when no such t_2 exists. `dcache` is as for
  /// LowerBoundForX.
  struct UpperBound {
    Tuple adjusted;
    double cost = 0;
    std::size_t donor_row = 0;  ///< row of t_2 in r
  };
  std::optional<UpperBound> UpperBoundForX(
      const Tuple& outlier, const AttributeSet& x, BudgetGauge* gauge,
      const SearchDistanceCache* dcache) const;

  /// Feasibility check: does `candidate` have ≥ η ε-neighbors in r?
  bool IsFeasible(const Tuple& candidate, BudgetGauge* gauge = nullptr) const;

  /// The constraint in force.
  const DistanceConstraint& constraint() const { return constraint_; }
  /// The inlier relation r.
  const Relation& relation() const { return relation_; }
  /// The distance evaluator.
  const DistanceEvaluator& evaluator() const { return evaluator_; }

 private:
  const Relation& relation_;
  const DistanceEvaluator& evaluator_;
  const NeighborIndex& index_;
  const KthNeighborCache& cache_;
  DistanceConstraint constraint_;
};

}  // namespace disc

#endif  // DISC_CORE_BOUNDS_H_
