#ifndef DISC_TESTS_BOUND_ORACLE_H_
#define DISC_TESTS_BOUND_ORACLE_H_

// Definitional reference for the Proposition-3 and Proposition-5 bounds:
// plain DistanceEvaluator calls over every inlier, full distances, no early
// exits, no cache and no chunking. BoundsEngine must match it bit for bit.

#include <algorithm>
#include <cstddef>
#include <limits>
#include <optional>
#include <vector>

#include "common/relation.h"
#include "common/tuple.h"
#include "constraints/distance_constraint.h"
#include "core/bounds.h"
#include "distance/evaluator.h"
#include "index/kth_neighbor_cache.h"

namespace disc::oracle {

/// Proposition 3: Δ(t_o, t_1) − ε (clamped at 0), t_1 the (η−1)-th nearest
/// inlier, in full-space distance, among the band {t : Δ(t_o[X], t[X]) ≤ ε};
/// +infinity when the band holds fewer than η−1 inliers.
inline double LowerBound(const Relation& r, const DistanceEvaluator& ev,
                         DistanceConstraint c, const Tuple& outlier,
                         const AttributeSet& x) {
  const std::size_t k = c.eta > 0 ? c.eta - 1 : 0;
  if (k == 0) return 0;
  std::vector<double> band;
  for (std::size_t row = 0; row < r.size(); ++row) {
    if (ev.DistanceOn(x, outlier, r[row]) <= c.epsilon) {
      band.push_back(ev.Distance(outlier, r[row]));
    }
  }
  if (band.size() < k) return std::numeric_limits<double>::infinity();
  std::sort(band.begin(), band.end());
  const double bound = band[k - 1] - c.epsilon;
  return bound > 0 ? bound : 0;
}

/// True iff `candidate` has at least η−1 inliers within ε (it counts
/// itself toward η, Formula 4).
inline bool Feasible(const Relation& r, const DistanceEvaluator& ev,
                     DistanceConstraint c, const Tuple& candidate) {
  const std::size_t needed = c.eta > 0 ? c.eta - 1 : 0;
  std::size_t within = 0;
  for (std::size_t row = 0; row < r.size(); ++row) {
    if (ev.Distance(candidate, r[row]) <= c.epsilon) ++within;
  }
  return within >= needed;
}

/// Proposition 5 with BoundsEngine's adoption rule: over the band, the
/// first (lowest-row) minimum of the splice cost Δ(t_o[R\X], t[R\X]) among
/// all donors, and among the donors with δ_η(t) ≤ ε − Δ(t_o[X], t[X]). The
/// strictly cheaper unqualified splice wins when it is feasible; otherwise
/// the qualified splice, if any.
inline std::optional<BoundsEngine::UpperBound> UpperBound(
    const Relation& r, const DistanceEvaluator& ev,
    const KthNeighborCache& knn, DistanceConstraint c, const Tuple& outlier,
    const AttributeSet& x) {
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  const AttributeSet rest = x.ComplementIn(ev.arity());
  double any = std::numeric_limits<double>::infinity();
  double qualified = std::numeric_limits<double>::infinity();
  std::size_t any_row = kNone;
  std::size_t qualified_row = kNone;
  for (std::size_t row = 0; row < r.size(); ++row) {
    const double dx = ev.DistanceOn(x, outlier, r[row]);
    if (dx > c.epsilon) continue;
    const double cost = ev.DistanceOn(rest, outlier, r[row]);
    if (cost < any) {
      any = cost;
      any_row = row;
    }
    if (knn.delta(row) <= c.epsilon - dx && cost < qualified) {
      qualified = cost;
      qualified_row = row;
    }
  }
  auto splice = [&](std::size_t row) {
    BoundsEngine::UpperBound ub;
    ub.donor_row = row;
    ub.adjusted = outlier;
    for (std::size_t a = 0; a < ev.arity(); ++a) {
      if (!x.contains(a)) ub.adjusted[a] = r[row][a];
    }
    ub.cost = ev.Distance(outlier, ub.adjusted);
    return ub;
  };
  if (any_row == kNone) return std::nullopt;
  if (any < qualified) {
    BoundsEngine::UpperBound candidate = splice(any_row);
    if (Feasible(r, ev, c, candidate.adjusted)) return candidate;
  }
  if (qualified_row == kNone) return std::nullopt;
  return splice(qualified_row);
}

}  // namespace disc::oracle

#endif  // DISC_TESTS_BOUND_ORACLE_H_
