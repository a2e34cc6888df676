#include "core/bounds.h"

#include <algorithm>
#include <array>
#include <limits>
#include <vector>

#include "core/row_scan.h"
#include "core/search_observation.h"
#include "distance/lp_norm.h"

namespace disc {

namespace {

/// The per-search observation riding on the gauge (null when unobserved).
inline SearchObservation* ObservationOf(BudgetGauge* gauge) {
  return gauge != nullptr ? gauge->observation() : nullptr;
}

constexpr std::size_t kNoRow = static_cast<std::size_t>(-1);

/// The `k` smallest distances offered so far, as a max-heap: once full,
/// front() is the k-th smallest.
struct KSmallest {
  explicit KSmallest(std::size_t k) : k(k) { heap.reserve(k); }

  void Offer(double d) {
    if (heap.size() < k) {
      heap.push_back(d);
      std::push_heap(heap.begin(), heap.end());
    } else if (d < heap.front()) {
      std::pop_heap(heap.begin(), heap.end());
      heap.back() = d;
      std::push_heap(heap.begin(), heap.end());
    }
  }

  std::size_t k;
  std::vector<double> heap;
};

/// The cheapest splice donors of a Proposition-5 scan: any donor in the
/// band, and the cheapest one that also qualifies. Strict < keeps the first
/// (lowest-row) minimum.
struct Donors {
  double any = std::numeric_limits<double>::infinity();
  std::size_t any_row = kNoRow;
  double qualified = std::numeric_limits<double>::infinity();
  std::size_t qualified_row = kNoRow;

  void OfferAny(double cost, std::size_t row) {
    if (cost < any) {
      any = cost;
      any_row = row;
    }
  }
  void OfferQualified(double cost, std::size_t row) {
    if (cost < qualified) {
      qualified = cost;
      qualified_row = row;
    }
  }
};

/// The memoized attribute rows of a SearchDistanceCache for one subset X,
/// resolved once per bound call so the O(n) row scans below touch flat
/// arrays with no per-row subset iteration or lazy-fill checks.
struct SubsetRows {
  std::array<const double*, AttributeSet::kCapacity> rows;
  std::size_t count = 0;
};

SubsetRows ResolveSubsetRows(const SearchDistanceCache& dcache,
                             const AttributeSet& x, std::size_t arity) {
  SubsetRows s;
  for (std::size_t a = 0; a < arity; ++a) {
    if (x.contains(a)) s.rows[s.count++] = dcache.attribute_row(a);
  }
  return s;
}

/// Subset distance with early exit from the hoisted rows — the same values
/// accumulated in the same ascending-attribute order with the same per-add
/// Exceeds check as SearchDistanceCache::DistanceOnWithin, so verdicts and
/// accepted totals are bit-identical.
inline double SubsetDistanceWithin(const SubsetRows& s, LpNorm norm,
                                   std::size_t row, double threshold) {
  LpAccumulator acc(norm);
  for (std::size_t j = 0; j < s.count; ++j) {
    acc.Add(s.rows[j][row]);
    if (acc.Exceeds(threshold)) {
      return std::numeric_limits<double>::infinity();
    }
  }
  return acc.Total();
}

}  // namespace

BoundsEngine::BoundsEngine(const Relation& relation,
                           const DistanceEvaluator& evaluator,
                           const NeighborIndex& index,
                           const KthNeighborCache& cache,
                           DistanceConstraint constraint)
    : relation_(relation),
      evaluator_(evaluator),
      index_(index),
      cache_(cache),
      constraint_(constraint) {}

double BoundsEngine::GlobalLowerBound(const SearchDistanceCache& dcache) const {
  // η-th nearest inlier. The outlier itself is not in r, but it still counts
  // toward its own neighbor total (Formula 4), so only η−1 inliers are
  // needed besides the tuple itself. The search's cache already holds
  // Δ(t_o, t) for every inlier; the k-th smallest of them is the distance
  // KNearest(t_o, η−1).back() would return.
  std::size_t needed = constraint_.eta > 0 ? constraint_.eta - 1 : 0;
  if (needed == 0 || dcache.rows() < needed) return 0;
  KSmallest nearest(needed);
  for (std::size_t row = 0; row < dcache.rows(); ++row) {
    nearest.Offer(dcache.FullDistance(row));
  }
  double bound = nearest.heap.front() - constraint_.epsilon;
  return bound > 0 ? bound : 0;
}

double BoundsEngine::LowerBoundForX(const Tuple& /*outlier*/,
                                    const AttributeSet& x, BudgetGauge* gauge,
                                    const SearchDistanceCache* dcache) const {
  // Candidates are inliers with Δ(t_o[X], t[X]) ≤ ε (the shaded band in
  // Figure 3); among them we need the η-th nearest in full-space distance
  // (η−1 excluding the tuple's self-count).
  std::size_t needed = constraint_.eta > 0 ? constraint_.eta - 1 : 0;
  if (needed == 0) return 0;
  if (gauge != nullptr) {
    ++gauge->stats().index_queries;
    ++gauge->stats().prop3_bounds;
  }
  PhaseScope phase(ObservationOf(gauge), TracePhase::kBoundsScan);

  // Collect full-space distances of qualifying inliers, keeping only the
  // smallest `needed` of them. Band checks pass ε as the early-exit
  // threshold so they stop at the first overshooting attribute (the
  // verdict is unchanged: non-negative Lp aggregates are monotone).
  const SubsetRows band = ResolveSubsetRows(*dcache, x, evaluator_.arity());
  const LpNorm norm = evaluator_.norm();
  const double eps = constraint_.epsilon;
  std::optional<KSmallest> nearest = ScanRows(
      RowScan{relation_.size(), gauge}, [needed] { return KSmallest(needed); },
      [&](KSmallest& k, std::size_t begin, std::size_t end) {
        for (std::size_t row = begin; row < end; ++row) {
          if (SubsetDistanceWithin(band, norm, row, eps) > eps) continue;
          k.Offer(dcache->FullDistance(row));
        }
      });
  // An abandoned scan returns the uninformative bound 0: nothing is pruned
  // on its account, and the caller unwinds via gauge->stopped().
  if (!nearest.has_value()) return 0;
  if (nearest->heap.size() < needed) {
    // Fewer than η−1 inliers are reachable keeping X fixed: infeasible.
    return std::numeric_limits<double>::infinity();
  }
  double bound = nearest->heap.front() - eps;
  return bound > 0 ? bound : 0;
}

std::optional<BoundsEngine::UpperBound> BoundsEngine::UpperBoundForX(
    const Tuple& outlier, const AttributeSet& x, BudgetGauge* gauge,
    const SearchDistanceCache* dcache) const {
  const std::size_t arity = evaluator_.arity();
  if (gauge != nullptr) {
    ++gauge->stats().index_queries;
    ++gauge->stats().prop5_bounds;
  }
  PhaseScope phase(ObservationOf(gauge), TracePhase::kBoundsScan);

  // Two donor candidates per X:
  //  (a) the Proposition-5 qualified donor — δ_η(t) ≤ ε − Δ(t_o[X], t[X])
  //      guarantees feasibility of the splice without further checks;
  //  (b) the cheapest splice donor regardless of qualification, validated
  //      by an exact neighbor count. (a)'s sufficient condition is very
  //      conservative when δ_η runs close to ε (chains, sparse clusters,
  //      high dimension), where (b) still finds cheap feasible splices.
  const SubsetRows band = ResolveSubsetRows(*dcache, x, arity);
  const SubsetRows splice_rows =
      ResolveSubsetRows(*dcache, x.ComplementIn(arity), arity);
  const LpNorm norm = evaluator_.norm();
  const double eps = constraint_.epsilon;
  std::optional<Donors> donors = ScanRows(
      RowScan{relation_.size(), gauge}, [] { return Donors(); },
      [&](Donors& best, std::size_t begin, std::size_t end) {
        for (std::size_t row = begin; row < end; ++row) {
          const double dx = SubsetDistanceWithin(band, norm, row, eps);
          if (dx > eps) continue;
          // A splice cost beyond both incumbents can update neither, so the
          // larger incumbent is a sound early-exit threshold (accepted
          // values are exact, rejected ones come back as +infinity and
          // fail both `<`).
          const double cost = SubsetDistanceWithin(
              splice_rows, norm, row, std::max(best.any, best.qualified));
          best.OfferAny(cost, row);
          if (cache_.delta(row) <= eps - dx) best.OfferQualified(cost, row);
        }
      });
  // No partial donor scan may produce a bound: abandoning returns "no upper
  // bound" so the incumbent is never replaced by a half-searched splice
  // (anytime-soundness — see DESIGN.md).
  if (!donors.has_value() || donors->any_row == kNoRow) return std::nullopt;

  auto splice = [&](std::size_t row) {
    UpperBound ub;
    ub.donor_row = row;
    ub.adjusted = outlier;
    const Tuple& donor = relation_[row];
    for (std::size_t a = 0; a < arity; ++a) {
      if (!x.contains(a)) ub.adjusted[a] = donor[a];
    }
    // The adjustment cost equals Δ(t_o[R\X], t_2[R\X]) because the X values
    // are untouched; recompute via the evaluator for exactness in any norm.
    ub.cost = evaluator_.Distance(outlier, ub.adjusted);
    return ub;
  };

  // Prefer the strictly cheaper unqualified splice when it verifies.
  if (donors->any < donors->qualified) {
    UpperBound candidate = splice(donors->any_row);
    if (IsFeasible(candidate.adjusted, gauge)) return candidate;
  }
  if (donors->qualified_row == kNoRow) return std::nullopt;
  return splice(donors->qualified_row);
}

bool BoundsEngine::IsFeasible(const Tuple& candidate,
                              BudgetGauge* gauge) const {
  // The saved tuple itself counts toward its η total (Formula 4), so η−1
  // inlier matches suffice.
  std::size_t needed = constraint_.eta > 0 ? constraint_.eta - 1 : 0;
  if (needed == 0) return true;
  if (gauge != nullptr) {
    ++gauge->stats().index_queries;
    ++gauge->stats().feasibility_checks;
    ++gauge->stats().index_count_queries;
  }
  PhaseScope phase(ObservationOf(gauge), TracePhase::kIndexQuery);
  return index_.CountWithin(candidate, constraint_.epsilon, needed) >= needed;
}

}  // namespace disc
