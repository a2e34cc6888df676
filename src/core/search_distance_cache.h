#ifndef DISC_CORE_SEARCH_DISTANCE_CACHE_H_
#define DISC_CORE_SEARCH_DISTANCE_CACHE_H_

#include <cstddef>
#include <optional>
#include <vector>

#include "common/relation.h"
#include "common/tuple.h"
#include "core/search_stats.h"
#include "distance/columnar.h"
#include "distance/evaluator.h"

namespace disc {

struct SearchObservation;

/// Per-outlier-search distance cache for the branch-and-bound hot loops.
///
/// Within one outlier's search, the full-space distance Δ(t_o, t) to each
/// inlier is invariant across every B&B node. This cache computes the
/// full-distance vector ONCE per search and serves it from a flat array to
/// every bound scan (BoundsEngine reads nothing else). Likewise the
/// per-attribute distances Δ(t_o[A], t[A]) are invariant; they are memoized
/// lazily (one n-sized row per attribute, filled on first touch), turning
/// every subset distance Δ(t_o[X], t[X]) into a short sum over cached
/// doubles — no Value unwrapping, no virtual metric dispatch.
///
/// Backing: a ColumnarView when one is supplied (DiscSaver's fast path on
/// an eligible relation), the scalar DistanceEvaluator otherwise. Either
/// way cached entries are produced by exactly the scalar arithmetic (the
/// FlatKernel is bit-identical to DistanceEvaluator by construction), and
/// subset sums replay the canonical LpAccumulator recurrence in increasing
/// attribute order, so every value and every threshold verdict equals the
/// definitional DistanceEvaluator computation bit for bit.
///
/// Thread-safety: NONE — the lazy rows mutate under const. A cache is a
/// per-search, stack-local object owned by a single worker; it is never
/// shared across threads (the shared-state immutability contract of
/// DESIGN.md §5 applies to indexes, not to this).
class SearchDistanceCache {
 public:
  /// Builds the cache for one outlier search. `view` may be null (scalar
  /// fallback); when non-null it must have been built over `relation` with
  /// `evaluator`. All references must outlive the cache; `outlier` must not
  /// be mutated while the cache is live. `stats` (optional) receives one
  /// dcache_miss per lazily filled attribute row and one dcache_hit per
  /// row request served from the memo. `obs` (optional) charges the eager
  /// and lazy fills to the dcache_fill wall phase.
  SearchDistanceCache(const Relation& relation,
                      const DistanceEvaluator& evaluator, const Tuple& outlier,
                      const ColumnarView* view = nullptr,
                      SearchStats* stats = nullptr,
                      SearchObservation* obs = nullptr);

  /// Number of inlier rows n.
  std::size_t rows() const { return full_.size(); }
  /// True when the columnar fast path backs this cache.
  bool columnar() const { return kernel_.has_value(); }

  /// Cached full-space distance Δ(t_o, t_row).
  double FullDistance(std::size_t row) const { return full_[row]; }

  /// Subset distance Δ(t_o[X], t_row[X]) from the memoized attribute rows,
  /// with early exit past `threshold` (+infinity), matching
  /// DistanceEvaluator::DistanceOnWithin bit for bit. A per-row convenience
  /// for callers outside the bound scans, which resolve attribute_row()
  /// once per scan instead.
  double DistanceOnWithin(const AttributeSet& x, std::size_t row,
                          double threshold) const;

  /// The memoized n-entry row of Δ(t_o[a], t_i[a]) for attribute `a`,
  /// filled on first touch. Scans that touch every row (the bound loops)
  /// resolve the subset's row pointers once and accumulate inline, with the
  /// same per-row arithmetic as DistanceOnWithin. Hit/miss is metered at
  /// this resolution granularity (one event per row request), never inside
  /// the per-attribute accumulation loops.
  const double* attribute_row(std::size_t a) const {
    if (stats_ != nullptr && !attr_rows_[a].empty()) ++stats_->dcache_hits;
    return AttributeRow(a);
  }

 private:
  /// The memoized row for attribute `a`, filling it on first touch.
  const double* AttributeRow(std::size_t a) const;

  const Relation& relation_;
  const DistanceEvaluator& evaluator_;
  const Tuple& outlier_;
  SearchStats* stats_;  ///< optional; owned by the same single search
  SearchObservation* obs_ = nullptr;  ///< optional; same ownership as stats_
  std::size_t arity_;
  std::optional<FlatKernel> kernel_;
  std::vector<double> full_;                           ///< eager, n entries
  mutable std::vector<std::vector<double>> attr_rows_;  ///< lazy, m rows
};

}  // namespace disc

#endif  // DISC_CORE_SEARCH_DISTANCE_CACHE_H_
