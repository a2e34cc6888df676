#include "core/search_distance_cache.h"

#include <limits>

#include "core/row_scan.h"
#include "core/search_observation.h"
#include "distance/lp_norm.h"

namespace disc {

SearchDistanceCache::SearchDistanceCache(const Relation& relation,
                                         const DistanceEvaluator& evaluator,
                                         const Tuple& outlier,
                                         const ColumnarView* view,
                                         SearchStats* stats,
                                         SearchObservation* obs)
    : relation_(relation),
      evaluator_(evaluator),
      outlier_(outlier),
      stats_(stats),
      obs_(obs),
      arity_(evaluator.arity()),
      attr_rows_(evaluator.arity()) {
  if (view != nullptr) kernel_.emplace(*view, outlier);
  full_.resize(relation.size());
  PhaseScope phase(obs_, TracePhase::kDcacheFill);
  // The kernel's batch fill is vectorized across rows when the view's SIMD
  // tier allows, bit-identical to per-row Distance() either way.
  // Unmetered: no gauge, so the body runs once over every row.
  struct NoState {};
  ScanRows(
      RowScan{relation.size(), nullptr}, [] { return NoState(); },
      [&](NoState&, std::size_t begin, std::size_t end) {
        if (kernel_.has_value()) {
          kernel_->FillDistances(full_.data() + begin, begin, end);
          return;
        }
        for (std::size_t i = begin; i < end; ++i) {
          full_[i] = evaluator_.Distance(outlier_, relation_[i]);
        }
      });
}

const double* SearchDistanceCache::AttributeRow(std::size_t a) const {
  std::vector<double>& row = attr_rows_[a];
  if (row.empty() && !full_.empty()) {
    if (stats_ != nullptr) ++stats_->dcache_misses;
    // Lazy fills run on the owning search thread, usually inside a
    // bounds_scan phase; the scope below pauses it so the fill charges to
    // dcache_fill.
    PhaseScope phase(obs_, TracePhase::kDcacheFill);
    row.resize(full_.size());
    if (kernel_.has_value()) {
      kernel_->FillAttributeDistances(a, row.data());
    } else {
      for (std::size_t i = 0; i < row.size(); ++i) {
        row[i] = evaluator_.AttributeDistance(a, outlier_[a], relation_[i][a]);
      }
    }
  }
  return row.data();
}

double SearchDistanceCache::DistanceOnWithin(const AttributeSet& x,
                                             std::size_t row,
                                             double threshold) const {
  LpAccumulator acc(evaluator_.norm());
  for (std::size_t a = 0; a < arity_; ++a) {
    if (!x.contains(a)) continue;
    acc.Add(AttributeRow(a)[row]);
    if (acc.Exceeds(threshold)) {
      return std::numeric_limits<double>::infinity();
    }
  }
  return acc.Total();
}

}  // namespace disc
