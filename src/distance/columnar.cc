#include "distance/columnar.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "common/metrics.h"
#include "distance/columnar_internal.h"
#include "distance/columnar_simd.h"

namespace disc {

namespace {

using columnar_internal::CanonicalDistance;
using columnar_internal::CanonicalWithinL1;
using columnar_internal::CanonicalWithinL2;
using columnar_internal::kCertainRejectSlack;
using columnar_internal::kInf;
using columnar_internal::RowWithinL1;
using columnar_internal::RowWithinL2;
using columnar_internal::RowWithinLInf;

/// Bits of `x` restricted to attributes < arity, mirroring the scalar
/// DistanceOn loop which only tests a < m.
inline std::uint64_t MaskedBits(const AttributeSet& x, std::size_t arity) {
  std::uint64_t mask = arity >= 64 ? ~std::uint64_t{0}
                                   : ((std::uint64_t{1} << arity) - 1);
  return x.bits() & mask;
}

/// Scalar reference scan over rows [begin, end), invoking `hit` for each
/// accept. The norm switch and the threshold constants are hoisted outside
/// the row loop, and `hit` is a lambda, so each norm compiles to one tight
/// scan over the columns. Work totals accumulate into `delta`.
template <typename Hit>
inline void ScalarScanRange(const ColumnarView& v, const double* q,
                            double epsilon, std::size_t begin, std::size_t end,
                            Hit&& hit, simd::ScanDelta* delta) {
  const bool unit = v.unit_scales();
  std::uint64_t cr = 0;
  switch (v.norm()) {
    case LpNorm::kL2: {
      const double thr_sq = epsilon * epsilon;
      const double reject = thr_sq * kCertainRejectSlack;
      for (std::size_t i = begin; i < end; ++i) {
        double d = RowWithinL2(v, q, i, thr_sq, reject, unit, &cr);
        if (d <= epsilon) hit(i, d);
      }
      break;
    }
    case LpNorm::kL1: {
      const double reject = epsilon * kCertainRejectSlack;
      for (std::size_t i = begin; i < end; ++i) {
        double d = RowWithinL1(v, q, i, epsilon, reject, unit, &cr);
        if (d <= epsilon) hit(i, d);
      }
      break;
    }
    case LpNorm::kLInf: {
      for (std::size_t i = begin; i < end; ++i) {
        double d = RowWithinLInf(v, q, i, epsilon, unit, &cr);
        if (d <= epsilon) hit(i, d);
      }
      break;
    }
  }
  delta->rows_scanned += end - begin;
  delta->certain_rejects += cr;
}

/// Hit sinks for the dispatched scans (plain functions: the SIMD tier takes
/// a function pointer, not a template — target attributes don't propagate
/// into template instantiations).
struct CollectCtx {
  std::vector<std::size_t>* rows;
  std::vector<double>* distances;
};

void CollectHit(void* ctx, std::size_t row, double d) {
  auto* c = static_cast<CollectCtx*>(ctx);
  c->rows->push_back(row);
  c->distances->push_back(d);
}

void CountHit(void* ctx, std::size_t /*row*/, double /*d*/) {
  ++*static_cast<std::size_t*>(ctx);
}

/// One range scan: the view's SIMD tier if it has a kernel, the scalar
/// reference otherwise. Either way verdicts, distances and output order
/// are identical (DESIGN.md §12).
inline void ScanRange(const ColumnarView& v, const double* q, double epsilon,
                      std::size_t begin, std::size_t end, simd::HitFn hit,
                      void* ctx, simd::ScanDelta* delta) {
  if (simd::ScanWithin(v.simd_tier(), v, q, epsilon, begin, end, hit, ctx,
                       delta)) {
    return;
  }
  ScalarScanRange(
      v, q, epsilon, begin, end,
      [&](std::size_t row, double d) { hit(ctx, row, d); }, delta);
}

/// Flushes a batch's work totals to the view's counters (no-op when
/// metrics are disabled). Called once per batch call — Counter::Add is
/// wait-free and sharded, so flushes from concurrent searches don't
/// contend.
inline void FlushScan(const ColumnarView& v, const simd::ScanDelta& delta) {
  const ColumnarView::ScanCounters& c = v.scan_counters();
  if (c.rows_scanned != nullptr) c.rows_scanned->Add(delta.rows_scanned);
  if (c.certain_rejects != nullptr) {
    c.certain_rejects->Add(delta.certain_rejects);
  }
}

}  // namespace

bool ColumnarView::Eligible(const Relation& relation,
                            const DistanceEvaluator& evaluator) {
  return relation.arity() > 0 &&
         relation.arity() <= AttributeSet::kCapacity &&
         relation.arity() == evaluator.arity() &&
         relation.schema().all_numeric() &&
         evaluator.AllScaledAbsoluteDifference();
}

std::unique_ptr<ColumnarView> ColumnarView::Build(
    const Relation& relation, const DistanceEvaluator& evaluator) {
  if (!Eligible(relation, evaluator)) return nullptr;
  auto view = std::unique_ptr<ColumnarView>(new ColumnarView());
  const std::size_t n = relation.size();
  const std::size_t m = relation.arity();
  view->rows_ = n;
  view->padded_rows_ = (n + kLanePad - 1) / kLanePad * kLanePad;
  view->arity_ = m;
  view->norm_ = evaluator.norm();
  view->simd_tier_ = ActiveSimdTier();
  evaluator.AllScaledAbsoluteDifference(&view->scales_);
  view->unit_scales_ = std::all_of(view->scales_.begin(), view->scales_.end(),
                                   [](double s) { return s == 1.0; });
  if (MetricsRegistry* registry = GlobalMetrics()) {
    view->counters_.rows_scanned = registry->GetCounter(
        "disc_kernel_rows_scanned_total",
        "Rows evaluated by the batch columnar distance kernels");
    view->counters_.certain_rejects = registry->GetCounter(
        "disc_kernel_certain_rejects_total",
        "Rows dismissed by the certain-reject pre-pass of the batch "
        "columnar scans (which rows reject is SIMD-tier-dependent; "
        "outputs are not)");
  }

  // Zero-initialized so the pad rows [n, padded_rows) of every column hold
  // 0.0 — always safe to load, never reported (verdict masks stop at n).
  const std::size_t stride = view->padded_rows_;
  view->data_.assign(stride * m, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const Tuple& t = relation[i];
    for (std::size_t a = 0; a < m; ++a) {
      view->data_[a * stride + i] = t[a].num();
    }
  }

  // Scan order: scaled variance, descending (ties by index). High-variance
  // attributes contribute the largest terms on average, so far pairs trip
  // the early exit within the first attribute or two.
  std::vector<double> variance(m, 0.0);
  for (std::size_t a = 0; a < m; ++a) {
    const double* col = view->column(a);
    double mean = 0;
    std::size_t finite = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (std::isfinite(col[i])) {
        mean += col[i];
        ++finite;
      }
    }
    if (finite == 0) continue;
    mean /= static_cast<double>(finite);
    double var = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (std::isfinite(col[i])) {
        double d = col[i] - mean;
        var += d * d;
      }
    }
    double s = view->scales_[a];
    variance[a] = var / static_cast<double>(finite) / (s * s);
  }
  view->scan_order_.resize(m);
  std::iota(view->scan_order_.begin(), view->scan_order_.end(), 0);
  std::sort(view->scan_order_.begin(), view->scan_order_.end(),
            [&](std::size_t a, std::size_t b) {
              return variance[a] > variance[b] ||
                     (variance[a] == variance[b] && a < b);
            });
  view->scan_offsets_.resize(m);
  for (std::size_t k = 0; k < m; ++k) {
    view->scan_offsets_[k] = view->scan_order_[k] * stride;
  }
  return view;
}

void ColumnarView::set_simd_tier(SimdTier tier) {
  simd_tier_ = std::min(tier, DetectedSimdTier());
}

std::vector<double> ColumnarView::QueryCoords(const Tuple& query) const {
  std::vector<double> q(arity_);
  for (std::size_t a = 0; a < arity_; ++a) q[a] = query[a].num();
  return q;
}

double FlatKernel::Distance(std::size_t row) const {
  return CanonicalDistance(*view_, q_.data(), row, view_->unit_scales());
}

double FlatKernel::DistanceWithin(std::size_t row, double threshold) const {
  const ColumnarView& v = *view_;
  const bool unit = v.unit_scales();
  // Wide rows first try the gathered vector pre-pass; a certain reject or
  // an exact L∞ value skips the scalar work entirely, an inconclusive
  // pre-pass falls to the canonical recompute (same recompute the scalar
  // path runs after its own pre-pass, so results agree bit for bit).
  double exact = 0;
  switch (simd::DistanceWithinPrepass(v.simd_tier(), v, q_.data(), row,
                                      threshold, &exact)) {
    case simd::Verdict::kCertainReject:
      return kInf;
    case simd::Verdict::kExact:
      return exact;
    case simd::Verdict::kMaybeWithin:
      switch (v.norm()) {
        case LpNorm::kL2:
          return CanonicalWithinL2(v, q_.data(), row, threshold * threshold,
                                   unit);
        case LpNorm::kL1:
          return CanonicalWithinL1(v, q_.data(), row, threshold, unit);
        case LpNorm::kLInf:
          break;  // unreachable: the L∞ pre-pass always resolves
      }
      break;
    case simd::Verdict::kUnsupported:
      break;
  }
  // Single-row calls are unmetered (a counter flush per row would dominate
  // the kernel); the batch scans carry the work counters.
  std::uint64_t cr = 0;
  switch (v.norm()) {
    case LpNorm::kL2: {
      // Fast pass, high-variance attributes first: running d² against ε²,
      // rejecting past the slackened threshold (certain reject — see
      // kCertainRejectSlack), no sqrt on the reject path. Survivors are
      // recomputed in canonical order with the exact LpAccumulator
      // semantics (threshold check after every add, one sqrt on accept) so
      // the returned value is bit-identical to the scalar reference.
      const double thr_sq = threshold * threshold;
      return RowWithinL2(v, q_.data(), row, thr_sq,
                         thr_sq * kCertainRejectSlack, unit, &cr);
    }
    case LpNorm::kL1:
      return RowWithinL1(v, q_.data(), row, threshold,
                         threshold * kCertainRejectSlack, unit, &cr);
    case LpNorm::kLInf:
      // max is order-independent (NaN terms drop out of std::max exactly as
      // in LpAccumulator), so one pass in scan order is already exact.
      return RowWithinLInf(v, q_.data(), row, threshold, unit, &cr);
  }
  return 0;
}

void FlatKernel::CollectWithin(double epsilon, std::vector<std::size_t>* rows,
                               std::vector<double>* distances) const {
  CollectCtx ctx{rows, distances};
  simd::ScanDelta delta;
  ScanRange(*view_, q_.data(), epsilon, 0, view_->rows(), &CollectHit, &ctx,
            &delta);
  FlushScan(*view_, delta);
}

std::size_t FlatKernel::CountWithin(double epsilon) const {
  std::size_t count = 0;
  simd::ScanDelta delta;
  ScanRange(*view_, q_.data(), epsilon, 0, view_->rows(), &CountHit, &count,
            &delta);
  FlushScan(*view_, delta);
  return count;
}

double FlatKernel::DistanceOn(const AttributeSet& x, std::size_t row) const {
  const ColumnarView& v = *view_;
  const bool unit = v.unit_scales();
  LpAccumulator acc(v.norm());
  for (std::uint64_t bits = MaskedBits(x, v.arity()); bits != 0;
       bits &= bits - 1) {
    const auto a = static_cast<std::size_t>(std::countr_zero(bits));
    double d = std::fabs(q_[a] - v.column(a)[row]);
    if (!unit) d /= v.scale(a);
    acc.Add(d);
  }
  return acc.Total();
}

double FlatKernel::DistanceOnWithin(const AttributeSet& x, std::size_t row,
                                    double threshold) const {
  const ColumnarView& v = *view_;
  const bool unit = v.unit_scales();
  const std::uint64_t masked = MaskedBits(x, v.arity());
  double exact = 0;
  switch (simd::DistanceOnWithinPrepass(v.simd_tier(), v, q_.data(), masked,
                                        row, threshold, &exact)) {
    case simd::Verdict::kCertainReject:
      return kInf;
    case simd::Verdict::kExact:
      return exact;
    case simd::Verdict::kMaybeWithin:
    case simd::Verdict::kUnsupported:
      break;  // canonical LpAccumulator loop below
  }
  LpAccumulator acc(v.norm());
  for (std::uint64_t bits = masked; bits != 0; bits &= bits - 1) {
    const auto a = static_cast<std::size_t>(std::countr_zero(bits));
    double d = std::fabs(q_[a] - v.column(a)[row]);
    if (!unit) d /= v.scale(a);
    acc.Add(d);
    if (acc.Exceeds(threshold)) return kInf;
  }
  return acc.Total();
}

void FlatKernel::FillDistances(double* out, std::size_t begin,
                               std::size_t end) const {
  const ColumnarView& v = *view_;
  if (!simd::FillDistances(v.simd_tier(), v, q_.data(), begin, end, out)) {
    const bool unit = v.unit_scales();
    for (std::size_t i = begin; i < end; ++i) {
      out[i - begin] = CanonicalDistance(v, q_.data(), i, unit);
    }
  }
  simd::ScanDelta delta;
  delta.rows_scanned = end - begin;
  FlushScan(v, delta);
}

void FlatKernel::FillAttributeDistances(std::size_t a, double* out) const {
  const ColumnarView& v = *view_;
  if (simd::FillAttributeDistances(v.simd_tier(), v, q_[a], a, out)) return;
  const double* col = v.column(a);
  const double q = q_[a];
  const double scale = v.scale(a);
  const std::size_t n = v.rows();
  if (scale == 1.0) {
    for (std::size_t i = 0; i < n; ++i) out[i] = std::fabs(q - col[i]);
  } else {
    for (std::size_t i = 0; i < n; ++i) out[i] = std::fabs(q - col[i]) / scale;
  }
}

}  // namespace disc
