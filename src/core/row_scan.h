#ifndef DISC_CORE_ROW_SCAN_H_
#define DISC_CORE_ROW_SCAN_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "common/trace.h"
#include "core/search_budget.h"
#include "core/search_observation.h"

namespace disc {

/// The one chunked row scan behind every O(n) pass a search makes over the
/// inlier relation: the Proposition-3 / Proposition-5 band scans of
/// BoundsEngine and the eager SearchDistanceCache fill (DESIGN.md §10).
///
/// Rows per pooled chunk. Chunk boundaries are a pure function of (n, grain)
/// and the grain is a multiple of ColumnarView::kLanePad, so block-aligned
/// kernel fills stay bit-identical when chunked.
inline constexpr std::size_t kScanGrain = 8192;

/// Rows between two hard-stop polls of a gauge-metered scan. A poll costs
/// one steady-clock read (~20 ns) at most; at one per 64 rows it is
/// invisible next to the per-row work, while a stop is noticed within
/// microseconds.
inline constexpr std::size_t kScanPollStride = 64;

/// True when chunking an n-row scan over `pool` pays for itself.
inline bool UseChunkedScan(const WorkStealingPool* pool, std::size_t n) {
  return pool != nullptr && pool->size() > 1 && n >= 2 * kScanGrain;
}

/// Builds the `pool_chunk` spans of one pooled scan, parented under the
/// owning phase span. The scan's id derives from the search's running scan
/// ordinal, so chunk ids do not depend on scheduling. Chunk presence depends
/// on the pooled path engaging (pool size, n), so chunk spans are excluded
/// from the cross-thread-count parity contract (DESIGN.md §13).
class ChunkSpanRecorder {
 public:
  ChunkSpanRecorder(SearchObservation* obs, TracePhase phase) {
    if (obs == nullptr || !obs->spans) return;
    obs_ = obs;
    trace_id_ = obs_->trace_id;
    phase_span_ = obs_->PhaseSpanId(phase);
    scan_span_ = DeriveSpanId(phase_span_, TraceSpanKind::kScan,
                              obs_->scan_ordinal++);
  }

  bool enabled() const { return obs_ != nullptr; }

  /// Call from the chunk body's thread after the chunk's work; reads only
  /// this recorder, never the observation.
  TraceSpan Make(std::uint64_t chunk_start_ns, std::size_t chunk,
                 std::size_t rows) const {
    TraceSpan span;
    span.name = "pool_chunk";
    span.start_ns = chunk_start_ns;
    span.duration_ns = TraceNowNs() - chunk_start_ns;
    span.trace_id = trace_id_;
    span.span_id = DeriveSpanId(scan_span_, TraceSpanKind::kChunk, chunk);
    span.parent_id = phase_span_;
    span.Int("chunk", chunk).Int("rows", rows);
    return span;
  }

  /// Owner thread, after the join: appends the spans of the chunks that ran
  /// to completion, in chunk order.
  void Append(std::vector<TraceSpan>& slots) const {
    for (TraceSpan& span : slots) {
      if (!span.name.empty()) obs_->chunk_spans.push_back(std::move(span));
    }
  }

 private:
  SearchObservation* obs_ = nullptr;
  std::uint64_t trace_id_ = 0;
  std::uint64_t phase_span_ = 0;
  std::uint64_t scan_span_ = 0;
};

/// Where and how one row scan runs.
struct RowScan {
  std::size_t rows = 0;
  /// Polled every kScanPollStride rows; null = unmetered (never polled).
  BudgetGauge* gauge = nullptr;
  /// Chunks the scan when UseChunkedScan(pool, rows); null = inline.
  WorkStealingPool* pool = nullptr;
  /// Receives one span per pooled chunk under `phase`; null = unobserved.
  SearchObservation* obs = nullptr;
  TracePhase phase = TracePhase::kBoundsScan;
};

/// Scans rows [0, scan.rows): calls `body(state, begin, end)` over
/// consecutive sub-ranges, each at most kScanPollStride rows when a gauge
/// meters the scan, and returns the reduced state.
///
/// Inline (the default, and whenever the pool would not pay) the whole
/// range is one chunk on the calling thread, reducing straight into one
/// `make()` state and polling the gauge's single-threaded KeepScanning(),
/// which also hits the `bounds.scan` fault site. Pooled, every chunk
/// reduces into its own `make()` state and polls only the thread-safe
/// HardStopRequested(); the states are then folded into a fresh `make()`
/// state with `merge(total, part)` in ascending chunk order, so a merge
/// that reconstructs the sequential reduction keeps results bit-identical
/// for any worker count.
///
/// Returns nullopt when a poll stopped the scan. The stop is then on the
/// gauge and noted on its decision log, and the caller returns its safe
/// value: never a result from a partial scan.
template <typename Make, typename Body, typename Merge>
auto ScanRows(const RowScan& scan, const Make& make, const Body& body,
              const Merge& merge) -> std::optional<decltype(make())> {
  using State = decltype(make());
  BudgetGauge* const gauge = scan.gauge;
  // Runs [begin, end) into `state`, polling before every stride.
  auto run_chunk = [&](State& state, std::size_t begin, std::size_t end,
                       const auto& keep_going) {
    if (gauge == nullptr) {
      body(state, begin, end);
      return true;
    }
    for (std::size_t at = begin; at < end; at += kScanPollStride) {
      if (!keep_going()) return false;
      body(state, at, std::min(at + kScanPollStride, end));
    }
    return true;
  };
  auto abandon = [&]() -> std::optional<State> {
    if (SearchObservation* obs = gauge->observation()) obs->NoteAbandonedScan();
    return std::nullopt;
  };

  State total = make();
  if (!UseChunkedScan(scan.pool, scan.rows)) {
    if (!run_chunk(total, 0, scan.rows,
                   [gauge] { return gauge->KeepScanning(); })) {
      return abandon();
    }
    return total;
  }

  const std::size_t chunks = (scan.rows + kScanGrain - 1) / kScanGrain;
  std::vector<State> parts;
  parts.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) parts.push_back(make());
  std::atomic<bool> aborted{false};
  const ChunkSpanRecorder spans(scan.obs, scan.phase);
  // One span slot per chunk, each written only by its chunk's body.
  std::vector<TraceSpan> span_slots(spans.enabled() ? chunks : 0);
  scan.pool->ParallelFor(
      0, scan.rows, kScanGrain,
      [&](std::size_t begin, std::size_t end, std::size_t chunk) {
        const std::uint64_t chunk_start = spans.enabled() ? TraceNowNs() : 0;
        auto keep_going = [&] {
          if (aborted.load(std::memory_order_relaxed)) return false;
          if (!gauge->HardStopRequested()) return true;
          aborted.store(true, std::memory_order_relaxed);
          return false;
        };
        if (!run_chunk(parts[chunk], begin, end, keep_going)) return;
        if (spans.enabled()) {
          span_slots[chunk] = spans.Make(chunk_start, chunk, end - begin);
        }
      });
  if (spans.enabled()) spans.Append(span_slots);
  if (aborted.load(std::memory_order_relaxed)) {
    gauge->RecordHardStop();
    return abandon();
  }
  for (State& part : parts) merge(total, part);
  return total;
}

}  // namespace disc

#endif  // DISC_CORE_ROW_SCAN_H_
