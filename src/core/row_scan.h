#ifndef DISC_CORE_ROW_SCAN_H_
#define DISC_CORE_ROW_SCAN_H_

#include <algorithm>
#include <cstddef>
#include <optional>

#include "core/search_budget.h"
#include "core/search_observation.h"

namespace disc {

/// The one row scan behind every O(n) pass a search makes over the inlier
/// relation: the Proposition-3 / Proposition-5 band scans of BoundsEngine
/// and the eager SearchDistanceCache fill (DESIGN.md §10). Every scan runs
/// inline on the thread of the search that owns it.
///
/// Rows between two polls of a gauge-metered scan. A poll costs one
/// steady-clock read (~20 ns) at most; at one per 64 rows it is invisible
/// next to the per-row work, while a stop is noticed within microseconds.
inline constexpr std::size_t kScanPollStride = 64;

/// Where and how one row scan runs.
struct RowScan {
  std::size_t rows = 0;
  /// Polled every kScanPollStride rows; null = unmetered (never polled).
  BudgetGauge* gauge = nullptr;
};

/// Scans rows [0, scan.rows) on the calling thread: reduces into one
/// `make()` state by calling `body(state, begin, end)` over consecutive
/// sub-ranges in ascending row order, and returns that state. Unmetered,
/// the whole range is one call. Metered, each sub-range is at most
/// kScanPollStride rows and is preceded by the gauge's KeepScanning(),
/// which also hits the `bounds.scan` fault site.
///
/// Returns nullopt when a poll stopped the scan. The stop is then on the
/// gauge and noted on its decision log, and the caller returns its safe
/// value: never a result from a partial scan.
template <typename Make, typename Body>
auto ScanRows(const RowScan& scan, const Make& make, const Body& body)
    -> std::optional<decltype(make())> {
  auto state = make();
  BudgetGauge* const gauge = scan.gauge;
  if (gauge == nullptr) {
    body(state, std::size_t{0}, scan.rows);
    return state;
  }
  for (std::size_t at = 0; at < scan.rows; at += kScanPollStride) {
    if (!gauge->KeepScanning()) {
      if (SearchObservation* obs = gauge->observation()) {
        obs->NoteAbandonedScan();
      }
      return std::nullopt;
    }
    body(state, at, std::min(at + kScanPollStride, scan.rows));
  }
  return state;
}

}  // namespace disc

#endif  // DISC_CORE_ROW_SCAN_H_
