#include "core/search_budget.h"

#include <string>

namespace disc {

const char* SaveTerminationName(SaveTermination t) {
  switch (t) {
    case SaveTermination::kCompleted:
      return "completed";
    case SaveTermination::kVisitBudget:
      return "visit_budget";
    case SaveTermination::kQueryBudget:
      return "query_budget";
    case SaveTermination::kDeadline:
      return "deadline";
    case SaveTermination::kCancelled:
      return "cancelled";
    case SaveTermination::kInfeasible:
      return "infeasible";
    case SaveTermination::kFault:
      return "fault";
  }
  return "unknown";
}

Status SaveTerminationStatus(SaveTermination t) {
  switch (t) {
    case SaveTermination::kCompleted:
    case SaveTermination::kInfeasible:
      return Status::OK();
    case SaveTermination::kVisitBudget:
      return Status::ResourceExhausted("visited-set budget exhausted");
    case SaveTermination::kQueryBudget:
      return Status::ResourceExhausted("index-query budget exhausted");
    case SaveTermination::kDeadline:
      return Status::DeadlineExceeded("save deadline expired");
    case SaveTermination::kCancelled:
      return Status::Cancelled("save cancelled");
    case SaveTermination::kFault:
      return Status::ResourceExhausted("search aborted by a transient fault");
  }
  return Status::Internal("unknown termination");
}

std::chrono::milliseconds RetryPolicy::BackoffFor(
    std::size_t retry_index) const {
  double ms = static_cast<double>(initial_backoff.count());
  for (std::size_t i = 0; i < retry_index; ++i) ms *= backoff_multiplier;
  const double cap = static_cast<double>(max_backoff.count());
  if (!(ms < cap)) ms = cap;
  if (ms < 0.0) ms = 0.0;
  return std::chrono::milliseconds(static_cast<std::int64_t>(ms));
}

bool RetryPolicy::IsTransient(SaveTermination t) {
  return t == SaveTermination::kFault || t == SaveTermination::kVisitBudget ||
         t == SaveTermination::kQueryBudget;
}

BudgetGauge::BudgetGauge(const SearchBudget* budget, Deadline extra_deadline,
                         CancellationToken extra_cancellation)
    : budget_(budget),
      deadline_(Deadline::Min(
          budget != nullptr ? budget->deadline : Deadline::Infinite(),
          extra_deadline)),
      extra_cancellation_(std::move(extra_cancellation)),
      fault_node_(FaultSiteFor("search.node")),
      fault_scan_(FaultSiteFor("bounds.scan")) {}

bool BudgetGauge::Stop(SaveTermination why) {
  if (!stopped_) {
    stopped_ = true;
    reason_ = why;
  }
  return false;
}

bool BudgetGauge::OnNodeExpanded(std::size_t visited_sets) {
  ++nodes_;
  ++stats_.nodes_expanded;
  if (stopped_) return false;
  if (fault_node_ != nullptr && !fault_node_->Hit().ok()) {
    return Stop(SaveTermination::kFault);
  }
  if ((budget_ != nullptr && budget_->cancellation.cancelled()) ||
      extra_cancellation_.cancelled()) {
    return Stop(SaveTermination::kCancelled);
  }
  if (deadline_.expired()) return Stop(SaveTermination::kDeadline);
  if (budget_ != nullptr && budget_->max_visited_sets != 0 &&
      visited_sets > budget_->max_visited_sets) {
    return Stop(SaveTermination::kVisitBudget);
  }
  if (budget_ != nullptr && budget_->max_index_queries != 0 &&
      stats_.index_queries > budget_->max_index_queries) {
    return Stop(SaveTermination::kQueryBudget);
  }
  return true;
}

bool BudgetGauge::KeepScanning() {
  if (stopped_) return false;
  if (fault_scan_ != nullptr && !fault_scan_->Hit().ok()) {
    return Stop(SaveTermination::kFault);
  }
  if ((budget_ != nullptr && budget_->cancellation.cancelled()) ||
      extra_cancellation_.cancelled()) {
    return Stop(SaveTermination::kCancelled);
  }
  if (deadline_.expired()) return Stop(SaveTermination::kDeadline);
  return true;
}

bool BudgetGauge::ContinueRefinement() {
  if (stopped_ && (reason_ == SaveTermination::kDeadline ||
                   reason_ == SaveTermination::kCancelled ||
                   reason_ == SaveTermination::kFault)) {
    return false;
  }
  if ((budget_ != nullptr && budget_->cancellation.cancelled()) ||
      extra_cancellation_.cancelled()) {
    Stop(SaveTermination::kCancelled);
    return false;
  }
  if (deadline_.expired()) {
    Stop(SaveTermination::kDeadline);
    return false;
  }
  return true;
}

}  // namespace disc
