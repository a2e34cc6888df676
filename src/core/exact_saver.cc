#include "core/exact_saver.h"

#include <limits>

#include "core/search_observation.h"
#include "index/index_factory.h"

namespace disc {

ExactSaver::ExactSaver(const Relation& inliers,
                       const DistanceEvaluator& evaluator,
                       DistanceConstraint constraint)
    : inliers_(inliers), evaluator_(evaluator), constraint_(constraint) {
  index_ = MakeNeighborIndex(inliers_, evaluator_, constraint_.epsilon);
  domains_.reserve(inliers_.arity());
  for (std::size_t a = 0; a < inliers_.arity(); ++a) {
    domains_.push_back(inliers_.Domain(a));
  }
}

struct ExactSaver::EnumState {
  double best_cost = std::numeric_limits<double>::infinity();
  Tuple best_adjusted;
  bool found = false;
  std::size_t checked = 0;
  /// Set when max_candidates trips (the gauge handles every other limit).
  bool candidate_cap_hit = false;
  BudgetGauge* gauge = nullptr;
};

bool ExactSaver::IsFeasible(const Tuple& candidate, BudgetGauge* gauge) const {
  // The saved tuple counts toward its own η total (Formula 4), so η−1
  // inlier matches suffice.
  std::size_t needed = constraint_.eta > 0 ? constraint_.eta - 1 : 0;
  if (needed == 0) return true;
  if (gauge != nullptr) {
    ++gauge->stats().index_queries;
    ++gauge->stats().feasibility_checks;
    ++gauge->stats().index_count_queries;
  }
  PhaseScope phase(gauge != nullptr ? gauge->observation() : nullptr,
                   TracePhase::kIndexQuery);
  return index_->CountWithin(candidate, constraint_.epsilon, needed) >= needed;
}

void ExactSaver::Enumerate(const Tuple& outlier, std::size_t attr,
                           Tuple* candidate, double partial_cost_raw,
                           const ExactOptions& options,
                           EnumState* state) const {
  if (state->candidate_cap_hit || state->gauge->stopped()) return;
  const LpNorm norm = evaluator_.norm();
  auto raw_total = [&](double raw) {
    // Convert the accumulated raw value into the norm's final aggregate.
    if (norm == LpNorm::kL2) return raw;        // raw is sum of squares
    return raw;                                  // L1: sum, LInf: max
  };
  auto best_raw = [&]() {
    if (!state->found) return std::numeric_limits<double>::infinity();
    if (norm == LpNorm::kL2) return state->best_cost * state->best_cost;
    return state->best_cost;
  };

  if (raw_total(partial_cost_raw) >= best_raw()) {
    return;  // cannot beat the incumbent no matter what follows
  }

  if (attr == evaluator_.arity()) {
    // One fully assembled candidate = one budget unit: fire the fault hook,
    // poll deadline/cancellation, and count toward the visit budget. The
    // incumbent only ever holds candidates that passed a complete
    // feasibility check, so stopping here is always safe.
    ++state->checked;
    if (!state->gauge->OnNodeExpanded(state->checked)) {
      if (SearchObservation* ex = DecisionsOf(state->gauge)) {
        ExplainEvent event;
        event.action = ExplainAction::kPruneBudget;
        event.x_bits = ChangedAttributes(outlier, *candidate).bits();
        event.incumbent = state->best_cost;
        ex->Record(event);
      }
      return;
    }
    if (options.max_candidates != 0 &&
        state->checked > options.max_candidates) {
      state->candidate_cap_hit = true;
      return;
    }
    if (IsFeasible(*candidate, state->gauge)) {
      // Early exit past the incumbent: a candidate strictly costlier than
      // best_cost comes back as +infinity and fails the `<` identically.
      double cost =
          evaluator_.DistanceWithin(outlier, *candidate, state->best_cost);
      if (cost < state->best_cost) {
        state->best_cost = cost;
        state->best_adjusted = *candidate;
        state->found = true;
        if (SearchObservation* ex = DecisionsOf(state->gauge)) {
          ExplainEvent event;
          event.action = ExplainAction::kIncumbentUpdate;
          event.x_bits = ChangedAttributes(outlier, *candidate).bits();
          event.ub = cost;
          event.incumbent = cost;
          ex->Record(event);
        }
      }
    }
    return;
  }

  // Try the unmodified value first (zero marginal cost), then each domain
  // value sorted implicitly by the relation's domain order.
  auto step = [&](const Value& v) {
    double d = evaluator_.AttributeDistance(attr, outlier[attr], v);
    double add = (norm == LpNorm::kL2) ? d * d : d;
    double next_raw = (norm == LpNorm::kLInf)
                          ? std::max(partial_cost_raw, add)
                          : partial_cost_raw + add;
    (*candidate)[attr] = v;
    Enumerate(outlier, attr + 1, candidate, next_raw, options, state);
    (*candidate)[attr] = outlier[attr];
  };

  step(outlier[attr]);
  for (const Value& v : domains_[attr]) {
    if (state->candidate_cap_hit || state->gauge->stopped()) return;
    if (v == outlier[attr]) continue;
    step(v);
  }
}

ExactResult ExactSaver::Save(const Tuple& outlier, const ExactOptions& options,
                             Deadline extra_deadline,
                             const CancellationToken& extra_cancellation) const {
  const std::uint64_t start_ns = TraceNowNs();
  BudgetGauge gauge(&options.budget, extra_deadline, extra_cancellation);
  gauge.set_observation(options.observation);
  EnumState state;
  state.gauge = &gauge;
  Tuple candidate = outlier;
  Enumerate(outlier, 0, &candidate, 0.0, options, &state);

  ExactResult result;
  result.candidates_checked = state.checked;
  result.index_queries = gauge.query_count();
  result.stats = gauge.stats();
  result.stats.start_ns = start_ns;
  result.stats.wall_nanos = TraceNowNs() - start_ns;
  if (gauge.stopped()) {
    result.termination = gauge.reason();
  } else if (state.candidate_cap_hit) {
    result.termination = SaveTermination::kVisitBudget;
  } else if (state.found) {
    result.termination = SaveTermination::kCompleted;
  } else {
    result.termination = SaveTermination::kInfeasible;
  }
  if (state.found) {
    result.feasible = true;
    result.adjusted = state.best_adjusted;
    result.cost = state.best_cost;
    result.adjusted_attributes = ChangedAttributes(outlier, state.best_adjusted);
  } else {
    result.feasible = false;
    result.adjusted = outlier;
  }
  return result;
}

}  // namespace disc
