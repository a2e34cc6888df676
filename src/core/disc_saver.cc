#include "core/disc_saver.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/log.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "core/save_journal.h"
#include "core/search_observation.h"
#include "index/index_factory.h"
#include "obs/progress.h"

namespace disc {

namespace {

/// Record for an outlier whose search never ran (batch drained-and-skipped
/// after the deadline passed or cancellation fired): untouched tuple,
/// nothing visited, termination says why.
SaveResult SkippedResult(const Tuple& outlier, SaveTermination why) {
  SaveResult result;
  result.feasible = false;
  result.termination = why;
  result.adjusted = outlier;
  return result;
}

/// Record for a search aborted by an injected/transient fault before any
/// real work: untouched tuple, kFault termination (retry-eligible), wall
/// time covering only the aborted setup.
SaveResult FaultedResult(const Tuple& outlier, std::uint64_t start_ns) {
  SaveResult result = SkippedResult(outlier, SaveTermination::kFault);
  result.stats.start_ns = start_ns;
  result.stats.wall_nanos = TraceNowNs() - start_ns;
  return result;
}

}  // namespace

Status ValidateSaveArity(std::size_t arity) {
  if (arity > kMaxSaveableAttributes) {
    return Status::InvalidArgument(
        "relation has " + std::to_string(arity) +
        " attributes; outlier saving supports at most " +
        std::to_string(kMaxSaveableAttributes) +
        " (AttributeSet bitmask capacity)");
  }
  return Status::OK();
}

AttributeSet ChangedAttributes(const Tuple& original, const Tuple& adjusted) {
  AttributeSet changed;
  for (std::size_t a = 0;
       a < original.size() && a < kMaxSaveableAttributes; ++a) {
    if (!(original[a] == adjusted[a])) changed.insert(a);
  }
  return changed;
}

DiscSaver::DiscSaver(const Relation& inliers,
                     const DistanceEvaluator& evaluator,
                     DistanceConstraint constraint, bool enable_fast_path)
    : inliers_(inliers),
      evaluator_(evaluator),
      constraint_(constraint) {
  index_ = MakeNeighborIndex(inliers_, evaluator_, constraint_.epsilon);
  cache_ = std::make_unique<KthNeighborCache>(inliers_, *index_,
                                              constraint_.eta);
  bounds_ = std::make_unique<BoundsEngine>(inliers_, evaluator_, *index_,
                                           *cache_, constraint_);
  if (enable_fast_path) columnar_ = ColumnarView::Build(inliers_, evaluator_);
}

struct DiscSaver::SearchState {
  double best_cost = std::numeric_limits<double>::infinity();
  Tuple best_adjusted;
  bool found = false;
  std::unordered_set<std::uint64_t> visited;
  std::size_t pruned = 0;
  BudgetGauge* gauge = nullptr;
  /// Per-search distance cache (full-space distances to every inlier plus
  /// memoized per-attribute rows), shared by every bound computation of this
  /// search.
  const SearchDistanceCache* dcache = nullptr;
};

void DiscSaver::Explore(const Tuple& outlier, AttributeSet x,
                        const SaveOptions& options,
                        SearchState* state) const {
  BudgetGauge* gauge = state->gauge;
  if (gauge->stopped()) return;
  // Decision capture (DESIGN.md §14): exactly one event per visited node,
  // recording which rule decided its fate and the bounds behind the
  // decision. `node` accumulates as the node is evaluated; every exit path
  // below records it. Null when explain is detached — each site is then a
  // single pointer check and the search is untouched.
  SearchObservation* ex = DecisionsOf(gauge);
  ExplainEvent node;
  node.x_bits = x.bits();
  node.incumbent = state->best_cost;
  if (!state->visited.insert(x.bits()).second) {
    if (ex != nullptr) {
      node.action = ExplainAction::kMemoHit;
      ex->Record(node);
    }
    return;  // this X was already processed (§3.3.1)
  }
  // Node expansion: hit the `search.node` fault site, then check
  // cancellation, deadline, visited-set and query budgets. On any trip the
  // incumbent stands and the whole search unwinds (anytime contract).
  if (!gauge->OnNodeExpanded(state->visited.size())) {
    if (ex != nullptr) {
      node.action = ExplainAction::kPruneBudget;
      ex->Record(node);
    }
    return;
  }

  // Lower bound (Algorithm 1 lines 1-3, Proposition 3): any adjustment that
  // keeps X fixed costs at least LB(X); supersets of X only cost more, so
  // the whole subtree is cut when LB(X) >= incumbent.
  if (options.use_lower_bound_pruning) {
    double lb = bounds_->LowerBoundForX(outlier, x, gauge, state->dcache);
    if (gauge->stopped()) {
      if (ex != nullptr) {
        node.action = ExplainAction::kPruneBudget;
        ex->Record(node);
      }
      return;
    }
    node.lb = lb;
    if (lb >= state->best_cost) {
      ++state->pruned;
      if (ex != nullptr) {
        node.action = std::isinf(lb) ? ExplainAction::kInfeasible
                                     : ExplainAction::kPruneLb;
        ex->Record(node);
      }
      return;
    }
  }

  // Upper bound (lines 4-9, Proposition 5): the spliced tuple t_o^u is a
  // feasible adjustment; adopt it when it beats the incumbent. An abandoned
  // donor scan yields no bound, so a stopped gauge can never sneak a
  // half-searched splice into the incumbent.
  std::optional<BoundsEngine::UpperBound> ub =
      bounds_->UpperBoundForX(outlier, x, gauge, state->dcache);
  if (gauge->stopped()) {
    if (ex != nullptr) {
      node.action = ExplainAction::kPruneBudget;
      ex->Record(node);
    }
    return;
  }
  if (ub.has_value()) {
    node.ub = ub->cost;
    node.donor_row = ub->donor_row;
  }
  if (ub.has_value() && ub->cost < state->best_cost) {
    state->best_cost = ub->cost;
    state->best_adjusted = ub->adjusted;
    state->found = true;
    if (ex != nullptr) {
      node.action = ExplainAction::kIncumbentUpdate;
      node.incumbent = state->best_cost;
      ex->Record(node);
    }
  } else if (ex != nullptr) {
    node.action = ExplainAction::kExpand;
    ex->Record(node);
  }

  // Recurse (lines 10-11): grow the unadjusted set.
  const std::size_t arity = evaluator_.arity();
  for (std::size_t a = 0; a < arity; ++a) {
    if (x.contains(a)) continue;
    Explore(outlier, x.With(a), options, state);
    if (gauge->stopped()) return;
  }
}

void DiscSaver::RevertRefine(const Tuple& outlier, Tuple* adjusted,
                             BudgetGauge* gauge) const {
  // Greedily restore adjusted attributes to the original values, cheapest
  // contribution first, as long as the result keeps >= eta epsilon-
  // neighbors. Each successful revert strictly reduces the adjustment cost.
  // Every mutation goes through a fully-validated trial, so stopping
  // between iterations (deadline/cancellation) leaves a feasible tuple.
  const std::size_t arity = evaluator_.arity();
  bool changed = true;
  while (changed && gauge->ContinueRefinement()) {
    changed = false;
    // Candidate attributes ordered by their per-attribute contribution.
    std::vector<std::pair<double, std::size_t>> order;
    for (std::size_t a = 0; a < arity; ++a) {
      if ((*adjusted)[a] == outlier[a]) continue;
      order.emplace_back(
          evaluator_.AttributeDistance(a, outlier[a], (*adjusted)[a]), a);
    }
    std::sort(order.begin(), order.end());
    for (const auto& [contribution, a] : order) {
      Tuple trial = *adjusted;
      trial[a] = outlier[a];
      if (bounds_->IsFeasible(trial, gauge)) {
        *adjusted = std::move(trial);
        ++gauge->stats().revert_refines;
        if (SearchObservation* ex = DecisionsOf(gauge)) {
          ExplainEvent event;
          event.action = ExplainAction::kRevertRefine;
          event.x_bits = AttributeSet().With(a).bits();
          event.ub = evaluator_.Distance(outlier, *adjusted);
          ex->Record(event);
        }
        changed = true;
        break;  // re-rank contributions after each successful revert
      }
    }
  }
}

SaveResult DiscSaver::Save(const Tuple& outlier,
                           const SaveOptions& options) const {
  return SaveImpl(outlier, options, Deadline::Infinite(), CancellationToken());
}

double DiscSaver::EstimateSearchCost(const Tuple& outlier) const {
  std::size_t needed = constraint_.eta > 0 ? constraint_.eta - 1 : 0;
  if (needed == 0) return 0;
  // `index.query` fault site: a failed estimate query degrades only the
  // schedule (the outlier is treated as maximally hard and dispatched
  // first), never the search results — estimates run outside the gauge.
  if (Status s = DISC_FAULT_POINT("index.query"); !s.ok()) {
    return std::numeric_limits<double>::infinity();
  }
  std::vector<Neighbor> nn = index_->KNearest(outlier, needed);
  if (nn.size() < needed) {
    // Fewer than η−1 inliers in total: the search degenerates anyway;
    // schedule it first so its (cheap) infeasibility verdict lands early.
    return std::numeric_limits<double>::infinity();
  }
  return nn.back().distance;
}

SaveResult DiscSaver::SaveImpl(const Tuple& outlier, const SaveOptions& options,
                               Deadline task_deadline,
                               const CancellationToken& batch_cancellation,
                               SearchObservation* obs) const {
  const std::uint64_t start_ns = TraceNowNs();
  // `search.start` fault site: an error here aborts the search before any
  // work, as an index handle or arena acquisition would.
  if (Status s = DISC_FAULT_POINT("search.start"); !s.ok()) {
    return FaultedResult(outlier, start_ns);
  }
  const std::size_t arity = evaluator_.arity();
  const bool restricted = options.kappa != 0 && options.kappa < arity;
  BudgetGauge gauge(&options.budget, task_deadline, batch_cancellation);
  // Context propagation: the observation rides on the gauge, which every
  // bound computation and index query of this search already receives.
  gauge.set_observation(obs);
  SearchState state;
  state.gauge = &gauge;

  // Per-search distance cache: Δ(t_o, t) to every inlier is invariant
  // across all B&B nodes of this search, so compute the vector once here
  // (the very first bound scan would have paid that cost anyway) and let
  // every LowerBoundForX/UpperBoundForX serve from it. Backed by the
  // columnar kernels when the fast path is on and the relation qualifies,
  // the scalar evaluator otherwise; bit-identical either way.
  //
  // `dcache.fill` fault site: the eager full-space fill is the search's
  // single biggest allocation, so a simulated allocation failure lands here
  // and aborts the search as retryable.
  if (Status s = DISC_FAULT_POINT("dcache.fill"); !s.ok()) {
    return FaultedResult(outlier, start_ns);
  }
  const SearchDistanceCache dcache(inliers_, evaluator_, outlier,
                                   columnar_.get(), &gauge.stats(), obs);
  state.dcache = &dcache;

  // The X = emptyset upper bound (Lemma 4 flavour): nearest substitution-
  // style donor. In unrestricted mode it seeds the incumbent directly. In
  // kappa-restricted mode it is kept OUT of the search incumbent — the
  // incumbent there tracks the best kappa-qualified splice (every visited X
  // has |X| >= m − kappa, so its splice changes <= kappa attributes), and
  // letting the often-cheaper substitution into it would both over-prune
  // and mask the low-attribute adjustment the caller asked for. The
  // substitution is reconsidered after revert refinement below.
  std::optional<BoundsEngine::UpperBound> global_seed = bounds_->UpperBoundForX(
      outlier, AttributeSet(), &gauge, state.dcache);
  if (!restricted && global_seed.has_value()) {
    state.best_cost = global_seed->cost;
    state.best_adjusted = global_seed->adjusted;
    state.found = true;
    if (SearchObservation* ex = DecisionsOf(&gauge)) {
      // The seed is an incumbent adoption but not a visited node; `seed`
      // keeps it out of the node-count cross-checks (obs/explain.h).
      ExplainEvent event;
      event.action = ExplainAction::kIncumbentUpdate;
      event.seed = true;
      event.ub = global_seed->cost;
      event.incumbent = global_seed->cost;
      event.donor_row = global_seed->donor_row;
      ex->Record(event);
    }
  }

  if (!restricted) {
    // Unrestricted: Algorithm 1 from X = ∅.
    Explore(outlier, AttributeSet(), options, &state);
  } else {
    // κ-restricted (§3.3.3): only adjustments touching <= κ attributes are
    // trusted, i.e. only X with |X| >= m − κ. Seed the recursion with every
    // X of size exactly m − κ; the shared visited set dedups overlaps.
    const std::size_t base_size = arity - options.kappa;
    // Enumerate subsets of size base_size with a combination walker.
    std::vector<std::size_t> combo(base_size);
    for (std::size_t i = 0; i < base_size; ++i) combo[i] = i;
    auto next_combination = [&]() {
      // Advance combo to the next size-base_size subset of {0..arity-1};
      // returns false when exhausted.
      std::size_t i = base_size;
      while (i > 0) {
        --i;
        if (combo[i] != i + arity - base_size) {
          ++combo[i];
          for (std::size_t j = i + 1; j < base_size; ++j) {
            combo[j] = combo[j - 1] + 1;
          }
          return true;
        }
      }
      return false;
    };
    do {
      AttributeSet x;
      for (std::size_t idx : combo) x.insert(idx);
      Explore(outlier, x, options, &state);
      if (gauge.stopped()) break;
    } while (base_size > 0 && next_combination());
  }

  SaveResult result;
  {
    PhaseScope phase(obs, TracePhase::kBoundsScan);
    result.lower_bound = bounds_->GlobalLowerBound(dcache);
  }
  result.visited_sets = state.visited.size();
  result.pruned_sets = state.pruned;

  // Fills the termination/accounting fields once the verdict fields
  // (feasible, kappa_exceeded) are final.
  auto finalize = [&](SaveResult* r) {
    r->index_queries = gauge.query_count();
    r->stats = gauge.stats();
    r->stats.visited_sets = state.visited.size();
    r->stats.lb_prunes = state.pruned;
    r->stats.start_ns = start_ns;
    r->stats.wall_nanos = TraceNowNs() - start_ns;
    if (gauge.stopped()) {
      r->termination = gauge.reason();
    } else if (r->feasible || r->kappa_exceeded) {
      r->termination = SaveTermination::kCompleted;
    } else {
      r->termination = SaveTermination::kInfeasible;
    }
  };

  // Collect candidates: the search incumbent (kappa-qualified when
  // restricted) and, in restricted mode, the reverted substitution seed —
  // kept only if the revert brought it within the kappa budget. This whole
  // section is the `verdict` wall phase (RevertRefine's feasibility checks
  // pause it for their index_query time).
  {
    PhaseScope verdict_phase(obs, TracePhase::kVerdict);
    bool have = false;
    Tuple best;
    double best_cost = std::numeric_limits<double>::infinity();
    bool kappa_blocked = false;

    if (state.found) {
      Tuple adjusted = state.best_adjusted;
      if (options.use_revert_refinement) {
        RevertRefine(outlier, &adjusted, &gauge);
      }
      best = adjusted;
      best_cost = evaluator_.Distance(outlier, best);
      have = true;
    }
    if (restricted && global_seed.has_value()) {
      Tuple adjusted = global_seed->adjusted;
      if (options.use_revert_refinement) {
        RevertRefine(outlier, &adjusted, &gauge);
      }
      AttributeSet changed = ChangedAttributes(outlier, adjusted);
      double cost = evaluator_.Distance(outlier, adjusted);
      if (changed.size() <= options.kappa) {
        if (!have || cost < best_cost) {
          best = adjusted;
          best_cost = cost;
          have = true;
        }
      } else if (!have) {
        // A feasible adjustment exists but needs more attributes than the
        // caller trusts — the signature of a natural outlier under §1.2.
        kappa_blocked = true;
      }
    }

    if (have) {
      AttributeSet changed = ChangedAttributes(outlier, best);
      if (restricted && changed.size() > options.kappa) {
        result.feasible = false;
        result.kappa_exceeded = true;
        result.adjusted = outlier;
      } else {
        result.feasible = true;
        result.adjusted = best;
        result.cost = best_cost;
        result.adjusted_attributes = changed;
      }
    } else {
      result.feasible = false;
      result.kappa_exceeded = kappa_blocked;
      result.adjusted = outlier;
    }
  }
  finalize(&result);
  return result;
}

std::vector<SaveResult> DiscSaver::SaveAll(const std::vector<Tuple>& outliers,
                                           const SaveOptions& options,
                                           WorkStealingPool* pool,
                                           const BatchBudget& batch,
                                           TraceSink* trace,
                                           const BatchRecovery& recovery,
                                           ExplainSink* explain) const {
  const std::size_t n = outliers.size();
  std::vector<SaveResult> results(n);
  if (n == 0) return results;

  // Resume: restore journaled results up front. Restored ordinals never
  // touch the pool — no estimate query, no search, no trace span — which
  // is what keeps the merged batch bit-identical to an uninterrupted run
  // (the journal stored the exact bits the original search produced).
  std::vector<char> restored(n, 0);
  std::size_t restored_count = 0;
  if (recovery.resume != nullptr) {
    for (const SaveJournalEntry& entry : recovery.resume->entries) {
      if (entry.ordinal >= n) continue;
      results[entry.ordinal] = entry.result;
      if (restored[entry.ordinal] == 0) ++restored_count;
      restored[entry.ordinal] = 1;
    }
  }
  const std::size_t pending = n - restored_count;

  const bool parallel = pool != nullptr && pool->size() > 1 && pending > 1;
  const std::size_t workers =
      parallel ? std::min<std::size_t>(pool->size(), pending) : 1;

  // Observation (DESIGN.md §13, §14). Every search carries one
  // SearchObservation on its gauge; after its retry loop the final attempt
  // is finished into records[ordinal], and the batch publishes the records
  // once it joined. Spans exist only when a sink or the live recorder wants
  // them, decision logs only for an explain sink or /explainz, and the
  // wall-phase profiler rides along when attached. All ids derive from
  // (batch seed, input ordinal), never from time or scheduling, so the
  // published span set and log stream for the same work are identical at
  // every thread count (estimate spans excepted — they exist only where the
  // scheduler runs the cost-estimate pass). Explain-only runs still derive
  // trace ids so logs, spans and exemplars stay joinable on one identity.
  // When everything is detached every per-search hook is a null check.
  const ObservationSinks sinks{trace, GlobalTraceRecorder(), explain,
                               GlobalExplainRecorder(), GlobalMetrics()};
  TraceRecorder* const recorder = sinks.trace_recorder;
  WallPhaseProfiler* const profiler = GlobalWallProfiler();
  const bool span_tracing = sinks.spans();
  const bool derive_ids = span_tracing || sinks.explaining();
  const bool observing = derive_ids || profiler != nullptr;
  const std::uint64_t batch_seed = derive_ids ? NextTraceBatchSeed() : 0;
  std::vector<SearchRecord> records(derive_ids ? n : 0);

  // The observation of one attempt. Each attempt starts fresh — phase
  // accumulators and events — and its search span id carries the attempt
  // ordinal, so an aborted attempt never aliases the one whose result
  // stands.
  auto observe = [&](std::size_t ordinal, std::size_t attempt) {
    SearchObservation obs;
    obs.spans = span_tracing;
    obs.explain = sinks.explaining();
    obs.profiler = profiler;
    if (derive_ids) obs.trace_id = DeriveTraceId(batch_seed, ordinal);
    if (span_tracing) {
      obs.root_span_id = DeriveSpanId(obs.trace_id, TraceSpanKind::kRoot, 0);
      obs.search_span_id = DeriveSpanId(obs.root_span_id,
                                        TraceSpanKind::kSearch, attempt - 1);
    }
    return obs;
  };

  // Live progress: registered once per batch when a global registry is
  // attached, written once per outlier from whichever thread finishes it.
  // A null registry costs one acquire load here and nothing per outlier.
  std::shared_ptr<BatchProgressTracker> progress;
  if (ProgressRegistry* registry = GlobalProgress()) {
    progress = registry->StartBatch("save_all", n, batch.deadline);
    for (std::size_t i = 0; i < n; ++i) {
      if (restored[i] != 0) progress->RecordResumed(results[i].termination);
    }
  }

  // Fair sub-deadlines: each task, when it *starts*, takes the remaining
  // batch wall clock × worker parallelism ÷ outliers left. Early tasks
  // that finish under their slice donate the unspent time to later ones
  // (the remaining clock only shrinks by what was actually used); a task
  // that would start past the deadline is drained-and-skipped.
  std::atomic<std::size_t> remaining{pending};

  auto task_slice = [&]() -> Deadline {
    Deadline task_deadline = batch.deadline;
    if (!batch.deadline.is_infinite()) {
      const std::size_t left = std::max<std::size_t>(
          std::size_t{1}, remaining.load(std::memory_order_relaxed));
      const auto rem = batch.deadline.remaining();
      // Slice = rem × min(workers, left) ÷ left, with a clamp that skips
      // the multiply for absurdly long deadlines (overflow safety).
      auto slice = rem;
      if (rem < std::chrono::hours(1)) {
        const auto par =
            static_cast<std::int64_t>(std::min<std::size_t>(workers, left));
        slice = rem * par / static_cast<std::int64_t>(left);
      }
      task_deadline = Deadline::Min(batch.deadline, Deadline::After(slice));
    }
    if (batch.per_outlier_limit.count() > 0) {
      task_deadline = Deadline::Min(task_deadline,
                                    Deadline::After(batch.per_outlier_limit));
    }
    return task_deadline;
  };

  auto run_one = [&](const Tuple& outlier, std::size_t ordinal) -> SaveResult {
    SearchObservation obs = observe(ordinal, 1);
    SaveResult result;
    std::size_t attempt = 1;
    const SaveTermination skip =
        batch.cancellation.cancelled() ? SaveTermination::kCancelled
        : batch.deadline.expired()     ? SaveTermination::kDeadline
                                       : SaveTermination::kCompleted;
    if (skip != SaveTermination::kCompleted) {
      remaining.fetch_sub(1, std::memory_order_relaxed);
      result = SkippedResult(outlier, skip);
      obs.explain = false;  // no search ran, so there is no decision log
    } else {
      const int active_slot =
          recorder != nullptr
              ? recorder->BeginActive("search", obs.trace_id,
                                      obs.search_span_id, TraceNowNs())
              : -1;
      // Retry-with-backoff: transient terminations (injected faults, the
      // non-time budgets) are re-run while the retry policy and the batch
      // deadline slack allow. Each attempt computes a fresh fair slice;
      // the final attempt's result — and only its work counters and its
      // observation — stands. Every attempt's phase time still folds into
      // the profiler: it was spent.
      for (;;) {
        result = SaveImpl(outlier, options, task_slice(), batch.cancellation,
                          observing ? &obs : nullptr);
        obs.FoldPhases();
        if (attempt >= recovery.retry.max_attempts ||
            !RetryPolicy::IsTransient(result.termination)) {
          break;
        }
        const auto backoff = recovery.retry.BackoffFor(attempt - 1);
        if (batch.cancellation.cancelled() ||
            (!batch.deadline.is_infinite() &&
             batch.deadline.remaining() < 2 * backoff)) {
          break;  // no slack left to carve the retry from
        }
        std::this_thread::sleep_for(backoff);
        ++attempt;
        obs = observe(ordinal, attempt);
        if (progress != nullptr) progress->RecordRetry();
      }
      result.stats.retries = attempt - 1;
      remaining.fetch_sub(1, std::memory_order_relaxed);
      if (recorder != nullptr) recorder->EndActive(active_slot);
    }
    result.trace_id = obs.trace_id;
    if (recovery.journal != nullptr &&
        (result.termination == SaveTermination::kCompleted ||
         result.termination == SaveTermination::kInfeasible)) {
      Status journal_status = recovery.journal->Append(ordinal, result);
      if (!journal_status.ok()) {
        // Best-effort durability: a failed append only means this outlier
        // would be re-searched on resume. The batch itself continues.
        DISC_LOG(WARN)
            .Int("ordinal", static_cast<long long>(ordinal))
            .Str("status", journal_status.ToString())
            << "journal append failed";
      }
    }
    if (progress != nullptr) {
      progress->RecordOutlier(result.termination, result.stats.wall_nanos);
    }
    if (derive_ids) {
      obs.Finish({"disc", ordinal, attempt, result.termination,
                  result.feasible, result.cost, result.lower_bound},
                 result.stats, &records[ordinal]);
    }
    return result;
  };

  if (pending == 0) {
    if (progress != nullptr) progress->MarkDone();
    return results;
  }

  if (!parallel) {
    for (std::size_t i = 0; i < n; ++i) {
      if (restored[i] != 0) continue;
      results[i] = run_one(outliers[i], i);
    }
    sinks.Publish(std::move(records));
    if (progress != nullptr) progress->MarkDone();
    return results;
  }

  // Cost-ordered work stealing. The searches vary wildly in cost (pruning
  // depends on how deep in a cluster the donor tuples sit); a FIFO schedule
  // routinely strands the most expensive search at the tail of the batch,
  // serializing its whole runtime behind everything else. Estimating each
  // search's difficulty first and dispatching hardest-first bounds that
  // tail by the longest single search. The estimates are not cheap: one
  // (η−1)-NN index query each, which for an outlier far from every inlier
  // can cost more than its whole search (a GridIndex walks ever wider cell
  // rings, then scans and sorts all of r) and far more than one bound
  // scan. The estimate pass runs on the same pool, in input order.
  MetricsRegistry* metrics = GlobalMetrics();
  const WorkStealingPool::SchedStats before = pool->stats();
  Gauge* depth_gauge =
      metrics != nullptr
          ? metrics->GetGauge("disc_sched_queue_depth",
                              "Batch save tasks queued but not yet started "
                              "on the work-stealing pool")
          : nullptr;

  std::vector<double> estimates(n, 0.0);
  std::vector<std::size_t> order;
  order.reserve(pending);
  for (std::size_t i = 0; i < n; ++i) {
    if (restored[i] == 0) order.push_back(i);
  }
  {
    const std::vector<std::size_t> input_order = order;
    pool->RunBatch(input_order, [&](std::size_t i) {
      const bool timed = span_tracing || profiler != nullptr;
      const std::uint64_t start_ns = timed ? TraceNowNs() : 0;
      estimates[i] = EstimateSearchCost(outliers[i]);
      if (!timed) return;
      const std::uint64_t elapsed = TraceNowNs() - start_ns;
      if (profiler != nullptr) profiler->Add(TracePhase::kEstimate, elapsed);
      if (span_tracing) {
        const SearchObservation ids = observe(i, 1);
        TraceSpan span;
        span.name = "estimate";
        span.start_ns = start_ns;
        span.duration_ns = elapsed;
        span.trace_id = ids.trace_id;
        span.span_id =
            DeriveSpanId(ids.root_span_id, TraceSpanKind::kEstimate, 0);
        span.parent_id = ids.root_span_id;
        span.Int("ordinal", i).Num("cost", estimates[i]);
        records[i].spans.push_back(std::move(span));
      }
    });
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return estimates[a] > estimates[b];
                   });

  // One task per outlier, hardest first; results land in their input slot,
  // which together with the unchanged per-outlier search order makes the
  // output bit-identical to the sequential path — including under a batch
  // budget, where skipped tasks produce their records without ever
  // blocking the pool's drain.
  pool->RunBatch(order, [&](std::size_t i) {
    results[i] = run_one(outliers[i], i);
    if (depth_gauge != nullptr) {
      depth_gauge->Set(static_cast<std::int64_t>(pool->queue_depth()));
    }
  });
  if (depth_gauge != nullptr) depth_gauge->Set(0);
  sinks.Publish(std::move(records));
  if (metrics != nullptr) {
    const WorkStealingPool::SchedStats after = pool->stats();
    if (Counter* c = metrics->GetCounter(
            "disc_sched_tasks_total",
            "Work-stealing pool tasks executed (cost estimates and "
            "per-outlier searches)")) {
      c->Add(after.tasks - before.tasks);
    }
    if (Counter* c =
            metrics->GetCounter("disc_sched_steals_total",
                                "Tasks taken from another worker's deque")) {
      c->Add(after.steals - before.steals);
    }
  }
  if (progress != nullptr) progress->MarkDone();
  return results;
}

}  // namespace disc
