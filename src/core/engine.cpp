#include "core/engine.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <optional>
#include <utility>

#include "core/bounds.hpp"
#include "core/greedy.hpp"
#include "core/incumbent_pool.hpp"
#include "core/palette.hpp"
#include "core/sls_binder.hpp"
#include "core/reoptimize.hpp"
#include "core/rules.hpp"
#include "dfg/analysis.hpp"
#include "obs/trace.hpp"
#include "util/logging.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"

namespace ht::core {
namespace {

const char* csp_status_name(CspResult::Status status) {
  switch (status) {
    case CspResult::Status::kFeasible:
      return "feasible";
    case CspResult::Status::kInfeasible:
      return "infeasible";
    case CspResult::Status::kNodeLimit:
      return "node_limit";
    case CspResult::Status::kTimeout:
      return "timeout";
    case CspResult::Status::kCancelled:
      return "cancelled";
  }
  return "?";
}

/// Result of evaluating one license set. Everything here is a pure
/// function of (spec, palettes, index, request budgets and seed) — the
/// bedrock of the N-thread == 1-thread determinism guarantee — except when
/// a wall-clock or cancellation stop truncates an evaluation.
struct ComboOutcome {
  bool feasible = false;
  /// Budget/time/cancel truncation: the set is neither proven feasible nor
  /// proven infeasible, so optimality claims must account for it.
  bool inconclusive = false;
  Solution solution;
  long csp_nodes = 0;
  long backjumps = 0;
  long restarts = 0;
  long watch_visits = 0;
  /// Nogoods the CSP learned on this set (empty when learning is off or
  /// the outcome was wall-clock truncated); recorded into the engine's
  /// NogoodStore by the committing worker.
  std::vector<CspNogood> learned;
};

ComboOutcome evaluate_combo(const ProblemSpec& spec, const Palettes& palettes,
                            long index, const SynthesisRequest& request,
                            double remaining_seconds,
                            const std::vector<CspNogood>* imported) {
  HT_TRACE_SPAN("stage/csp", "combo", index);
  obs::StageTimer dispatch_timer(obs::Stage::kCspDispatch);
  ComboOutcome out;
  // Cheap primal attempts first: a greedy success avoids any search for
  // this license set (feasibility is feasibility). Drawn from the shared
  // per-palette seed schedule (palette_seed in csp_solver.hpp, stream =
  // palette index + 1 — the full-market probe is index -1) so results do
  // not depend on evaluation order and every stochastic component of one
  // request reads one schedule.
  const std::uint64_t salt = request.strategy == Strategy::kExact
                                 ? request.seed
                                 : request.seed * 0x9e3779b9ull;
  util::Rng greedy_rng(
      palette_seed(salt, static_cast<std::uint64_t>(index + 1)));
  for (int attempt = 0; attempt < 4 * request.limits.heuristic_restarts;
       ++attempt) {
    if (request.cancel && request.cancel->cancelled()) {
      out.inconclusive = true;
      return out;
    }
    const std::optional<Solution> constructed =
        greedy_construct(spec, palettes, greedy_rng);
    if (constructed) {
      out.feasible = true;
      out.solution = *constructed;
      obs::trace_instant("csp/status", "status", "greedy", "combo", index);
      return out;
    }
  }

  const bool learning = request.pruning.nogood_learning;
  if (request.strategy == Strategy::kExact) {
    CspOptions csp_options;
    csp_options.max_nodes = request.limits.csp_node_limit;
    csp_options.time_limit_seconds = std::max(0.1, remaining_seconds);
    csp_options.seed = 0;
    csp_options.cancel = request.cancel;
    csp_options.learning = learning;
    csp_options.imported = learning ? imported : nullptr;
    // Deterministic intra-palette parallelism: on big exact solves a single
    // palette's CSP dwarfs the combo loop, so split its root level across
    // the request's thread budget. Gated to budgets/sizes where the split
    // can pay (the per-block floor would distort small node-budgeted A/B
    // runs) and to learning mode so that `nogood_learning = false` stays a
    // node-for-node reproduction of the chronological engine. Any split is
    // bit-identical to sequential — the committed block is the lowest-index
    // solved one.
    const int copies = spec.graph.num_ops() * (spec.with_recovery ? 3 : 2);
    const int split = (learning && copies >= 64 &&
                       request.limits.csp_node_limit >= 1'000'000)
                          ? 8
                          : 1;
    csp_options.subtree_split = split;
    csp_options.split_threads =
        split > 1 ? request.parallelism.resolved_threads() : 1;
    CspResult csp = schedule_and_bind(spec, palettes, csp_options);
    obs::trace_instant("csp/status", "status", csp_status_name(csp.status),
                       "combo", index);
    out.csp_nodes += csp.nodes;
    out.backjumps += csp.backjumps;
    out.restarts += csp.restarts;
    out.watch_visits += csp.watch_visits;
    out.learned = std::move(csp.learned);
    if (csp.status == CspResult::Status::kFeasible) {
      out.feasible = true;
      out.solution = csp.solution;
    } else {
      out.inconclusive = csp.status != CspResult::Status::kInfeasible;
    }
    return out;
  }

  // Heuristic: budgeted CSP run; an infeasibility proof within the cap is
  // still a proof (the search is complete, just capped). With learning on,
  // `heuristic_restarts` is a live knob again: the solve gets a Luby
  // restart schedule (unit = per-restart budget, phases rotated by the
  // per-palette seed schedule, so sibling license sets explore different
  // restart phases) under the restart-scaled total budget — and because the
  // first Luby segment is the canonical descent with the single-attempt
  // budget, outcomes can only upgrade relative to the no-restart engine.
  // With learning off it stays one canonical descent (the historical
  // engine, bit for bit) — restarting an identical search was pure waste.
  CspOptions csp_options;
  csp_options.time_limit_seconds = std::max(0.1, remaining_seconds);
  csp_options.seed = 0;
  csp_options.cancel = request.cancel;
  csp_options.learning = learning;
  if (learning) {
    csp_options.max_nodes = request.limits.heuristic_node_limit *
                            std::max(1, request.limits.heuristic_restarts);
    csp_options.restart_base = request.limits.heuristic_node_limit;
    csp_options.seed =
        palette_seed(request.seed, static_cast<std::uint64_t>(index + 1));
    csp_options.imported = imported;
  } else {
    csp_options.max_nodes = request.limits.heuristic_node_limit;
  }
  CspResult attempt = schedule_and_bind(spec, palettes, csp_options);
  obs::trace_instant("csp/status", "status", csp_status_name(attempt.status),
                     "combo", index);
  out.csp_nodes += attempt.nodes;
  out.backjumps += attempt.backjumps;
  out.restarts += attempt.restarts;
  out.watch_visits += attempt.watch_visits;
  out.learned = std::move(attempt.learned);
  if (attempt.status == CspResult::Status::kFeasible) {
    out.feasible = true;
    out.solution = attempt.solution;
  } else {
    out.inconclusive = attempt.status != CspResult::Status::kInfeasible;
  }
  return out;
}

/// Everything the workers share, guarded by one mutex (license-set
/// evaluation dominates; the critical sections are microseconds). The
/// cache itself has its own sharded locks; it is touched under the search
/// mutex only for quick record/lookup calls.
struct SharedSearch {
  explicit SharedSearch(ComboQueue combo_queue)
      : queue(std::move(combo_queue)) {}

  std::mutex mutex;
  ComboQueue queue;
  long evaluated_dispatched = 0;
  bool stop = false;
  bool cancelled = false;
  bool timed_out = false;

  const StaticScreens* screens = nullptr;  ///< never null during search
  SearchCache* cache = nullptr;            ///< null = dominance cache off
  NogoodStore* nogoods = nullptr;          ///< null = nogood learning off
  const LowerBounds* bounds = nullptr;     ///< null = cost bounds off
  /// Lower bound on the license cost of ANY feasible solution (the
  /// combinatorial floor). Computed once before the search, so every
  /// thread count prunes the same sets.
  long long cost_floor = 0;
  std::uint64_t epoch = 0;
  std::uint64_t nogood_epoch = 0;
  std::uint64_t ctx = 0;

  bool have_incumbent = false;
  long long best_cost = 0;
  /// Portfolio member rank of the incumbent (0 = exact; see
  /// core/incumbent_pool.hpp). Pre-seeded by phase A when the portfolio is
  /// on; the commit rule below lets an exact solution of equal cost take
  /// the win back from a seeder.
  int best_rank = 0;
  /// Palette index of an exact incumbent; the seeding member's attempt
  /// index for a pool incumbent (only ever compared within one rank).
  long best_index = -1;
  /// When a binding at best_cost first existed (operation clock); strictly
  /// cheaper commits reset it, equal-cost commits keep the earlier time.
  double best_seconds = -1.0;
  Solution best_solution;
  /// Truncated evaluations, deferred: (combo cost, signature). Classified
  /// after the workers join — a completed dominance proof may retroactively
  /// cover a truncated set, and doing the accounting post-join keeps it
  /// identical across thread counts.
  std::vector<std::pair<long long, PaletteSignature>> inconclusives;
  OptimizeStats stats;
  /// Per-operation metrics (request.observability.metrics); workers merge
  /// their thread-local sinks in under the mutex at each commit.
  obs::SolveMetrics metrics;
  /// Consecutive skips since the last progress publication (see
  /// kPruneProgressInterval).
  long prunes_since_progress = 0;
  std::exception_ptr failure;
};

/// Fills a progress snapshot from the shared state (caller holds
/// shared.mutex) and invokes the callback under the progress mutex.
void publish_progress(SharedSearch& shared, const SynthesisRequest& request,
                      const util::Timer& timer,
                      std::mutex& progress_mutex) {
  SynthesisProgress progress;
  progress.combos_tried = shared.stats.combos_tried;
  progress.combos_skipped_screen = shared.stats.combos_skipped_screen;
  progress.combos_skipped_cache = shared.stats.combos_skipped_cache;
  progress.lb_prunes = shared.stats.lb_prunes;
  progress.csp_nodes = shared.stats.csp_nodes;
  progress.nodes_total = shared.stats.nodes_total;
  progress.have_incumbent = shared.have_incumbent;
  progress.incumbent_cost = shared.best_cost;
  progress.seconds = timer.elapsed_seconds();
  if (request.observability.metrics) progress.metrics = shared.metrics;
  std::lock_guard<std::mutex> progress_lock(progress_mutex);
  request.progress(progress);
}

/// One search lane. Pulls license sets off the shared cheapest-first queue
/// (assigning each evaluated set its palette index), evaluates them
/// outside the lock, and commits under the lock with the deterministic
/// rule: winner = lowest (license cost, palette index).
void search_worker(SharedSearch& shared, const SynthesisRequest& request,
                   const ProblemSpec& spec, const util::Timer& timer,
                   std::mutex& progress_mutex) {
  try {
    // Lanes run on pool threads that know nothing about the request, so
    // each one re-establishes the service correlation id for its spans.
    obs::CorrelationScope correlation(request.observability.request_id);
    // Per-worker metrics sink: every instrumentation site below this frame
    // (dispatch checks, CSP, cache, validator) records here lock-free;
    // commits merge it into shared.metrics under the search mutex. The
    // Flush guard catches the exit paths (stop/timeout/cancel returns) —
    // it is declared at function scope, so its destructor runs after every
    // inner lock_guard has released the mutex.
    obs::SolveMetrics local_metrics;
    const bool collect = request.observability.metrics;
    obs::MetricsBinding metrics_binding(collect ? &local_metrics : nullptr);
    struct Flush {
      SharedSearch& shared;
      obs::SolveMetrics& local;
      bool enabled;
      ~Flush() {
        if (!enabled || local.empty()) return;
        std::lock_guard<std::mutex> lock(shared.mutex);
        shared.metrics.merge(local);
      }
    } flush{shared, local_metrics, collect};

    // Accounts one pruned license set (caller holds shared.mutex): metric +
    // trace event, and a forced progress publication every
    // kPruneProgressInterval consecutive skips so callbacks never stall
    // through a long prune-only streak.
    const auto note_prune = [&](obs::PruneReason reason, long long cost) {
      obs::record_prune(reason);
      obs::trace_instant("prune", "reason",
                         obs::prune_reason_name(reason), "cost", cost);
      if (request.progress &&
          ++shared.prunes_since_progress >= kPruneProgressInterval) {
        shared.prunes_since_progress = 0;
        if (collect && !local_metrics.empty()) {
          shared.metrics.merge(local_metrics);
          local_metrics.reset();
        }
        publish_progress(shared, request, timer, progress_mutex);
      }
    };

    Palettes palettes;
    for (;;) {
      long index = -1;
      long long combo_cost = 0;
      double remaining = 0.0;
      PaletteSignature sig;
      {
        std::lock_guard<std::mutex> lock(shared.mutex);
        for (;;) {
          if (shared.stop) return;
          if (request.cancel && request.cancel->cancelled()) {
            shared.stop = true;
            shared.cancelled = true;
            return;
          }
          remaining =
              request.limits.time_limit_seconds - timer.elapsed_seconds();
          if (remaining <= 0.0) {
            shared.stop = true;
            shared.timed_out = true;
            return;
          }
          if (shared.evaluated_dispatched >= request.limits.max_combos) {
            shared.stop = true;
            return;
          }
          long long next_cost = 0;
          if (!shared.queue.peek(next_cost)) {
            shared.stop = true;
            return;
          }
          if (shared.have_incumbent && next_cost >= shared.best_cost) {
            // Every remaining set costs at least as much as the incumbent.
            shared.stop = true;
            return;
          }
          if (shared.have_incumbent && shared.bounds &&
              shared.cost_floor >= shared.best_cost) {
            // The cost floor meets the incumbent: every feasible solution
            // costs at least the floor, so the incumbent is already the
            // optimum — no need to grind the remaining (provably
            // infeasible) cheaper sets through the window.
            shared.stop = true;
            return;
          }
          shared.queue.next(palettes, combo_cost);
          if (shared.bounds && request.pruning.static_screens &&
              combo_cost < shared.cost_floor) {
            // O(1) global-floor refutation on the hot path, before the
            // signature/screen/cache work: any solution under this set
            // would be billed at most the set's own license cost, below
            // the proven floor on every feasible solution — impossible.
            // Gated on the enhanced screens because those consume the
            // window exactly like this prune does, so the index
            // assignment stays bit-identical to a bounds-off run; under
            // the legacy screens the same check runs after them (below)
            // to preserve their historical no-consume semantics. Skipping
            // the cache record is sound for this operation: a dominance
            // entry covers only per-class *subset* palettes, whose combo
            // cost is never higher — such sets are themselves below the
            // floor and so are pruned here, never dispatched.
            ++shared.stats.lb_prunes;
            ++shared.evaluated_dispatched;
            note_prune(obs::PruneReason::kBound, combo_cost);
            continue;
          }
          sig = signature_of(spec, palettes);
          bool screen_refuted = false;
          {
            HT_TRACE_SPAN("stage/screen");
            obs::StageTimer screen_timer(obs::Stage::kScreen);
            screen_refuted = shared.screens->refutes(palettes);
          }
          if (screen_refuted) {
            // Complete static proof, not an unknown. Under the enhanced
            // screens the skip consumes the set's palette index (the same
            // rule the cache uses below): a pruned run then resolves the
            // exact budget window an unpruned run would, just without the
            // CSP work — strictly faster, identical statuses and costs.
            // The legacy bound keeps the historical no-consume semantics
            // so `pruning.static_screens = false` reproduces the old
            // engine bit for bit.
            ++shared.stats.combos_skipped_screen;
            if (shared.cache) {
              shared.cache->record(sig, shared.epoch, shared.ctx,
                                   combo_cost);
            }
            if (request.pruning.static_screens) {
              ++shared.evaluated_dispatched;
            }
            note_prune(obs::PruneReason::kScreen, combo_cost);
            continue;
          }
          // Branch-and-bound prunes. Both run *after* the screens so a
          // legacy-screen skip keeps its historical no-consume semantics in
          // every flag combination; any set reaching this point would be
          // dispatched (and so consume the window) by the bounds-off
          // engine, which is why consuming here keeps the index assignment
          // — and therefore every status and cost — bit-identical to a
          // bounds-off run. The only visible delta is wall clock plus
          // upgrade-only status strengthening at the end of the search.
          if (shared.bounds && combo_cost < shared.cost_floor) {
            // O(1) global-floor refutation: any solution under this set
            // would be billed at most the set's own license cost, below
            // the proven floor on every feasible solution — impossible.
            ++shared.stats.lb_prunes;
            ++shared.evaluated_dispatched;
            note_prune(obs::PruneReason::kBound, combo_cost);
            continue;
          }
          bool bound_refuted = false;
          if (shared.bounds) {
            HT_TRACE_SPAN("stage/bounds");
            obs::StageTimer bounds_timer(obs::Stage::kBoundsRefute);
            bound_refuted = shared.bounds->refutes(palettes);
          }
          if (bound_refuted) {
            // Energetic instance/area floors: a complete proof that no
            // schedule fits under this palette, cacheable like a screen
            // refutation.
            ++shared.stats.lb_prunes;
            if (shared.cache) {
              shared.cache->record(sig, shared.epoch, shared.ctx,
                                   combo_cost);
            }
            ++shared.evaluated_dispatched;
            note_prune(obs::PruneReason::kBound, combo_cost);
            continue;
          }
          bool cache_dominated = false;
          if (shared.cache) {
            HT_TRACE_SPAN("stage/cache");
            obs::StageTimer cache_timer(obs::Stage::kCacheProbe);
            cache_dominated =
                shared.cache->dominated_frozen(sig, shared.epoch);
          }
          if (cache_dominated) {
            // A sealed proof from an earlier operation dominates this set:
            // infeasible by monotonicity, exactly what the CSP would have
            // returned. The skip consumes the set's palette index so the
            // dispatch budget and index assignment line up with a
            // cache-off run.
            ++shared.stats.combos_skipped_cache;
            ++shared.evaluated_dispatched;
            note_prune(obs::PruneReason::kCache, combo_cost);
            continue;
          }
          index = shared.evaluated_dispatched++;
          ++shared.stats.combos_tried;
          shared.prunes_since_progress = 0;
          break;
        }
      }

      // Frozen-tier import: entries sealed before this operation whose
      // guard dominates this palette. The store is internally locked and
      // the frozen tier is immutable during the search, so this runs
      // outside the dispatch lock and every interleaving reads the same
      // set.
      std::vector<CspNogood> imported;
      if (shared.nogoods) {
        shared.nogoods->collect_frozen(sig, shared.nogood_epoch, &imported);
      }
      ComboOutcome outcome =
          evaluate_combo(spec, palettes, index, request, remaining,
                         imported.empty() ? nullptr : &imported);
      const long learned_here = static_cast<long>(outcome.learned.size());
      if (shared.nogoods && !outcome.learned.empty()) {
        shared.nogoods->record(std::move(outcome.learned), sig,
                               shared.nogood_epoch, shared.ctx, combo_cost);
      }

      {
        std::lock_guard<std::mutex> lock(shared.mutex);
        shared.stats.csp_nodes += outcome.csp_nodes;
        shared.stats.nodes_total += outcome.csp_nodes;
        shared.stats.backjumps += outcome.backjumps;
        shared.stats.restarts += outcome.restarts;
        shared.stats.nogood_watch_visits += outcome.watch_visits;
        shared.stats.nogoods_learned += learned_here;
        if (collect && !local_metrics.empty()) {
          shared.metrics.merge(local_metrics);
          local_metrics.reset();
        }
        if (outcome.feasible) {
          require_valid(spec, outcome.solution);
          const long long cost = outcome.solution.license_cost(spec);
          // Deterministic commit rule, portfolio-extended: winner = lowest
          // (license cost, member rank, palette index). Exact commits are
          // rank 0, so at equal cost they displace any phase-A seeder —
          // which is what keeps portfolio-on bindings identical to exact
          // whenever the exact search completes.
          if (!shared.have_incumbent || cost < shared.best_cost) {
            shared.best_seconds = timer.elapsed_seconds();
          }
          if (!shared.have_incumbent || cost < shared.best_cost ||
              (cost == shared.best_cost &&
               (shared.best_rank > 0 || index < shared.best_index))) {
            shared.have_incumbent = true;
            shared.best_cost = cost;
            shared.best_rank = 0;
            shared.best_index = index;
            shared.best_solution = outcome.solution;
            obs::trace_instant("engine/incumbent", "cost", cost, "combo",
                               index);
            util::log_fields(util::LogLevel::kDebug, "engine.incumbent",
                             {{"cost", cost},
                              {"combo", index},
                              {"combos_tried", shared.stats.combos_tried}});
          }
        } else if (outcome.inconclusive) {
          shared.inconclusives.emplace_back(combo_cost, sig);
        } else if (shared.cache) {
          // Complete CSP refutation: cacheable proof. Truncated outcomes
          // (node limit / timeout / cancel) prove nothing and are never
          // recorded.
          shared.cache->record(sig, shared.epoch, shared.ctx, combo_cost);
        }
        if (request.progress) {
          shared.prunes_since_progress = 0;
          publish_progress(shared, request, timer, progress_mutex);
        }
      }
    }
  } catch (...) {
    std::lock_guard<std::mutex> lock(shared.mutex);
    if (!shared.failure) shared.failure = std::current_exception();
    shared.stop = true;
  }
}

/// Runs fn(i, inner_threads) for i in [0, n) across `threads` compute
/// lanes: min(threads, n) outer lanes, the rest of the budget handed down
/// to each call. Exceptions from any lane are rethrown (first one wins).
void run_indexed(std::size_t n, int threads,
                 const std::function<void(std::size_t, int)>& fn) {
  const int outer =
      std::max(1, std::min(threads, static_cast<int>(n == 0 ? 1 : n)));
  const int inner = std::max(1, threads / outer);
  if (outer == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i, inner);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::mutex failure_mutex;
  std::exception_ptr failure;
  auto lane = [&] {
    try {
      for (std::size_t i;
           (i = next.fetch_add(1, std::memory_order_relaxed)) < n;) {
        fn(i, inner);
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(failure_mutex);
      if (!failure) failure = std::current_exception();
    }
  };
  {
    util::ThreadPool pool(outer - 1);
    util::TaskGroup group(pool);
    for (int t = 0; t < outer - 1; ++t) group.run(lane);
    lane();  // the calling thread is a lane too
    group.wait();
  }
  if (failure) std::rethrow_exception(failure);
}

}  // namespace

const char* request_kind_name(RequestKind kind) {
  switch (kind) {
    case RequestKind::kMinimize:
      return "minimize";
    case RequestKind::kMinimizeTotalLatency:
      return "minimize_total_latency";
    case RequestKind::kAreaFrontier:
      return "area_frontier";
    case RequestKind::kLatencyFrontier:
      return "latency_frontier";
    case RequestKind::kReoptimize:
      return "reoptimize";
  }
  return "?";
}

bool parse_request_kind(const std::string& name, RequestKind* out) {
  for (int k = 0; k < kNumRequestKinds; ++k) {
    const auto kind = static_cast<RequestKind>(k);
    if (name == request_kind_name(kind)) {
      *out = kind;
      return true;
    }
  }
  return false;
}

SynthesisEngine::SynthesisEngine(SynthesisRequest request)
    : request_(std::move(request)) {}

SynthesisResponse SynthesisEngine::run(const SynthesisRequest& request) {
  request_ = request;
  return run();
}

SynthesisResponse SynthesisEngine::run() {
  // Covers the calling thread for the whole operation (enumeration,
  // sweeps, logging); spawned lanes re-establish the scope themselves.
  obs::CorrelationScope correlation(request_.observability.request_id);
  SynthesisResponse response;
  response.kind = request_.kind;
  switch (request_.kind) {
    case RequestKind::kMinimize:
      response.result = minimize();
      break;
    case RequestKind::kMinimizeTotalLatency: {
      const SplitResult split = minimize_total_latency(request_.lambda_total);
      response.result = split.result;
      response.lambda_detection = split.lambda_detection;
      response.lambda_recovery = split.lambda_recovery;
      break;
    }
    case RequestKind::kAreaFrontier:
    case RequestKind::kLatencyFrontier: {
      FrontierSweep sweep;
      sweep.axis = request_.kind == RequestKind::kAreaFrontier
                       ? FrontierSweep::Axis::kArea
                       : FrontierSweep::Axis::kTotalLatency;
      sweep.values = request_.sweep_values;
      response.frontier = sweep_frontier(sweep);
      if (!response.frontier.empty()) {
        response.result = response.frontier.front().result;
      }
      break;
    }
    case RequestKind::kReoptimize:
      response.result = reoptimize(request_.banned);
      break;
  }
  return response;
}

SynthesisResponse synthesize(const SynthesisRequest& request) {
  SynthesisEngine engine;
  return engine.run(request);
}

void SynthesisEngine::adopt_warm(const WarmSnapshotPtr& snap) {
  if (snap == nullptr) {
    cache_.adopt(nullptr);
    nogoods_.adopt(nullptr);
    return;
  }
  // Aliasing shared_ptrs: both sub-snapshots pin the whole WarmSnapshot, so
  // the bundle stays alive as long as either store reads from it.
  cache_.adopt(
      std::shared_ptr<const CacheSnapshot>(snap, &snap->cache));
  nogoods_.adopt(
      std::shared_ptr<const NogoodSnapshot>(snap, &snap->nogoods));
}

WarmDelta SynthesisEngine::export_warm_delta() const {
  WarmDelta delta;
  delta.cache = cache_.export_delta();
  delta.nogoods = nogoods_.export_delta();
  return delta;
}

OptimizeResult SynthesisEngine::minimize() {
  op_epoch_ = cache_.begin_op(request_.spec);
  nogood_epoch_ = nogoods_.begin_op(request_.spec);
  return minimize_spec(request_.spec, request_.parallelism.resolved_threads(),
                       /*ctx=*/0);
}

OptimizeResult SynthesisEngine::minimize_spec(const ProblemSpec& spec,
                                              int threads,
                                              std::uint64_t ctx) {
  spec.validate();
  util::Timer timer;
  OptimizeResult result;
  // Split/sweep points reach here on pool lanes where the run()-level
  // scope does not apply; declared before the span so the span carries it.
  obs::CorrelationScope correlation(request_.observability.request_id);
  HT_TRACE_SPAN("engine/minimize");
  // The calling thread's sink covers the pre-search stages (enumeration,
  // bounds, the probe, full-market screens); workers bind their own
  // sinks and merge into shared.metrics, folded in after the join.
  obs::SolveMetrics op_metrics;
  obs::MetricsBinding op_binding(
      request_.observability.metrics ? &op_metrics : nullptr);

  // Latency bounds below the (weighted) critical path are a proof of
  // infeasibility.
  try {
    const std::vector<int> latencies = spec.op_latencies();
    (void)dfg::alap_levels(spec.graph, spec.lambda_detection, latencies);
    if (spec.with_recovery) {
      (void)dfg::alap_levels(spec.graph, spec.lambda_recovery, latencies);
    }
  } catch (const util::InfeasibleError&) {
    result.status = OptStatus::kInfeasible;
    result.stats.seconds = timer.elapsed_seconds();
    return result;
  }

  const auto min_sizes = min_vendors_per_class(spec);
  // A class whose conflict clique needs more vendors than the market
  // offers is a proof of infeasibility (e.g. recovery on a 2-vendor
  // market: the NC/RC/recovery triangle needs 3).
  for (int cls = 0; cls < dfg::kNumResourceClasses; ++cls) {
    const auto rc = static_cast<dfg::ResourceClass>(cls);
    if (spec.graph.ops_per_class()[cls] == 0) continue;
    if (spec.catalog.num_vendors_offering(rc) < min_sizes[cls]) {
      result.status = OptStatus::kInfeasible;
      result.stats.seconds = timer.elapsed_seconds();
      return result;
    }
  }

  const StaticScreens screens(spec, request_.pruning.static_screens);
  // Monotonicity short-circuit: screens refuting even the *full market*
  // palette proves every combo (a per-class subset of it) infeasible, so
  // don't enumerate the combo space just to screen each entry — on wide
  // markets that space runs into the millions.
  Palettes full_market;
  for (int cls = 0; cls < dfg::kNumResourceClasses; ++cls) {
    const auto rc = static_cast<dfg::ResourceClass>(cls);
    if (spec.graph.ops_per_class()[cls] == 0) continue;
    full_market[cls] = spec.catalog.vendors_by_cost(rc);
  }
  bool market_screened = false;
  {
    HT_TRACE_SPAN("stage/screen");
    obs::StageTimer screen_timer(obs::Stage::kScreen);
    market_screened = screens.refutes(full_market);
  }
  if (market_screened) {
    result.status = OptStatus::kInfeasible;
    result.stats.combos_skipped_screen = 1;
    result.stats.seconds = timer.elapsed_seconds();
    obs::record_prune(obs::PruneReason::kScreen);
    result.metrics = op_metrics;
    return result;
  }

  // Branch-and-bound lower bounds (core/bounds.hpp), computed once so
  // every lane prunes the same sets. The same monotonicity short-circuit
  // as the screens applies: floors the full market cannot supply refute
  // every palette.
  std::optional<LowerBounds> bounds;
  long long cost_floor = 0;
  if (request_.pruning.cost_bounds) {
    bounds.emplace(spec);
    cost_floor = bounds->global_cost_lb();
    bool market_refuted = false;
    {
      HT_TRACE_SPAN("stage/bounds");
      obs::StageTimer bounds_timer(obs::Stage::kBoundsRefute);
      market_refuted = bounds->refutes(full_market);
    }
    if (market_refuted) {
      result.status = OptStatus::kInfeasible;
      result.stats.lb_prunes = 1;
      result.stats.seconds = timer.elapsed_seconds();
      obs::record_prune(obs::PruneReason::kBound);
      result.metrics = op_metrics;
      return result;
    }
  }

  // Racing portfolio, phase A (request.portfolio.enabled): the greedy
  // seeder and the SLS binder run first, concurrently on the pool, as
  // deterministic step-budgeted incumbent hunters publishing validated
  // bindings into the shared IncumbentPool. The phase joins before the
  // exact dispatch loop starts, and the pool's deterministic best seeds
  // the loop's incumbent from time zero — so every set at or above it is
  // pruned (`next_cost >= best_cost`) and a cost floor meeting it proves
  // optimality with zero exact dispatching. Members never read the pool
  // mid-run (their trajectories are pure functions of (spec, seed,
  // budgets)); the lock-free best-cost hint exists for concurrent
  // publishes and external observers. Proofs still decide the race: a
  // seeded incumbent is only an upper bound, and the exact member takes
  // the win back at equal cost under the (cost, member rank, palette
  // index) commit rule.
  IncumbentPool pool;
  long portfolio_sls_steps = 0;
  // Full-market incumbent probe state (see the probe block below). In
  // portfolio mode the probe joins phase A as the exact member's own
  // seeder, racing the greedy/SLS members instead of running serially —
  // its billed-cost solution lands in the pool, so a probe binding
  // cheaper than anything phase A found still seeds the search
  // (upgrade-only: the portfolio can never commit worse than the serial
  // engine's probe backfill would have).
  std::optional<Solution> probe_solution;
  long probe_nodes = 0, probe_backjumps = 0, probe_restarts = 0;
  long probe_watch_visits = 0;
  double probe_seconds = -1.0;
  const bool probe_wanted =
      request_.pruning.nogood_learning &&
      (!request_.cancel || !request_.cancel->cancelled());
  if (request_.portfolio.enabled &&
      (!request_.cancel || !request_.cancel->cancelled())) {
    HT_TRACE_SPAN("engine/portfolio");
    std::vector<PortfolioMember> members;
    if (probe_wanted) members.push_back(PortfolioMember::kExact);
    members.push_back(PortfolioMember::kGreedy);
    members.push_back(PortfolioMember::kSls);
    std::vector<obs::SolveMetrics> member_metrics(members.size());
    std::mutex sls_mutex;
    run_indexed(members.size(), threads, [&](std::size_t i, int) {
      obs::CorrelationScope correlation(request_.observability.request_id);
      obs::MetricsBinding member_binding(
          request_.observability.metrics ? &member_metrics[i] : nullptr);
      const int rank = static_cast<int>(members[i]);
      // Distinct deterministic stream per member, well away from the
      // palette-index streams evaluate_combo draws (see palette_seed).
      const std::uint64_t member_seed = palette_seed(
          request_.seed, 0x9e370000ull + static_cast<std::uint64_t>(rank));
      const auto publish = [&](const Solution& solution, long long cost,
                               long attempt) {
        Incumbent entry;
        entry.cost = cost;
        entry.member_rank = rank;
        entry.palette_index = attempt;
        entry.solution = solution;
        entry.publish_seconds = timer.elapsed_seconds();
        if (pool.publish(std::move(entry))) {
          obs::trace_instant("engine/incumbent", "cost", cost, "member",
                             static_cast<long>(rank));
        }
      };
      if (members[i] == PortfolioMember::kExact) {
        // The probe (below) moved into the race: one budgeted solve of
        // the least constrained palette, published at the licenses its
        // binding actually uses. palette_index max() keeps the old
        // backfill precedence — any true palette commit at equal cost
        // displaces it under the (cost, rank, index) rule.
        HT_TRACE_SPAN("engine/probe");
        ComboOutcome probe = evaluate_combo(
            spec, full_market, /*index=*/-1, request_,
            request_.limits.time_limit_seconds - timer.elapsed_seconds(),
            /*imported=*/nullptr);
        probe_nodes = probe.csp_nodes;
        probe_backjumps = probe.backjumps;
        probe_restarts = probe.restarts;
        probe_watch_visits = probe.watch_visits;
        probe_seconds = timer.elapsed_seconds();
        if (probe.feasible) {
          const long long cost = probe.solution.license_cost(spec);
          publish(probe.solution, cost, std::numeric_limits<long>::max());
          probe_solution = std::move(probe.solution);
        }
      } else if (members[i] == PortfolioMember::kGreedy) {
        // Full-market warm-up: the billed cost is the licenses a binding
        // actually uses, so full-market constructions are real upper
        // bounds on the optimum, found in microseconds when the spec is
        // easy for the greedy.
        util::Rng rng(member_seed);
        const int attempts =
            std::max(1, 4 * request_.limits.heuristic_restarts);
        long long best = std::numeric_limits<long long>::max();
        for (int a = 0; a < attempts; ++a) {
          if (request_.cancel && request_.cancel->cancelled()) break;
          const std::optional<Solution> constructed =
              greedy_construct(spec, full_market, rng);
          if (!constructed) continue;
          const long long cost = constructed->license_cost(spec);
          if (cost >= best) continue;
          best = cost;
          publish(*constructed, cost, a);
        }
      } else {
        obs::StageTimer sls_timer(obs::Stage::kSlsSearch);
        SlsOptions sls;
        sls.seed = member_seed;
        sls.time_limit_seconds = std::max(
            0.1,
            request_.limits.time_limit_seconds - timer.elapsed_seconds());
        sls.cancel = request_.cancel;
        sls.on_improved = publish;
        const SlsOutcome sls_outcome = sls_search(spec, sls);
        std::lock_guard<std::mutex> lock(sls_mutex);
        portfolio_sls_steps += sls_outcome.steps;
      }
    });
    for (obs::SolveMetrics& member : member_metrics) {
      op_metrics.merge(member);
    }
  }

  // Full-market incumbent probe: one budgeted solve of the *least*
  // constrained palette before the cheapest-first grind. On hard specs the
  // cheap sets are contested and burn their whole node budget inconclusive
  // while the full market solves in a handful of nodes — the probe turns
  // the budget-exhausted kUnknown those rows used to report into a
  // kFeasible with a real binding, priced at the licenses the solution
  // actually uses. It can never change any other answer: a winner cheaper
  // than the probe's set is committed exactly as before (every set cheaper
  // than a committed winner is dispatched or skipped-with-proof first), so
  // the probe only fills in answers the search failed to produce. Runs
  // before the search so a node-bounded probe is a pure function of (spec,
  // budgets) — the same determinism carve-out as every other evaluation.
  // Gated on nogood_learning: off must reproduce the historical engine.
  // In portfolio mode the probe already ran inside phase A above,
  // concurrently with the other members, and published into the pool.
  const std::optional<Incumbent> seeded = pool.best();
  if (probe_wanted && !request_.portfolio.enabled &&
      (!request_.cancel || !request_.cancel->cancelled())) {
    HT_TRACE_SPAN("engine/probe");
    ComboOutcome probe = evaluate_combo(
        spec, full_market, /*index=*/-1, request_,
        request_.limits.time_limit_seconds - timer.elapsed_seconds(),
        /*imported=*/nullptr);
    probe_nodes = probe.csp_nodes;
    probe_backjumps = probe.backjumps;
    probe_restarts = probe.restarts;
    probe_watch_visits = probe.watch_visits;
    probe_seconds = timer.elapsed_seconds();
    if (probe.feasible) probe_solution = std::move(probe.solution);
  }
  SharedSearch shared([&] {
    HT_TRACE_SPAN("stage/enumerate");
    obs::StageTimer enumerate_timer(obs::Stage::kEnumeration);
    return ComboQueue(enumerate_palettes(spec, min_sizes));
  }());
  shared.screens = &screens;
  shared.cache = request_.pruning.dominance_cache ? &cache_ : nullptr;
  shared.nogoods = request_.pruning.nogood_learning ? &nogoods_ : nullptr;
  shared.bounds = bounds ? &*bounds : nullptr;
  shared.cost_floor = cost_floor;
  shared.epoch = op_epoch_;
  shared.nogood_epoch = nogood_epoch_;
  shared.ctx = ctx;
  if (seeded) {
    require_valid(spec, seeded->solution);
    shared.have_incumbent = true;
    shared.best_cost = seeded->cost;
    shared.best_rank = seeded->member_rank;
    shared.best_index = seeded->palette_index;
    shared.best_seconds = pool.best_cost_seconds();
    shared.best_solution = seeded->solution;
  }
  const int lanes = std::max(1, threads);
  if (lanes == 1) {
    search_worker(shared, request_, spec, timer, progress_mutex_);
  } else {
    util::ThreadPool pool(lanes - 1);
    util::TaskGroup group(pool);
    for (int t = 0; t < lanes - 1; ++t) {
      group.run([&] {
        search_worker(shared, request_, spec, timer, progress_mutex_);
      });
    }
    search_worker(shared, request_, spec, timer, progress_mutex_);
    group.wait();
  }
  if (shared.failure) std::rethrow_exception(shared.failure);

  result.stats = shared.stats;
  result.stats.nodes_total += probe_nodes;
  result.stats.backjumps += probe_backjumps;
  result.stats.restarts += probe_restarts;
  result.stats.nogood_watch_visits += probe_watch_visits;
  result.stats.incumbents_published = pool.published();
  result.stats.sls_steps = portfolio_sls_steps;
  result.stats.time_to_incumbent_seconds = pool.first_publish_seconds();
  result.stats.time_to_best_seconds = shared.best_seconds;
  result.stats.best_source = shared.have_incumbent ? shared.best_rank : -1;
  result.stats.seconds = timer.elapsed_seconds();
  if (request_.observability.metrics) {
    op_metrics.merge(shared.metrics);
    result.metrics = op_metrics;
  }

  // Seal this sub-search's cache contribution down to its deterministic
  // prefix: only refutations of sets cheaper than the final incumbent are
  // dispatched in *every* run (the cheapest-first queue cannot stop while
  // cheaper sets remain), so only those may become skip-visible to later
  // operations. Then classify the deferred truncated evaluations — a
  // completed dominance proof retroactively covers a truncated set, which
  // can turn a '*' result into a proven one without any extra search.
  const long long keep_below =
      shared.have_incumbent ? shared.best_cost
                            : std::numeric_limits<long long>::max();
  if (shared.cache) {
    shared.cache->finalize_context(shared.epoch, ctx, keep_below);
  }
  if (shared.nogoods) {
    // Same deterministic-prefix rule as the cache: only nogoods learned on
    // sets cheaper than the final incumbent are dispatched in every run.
    shared.nogoods->finalize_context(shared.nogood_epoch, ctx, keep_below);
  }
  long long cheapest_inconclusive = -1;
  for (const auto& [combo_cost, sig] : shared.inconclusives) {
    if (shared.cache && shared.cache->dominated(sig, shared.epoch, ctx)) {
      continue;  // proven infeasible after all; not an unknown
    }
    ++result.stats.unknown_combos;
    if (cheapest_inconclusive < 0 || combo_cost < cheapest_inconclusive) {
      cheapest_inconclusive = combo_cost;
    }
  }

  long long next_cost = 0;
  const bool queue_drained = !shared.queue.peek(next_cost);
  if (shared.have_incumbent) {
    result.solution = shared.best_solution;
    result.cost = shared.best_cost;
    // Optimal iff every cheaper license set is disproven: nothing cheaper
    // is left undispatched and no truncated evaluation was cheaper. A cost
    // floor meeting the incumbent is an equivalent proof — every feasible
    // solution costs at least the floor, so whatever cheaper sets remain
    // in the queue are infeasible.
    const bool no_cheaper_left =
        queue_drained || next_cost >= shared.best_cost ||
        (bounds && cost_floor >= shared.best_cost);
    const bool proven = no_cheaper_left &&
                        (cheapest_inconclusive < 0 ||
                         cheapest_inconclusive >= shared.best_cost);
    result.status = proven ? OptStatus::kOptimal : OptStatus::kFeasible;
  } else if (queue_drained && result.stats.unknown_combos == 0) {
    result.status = OptStatus::kInfeasible;
  } else if (probe_solution) {
    // Budget exhausted with no incumbent, but the probe holds a feasible
    // full-market binding: report it instead of kUnknown. Never a downgrade
    // of a proof (the kInfeasible branch above requires a drained queue, in
    // which case the probe could not have found a solution).
    result.solution = std::move(*probe_solution);
    result.cost = result.solution.license_cost(spec);
    // `nodes` reports the winning attempt (see bench/bench_util.hpp): when
    // the probe supplies the committed solution, its nodes are the winning
    // sub-search (they are already in nodes_total either way).
    result.stats.csp_nodes += probe_nodes;
    // Backfill attribution: the committed binding existed the moment the
    // probe finished, and the probe is the exact member's own seeder.
    result.stats.best_source = static_cast<int>(PortfolioMember::kExact);
    result.stats.time_to_best_seconds = probe_seconds;
    // The probe's set is the full market, but its solution is billed at
    // the licenses it uses; a cost floor meeting that bill proves no
    // feasible design anywhere is cheaper, i.e. the backfill is optimal.
    result.status = (bounds && cost_floor >= result.cost)
                        ? OptStatus::kOptimal
                        : OptStatus::kFeasible;
  } else {
    result.status = OptStatus::kUnknown;
  }
  util::log_fields(util::LogLevel::kDebug, "engine.done",
                   {{"status", to_string(result.status)},
                    {"graph", spec.graph.name()},
                    {"combos", result.stats.combos_tried},
                    {"nodes", result.stats.csp_nodes},
                    {"seconds", result.stats.seconds},
                    {"threads", lanes},
                    {"req", static_cast<long long>(
                                request_.observability.request_id)}});
  return result;
}

SplitResult SynthesisEngine::minimize_total_latency(int lambda_total) {
  op_epoch_ = cache_.begin_op(request_.spec);
  nogood_epoch_ = nogoods_.begin_op(request_.spec);
  return split_minimize(request_.spec, lambda_total,
                        request_.parallelism.resolved_threads(),
                        /*ctx_base=*/0);
}

SplitResult SynthesisEngine::split_minimize(const ProblemSpec& base,
                                            int lambda_total, int threads,
                                            std::uint64_t ctx_base) {
  util::check_spec(base.with_recovery,
                   "minimize_total_latency requires recovery mode");
  const int critical_path =
      dfg::critical_path_length(base.graph, base.op_latencies());
  util::check_spec(lambda_total >= 2 * critical_path,
                   "lambda_total below twice the critical path (" +
                       std::to_string(critical_path) +
                       "): no split can schedule both phases");

  std::vector<int> splits;
  for (int lambda_det = critical_path;
       lambda_det <= lambda_total - critical_path; ++lambda_det) {
    splits.push_back(lambda_det);
  }
  std::vector<OptimizeResult> attempts(splits.size());
  run_indexed(splits.size(), threads,
              [&](std::size_t i, int inner_threads) {
                ProblemSpec spec = base;
                spec.lambda_detection = splits[i];
                spec.lambda_recovery = lambda_total - splits[i];
                attempts[i] =
                    minimize_spec(spec, inner_threads, ctx_base + i + 1);
              });

  // Fold in ascending lambda_det order — the same deterministic pick the
  // sequential sweep makes, regardless of which lane finished first.
  SplitResult best;
  bool any_inconclusive = false;
  for (std::size_t i = 0; i < splits.size(); ++i) {
    const OptimizeResult& attempt = attempts[i];
    if (attempt.status == OptStatus::kUnknown ||
        attempt.status == OptStatus::kFeasible) {
      // A '*' result or no result at all leaves room for a cheaper design
      // under this split.
      any_inconclusive = true;
    }
    const bool better =
        attempt.has_solution() &&
        (!best.result.has_solution() || attempt.cost < best.result.cost ||
         (attempt.cost == best.result.cost &&
          attempt.status == OptStatus::kOptimal &&
          best.result.status != OptStatus::kOptimal));
    if (better) {
      best.result = attempt;
      best.lambda_detection = splits[i];
      best.lambda_recovery = lambda_total - splits[i];
    }
  }
  if (!best.result.has_solution()) {
    best.result.status =
        any_inconclusive ? OptStatus::kUnknown : OptStatus::kInfeasible;
  } else if (any_inconclusive &&
             best.result.status == OptStatus::kOptimal) {
    // Optimal for its own split, but some other split was inconclusive, so
    // the row-level minimum is not proved.
    best.result.status = OptStatus::kFeasible;
  }
  // The winner's stats describe only its own sub-search; the row-total
  // counters sum every split's attempt so the work the non-winning splits
  // burned is visible (historically it was silently dropped).
  best.result.stats.nodes_total = 0;
  best.result.stats.nogoods_learned = 0;
  best.result.stats.backjumps = 0;
  best.result.stats.restarts = 0;
  best.result.stats.nogood_watch_visits = 0;
  best.result.stats.incumbents_published = 0;
  best.result.stats.sls_steps = 0;
  best.result.metrics.reset();
  for (const OptimizeResult& attempt : attempts) {
    best.result.stats.nodes_total += attempt.stats.nodes_total;
    best.result.stats.nogoods_learned += attempt.stats.nogoods_learned;
    best.result.stats.backjumps += attempt.stats.backjumps;
    best.result.stats.restarts += attempt.stats.restarts;
    best.result.stats.nogood_watch_visits += attempt.stats.nogood_watch_visits;
    best.result.stats.incumbents_published +=
        attempt.stats.incumbents_published;
    best.result.stats.sls_steps += attempt.stats.sls_steps;
    best.result.metrics.merge(attempt.metrics);
  }
  return best;
}

std::vector<FrontierPoint> SynthesisEngine::sweep_frontier(
    const FrontierSweep& sweep) {
  const ProblemSpec& base = request_.spec;
  const int threads = request_.parallelism.resolved_threads();
  op_epoch_ = cache_.begin_op(base);
  nogood_epoch_ = nogoods_.begin_op(base);
  std::vector<FrontierPoint> frontier(sweep.values.size());
  if (sweep.axis == FrontierSweep::Axis::kArea) {
    run_indexed(sweep.values.size(), threads,
                [&](std::size_t i, int inner_threads) {
                  ProblemSpec spec = base;
                  spec.area_limit = sweep.values[i];
                  frontier[i].constraint = sweep.values[i];
                  frontier[i].result =
                      minimize_spec(spec, inner_threads, i + 1);
                });
    return frontier;
  }
  util::check_spec(base.with_recovery,
                   "latency frontier sweeps the combined schedule; the spec "
                   "must have recovery enabled");
  const int critical_path =
      dfg::critical_path_length(base.graph, base.op_latencies());
  run_indexed(sweep.values.size(), threads,
              [&](std::size_t i, int inner_threads) {
                const int lambda_total = static_cast<int>(sweep.values[i]);
                frontier[i].constraint = lambda_total;
                if (lambda_total < 2 * critical_path) {
                  frontier[i].result.status = OptStatus::kInfeasible;
                } else {
                  // ctx_base keeps the nested splits of different sweep
                  // points in disjoint cache contexts.
                  frontier[i].result =
                      split_minimize(base, lambda_total, inner_threads,
                                     (i + 1) << 20)
                          .result;
                }
              });
  return frontier;
}

OptimizeResult SynthesisEngine::reoptimize(
    const std::set<LicenseKey>& banned) {
  ProblemSpec thinned = request_.spec;
  thinned.catalog = without_licenses(request_.spec.catalog, banned);
  // A class whose every offer is banned makes the problem unsolvable;
  // report that as infeasibility rather than a spec error.
  const auto counts = thinned.graph.ops_per_class();
  for (int cls = 0; cls < dfg::kNumResourceClasses; ++cls) {
    if (counts[cls] == 0) continue;
    if (thinned.catalog.num_vendors_offering(
            static_cast<dfg::ResourceClass>(cls)) == 0) {
      OptimizeResult result;
      result.status = OptStatus::kInfeasible;
      return result;
    }
  }
  // The thinned catalog keeps vendor ids and offer areas, so every sealed
  // refutation transfers: quarantine re-searches skip straight past the
  // license sets the original search already disproved.
  op_epoch_ = cache_.begin_op(thinned);
  nogood_epoch_ = nogoods_.begin_op(thinned);
  return minimize_spec(thinned, request_.parallelism.resolved_threads(),
                       /*ctx=*/0);
}

SynthesisRequest make_request(const ProblemSpec& spec,
                              const OptimizerOptions& options) {
  SynthesisRequest request;
  request.spec = spec;
  request.strategy = options.strategy;
  request.limits.time_limit_seconds = options.time_limit_seconds;
  request.limits.csp_node_limit = options.csp_node_limit;
  request.limits.heuristic_restarts = options.heuristic_restarts;
  request.limits.heuristic_node_limit = options.heuristic_node_limit;
  request.limits.max_combos = options.max_combos;
  request.parallelism.threads = options.threads;
  request.pruning.cost_bounds = options.cost_bounds;
  request.portfolio.enabled = options.portfolio;
  request.observability.metrics = options.collect_metrics;
  request.seed = options.seed;
  return request;
}

}  // namespace ht::core
