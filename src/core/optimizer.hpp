// Cost-minimizing optimizer — the paper's Section 4 solved end to end.
//
// Strategy: enumerate license sets cheapest-first (see palette.hpp) and run
// the complete CSP scheduler/binder on each until one is feasible. Because
// license sets are visited in nondecreasing cost, the first feasible one is
// provably cost-optimal as long as every cheaper set received a complete
// (not budget-truncated) infeasibility proof; when a budget is exhausted the
// result degrades honestly to "feasible, best found" — the same caveat the
// paper marks with '*' in its Tables 3 and 4.
//
// kExact uses large CSP budgets per license set; kHeuristic uses small
// budgets with randomized restarts and is the fast path for the bigger
// benchmarks.
//
// This header holds the optimizer's options and result types. The search
// runs in core::SynthesisEngine (see engine.hpp), the full API:
// multi-threaded search, progress callbacks, cooperative cancellation, and
// the frontier/reoptimize operations behind the same request object.
#pragma once

#include <cstdint>
#include <string>

#include "core/csp_solver.hpp"
#include "core/validate.hpp"
#include "obs/metrics.hpp"

namespace ht::core {

enum class Strategy { kExact, kHeuristic };

struct OptimizerOptions {
  Strategy strategy = Strategy::kExact;
  double time_limit_seconds = 120.0;
  /// Per-license-set CSP node budget (exact strategy).
  long csp_node_limit = 4'000'000;
  /// Heuristic strategy: restarts per license set and per-restart budget.
  int heuristic_restarts = 3;
  long heuristic_node_limit = 80'000;
  /// Stop after this many license sets regardless of proof state.
  long max_combos = 200'000;
  std::uint64_t seed = 1;
  /// Compute lanes for the license-set search (1 = sequential, 0 = one per
  /// hardware thread). Results are identical for every value; see
  /// core/engine.hpp for the full request-level API (progress callbacks,
  /// cancellation).
  int threads = 1;
  /// Branch-and-bound lower bounds on the license-set search (see
  /// PruningOptions::cost_bounds in core/engine.hpp). Off gives A/B
  /// baselines the pre-bound engine.
  bool cost_bounds = true;
  /// Collect per-stage timing metrics into OptimizeResult::metrics (see
  /// ObservabilityOptions in core/engine.hpp). Purely observational.
  bool collect_metrics = false;
  /// Racing portfolio mode (see PortfolioOptions in core/engine.hpp):
  /// greedy + SLS incumbent seeders race ahead of the exact enumeration.
  /// Statuses and costs of proved results are unchanged; time-to-optimal
  /// shrinks.
  bool portfolio = false;
};

enum class OptStatus {
  kOptimal,     ///< minimum cost proved
  kFeasible,    ///< valid design found; optimality not proved ('*' rows)
  kInfeasible,  ///< proved that no design meets the constraints
  kUnknown,     ///< budgets exhausted with nothing to show
};

std::string to_string(OptStatus status);

struct OptimizeStats {
  long combos_tried = 0;
  /// License sets refuted by the static feasibility screens (area /
  /// capacity / clique bounds) before any CSP dispatch.
  long combos_skipped_screen = 0;
  /// License sets skipped because a sealed dominance-cache entry (see
  /// core/search_cache.hpp) already proves them infeasible.
  long combos_skipped_cache = 0;
  long unknown_combos = 0;
  /// CSP nodes of the *winning* sub-search (historical meaning: the search
  /// whose result was committed).
  long csp_nodes = 0;
  /// CSP nodes summed across *every* sub-search of the operation — split
  /// sweeps and frontier points include their non-winning attempts, which
  /// csp_nodes drops. For a plain minimize the two coincide.
  long nodes_total = 0;
  /// Conflict-directed search counters, aggregated like nodes_total.
  long nogoods_learned = 0;
  long backjumps = 0;
  long restarts = 0;
  /// License sets refuted by the branch-and-bound lower bounds
  /// (core/bounds.hpp) before any CSP dispatch — the global cost floor and
  /// the per-palette instance/area floors.
  long lb_prunes = 0;
  /// Counter-bucket entries examined by the nogood propagator
  /// (CspResult::watch_visits), aggregated like nodes_total. The name
  /// predates the counters and stays for wire and bench-log compatibility.
  long nogood_watch_visits = 0;
  // ---- racing portfolio attribution. The pool counters are zero unless
  // PortfolioOptions::enabled; best_source and time_to_best_seconds are
  // reported for every minimize (portfolio off: source 0 = exact, time =
  // commit time of the winning set) so A/B runs can compare them. --------
  /// Incumbents published to the shared pool by the phase-A members
  /// (greedy, SLS, and the exact member's full-market probe).
  long incumbents_published = 0;
  /// greedy_construct calls made by the SLS member.
  long sls_steps = 0;
  /// Portfolio member whose binding was committed: -1 none, 0 exact,
  /// 1 greedy, 2 SLS (see core/incumbent_pool.hpp).
  int best_source = -1;
  /// Seconds until the first pool incumbent existed (-1: none). This is
  /// the portfolio's "a valid design in hand" latency.
  double time_to_incumbent_seconds = -1.0;
  /// Seconds until a binding at the final committed cost first existed,
  /// whichever member produced it (-1: no solution). With the portfolio
  /// off this is the moment the winning set committed; the bench A/B
  /// compares the two as time-to-optimal.
  double time_to_best_seconds = -1.0;
  double seconds = 0.0;
};

struct OptimizeResult {
  OptStatus status = OptStatus::kUnknown;
  Solution solution;       ///< valid iff status is kOptimal/kFeasible
  long long cost = 0;      ///< license cost of `solution`
  OptimizeStats stats;
  /// Per-stage counters and duration histograms; all zeros unless the
  /// request enabled metrics collection (ObservabilityOptions::metrics /
  /// OptimizerOptions::collect_metrics). Aggregated across every
  /// sub-search of the operation, like OptimizeStats::nodes_total.
  obs::SolveMetrics metrics;

  bool has_solution() const {
    return status == OptStatus::kOptimal || status == OptStatus::kFeasible;
  }
};

/// Table-4 semantics: `lambda_total` bounds the *combined* schedule
/// (detection phase followed by recovery phase) and the split between the
/// phases is free. SynthesisEngine::minimize_total_latency tries every
/// split with at least the critical path on each side and returns the best
/// result plus the winning split.
struct SplitResult {
  OptimizeResult result;
  int lambda_detection = 0;
  int lambda_recovery = 0;
};

}  // namespace ht::core
