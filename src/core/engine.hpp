// Unified synthesis entry point: one request object, one engine, one
// response.
//
// Every operation — cost minimization at fixed or total latency, area and
// latency frontiers, re-synthesis on a quarantined market — shares one
// outer loop around the license-set search and one copy of the budget
// semantics. The engine puts them behind a single SynthesisRequest that carries the
// operation (RequestKind), the spec, the search budgets, the degree of
// parallelism, an optional progress callback, and an optional cancel token
// — and runs the license-set search on a work-stealing thread pool.
// SynthesisEngine::run() dispatches on the request kind and returns the one
// canonical SynthesisResponse; the kind-specific methods remain for callers
// that statically know their operation. The same request/response pair has
// a stable JSON serialization in src/service/wire.hpp shared by the thls
// CLI, the thlsd daemon, thls-client and the bench harness.
//
// Parallel search, deterministic commit. Workers pull license sets from the
// shared cheapest-first queue (each popped set gets a sequential
// palette index), evaluate them concurrently with the greedy/CSP stack, and
// commit results under one lock with the rule: the winner is the feasible
// solution of lowest (license cost, palette index). Because per-set
// evaluation is a pure function of (spec, palettes, index, seed) and the
// dispatched sets always form a prefix of the deterministic queue order
// that covers every set cheaper than the final winner, N-thread results are
// bit-identical to 1-thread — same status, cost, and binding. The only
// caveat is shared with the sequential engine: a binding wall-clock or
// cancellation stop truncates the search at a time-dependent point, so
// determinism is guaranteed whenever node/combo budgets (not the clock or
// the token) terminate the search. OptimizeStats are aggregated at commit
// time and may legitimately differ across thread counts (speculative
// evaluations); statuses and solutions never do.
#pragma once

#include <functional>
#include <mutex>
#include <set>
#include <vector>

#include "core/frontier.hpp"
#include "core/nogood.hpp"
#include "core/optimizer.hpp"
#include "core/search_cache.hpp"
#include "core/warm_state.hpp"
#include "obs/metrics.hpp"
#include "util/thread_pool.hpp"

namespace ht::core {

/// Shared budget semantics for one synthesis call. Time and combo limits
/// span the whole search across all workers; node limits are per license
/// set.
struct SearchLimits {
  double time_limit_seconds = 120.0;
  /// Per-license-set CSP node budget (exact strategy).
  long csp_node_limit = 4'000'000;
  /// Heuristic strategy: restarts per license set and per-restart budget.
  int heuristic_restarts = 3;
  long heuristic_node_limit = 80'000;
  /// Stop after this many license sets regardless of proof state.
  long max_combos = 200'000;
};

struct Parallelism {
  /// Total compute lanes (calling thread included); 1 = sequential,
  /// 0 = one lane per hardware thread.
  int threads = 1;

  int resolved_threads() const {
    return threads <= 0 ? util::ThreadPool::hardware_concurrency() : threads;
  }
};

/// Prune-before-solve toggles (see core/search_cache.hpp). Both default on;
/// disabling them reproduces the pre-pruning engine exactly (A/B baselines,
/// determinism cross-checks). Neither changes statuses, costs or bindings —
/// skips carry complete infeasibility proofs.
struct PruningOptions {
  /// Skip license sets dominated by a sealed infeasibility proof from an
  /// earlier operation on the same engine (reoptimize, repeated minimize,
  /// successive sweeps), and reclassify truncated evaluations a completed
  /// proof covers.
  bool dominance_cache = true;
  /// Refute license sets by static occupancy/area/capacity/clique bounds
  /// before any CSP dispatch. When off, only the legacy phase-density area
  /// precheck runs.
  bool static_screens = true;
  /// Conflict-directed CSP search (core/csp_solver.hpp): backjumping +
  /// nogood learning, with learned nogoods reused across sibling palettes
  /// of later engine operations (core/nogood.hpp), Luby restarts on the
  /// heuristic path, and a full-market incumbent probe that backfills a
  /// budget-exhausted kUnknown with a feasible full-market binding. Off
  /// reproduces the chronological search node for node (A/B baselines).
  /// The whole package is upgrade-only: nogoods are sound deductions and
  /// the probe only answers where the search produced nothing, so a
  /// committed solution's cost and bindings never change and a verdict can
  /// only get *stronger* within equal budgets (a truncated evaluation may
  /// finish its proof or gain a feasible fallback).
  bool nogood_learning = true;
  /// Branch-and-bound lower bounds (core/bounds.hpp): a global license-cost
  /// floor refutes every cheaper license set in O(1) at pop time, and
  /// per-palette energetic instance/area floors refute sets no schedule can
  /// fit — all before any CSP dispatch. Bound prunes consume the
  /// max_combos window exactly like screen skips, so statuses and costs
  /// match the bounds-off engine row for row; the only visible differences
  /// are the wall clock and *upgrades* (the engine reports kOptimal the
  /// moment the cost floor meets the incumbent instead of enumerating on).
  bool cost_bounds = true;
};

/// Racing algorithm portfolio (see core/incumbent_pool.hpp and DESIGN.md
/// "Racing portfolio"). Enabled, each license-set minimization races three
/// members: the greedy constructor, the SLS binder (core/sls_binder.hpp,
/// default SlsOptions budgets), and the exact member's full-market probe run
/// concurrently as deterministic, step-budgeted incumbent seeders
/// publishing validated bindings into a shared IncumbentPool; the exact
/// cheapest-first enumeration then starts with the pool's best as its
/// upper bound from time zero — pruning every set at or above it and
/// stopping instantly when the cost floor meets it.
/// The race is decided by *proofs*, not costs: seeder bindings only ever
/// bound the search, and the commit rule (cost, member rank, palette
/// index) hands the win to the exact member whenever it completes at equal
/// cost — so statuses and costs of proved results are bit-identical to a
/// portfolio-off run, at any thread count, and only wall clock (plus
/// upgrade-only strengthening of budget-truncated rows) changes.
struct PortfolioOptions {
  bool enabled = false;
};

/// Observability toggles for one synthesis call. Tracing is process-wide
/// (obs::start_tracing / trace.hpp) because spans fire from every layer;
/// metrics collection is per request because the per-stage timers live on
/// the dispatch hot path and SolveMetrics rides on each result.
struct ObservabilityOptions {
  /// Collect per-stage counters and duration histograms into
  /// OptimizeResult::metrics (see obs/metrics.hpp). Never changes
  /// statuses, costs, or bindings — only observes. Off: every
  /// instrumentation site is a thread-local load + branch.
  bool metrics = false;
  /// Request-correlation id minted by the service at admission (0 = not a
  /// service request). The engine establishes an obs::CorrelationScope
  /// with it on every search lane, so each trace span and log line of a
  /// daemon request is joinable back to its journal record. Never read by
  /// the search itself — results are bit-identical for any value.
  std::uint64_t request_id = 0;
};

/// Snapshot passed to the progress callback after each evaluated license
/// set — and, so callbacks never stall silently on prune-heavy searches,
/// after every kPruneProgressInterval consecutive skips. Callbacks are
/// serialized under the engine's commit lock — they may be called from any
/// worker thread but never concurrently; keep them fast.
struct SynthesisProgress {
  long combos_tried = 0;
  /// Skip counters, mirroring OptimizeStats: license sets refuted by the
  /// static screens, the dominance cache, and the branch-and-bound floors.
  long combos_skipped_screen = 0;
  long combos_skipped_cache = 0;
  long lb_prunes = 0;
  long csp_nodes = 0;
  /// CSP nodes including non-winning sibling sub-searches (see
  /// OptimizeStats::nodes_total).
  long nodes_total = 0;
  bool have_incumbent = false;
  long long incumbent_cost = 0;
  double seconds = 0.0;
  /// Live per-stage breakdown ("where the solver is"); zeros unless the
  /// request enabled ObservabilityOptions::metrics.
  obs::SolveMetrics metrics;
};

/// Consecutive skips between forced progress publications.
inline constexpr long kPruneProgressInterval = 2048;

using ProgressFn = std::function<void(const SynthesisProgress&)>;

/// The engine's operations, selected per request. One enum instead of the
/// historical four free-function families.
enum class RequestKind {
  kMinimize = 0,          ///< cost-minimal design for the fixed spec
  kMinimizeTotalLatency,  ///< Table-4: free split of `lambda_total`
  kAreaFrontier,          ///< cost vs. area bound over `sweep_values`
  kLatencyFrontier,       ///< cost vs. total latency over `sweep_values`
  kReoptimize,            ///< quarantine re-synthesis with `banned` removed
};
inline constexpr int kNumRequestKinds = 5;

/// Stable wire name ("minimize", "minimize_total_latency", ...).
const char* request_kind_name(RequestKind kind);

/// Inverse of request_kind_name; returns false on an unknown name.
bool parse_request_kind(const std::string& name, RequestKind* out);

/// Everything one synthesis call needs. The spec is owned by value so a
/// request outlives the data it was built from. Which of the kind-specific
/// fields (lambda_total, sweep_values, banned) is read depends on `kind`;
/// the others are ignored.
struct SynthesisRequest {
  RequestKind kind = RequestKind::kMinimize;
  ProblemSpec spec;
  Strategy strategy = Strategy::kExact;
  SearchLimits limits;
  Parallelism parallelism;
  PruningOptions pruning;
  PortfolioOptions portfolio;
  ObservabilityOptions observability;
  std::uint64_t seed = 1;
  /// kMinimizeTotalLatency: bound on the combined detection + recovery
  /// schedule; the split is chosen by the engine.
  int lambda_total = 0;
  /// kAreaFrontier: area limits; kLatencyFrontier: total latencies.
  std::vector<long long> sweep_values;
  /// kReoptimize: licenses removed from the market before re-synthesis.
  std::set<LicenseKey> banned;
  ProgressFn progress;                      ///< optional
  const util::CancelToken* cancel = nullptr;  ///< optional; not owned
};

/// Constraint axis swept by SynthesisEngine::sweep_frontier.
struct FrontierSweep {
  enum class Axis {
    kArea,          ///< values are area limits
    kTotalLatency,  ///< values are total (detection + recovery) latencies
  };
  Axis axis = Axis::kArea;
  std::vector<long long> values;
};

/// The one response shape every operation produces. `result` always holds
/// the primary verdict: the optimum for kMinimize/kReoptimize, the best
/// split's result for kMinimizeTotalLatency (with the winning split in the
/// lambda fields), and the *first* point's result for the frontier kinds
/// (the full curve is in `frontier`).
struct SynthesisResponse {
  RequestKind kind = RequestKind::kMinimize;
  OptimizeResult result;
  /// kMinimizeTotalLatency: the committed split.
  int lambda_detection = 0;
  int lambda_recovery = 0;
  /// Frontier kinds: one labeled point per sweep value, in request order.
  std::vector<FrontierPoint> frontier;
};

/// Façade over the parallel license-set search. All operations share the
/// request's budgets, thread count, progress callback, and cancel token.
/// The engine is reusable but not reentrant: run one operation at a time
/// per engine. Reuse is where the warm state lives — the dominance cache
/// and the nogood store persist across run() calls
/// (self-invalidating when a structurally incompatible spec arrives), which
/// is what the thlsd daemon exploits by routing same-market requests
/// through one engine.
class SynthesisEngine {
 public:
  /// An engine with no request yet: feed it via run(request). This is the
  /// long-lived service shape.
  SynthesisEngine() = default;
  explicit SynthesisEngine(SynthesisRequest request);

  const SynthesisRequest& request() const { return request_; }

  /// Replaces the engine's request and dispatches on its kind. Warm state
  /// (cache/nogoods) carries over from previous runs and may only
  /// change *speed* — never statuses, costs, or bindings — within equal
  /// budgets (see DESIGN.md §5 for the argument and its budget-truncation
  /// caveat).
  SynthesisResponse run(const SynthesisRequest& request);

  /// Dispatches the engine's current request on its kind.
  SynthesisResponse run();

  /// Minimizes license cost for the request's fully specified spec.
  OptimizeResult minimize();

  /// Table-4 semantics: `lambda_total` bounds the combined schedule and
  /// the split between detection and recovery is free; splits are searched
  /// in parallel. Requires spec.with_recovery.
  SplitResult minimize_total_latency(int lambda_total);

  /// Optimizes every point of a constraint sweep (points in parallel).
  std::vector<FrontierPoint> sweep_frontier(const FrontierSweep& sweep);

  /// Re-synthesizes with the banned licenses removed from the market
  /// (post-detection quarantine). kInfeasible when a needed class has no
  /// offers left.
  OptimizeResult reoptimize(const std::set<LicenseKey>& banned);

  /// Complete infeasibility proofs accumulated across this engine's
  /// operations (see core/search_cache.hpp). Exposed for tests and stats;
  /// cleared automatically when an operation runs a structurally
  /// incompatible spec.
  const SearchCache& cache() const { return cache_; }

  /// Palette-guarded nogoods accumulated across this engine's operations
  /// (see core/nogood.hpp); same lifetime discipline as cache().
  const NogoodStore& nogoods() const { return nogoods_; }

  /// Installs a shared read-only warm-state snapshot (core/warm_state.hpp):
  /// the engine drops everything it accumulated itself and serves sealed
  /// queries from `snap` plus whatever the next run records privately.
  /// nullptr resets the engine to cold. Not thread-safe — call between
  /// operations; the snapshot itself may be adopted by any number of
  /// engines concurrently.
  void adopt_warm(const WarmSnapshotPtr& snap);

  /// The warm state this engine accumulated on top of its adopted base
  /// (the base itself is excluded). Call after run() returns — the
  /// operation's finalize has already pruned live tiers to their
  /// deterministically-dispatched prefix.
  WarmDelta export_warm_delta() const;

 private:
  /// minimize() against an explicit spec (splits/frontier points override
  /// fields of the request's spec), with an explicit thread budget. `ctx`
  /// identifies this sub-search among the operation's concurrent siblings
  /// for cache-entry scoping.
  OptimizeResult minimize_spec(const ProblemSpec& spec, int threads,
                               std::uint64_t ctx);
  SplitResult split_minimize(const ProblemSpec& base, int lambda_total,
                             int threads, std::uint64_t ctx_base);

  SynthesisRequest request_;
  SearchCache cache_;
  NogoodStore nogoods_;
  /// Epoch of the current public operation (set by SearchCache::begin_op
  /// before sub-searches fan out; read-only while they run).
  std::uint64_t op_epoch_ = 0;
  /// NogoodStore epoch of the current operation (its own counter).
  std::uint64_t nogood_epoch_ = 0;
  /// Serializes the user progress callback across concurrent sub-searches
  /// (split sweeps and frontier points share one engine).
  std::mutex progress_mutex_;
};

/// Builds a kMinimize request from a spec plus the flat OptimizerOptions
/// knob struct (the CLI/bench-facing option surface). Adjust `kind` and the
/// kind-specific fields afterwards for the other operations.
SynthesisRequest make_request(const ProblemSpec& spec,
                              const OptimizerOptions& options = {});

/// One-shot convenience: constructs a fresh (cold) engine and runs the
/// request. The canonical entry point for callers without an engine to
/// keep warm.
SynthesisResponse synthesize(const SynthesisRequest& request);

}  // namespace ht::core
