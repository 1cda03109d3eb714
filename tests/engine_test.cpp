// Tests for the SynthesisRequest/SynthesisEngine façade and its parallel
// license-set search.
//
// The load-bearing property is bit-determinism: the engine commits the
// feasible solution of lowest (license cost, palette index), so the result
// of a node/combo-budgeted search must be identical for every worker count.
// We check that on all six paper benchmarks, and separately that
// cooperative cancellation returns promptly and never a torn solution.
#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "benchmarks/random_dfg.hpp"
#include "benchmarks/suite.hpp"
#include "core/validate.hpp"
#include "dfg/analysis.hpp"
#include "test_helpers.hpp"
#include "util/mask_kernels.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"
#include "vendor/catalogs.hpp"

namespace ht::core {
namespace {

/// A recovery-mode spec for one paper benchmark: Section 5 catalog, latency
/// bounds a little above the critical path so the search has real work but
/// feasible space.
ProblemSpec suite_spec(const benchmarks::BenchmarkCase& bench) {
  ProblemSpec spec;
  spec.graph = bench.factory();
  spec.catalog = vendor::section5();
  const int critical_path =
      dfg::critical_path_length(spec.graph, spec.op_latencies());
  spec.lambda_detection = critical_path + 1;
  spec.lambda_recovery = critical_path;
  spec.with_recovery = true;
  spec.area_limit = 400000;
  // One instance per license forces the schedule across vendors, so cheap
  // license sets get disproven before the winner — a real multi-set search
  // rather than a first-set hit.
  spec.max_instances_per_offer = 1;
  return spec;
}

/// Small budgets that still finish every benchmark: determinism must hold
/// whenever node/combo budgets (not the clock) terminate the search.
SynthesisRequest budgeted_request(ProblemSpec spec) {
  SynthesisRequest request;
  request.spec = std::move(spec);
  request.strategy = Strategy::kHeuristic;
  request.limits.heuristic_restarts = 1;
  request.limits.heuristic_node_limit = 2'000;
  request.limits.max_combos = 25;
  request.limits.time_limit_seconds = 600;  // never the binding limit
  return request;
}

void expect_identical(const OptimizeResult& a, const OptimizeResult& b,
                      const std::string& label) {
  ASSERT_EQ(a.status, b.status) << label;
  if (!a.has_solution()) return;
  EXPECT_EQ(a.cost, b.cost) << label;
  ASSERT_EQ(a.solution.num_ops(), b.solution.num_ops()) << label;
  for (CopyKind kind : a.solution.active_kinds()) {
    for (dfg::OpId op = 0; op < a.solution.num_ops(); ++op) {
      EXPECT_EQ(a.solution.at(kind, op), b.solution.at(kind, op))
          << label << " " << copy_kind_name(kind) << " op " << op;
    }
  }
}

TEST(EngineDeterminismTest, OneThreadAndFourThreadsAgreeOnPaperSuite) {
  long total_combos = 0;
  for (const benchmarks::BenchmarkCase& bench : benchmarks::paper_suite()) {
    SynthesisRequest request = budgeted_request(suite_spec(bench));
    // Screens and cost bounds off: this test covers the parallel CSP
    // commit machinery, so the cheaper-set disproofs must come from actual
    // worker evaluations (EnginePruningTest covers the screens-on
    // determinism, EngineBoundsTest the bounds-on determinism).
    request.pruning.static_screens = false;
    request.pruning.cost_bounds = false;

    request.parallelism.threads = 1;
    SynthesisEngine serial(request);
    const OptimizeResult one = serial.minimize();
    total_combos += one.stats.combos_tried;

    request.parallelism.threads = 4;
    SynthesisEngine parallel(std::move(request));
    const OptimizeResult four = parallel.minimize();

    expect_identical(one, four, bench.name);
    if (one.has_solution()) {
      require_valid(serial.request().spec, one.solution);
    }
  }
  // The specs are built so the suite disproves cheaper license sets before
  // committing — otherwise this test would only cover first-set hits.
  EXPECT_GT(total_combos, 12);
}

TEST(EngineDeterminismTest, ThreadsFieldOfOptimizerOptionsIsTransparent) {
  // make_request carries OptimizerOptions into an engine request; its
  // `threads` knob must not change what the engine returns.
  const ProblemSpec spec = test::motivational_spec();
  OptimizerOptions options;
  const OptimizeResult serial = synthesize(make_request(spec, options)).result;
  options.threads = 4;
  const OptimizeResult parallel = synthesize(make_request(spec, options)).result;
  expect_identical(serial, parallel, "motivational");
  EXPECT_EQ(serial.status, OptStatus::kOptimal);
}

TEST(EngineDeterminismTest, TotalLatencySplitSweepAgrees) {
  ProblemSpec base = test::motivational_spec();
  base.lambda_detection = 0;
  base.lambda_recovery = 0;
  OptimizerOptions options;
  SynthesisRequest request = make_request(base, options);
  request.kind = RequestKind::kMinimizeTotalLatency;
  request.lambda_total = 7;
  const SynthesisResponse serial = synthesize(request);
  request.parallelism.threads = 4;
  const SynthesisResponse parallel = synthesize(request);
  EXPECT_EQ(serial.lambda_detection, parallel.lambda_detection);
  EXPECT_EQ(serial.lambda_recovery, parallel.lambda_recovery);
  expect_identical(serial.result, parallel.result, "split sweep");
}

/// polynom at its critical path with one instance per license, so cheap
/// license sets are genuinely fought over by the CSP.
ProblemSpec contested_spec() {
  ProblemSpec spec;
  spec.graph = benchmarks::by_name("polynom").factory();
  spec.catalog = vendor::section5();
  const int critical_path =
      dfg::critical_path_length(spec.graph, spec.op_latencies());
  spec.lambda_detection = critical_path;
  spec.lambda_recovery = critical_path;
  spec.with_recovery = true;
  spec.area_limit = 400000;
  spec.max_instances_per_offer = 1;
  return spec;
}

/// The size_sweep shape from bench_solver_scaling: a seeded random DFG with
/// one cycle of detection slack and capped instances.
ProblemSpec sweep_spec(int num_ops, std::uint64_t seed) {
  util::Rng rng(seed);
  benchmarks::RandomDfgConfig config;
  config.num_ops = num_ops;
  config.max_depth = 5;
  ProblemSpec spec;
  spec.graph = benchmarks::random_dfg(config, rng);
  spec.catalog = vendor::section5();
  const int critical_path =
      dfg::critical_path_length(spec.graph, spec.op_latencies());
  spec.lambda_detection = critical_path + 1;
  spec.lambda_recovery = critical_path;
  spec.with_recovery = true;
  spec.area_limit = 400000;
  spec.max_instances_per_offer = 1;
  return spec;
}

OptimizeResult run_csp_bound(const ProblemSpec& spec, int threads) {
  SynthesisRequest request;
  request.spec = spec;
  request.parallelism.threads = threads;
  // Screens and bounds off so every refutation is a CSP proof — with them
  // on, these fixtures are settled by pre-dispatch pruning and greedy and
  // the CSP never runs a node. Node/combo budgets keep the runs
  // test-sized; budget truncation is deterministic.
  request.pruning.static_screens = false;
  request.pruning.cost_bounds = false;
  request.limits.csp_node_limit = 60'000;
  request.limits.max_combos = 48;
  // Generous wall clock: a binding time limit would truncate the search at
  // a clock-dependent point.
  request.limits.time_limit_seconds = 600.0;
  return synthesize(request).result;
}

TEST(EngineDeterminismTest, SameVerdictAcrossThreadCounts) {
  // Full CSP-bound solves at 4 and 8 threads: the engine's cross-thread
  // contract is status/cost identity with the single-threaded reference
  // (stats may include speculative evaluations past the winner, so node
  // counters are asserted only in the bounded-window test below).
  for (const ProblemSpec& spec :
       {contested_spec(), sweep_spec(/*num_ops=*/12, /*seed=*/1012)}) {
    const OptimizeResult reference = run_csp_bound(spec, /*threads=*/1);
    EXPECT_GT(reference.stats.nodes_total, 0);
    for (const int threads : {4, 8}) {
      const OptimizeResult result = run_csp_bound(spec, threads);
      ASSERT_EQ(result.status, reference.status) << "threads " << threads;
      EXPECT_EQ(result.cost, reference.cost) << "threads " << threads;
    }
  }
}

/// Window budget for the node-identity runs: small enough to sit inside
/// the infeasible prefix of the cheapest-first queue on both fixtures
/// (asserted below), large enough to force real CSP work on every set.
constexpr long kWindow = 8;

OptimizeResult run_window(const ProblemSpec& spec, int threads) {
  SynthesisRequest request;
  request.spec = spec;
  request.parallelism.threads = threads;
  // Screens, bounds, and the (cold, hence empty anyway) dominance cache
  // off: every windowed set reaches the CSP. Nogood learning stays on —
  // frozen-tier imports are immutable during the search, so learning does
  // not perturb the dispatch determinism this test depends on.
  request.pruning.static_screens = false;
  request.pruning.cost_bounds = false;
  request.pruning.dominance_cache = false;
  request.limits.max_combos = kWindow;
  request.limits.csp_node_limit = 30'000;
  request.limits.time_limit_seconds = 600.0;
  return synthesize(request).result;
}

TEST(EngineDeterminismTest, BoundedWindowNodeIdentityAcrossThreadCounts) {
  // At N threads the dispatch set is deterministic only while no in-window
  // incumbent exists (workers race the commit of a winner, so sets at or
  // above its cost are speculatively dispatched or not). Bounding the
  // search with max_combos inside the infeasible prefix of the queue makes
  // the window exactly the first kWindow sets at any thread count, so
  // every search counter must match the single-threaded anchor.
  for (const ProblemSpec& spec :
       {contested_spec(), sweep_spec(/*num_ops=*/12, /*seed=*/1012)}) {
    const OptimizeResult anchor = run_window(spec, /*threads=*/1);
    // Determinism precondition: the combo budget bound the search. If a
    // fixture change makes a windowed set feasible, this trips and the
    // window must shrink.
    ASSERT_EQ(anchor.stats.combos_tried, kWindow);
    EXPECT_GT(anchor.stats.nodes_total, 0);
    for (const int threads : {1, 4, 8}) {
      const OptimizeResult result = run_window(spec, threads);
      ASSERT_EQ(result.status, anchor.status) << "threads " << threads;
      EXPECT_EQ(result.cost, anchor.cost) << "threads " << threads;
      EXPECT_EQ(result.stats.combos_tried, anchor.stats.combos_tried);
      EXPECT_EQ(result.stats.combos_skipped_screen,
                anchor.stats.combos_skipped_screen);
      EXPECT_EQ(result.stats.unknown_combos, anchor.stats.unknown_combos);
      EXPECT_EQ(result.stats.nodes_total, anchor.stats.nodes_total);
      EXPECT_EQ(result.stats.csp_nodes, anchor.stats.csp_nodes);
      EXPECT_EQ(result.stats.backjumps, anchor.stats.backjumps);
      EXPECT_EQ(result.stats.restarts, anchor.stats.restarts);
      EXPECT_EQ(result.stats.nogoods_learned, anchor.stats.nogoods_learned);
      if (result.has_solution() && anchor.has_solution()) {
        EXPECT_EQ(result.solution.licenses_used(spec),
                  anchor.solution.licenses_used(spec));
      }
    }
  }
}

// ---- input limits -----------------------------------------------------
// The CSP packs cycles into 15-bit lanes and copy ids and degrees into
// 20-bit key fields; ProblemSpec::validate turns specs outside those
// formats away with a SpecError before any search starts.

/// Two chained adders on the Table 1 catalog, detection only.
ProblemSpec two_adder_spec(int lambda) {
  ProblemSpec spec;
  dfg::Dfg graph("two_adders");
  const dfg::Operand a = graph.add_input("a");
  const dfg::Operand b = graph.add_input("b");
  graph.add(dfg::Operand::op(graph.add(a, b)), b);
  spec.graph = std::move(graph);
  spec.catalog = vendor::table1();
  spec.lambda_detection = lambda;
  spec.with_recovery = false;
  spec.area_limit = 22000;
  return spec;
}

TEST(EngineInputLimitsTest, LatencyBoundMustStayBelowSwarCycleLimit) {
  SynthesisRequest request;
  request.spec = two_adder_spec(util::kSwarCycleLimit - 1);
  const OptimizeResult widest = synthesize(request).result;
  EXPECT_EQ(widest.status, OptStatus::kOptimal);
  require_valid(request.spec, widest.solution);

  // The CSP's packed formats hold at the widest accepted bound.
  Palettes palettes;
  for (vendor::VendorId v = 0; v < request.spec.catalog.num_vendors(); ++v) {
    if (request.spec.catalog.offers(v, dfg::ResourceClass::kAdder)) {
      palettes[static_cast<std::size_t>(dfg::ResourceClass::kAdder)]
          .push_back(v);
    }
  }
  const CspResult csp = schedule_and_bind(request.spec, palettes);
  ASSERT_EQ(csp.status, CspResult::Status::kFeasible);
  require_valid(request.spec, csp.solution);

  request.spec.lambda_detection = util::kSwarCycleLimit;
  EXPECT_THROW(synthesize(request), util::SpecError);

  // The recovery bound counts only when recovery is on.
  request.spec.lambda_detection = 8;
  request.spec.lambda_recovery = util::kSwarCycleLimit;
  EXPECT_NO_THROW(request.spec.validate());
  request.spec.with_recovery = true;
  EXPECT_THROW(synthesize(request), util::SpecError);
}

TEST(EngineInputLimitsTest, OpCountMustStayBelowMaxOps) {
  // kMaxOps - 1 independent adders pass validation; solving them is out of
  // test scope, so the accepted side stops at validate().
  SynthesisRequest request;
  request.spec = test::easy_section5_spec();
  dfg::Dfg graph("wide");
  const dfg::Operand a = graph.add_input("a");
  const dfg::Operand b = graph.add_input("b");
  for (int i = 0; i < kMaxOps - 1; ++i) graph.add(a, b, "op");
  request.spec.graph = graph;
  request.spec.lambda_detection = 1;
  request.spec.lambda_recovery = 1;
  EXPECT_NO_THROW(request.spec.validate());
  request.spec.graph.add(a, b, "op");
  ASSERT_EQ(request.spec.graph.num_ops(), kMaxOps);
  EXPECT_THROW(synthesize(request), util::SpecError);
}

TEST(EngineCancelTest, PreCancelledTokenReturnsUnknownImmediately) {
  util::CancelToken cancel;
  cancel.request_cancel();
  SynthesisRequest request = budgeted_request(test::easy_section5_spec());
  request.cancel = &cancel;
  SynthesisEngine engine(std::move(request));
  const OptimizeResult result = engine.minimize();
  EXPECT_EQ(result.status, OptStatus::kUnknown);
  EXPECT_EQ(result.stats.combos_tried, 0);
}

TEST(EngineCancelTest, MidSearchCancelReturnsPromptlyWithoutTornSolution) {
  // An expensive exact search on the biggest benchmark, cancelled from
  // another thread shortly after it starts. The engine must come back well
  // before its budgets and either report kUnknown or a fully valid
  // incumbent — never a half-committed solution.
  SynthesisRequest request;
  request.spec = suite_spec(benchmarks::by_name("ellipticicass"));
  request.strategy = Strategy::kExact;
  request.limits.csp_node_limit = 100'000'000;
  request.limits.max_combos = 200'000;
  request.limits.time_limit_seconds = 600;
  request.parallelism.threads = 2;
  util::CancelToken cancel;
  request.cancel = &cancel;

  SynthesisEngine engine(std::move(request));
  std::thread canceller([&cancel] {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    cancel.request_cancel();
  });
  const auto start = std::chrono::steady_clock::now();
  const OptimizeResult result = engine.minimize();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  canceller.join();

  // Generous bound: polls are every 1024 CSP nodes, so the search must
  // unwind within a few seconds even on a loaded machine.
  EXPECT_LT(seconds, 30.0);
  EXPECT_TRUE(result.status == OptStatus::kUnknown ||
              result.status == OptStatus::kFeasible)
      << to_string(result.status);
  if (result.has_solution()) {
    require_valid(engine.request().spec, result.solution);
  }
}

TEST(EngineProgressTest, CallbackSeesMonotoneCombosAndFinalIncumbent) {
  std::atomic<int> calls{0};
  long last_combos = 0;
  long long last_incumbent = -1;
  SynthesisRequest request = budgeted_request(test::easy_section5_spec());
  request.parallelism.threads = 4;
  // Serialized under the engine's progress lock, so plain writes are safe.
  request.progress = [&](const SynthesisProgress& progress) {
    calls.fetch_add(1);
    EXPECT_GE(progress.combos_tried, last_combos);
    last_combos = progress.combos_tried;
    if (progress.have_incumbent) last_incumbent = progress.incumbent_cost;
  };
  SynthesisEngine engine(std::move(request));
  const OptimizeResult result = engine.minimize();
  EXPECT_GT(calls.load(), 0);
  ASSERT_TRUE(result.has_solution());
  EXPECT_EQ(last_incumbent, result.cost);
}

TEST(EngineFacadeTest, RunAreaFrontierMatchesSweepMethod) {
  const ProblemSpec spec = test::motivational_spec();
  const std::vector<long long> areas = {15000, 22000, 68430};

  OptimizerOptions options;
  SynthesisRequest request = make_request(spec, options);
  request.kind = RequestKind::kAreaFrontier;
  request.sweep_values = areas;
  const std::vector<FrontierPoint> legacy = synthesize(request).frontier;

  request.parallelism.threads = 4;
  SynthesisEngine engine(std::move(request));
  FrontierSweep sweep;
  sweep.axis = FrontierSweep::Axis::kArea;
  sweep.values = areas;
  const std::vector<FrontierPoint> parallel = engine.sweep_frontier(sweep);

  ASSERT_EQ(legacy.size(), parallel.size());
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    EXPECT_EQ(legacy[i].constraint, parallel[i].constraint) << i;
    EXPECT_EQ(legacy[i].result.status, parallel[i].result.status) << i;
    EXPECT_EQ(legacy[i].result.cost, parallel[i].result.cost) << i;
  }
}

TEST(EngineFacadeTest, MakeRequestCarriesEveryOption) {
  OptimizerOptions options;
  options.strategy = Strategy::kHeuristic;
  options.time_limit_seconds = 7;
  options.csp_node_limit = 123;
  options.heuristic_restarts = 9;
  options.heuristic_node_limit = 456;
  options.max_combos = 77;
  options.seed = 42;
  options.threads = 3;
  const SynthesisRequest request =
      make_request(test::motivational_spec(), options);
  EXPECT_EQ(request.strategy, Strategy::kHeuristic);
  EXPECT_EQ(request.limits.time_limit_seconds, 7);
  EXPECT_EQ(request.limits.csp_node_limit, 123);
  EXPECT_EQ(request.limits.heuristic_restarts, 9);
  EXPECT_EQ(request.limits.heuristic_node_limit, 456);
  EXPECT_EQ(request.limits.max_combos, 77);
  EXPECT_EQ(request.seed, 42u);
  EXPECT_EQ(request.parallelism.threads, 3);
}

TEST(EnginePruningTest, CacheOnMatchesCacheOffAcrossThreadCounts) {
  // The dominance cache must be invisible to results: cache-on runs at any
  // thread count return bit-identical statuses/costs/bindings to a
  // cache-off single-thread run on every paper benchmark.
  for (const benchmarks::BenchmarkCase& bench : benchmarks::paper_suite()) {
    SynthesisRequest reference_request = budgeted_request(suite_spec(bench));
    reference_request.pruning.dominance_cache = false;
    reference_request.parallelism.threads = 1;
    SynthesisEngine reference_engine(reference_request);
    const OptimizeResult reference = reference_engine.minimize();
    EXPECT_EQ(reference.stats.combos_skipped_cache, 0);

    for (const int threads : {1, 4, 8}) {
      SynthesisRequest request = budgeted_request(suite_spec(bench));
      request.parallelism.threads = threads;  // pruning defaults on
      SynthesisEngine engine(std::move(request));
      expect_identical(reference, engine.minimize(),
                       bench.name + " cached @" + std::to_string(threads) +
                           " threads");
    }
  }
}

TEST(EngineBoundsTest, BoundsOnIsDeterministicAndNeverWeakens) {
  // Branch-and-bound lower bounds must be invisible to solutions: bounds-on
  // runs are bit-identical across thread counts, and against a bounds-off
  // single-thread reference the verdict can only *strengthen* (a floor may
  // close a proof the reference left open) while the cost and bindings of
  // any committed solution never move.
  const auto rank = [](OptStatus status) {
    switch (status) {
      case OptStatus::kUnknown: return 0;
      case OptStatus::kFeasible: return 1;
      default: return 2;  // kOptimal / kInfeasible: terminal proofs
    }
  };
  for (const benchmarks::BenchmarkCase& bench : benchmarks::paper_suite()) {
    SynthesisRequest reference_request = budgeted_request(suite_spec(bench));
    reference_request.pruning.cost_bounds = false;
    reference_request.parallelism.threads = 1;
    SynthesisEngine reference_engine(reference_request);
    const OptimizeResult reference = reference_engine.minimize();
    EXPECT_EQ(reference.stats.lb_prunes, 0);

    OptimizeResult first_bounded;
    for (const int threads : {1, 4, 8}) {
      SynthesisRequest request = budgeted_request(suite_spec(bench));
      request.parallelism.threads = threads;  // pruning defaults on
      SynthesisEngine engine(std::move(request));
      const OptimizeResult bounded = engine.minimize();
      if (threads == 1) {
        first_bounded = bounded;
        EXPECT_GE(rank(bounded.status), rank(reference.status)) << bench.name;
        // Bounds prune with proofs, never add evaluations: a solution
        // exists on one side iff it exists on the other, with identical
        // cost and bindings.
        ASSERT_EQ(bounded.has_solution(), reference.has_solution())
            << bench.name;
        if (reference.has_solution()) {
          EXPECT_EQ(bounded.cost, reference.cost) << bench.name;
          EXPECT_EQ(bounded.solution.licenses_used(engine.request().spec),
                    reference.solution.licenses_used(engine.request().spec))
              << bench.name;
        }
      } else {
        expect_identical(first_bounded, bounded,
                         bench.name + " bounded @" + std::to_string(threads) +
                             " threads");
      }
    }
  }
}

TEST(EnginePruningTest, FrozenNogoodsAreDeterministicAcrossThreadCounts) {
  // Second operation on a warm engine: the first minimize seals its learned
  // nogoods, the repeat imports that frozen tier on every worker. Reuse may
  // only *upgrade* a verdict relative to a learning-off engine (nogoods are
  // sound deductions), and the warm result must be bit-identical across
  // thread counts — the frozen tier every interleaving imports is the same.
  const auto rank = [](OptStatus status) {
    switch (status) {
      case OptStatus::kUnknown: return 0;
      case OptStatus::kFeasible: return 1;
      default: return 2;  // kOptimal / kInfeasible: terminal proofs
    }
  };
  for (const char* name : {"polynom", "dtmf"}) {
    SynthesisRequest baseline_request = budgeted_request(
        suite_spec(benchmarks::by_name(name)));
    baseline_request.pruning.nogood_learning = false;
    SynthesisEngine baseline_engine(std::move(baseline_request));
    (void)baseline_engine.minimize();
    const OptimizeResult baseline = baseline_engine.minimize();

    SynthesisRequest reference_request = budgeted_request(
        suite_spec(benchmarks::by_name(name)));
    SynthesisEngine reference_engine(std::move(reference_request));
    (void)reference_engine.minimize();
    const OptimizeResult reference = reference_engine.minimize();
    EXPECT_GE(rank(reference.status), rank(baseline.status)) << name;
    if (baseline.has_solution() && reference.has_solution()) {
      EXPECT_EQ(reference.cost, baseline.cost) << name;
    }

    for (const int threads : {4, 8}) {
      SynthesisRequest request = budgeted_request(
          suite_spec(benchmarks::by_name(name)));
      request.parallelism.threads = threads;  // learning defaults on
      SynthesisEngine engine(std::move(request));
      (void)engine.minimize();
      expect_identical(reference, engine.minimize(),
                       std::string(name) + " warm nogoods @" +
                           std::to_string(threads) + " threads");
    }
  }
}

TEST(EnginePruningTest, FullMarketProbeBackfillsBudgetExhaustedUnknowns) {
  // Starve the search so hard it cannot commit any incumbent: one combo,
  // and too few nodes to solve the contested cheapest set. The historical
  // engine (learning off) reports kUnknown; with the conflict-directed
  // package on, the full-market probe supplies a feasible binding instead.
  ProblemSpec tight = suite_spec(benchmarks::by_name("polynom"));
  tight.lambda_detection -= 1;  // λ = critical path: greedy can't luck out
  SynthesisRequest starved = budgeted_request(std::move(tight));
  starved.limits.max_combos = 1;
  starved.limits.heuristic_node_limit = 50;
  starved.limits.heuristic_restarts = 1;

  SynthesisRequest off_request = starved;
  off_request.pruning.nogood_learning = false;
  SynthesisEngine off_engine(std::move(off_request));
  const OptimizeResult off = off_engine.minimize();
  ASSERT_EQ(off.status, OptStatus::kUnknown) << "fixture not starved enough";

  SynthesisEngine on_engine(std::move(starved));
  const OptimizeResult on = on_engine.minimize();
  EXPECT_EQ(on.status, OptStatus::kFeasible);
  ASSERT_TRUE(on.has_solution());
  EXPECT_EQ(on.cost, on.solution.license_cost(on_engine.request().spec));
  // The probe is a fallback, never a downgrade: with budgets restored the
  // search commits its own (cheaper or equal) winner, probe or not.
  ProblemSpec tight_again = suite_spec(benchmarks::by_name("polynom"));
  tight_again.lambda_detection -= 1;
  SynthesisRequest ample = budgeted_request(std::move(tight_again));
  ample.limits.max_combos = 20'000;
  ample.limits.heuristic_node_limit = 80'000;
  SynthesisEngine ample_engine(std::move(ample));
  const OptimizeResult full = ample_engine.minimize();
  ASSERT_TRUE(full.has_solution());
  EXPECT_LE(full.cost, on.cost);
}

TEST(EnginePruningTest, StaticScreensAreInvisibleToConclusiveSearches) {
  // With the exact strategy and ample budgets every dispatched set gets a
  // complete verdict, so the screens only change *where* a refutation is
  // proved, never the outcome.
  for (const char* name : {"polynom", "mof2", "diff2"}) {
    SynthesisRequest on_request = budgeted_request(
        suite_spec(benchmarks::by_name(name)));
    on_request.strategy = Strategy::kExact;
    SynthesisRequest off_request = on_request;
    off_request.pruning.static_screens = false;
    SynthesisEngine on_engine(std::move(on_request));
    SynthesisEngine off_engine(std::move(off_request));
    expect_identical(off_engine.minimize(), on_engine.minimize(),
                     std::string(name) + " screens A/B");
  }
}

}  // namespace
}  // namespace ht::core
