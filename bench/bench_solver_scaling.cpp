// Solver scaling study — the paper's Section 5 remark made quantitative:
// "The ILP may take a very long time to get global optimal results for big
// benchmarks." We compare three engines on the same specs:
//
//   * ilp        — the faithful formulation (eqs 3-17) under our branch &
//                  bound (stands in for Lingo)
//   * exact      — cheapest-first license enumeration + complete CSP
//   * heuristic  — same enumeration with budgeted, restarted CSP
//
// and sweep problem size with random DFGs.
//
// Pass `--threads N` (default: hardware concurrency, min 2) to also run the
// parallel-scaling section: every row is solved once with 1 worker and once
// with N, and must report identical status and cost — the engine's commit
// rule makes the parallel search bit-deterministic.
#include "bench_util.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/journal.hpp"

#include "benchmarks/random_dfg.hpp"
#include "benchmarks/suite.hpp"
#include "core/engine.hpp"
#include "core/ilp_formulation.hpp"
#include "core/reoptimize.hpp"
#include "dfg/analysis.hpp"
#include "service/service.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"
#include "vendor/catalogs.hpp"

namespace {

using namespace ht;

/// Per-row records for `--json <path>` (see bench_util.hpp).
benchx::JsonReport g_json;

/// `--no-bounds`: run every engine call with the branch-and-bound lower
/// bounds disabled (A/B baseline; see PruningOptions::cost_bounds).
bool g_no_bounds = false;

core::ProblemSpec random_spec(int num_ops, std::uint64_t seed) {
  util::Rng rng(seed);
  benchmarks::RandomDfgConfig config;
  config.num_ops = num_ops;
  config.max_depth = 5;
  core::ProblemSpec spec;
  spec.graph = benchmarks::random_dfg(config, rng);
  spec.catalog = vendor::section5();
  // One cycle of slack over the critical path plus a single instance per
  // license keeps cheap license sets genuinely scarce, so the sweep
  // measures real multi-set searches (and gives the static screens
  // something to refute) instead of accepting the first palette at every
  // size.
  const int critical_path =
      dfg::critical_path_length(spec.graph, spec.op_latencies());
  spec.lambda_detection = critical_path + 1;
  spec.lambda_recovery = critical_path;
  spec.with_recovery = true;
  spec.area_limit = 400000;
  spec.max_instances_per_offer = 1;
  return spec;
}

/// A paper benchmark on the Section 5 catalog with `slack` extra cycles on
/// the detection phase and a per-license instance cap — the Table 3/4
/// "heavy row" shape used by the pruning study.
core::ProblemSpec suite_like_spec(const std::string& name, int slack,
                                  int max_instances) {
  core::ProblemSpec spec;
  spec.graph = benchmarks::by_name(name).factory();
  spec.catalog = vendor::section5();
  const int critical_path =
      dfg::critical_path_length(spec.graph, spec.op_latencies());
  spec.lambda_detection = critical_path + slack;
  spec.lambda_recovery = critical_path + std::max(0, slack - 1);
  spec.with_recovery = true;
  spec.area_limit = 400000;
  spec.max_instances_per_offer = max_instances;
  return spec;
}

void print_reproduction() {
  std::puts("=== Solver scaling (exact vs heuristic vs faithful ILP) ===\n");

  // Part 1: the faithful ILP against the CSP engines on a small spec.
  {
    core::ProblemSpec spec;
    spec.graph = benchmarks::by_name("polynom").factory();
    spec.catalog = vendor::table1();
    spec.lambda_detection = 4;
    spec.lambda_recovery = 3;
    spec.with_recovery = true;
    spec.area_limit = 22000;
    spec.max_instances_per_offer = 2;

    util::TablePrinter table(
        {"engine", "status", "mc", "time (s)", "nodes"});

    util::Timer timer;
    const core::OptimizeResult exact = core::synthesize(core::make_request(spec)).result;
    table.add_row({"exact (license enum + CSP)",
                   core::to_string(exact.status),
                   util::format_money(exact.cost),
                   util::format_double(timer.elapsed_seconds(), 3),
                   std::to_string(exact.stats.csp_nodes)});

    timer.reset();
    core::OptimizerOptions h;
    h.strategy = core::Strategy::kHeuristic;
    const core::OptimizeResult heur = core::synthesize(core::make_request(spec, h)).result;
    table.add_row({"heuristic", core::to_string(heur.status),
                   util::format_money(heur.cost),
                   util::format_double(timer.elapsed_seconds(), 3),
                   std::to_string(heur.stats.csp_nodes)});

    timer.reset();
    ilp::BnbOptions bnb;
    bnb.time_limit_seconds = 60;
    const core::OptimizeResult ilp_result = core::minimize_cost_ilp(spec, bnb);
    table.add_row({"faithful ILP (eqs 3-17), cold",
                   core::to_string(ilp_result.status),
                   ilp_result.has_solution()
                       ? util::format_money(ilp_result.cost)
                       : std::string("-"),
                   util::format_double(timer.elapsed_seconds(), 3),
                   std::to_string(ilp_result.stats.csp_nodes)});

    // Warm-started: the CSP optimum becomes the upper bound; the ILP only
    // has to prove nothing cheaper exists.
    timer.reset();
    ilp::BnbOptions warm_options;
    warm_options.time_limit_seconds = 60;
    const core::OptimizeResult warm =
        core::minimize_cost_ilp_warm(spec, exact.solution, warm_options);
    table.add_row({"faithful ILP, warm-started",
                   core::to_string(warm.status),
                   util::format_money(warm.cost),
                   util::format_double(timer.elapsed_seconds(), 3),
                   std::to_string(warm.stats.csp_nodes)});
    benchx::print_table(table, "motivational example (polynom, Table 1)");
    std::puts("(the cold ILP mirrors the paper's remark that \"the ILP may "
              "take a\nvery long time\"; our CSP engines replace Lingo)\n");
  }

  // Part 2: size sweep with random DFGs.
  {
    util::TablePrinter table({"n (ops)", "exact mc", "exact s", "heur mc",
                              "heur s", "gap"});
    for (int n : {5, 8, 12, 16, 20, 25}) {
      const core::ProblemSpec spec = random_spec(n, 1000 + n);
      util::Timer timer;
      core::OptimizerOptions e;
      e.time_limit_seconds = 15;
      e.cost_bounds = !g_no_bounds;
      e.collect_metrics = true;
      const core::OptimizeResult exact = core::synthesize(core::make_request(spec, e)).result;
      const double exact_s = timer.elapsed_seconds();
      g_json.add(benchx::record_of("size_sweep/exact", spec, 1, exact,
                                   exact_s));

      timer.reset();
      core::OptimizerOptions h;
      h.strategy = core::Strategy::kHeuristic;
      h.time_limit_seconds = 15;
      h.cost_bounds = !g_no_bounds;
      h.collect_metrics = true;
      const core::OptimizeResult heur = core::synthesize(core::make_request(spec, h)).result;
      const double heur_s = timer.elapsed_seconds();
      g_json.add(benchx::record_of("size_sweep/heuristic", spec, 1, heur,
                                   heur_s));

      std::string gap = "-";
      if (exact.has_solution() && heur.has_solution()) {
        gap = util::format_double(
                  100.0 * static_cast<double>(heur.cost - exact.cost) /
                      static_cast<double>(exact.cost),
                  1) +
              "%";
      }
      table.add_row(
          {std::to_string(n),
           exact.has_solution() ? benchx::cost_cell(benchx::metrics_of(
                                      spec, exact))
                                : core::to_string(exact.status),
           util::format_double(exact_s, 2),
           heur.has_solution() ? benchx::cost_cell(benchx::metrics_of(
                                     spec, heur))
                               : core::to_string(heur.status),
           util::format_double(heur_s, 2), gap});
    }
    benchx::print_table(table, "random-DFG size sweep (seed 1000+n)");
  }
  std::puts("");
}

// Parallel license-set search: same spec, 1 worker vs `threads` workers.
// The engine guarantees identical results for every worker count, so the
// mc/status columns must match pairwise; speedup is wall-clock only.
void print_parallel_scaling(int threads) {
  std::printf("=== Parallel search scaling (1 thread vs %d threads) ===\n\n",
              threads);

  struct Row {
    std::string name;
    core::ProblemSpec spec;
    core::OptimizerOptions options;
  };
  std::vector<Row> rows;

  // Random-DFG rows under tight latency bounds: many cheap license sets
  // have to be disproven before the winner, which is exactly the workload
  // the worker pool spreads out.
  for (int n : {20, 25, 30}) {
    Row row;
    row.name = "random n=" + std::to_string(n);
    row.spec = random_spec(n, 1000 + n);
    row.spec.lambda_detection = 6;
    row.spec.lambda_recovery = 5;
    row.options.strategy = core::Strategy::kHeuristic;
    row.options.heuristic_restarts = 3;
    row.options.heuristic_node_limit = 80'000;
    row.options.max_combos = 2'000;
    row.options.time_limit_seconds = 120;
    row.options.cost_bounds = !g_no_bounds;
    row.options.collect_metrics = true;
    rows.push_back(std::move(row));
  }
  // A paper benchmark under the Section 5 catalog.
  {
    Row row;
    row.name = "dtmf (section5)";
    row.spec.graph = benchmarks::by_name("dtmf").factory();
    row.spec.catalog = vendor::section5();
    row.spec.lambda_detection = 11;
    row.spec.lambda_recovery = 9;
    row.spec.with_recovery = true;
    row.spec.area_limit = 400000;
    row.options.strategy = core::Strategy::kHeuristic;
    row.options.heuristic_restarts = 3;
    row.options.heuristic_node_limit = 80'000;
    row.options.max_combos = 1'000;
    row.options.time_limit_seconds = 120;
    row.options.cost_bounds = !g_no_bounds;
    row.options.collect_metrics = true;
    rows.push_back(std::move(row));
  }

  util::TablePrinter table({"benchmark", "status", "mc", "1-thr s",
                            std::to_string(threads) + "-thr s", "speedup",
                            "match"});
  for (Row& row : rows) {
    row.options.threads = 1;
    util::Timer timer;
    const core::OptimizeResult serial = core::synthesize(core::make_request(row.spec,
                                                            row.options)).result;
    const double serial_s = timer.elapsed_seconds();
    g_json.add(benchx::record_of("parallel/" + row.name, row.spec, 1,
                                 serial, serial_s));

    row.options.threads = threads;
    timer.reset();
    const core::OptimizeResult parallel = core::synthesize(core::make_request(row.spec,
                                                              row.options)).result;
    const double parallel_s = timer.elapsed_seconds();
    g_json.add(benchx::record_of("parallel/" + row.name, row.spec, threads,
                                 parallel, parallel_s));

    const bool match = serial.status == parallel.status &&
                       (!serial.has_solution() ||
                        serial.cost == parallel.cost);
    table.add_row(
        {row.name, core::to_string(parallel.status),
         parallel.has_solution() ? util::format_money(parallel.cost)
                                 : std::string("-"),
         util::format_double(serial_s, 2), util::format_double(parallel_s, 2),
         util::format_double(serial_s / std::max(parallel_s, 1e-9), 2) + "x",
         match ? "yes" : "NO"});
    if (!match) {
      std::printf("MISMATCH on %s: 1-thread %s/%lld vs %d-thread %s/%lld\n",
                  row.name.c_str(), core::to_string(serial.status).c_str(),
                  serial.cost, threads,
                  core::to_string(parallel.status).c_str(), parallel.cost);
    }
  }
  benchx::print_table(table, "deterministic parallel search");
  std::puts("(mc/status must match: the engine commits the lowest "
            "(cost, palette index)\nwinner, so worker count never changes "
            "the answer — only the wall clock)\n");
}

// Prune-before-solve study: identical budgets, three engine modes.
//
//   off    — no pruning at all (the historical engine behavior)
//   on     — static screens + dominance cache, chronological CSP
//   learn  — everything on, plus the conflict-directed CSP (backjumping,
//            nogood learning, Luby restarts re-armed by the restart budget)
//
// Off vs on resolve the exact same cheapest-first budget window — every
// skip consumes a dispatch slot — so statuses and license costs must match
// row by row. Learning keeps every answer or *upgrades* it (a '*' row may
// become proven): nogoods are sound deductions, so nothing feasible is
// lost, and the restart schedule re-arms the per-set budget the
// no-learning engine stopped spending after its single canonical descent.
void print_pruning_study() {
  std::puts("=== Prune-before-solve (screens + cache + nogood learning) ===\n");

  struct Row {
    std::string name;
    core::ProblemSpec spec;
    long max_combos;
  };
  std::vector<Row> rows;
  rows.push_back({"polynom tight", suite_like_spec("polynom", 0, 1), 5'000});
  rows.push_back({"dtmf tight", suite_like_spec("dtmf", 0, 1), 2'000});
  rows.push_back(
      {"ellipticicass", suite_like_spec("ellipticicass", 2, 1), 1'000});
  rows.push_back(
      {"ellipticicass mi=2", suite_like_spec("ellipticicass", 2, 2), 1'000});
  rows.push_back({"fir16", suite_like_spec("fir16", 2, 1), 1'000});

  const auto rank = [](core::OptStatus status) {
    // Proof strength for the upgrade check: unknown < starred feasible <
    // proven (optimal / infeasible are both terminal proofs).
    switch (status) {
      case core::OptStatus::kUnknown: return 0;
      case core::OptStatus::kFeasible: return 1;
      default: return 2;
    }
  };

  util::TablePrinter table({"benchmark", "status", "mc", "off s", "on s",
                            "learn s", "speedup", "nodes off/learn",
                            "match"});
  for (const Row& row : rows) {
    core::SynthesisRequest request;
    request.spec = row.spec;
    request.strategy = core::Strategy::kHeuristic;
    request.limits.heuristic_restarts = 3;
    request.limits.heuristic_node_limit = 80'000;
    request.limits.max_combos = row.max_combos;
    request.limits.time_limit_seconds = 300;
    request.pruning.cost_bounds = !g_no_bounds;
    // Embed per-stage metrics in the JSON rows (observation only: statuses
    // and costs are bit-identical with collection off).
    request.observability.metrics = true;

    core::SynthesisRequest off_request = request;
    off_request.pruning.dominance_cache = false;
    off_request.pruning.static_screens = false;
    off_request.pruning.nogood_learning = false;
    // Bounds stay off on both strict-equality rows so this study isolates
    // screens + cache; the bounds study below has its own A/B.
    off_request.pruning.cost_bounds = false;
    core::SynthesisEngine off_engine(std::move(off_request));
    util::Timer timer;
    const core::OptimizeResult off = off_engine.minimize();
    const double off_s = timer.elapsed_seconds();
    g_json.add(benchx::record_of("pruning_off/" + row.name, row.spec, 1,
                                 off, off_s));

    core::SynthesisRequest on_request = request;
    on_request.pruning.nogood_learning = false;
    on_request.pruning.cost_bounds = false;
    core::SynthesisEngine on_engine(std::move(on_request));
    timer.reset();
    const core::OptimizeResult on = on_engine.minimize();
    const double on_s = timer.elapsed_seconds();
    g_json.add(benchx::record_of("pruning_on/" + row.name, row.spec, 1, on,
                                 on_s));

    core::SynthesisEngine learn_engine(std::move(request));
    timer.reset();
    const core::OptimizeResult learn = learn_engine.minimize();
    const double learn_s = timer.elapsed_seconds();
    g_json.add(benchx::record_of("pruning_learn/" + row.name, row.spec, 1,
                                 learn, learn_s));

    // Off vs on: strict equality. Learning: equal or upgraded — same cost
    // whenever both hold a solution, proof strength never weaker.
    const bool match =
        off.status == on.status &&
        (!off.has_solution() || off.cost == on.cost) &&
        rank(learn.status) >= rank(on.status) &&
        (!on.has_solution() || !learn.has_solution() ||
         on.cost == learn.cost);
    table.add_row(
        {row.name, core::to_string(learn.status),
         learn.has_solution() ? util::format_money(learn.cost)
                              : std::string("-"),
         util::format_double(off_s, 2), util::format_double(on_s, 2),
         util::format_double(learn_s, 2),
         util::format_double(off_s / std::max(learn_s, 1e-3), 1) + "x",
         std::to_string(off.stats.nodes_total) + "/" +
             std::to_string(learn.stats.nodes_total),
         match ? "yes" : "NO"});
  }
  benchx::print_table(table, "pruning A/B (heuristic, 1 thread)");
  std::puts("(off vs on resolve the same budget window, so mc/status must "
            "match; learning\nmay only upgrade an answer — '*' rows become "
            "proven when conflict-directed\nsearch finishes the refutations "
            "the canonical descent left truncated)\n");
}

// Cross-operation dominance-cache study. Screens are held off so every
// refutation is a CSP proof and the cache's contribution is unmistakable:
// a warm repeat and a post-detection reoptimize() skip almost the whole
// refuted prefix via sealed dominance proofs.
void print_cache_study() {
  std::puts("=== Dominance cache across operations (screens off) ===\n");

  const core::ProblemSpec spec = suite_like_spec("polynom", 0, 1);
  core::SynthesisRequest request;
  request.spec = spec;
  request.pruning.static_screens = false;
  // Lower bounds would refute the same prefix the cache seals; keep them
  // off so the cache is the only thing skipping work here.
  request.pruning.cost_bounds = false;
  request.observability.metrics = true;
  core::SynthesisEngine engine(request);

  util::TablePrinter table({"operation", "status", "mc", "tried",
                            "cache skips", "time (s)"});
  const auto add_row = [&](const std::string& name,
                           const core::OptimizeResult& result,
                           double seconds) {
    table.add_row(
        {name, core::to_string(result.status),
         result.has_solution() ? util::format_money(result.cost)
                               : std::string("-"),
         std::to_string(result.stats.combos_tried),
         std::to_string(result.stats.combos_skipped_cache),
         util::format_double(seconds, 3)});
    g_json.add(benchx::record_of("cache_study/" + name, spec, 1, result,
                                 seconds));
  };

  util::Timer timer;
  const core::OptimizeResult cold = engine.minimize();
  add_row("minimize (cold)", cold, timer.elapsed_seconds());

  timer.reset();
  const core::OptimizeResult warm = engine.minimize();
  add_row("minimize (warm)", warm, timer.elapsed_seconds());

  if (cold.has_solution()) {
    const std::set<core::LicenseKey> used =
        cold.solution.licenses_used(spec);
    const std::set<core::LicenseKey> banned = {*used.begin()};
    timer.reset();
    const core::OptimizeResult respun = engine.reoptimize(banned);
    add_row("reoptimize (1 banned)", respun, timer.elapsed_seconds());
  }
  benchx::print_table(table, "sealed infeasibility proofs carry over");
  std::puts("(every complete CSP refutation from the cold run dominates "
            "the same set —\nand its subsets — in later operations on the "
            "engine)\n");
}

// Lower-bound A/B: the same size-sweep heavy row solved with the
// branch-and-bound lower bounds off and on. Bound prunes consume dispatch
// slots exactly like cache/screen skips, so the bounded run resolves the
// same cheapest-first budget window: license costs must be identical and
// proof strength can only go up (a time-limited 'unknown'/'feasible' row
// may finish inside the limit once the bounds skip the hopeless prefix).
void print_bounds_study() {
  std::puts("=== Lower-bound pruning A/B (cost bounds off vs on) ===\n");

  const core::ProblemSpec spec = random_spec(25, 1025);
  const auto rank = [](core::OptStatus status) {
    switch (status) {
      case core::OptStatus::kUnknown: return 0;
      case core::OptStatus::kFeasible: return 1;
      default: return 2;
    }
  };

  util::TablePrinter table({"engine", "status", "mc", "off s", "on s",
                            "speedup", "lb prunes", "match"});
  for (const bool heuristic : {false, true}) {
    const std::string name = heuristic ? "heuristic n=25" : "exact n=25";
    core::OptimizerOptions base;
    if (heuristic) base.strategy = core::Strategy::kHeuristic;
    base.time_limit_seconds = 15;
    base.collect_metrics = true;

    core::OptimizerOptions off_options = base;
    off_options.cost_bounds = false;
    util::Timer timer;
    const core::OptimizeResult off = core::synthesize(core::make_request(spec, off_options)).result;
    const double off_s = timer.elapsed_seconds();
    g_json.add(benchx::record_of("bounds_off/" + name, spec, 1, off, off_s));

    core::OptimizerOptions on_options = base;
    on_options.cost_bounds = true;
    timer.reset();
    const core::OptimizeResult on = core::synthesize(core::make_request(spec, on_options)).result;
    const double on_s = timer.elapsed_seconds();
    g_json.add(benchx::record_of("bounds_on/" + name, spec, 1, on, on_s));

    const bool match = rank(on.status) >= rank(off.status) &&
                       (!off.has_solution() || !on.has_solution() ||
                        off.cost == on.cost);
    table.add_row(
        {name, core::to_string(on.status),
         on.has_solution() ? util::format_money(on.cost) : std::string("-"),
         util::format_double(off_s, 2), util::format_double(on_s, 2),
         util::format_double(off_s / std::max(on_s, 1e-3), 1) + "x",
         std::to_string(on.stats.lb_prunes), match ? "yes" : "NO"});
    if (!match) {
      std::printf("MISMATCH on %s: off %s/%lld vs on %s/%lld\n",
                  name.c_str(), core::to_string(off.status).c_str(), off.cost,
                  core::to_string(on.status).c_str(), on.cost);
    }
  }
  benchx::print_table(table, "bound pruning A/B (1 thread)");
  std::puts("(bound prunes consume the same dispatch window as every other "
            "skip, so the\nlicense cost never moves — the bounds only stop "
            "the engine from re-proving\nhopeless sets the floors already "
            "refute)\n");
}

// Racing portfolio A/B: the same contested rows solved exact-only and with
// `PortfolioOptions::enabled` (greedy + SLS incumbent seeders racing the
// exact enumeration; see core/incumbent_pool.hpp). The portfolio trades
// none of the answer for time-to-optimal: members supply incumbent *costs*
// while every proof still comes from the exact dispatch loop, so on any
// row the exact side proves optimal the portfolio must report the
// identical status and cost. On budget-truncated rows the pool incumbent
// can only upgrade the answer (unknown -> feasible, or a cheaper feasible
// cost) — never weaken it. Either contract violated sets the process exit
// code; the CI bench-smoke step runs this section via `--fast`. The
// headline column is time-to-best: seconds until a binding at the final
// committed cost first existed (the seeders collapse it, the proof then
// catches up).
bool g_portfolio_mismatch = false;

void print_portfolio_study() {
  std::puts("=== Racing portfolio A/B (exact-only vs exact+greedy+SLS) ===\n");

  struct Row {
    std::string name;
    core::ProblemSpec spec;
    bool screens;  ///< static screens + cost bounds on this row
  };
  std::vector<Row> rows;
  // The contested regime the portfolio targets: the polynom row runs
  // screens/bounds off so every cheap-set refutation is real CSP grind
  // (the cache-study shape) and the SLS binder races a ~1s proof; the
  // high-n size-sweep rows keep the production pruning stack. mi=2 eases
  // capacity so the n=30/35 rows prove optimal — there the exact loop
  // only *finds* the winner late in the grind while a phase-A member
  // publishes the same cost in milliseconds.
  rows.push_back({"polynom contested", suite_like_spec("polynom", 0, 1),
                  false});
  rows.push_back({"random n=25", random_spec(25, 1025), true});
  // One extra cycle of slack + mi=2 keeps the high-n rows provable while
  // pushing the winning palette deep enough into the cheapest-first order
  // that the exact loop finds it late.
  for (const int n : {30, 36}) {
    core::ProblemSpec spec =
        random_spec(n, 1000 + static_cast<std::uint64_t>(n));
    spec.max_instances_per_offer = 2;
    spec.lambda_detection += 1;
    spec.lambda_recovery += 1;
    rows.push_back({"random n=" + std::to_string(n) + " mi=2 slack",
                    std::move(spec), true});
  }

  const auto rank = [](core::OptStatus status) {
    switch (status) {
      case core::OptStatus::kUnknown: return 0;
      case core::OptStatus::kFeasible: return 1;
      default: return 2;
    }
  };

  util::TablePrinter table({"benchmark", "status", "mc", "off s", "on s",
                            "off t-best", "on t-best", "t-best speedup",
                            "winner", "incumbents", "match"});
  for (const Row& row : rows) {
    core::SynthesisRequest request;
    request.spec = row.spec;
    request.pruning.static_screens = row.screens;
    request.pruning.cost_bounds = row.screens && !g_no_bounds;
    request.limits.time_limit_seconds = 120;
    request.observability.metrics = true;

    util::Timer timer;
    const core::OptimizeResult off = core::synthesize(request).result;
    const double off_s = timer.elapsed_seconds();
    g_json.add(benchx::record_of("portfolio_off/" + row.name, row.spec, 1,
                                 off, off_s));

    request.portfolio.enabled = true;
    timer.reset();
    const core::OptimizeResult on = core::synthesize(request).result;
    const double on_s = timer.elapsed_seconds();
    g_json.add(benchx::record_of("portfolio_on/" + row.name, row.spec, 1,
                                 on, on_s));

    // Proved rows: strict identity. Truncated rows: upgrade-only (proof
    // strength never weaker, committed cost never higher).
    const bool match =
        off.status == core::OptStatus::kOptimal ||
                off.status == core::OptStatus::kInfeasible
            ? (on.status == off.status && on.cost == off.cost)
            : (rank(on.status) >= rank(off.status) &&
               (!off.has_solution() || !on.has_solution() ||
                on.cost <= off.cost));
    if (!match) {
      g_portfolio_mismatch = true;
      std::printf("MISMATCH on %s: exact-only %s/%lld vs portfolio %s/%lld\n",
                  row.name.c_str(), core::to_string(off.status).c_str(),
                  off.cost, core::to_string(on.status).c_str(), on.cost);
    }
    const double off_best = off.stats.time_to_best_seconds;
    const double on_best = on.stats.time_to_best_seconds;
    table.add_row(
        {row.name, core::to_string(on.status),
         on.has_solution() ? util::format_money(on.cost) : std::string("-"),
         util::format_double(off_s, 3), util::format_double(on_s, 3),
         off_best >= 0 ? util::format_double(off_best, 3) : std::string("-"),
         on_best >= 0 ? util::format_double(on_best, 3) : std::string("-"),
         off_best >= 0 && on_best >= 0
             ? util::format_double(off_best / std::max(on_best, 1e-3), 1) +
                   "x"
             : std::string("-"),
         core::portfolio_member_name(on.stats.best_source),
         std::to_string(on.stats.incumbents_published),
         match ? "yes" : "NO"});
  }
  benchx::print_table(table, "portfolio time-to-optimal A/B (1 thread)");
  std::puts("(the exact loop still supplies every proof; the seeders only "
            "publish\nincumbent costs, so proved rows must be identical "
            "and t-best — when a\nbinding at the final cost first existed "
            "— is the portfolio's win)\n");
}

// Service throughput A/B: the same 16-request single-hot-market batch
// through an in-process SynthesisService with the engine pool at 1 (the
// pre-snapshot fully-serialized behavior) and at 4 (concurrent same-market
// serving over the shared warm snapshot). area_limit is excluded from
// spec_family_fingerprint, so 16 distinct *ascending* area limits land in
// one market group — ascending so no request's window is refuted by an
// earlier request's sealed proofs (a proof at a tighter area never
// dominates a roomier query) and both sides resolve the same work; the
// parallelism measured is real, not cache shortcutting. Identity is the
// hard contract: every concurrent reply must be bit-identical to a cold
// single-request solve, and a final *descending* replay (the tightest area
// again, now dominated by the batch's roomier proofs) must hit the warm
// snapshot. Either violated sets the process exit code. The ≥3x
// requests/sec gate additionally requires >= 4 hardware threads — on a
// smaller host the batch still runs and both identity gates still bind,
// but wall-clock speedup is hardware-limited and only reported.
bool g_service_mismatch = false;

void print_service_throughput_study() {
  std::puts("=== Service throughput (same-market concurrency A/B) ===\n");

  constexpr int kRequests = 16;
  constexpr int kWorkers = 4;
  std::vector<core::SynthesisRequest> requests;
  for (int i = 0; i < kRequests; ++i) {
    core::SynthesisRequest request;
    request.spec = suite_like_spec("polynom", 0, 1);
    request.spec.area_limit = 400'000 + 1'000 * static_cast<long long>(i);
    // Screens and bounds off so each request is real CSP grind; the
    // node/combo budgets make every resolved window a pure function of
    // the spec (the identity check depends on that determinism). Sized
    // for tens of milliseconds per solve so the speedup measurement
    // dominates scheduling noise, not the other way round.
    request.pruning.static_screens = false;
    request.pruning.cost_bounds = false;
    request.limits.max_combos = 96;
    request.limits.csp_node_limit = 60'000;
    request.limits.time_limit_seconds = 300;
    requests.push_back(std::move(request));
  }

  // Cold references: each request on a fresh engine, no service, no warm
  // state. The service's speed-only contract makes these the oracle.
  std::vector<core::SynthesisResponse> cold;
  cold.reserve(requests.size());
  for (const core::SynthesisRequest& request : requests) {
    cold.push_back(core::synthesize(request));
  }

  struct Batch {
    double wall_s = 0.0;
    double p50 = 0.0, p95 = 0.0, max = 0.0;
    long long replay_cache_skips = 0;
    int max_concurrent = 0;
  };
  const auto same_outcome = [&](const core::SynthesisResponse& got,
                                std::size_t i) {
    const core::SynthesisResponse& want = cold[i];
    return got.result.status == want.result.status &&
           got.result.cost == want.result.cost &&
           (!want.result.has_solution() ||
            got.result.solution.licenses_used(requests[i].spec) ==
                want.result.solution.licenses_used(requests[i].spec));
  };

  const auto run_batch = [&](int pool, const char* tag,
                             obs::RequestJournal* journal = nullptr) {
    Batch batch;
    service::ServiceConfig config;
    config.workers = kWorkers;
    config.queue_capacity = kRequests + 8;
    config.engine_pool = pool;
    config.journal = journal;
    service::SynthesisService service(config);

    std::mutex mutex;
    std::condition_variable cv;
    std::size_t finished = 0;
    std::vector<service::ServiceReply> replies(requests.size());
    util::Timer timer;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      service::JobInfo info;
      info.id = std::string(tag) + "-" + std::to_string(i);
      std::string error;
      const bool admitted = service.submit(
          info, requests[i],
          [&, i](const service::ServiceReply& reply) {
            std::lock_guard<std::mutex> lock(mutex);
            replies[i] = reply;
            ++finished;
            cv.notify_all();
          },
          &error);
      if (!admitted) {
        g_service_mismatch = true;
        std::printf("ADMISSION FAILURE (%s) on request %zu: %s\n", tag, i,
                    error.c_str());
        std::lock_guard<std::mutex> lock(mutex);
        ++finished;
      }
    }
    {
      std::unique_lock<std::mutex> lock(mutex);
      cv.wait(lock, [&] { return finished == requests.size(); });
    }
    batch.wall_s = timer.elapsed_seconds();

    std::vector<double> e2e;
    for (std::size_t i = 0; i < replies.size(); ++i) {
      const service::ServiceReply& reply = replies[i];
      if (!reply.ok() || !reply.warm || !same_outcome(reply.response, i)) {
        g_service_mismatch = true;
        std::printf(
            "MISMATCH (%s) on area %lld: service %s/%lld vs cold %s/%lld\n",
            tag, requests[i].spec.area_limit,
            core::to_string(reply.response.result.status).c_str(),
            reply.response.result.cost,
            core::to_string(cold[i].result.status).c_str(),
            cold[i].result.cost);
      }
      e2e.push_back(reply.queue_seconds + reply.solve_seconds);
      g_json.add(benchx::record_of(std::string("service_") + tag +
                                       "/polynom",
                                   requests[i].spec, kWorkers,
                                   reply.response.result,
                                   reply.solve_seconds));
    }
    std::sort(e2e.begin(), e2e.end());
    const auto pct = [&](double p) {
      const std::size_t idx = std::min(
          e2e.size() - 1, static_cast<std::size_t>(
                              p * static_cast<double>(e2e.size())));
      return e2e[idx];
    };
    batch.p50 = pct(0.50);
    batch.p95 = pct(0.95);
    batch.max = e2e.back();

    // Descending replay: the tightest area again. Every roomier request's
    // sealed proofs dominate it, so the published snapshot must hand this
    // solve cache skips — and the skips consume dispatch slots, so the
    // answer still matches the cold oracle exactly.
    service::JobInfo replay;
    replay.id = std::string(tag) + "-replay";
    const service::ServiceReply replayed =
        service.execute(replay, requests.front());
    batch.replay_cache_skips =
        replayed.response.result.stats.combos_skipped_cache;
    if (!replayed.ok() || !same_outcome(replayed.response, 0) ||
        batch.replay_cache_skips <= 0) {
      g_service_mismatch = true;
      std::printf(
          "REPLAY FAILURE (%s): %s, cache skips %lld (want > 0, identical "
          "outcome)\n",
          tag,
          replayed.ok() ? core::to_string(replayed.response.result.status)
                              .c_str()
                        : replayed.error.c_str(),
          batch.replay_cache_skips);
    }

    // Measured engine concurrency, from the market group's high-water
    // mark (reported; the pool=1 side must stay at exactly 1).
    const service::Json stats = service.stats();
    for (const service::Json& market : stats.get("markets").items()) {
      batch.max_concurrent = std::max(
          batch.max_concurrent,
          static_cast<int>(market.get("max_concurrent").as_int(0)));
    }
    if (pool == 1 && batch.max_concurrent > 1) {
      g_service_mismatch = true;
      std::printf("POOL BREACH (%s): max_concurrent %d with pool=1\n", tag,
                  batch.max_concurrent);
    }

    benchx::JsonRecord summary;
    summary.benchmark = std::string("service_throughput/") + tag;
    summary.n = requests.front().spec.graph.num_ops();
    summary.lambda = requests.front().spec.lambda_detection;
    summary.threads = kWorkers;
    summary.status = "batch";
    summary.wall_s = batch.wall_s;
    summary.req_per_sec =
        static_cast<double>(kRequests) / std::max(batch.wall_s, 1e-9);
    summary.latency_p50_s = batch.p50;
    summary.latency_p95_s = batch.p95;
    summary.latency_max_s = batch.max;
    summary.combos_skipped_cache = batch.replay_cache_skips;
    g_json.add(std::move(summary));
    return batch;
  };

  const Batch serial = run_batch(1, "pool1");
  const Batch pooled = run_batch(kWorkers, "pool4");

  // Journal A/B: the same saturated pool-4 batch with the request journal
  // attached. The identity/replay gates inside run_batch bind again (the
  // journal only observes), and the journal itself must hold exactly one
  // admit and one "end" terminal for each of the 17 requests (16 batch +
  // 1 replay). The req/s delta vs. journal-off is the observability tax;
  // it is reported for every run and only a catastrophic slowdown fails
  // (CI machines are too noisy for a tight throughput gate).
  const std::string journal_path = "bench_service_journal.jsonl";
  std::remove(journal_path.c_str());
  Batch journaled;
  {
    std::string journal_error;
    auto journal = obs::RequestJournal::open(journal_path, &journal_error);
    if (journal == nullptr) {
      g_service_mismatch = true;
      std::printf("JOURNAL OPEN FAILURE: %s\n", journal_error.c_str());
    } else {
      journaled = run_batch(kWorkers, "pool4_journal", journal.get());
      journal->flush();
    }
  }  // journal destructor joins the writer before the file is read
  {
    std::ifstream in(journal_path);
    std::string line;
    int admits = 0;
    int ends = 0;
    int other_terminals = 0;
    while (std::getline(in, line)) {
      if (line.find("\"event\":\"admit\"") != std::string::npos) ++admits;
      if (line.find("\"event\":\"end\"") != std::string::npos) ++ends;
      if (line.find("\"event\":\"cancel\"") != std::string::npos ||
          line.find("\"event\":\"deadline_miss\"") != std::string::npos ||
          line.find("\"event\":\"drop\"") != std::string::npos) {
        ++other_terminals;
      }
    }
    if (admits != kRequests + 1 || ends != kRequests + 1 ||
        other_terminals != 0) {
      g_service_mismatch = true;
      std::printf(
          "JOURNAL MISMATCH: %d admits, %d ends, %d other terminals "
          "(want %d/%d/0)\n",
          admits, ends, other_terminals, kRequests + 1, kRequests + 1);
    }
  }
  std::remove(journal_path.c_str());
  const double journal_tax =
      journaled.wall_s > 0.0
          ? (journaled.wall_s - pooled.wall_s) / pooled.wall_s
          : 0.0;
  std::printf("journal overhead: %+.1f%% wall time on the pool=%d batch\n",
              journal_tax * 100.0, kWorkers);
  if (journal_tax > 0.25) {
    g_service_mismatch = true;
    std::printf("JOURNAL OVERHEAD FAILURE: %+.1f%% > 25%%\n",
                journal_tax * 100.0);
  }

  const double speedup =
      serial.wall_s / std::max(pooled.wall_s, 1e-9);
  const unsigned hw = std::thread::hardware_concurrency();
  util::TablePrinter table({"mode", "wall s", "req/s", "p50 s", "p95 s",
                            "max s", "max conc", "replay skips"});
  const auto add_row = [&](const char* name, const Batch& batch) {
    table.add_row(
        {name, util::format_double(batch.wall_s, 2),
         util::format_double(static_cast<double>(kRequests) /
                                 std::max(batch.wall_s, 1e-9),
                             1),
         util::format_double(batch.p50, 3),
         util::format_double(batch.p95, 3),
         util::format_double(batch.max, 3),
         std::to_string(batch.max_concurrent),
         std::to_string(batch.replay_cache_skips)});
  };
  add_row("pool=1 (serialized)", serial);
  add_row("pool=4 (concurrent)", pooled);
  add_row("pool=4 + journal", journaled);
  benchx::print_table(table, "single hot market, 16 requests, 4 workers");
  std::printf("throughput speedup: %.2fx (%u hardware threads)\n",
              speedup, hw);
  if (hw >= 4) {
    if (speedup < 3.0) {
      g_service_mismatch = true;
      std::printf("SPEEDUP FAILURE: %.2fx < 3x with %u hardware threads\n",
                  speedup, hw);
    }
  } else {
    std::puts("(hardware-limited: < 4 hardware threads, so the >=3x "
              "requests/sec gate is\nreported only; identity and replay "
              "gates above still bind)");
  }
  std::puts("(every reply is bit-identical to a cold single-request solve; "
            "the pool only\nchanges who computes an answer first, never the "
            "answer)\n");
}

void BM_ExactByOps(benchmark::State& state) {
  const core::ProblemSpec spec =
      random_spec(static_cast<int>(state.range(0)),
                  2000 + static_cast<std::uint64_t>(state.range(0)));
  core::OptimizerOptions options;
  options.time_limit_seconds = 15;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::synthesize(core::make_request(spec, options)).result);
  }
}
BENCHMARK(BM_ExactByOps)->Arg(5)->Arg(10)->Arg(15)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_HeuristicByOps(benchmark::State& state) {
  const core::ProblemSpec spec =
      random_spec(static_cast<int>(state.range(0)),
                  2000 + static_cast<std::uint64_t>(state.range(0)));
  core::OptimizerOptions options;
  options.strategy = core::Strategy::kHeuristic;
  options.time_limit_seconds = 15;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::synthesize(core::make_request(spec, options)).result);
  }
}
BENCHMARK(BM_HeuristicByOps)->Arg(5)->Arg(10)->Arg(15)->Arg(20)
    ->Unit(benchmark::kMillisecond)->Iterations(1);

}  // namespace

// Custom main (instead of HT_BENCH_MAIN): strip `--threads N`,
// `--json <path>`, `--fast` and `--no-bounds` before google-benchmark sees
// the argv, then run the reproduction, the parallel-scaling / pruning /
// bounds / cache sections, and the registered timings. `--fast` runs only
// the pruning / cache / portfolio / service-throughput studies — the
// subset whose statuses and costs are reproducible under any load, which
// is what the CI bench-smoke diff checks. `--no-bounds` disables the lower
// bounds everywhere (the bounds study still runs its own explicit A/B).
int main(int argc, char** argv) {
  const std::string json_path = ht::benchx::consume_json_flag(argc, argv);
  int threads =
      std::max(2, static_cast<int>(ht::util::ThreadPool::hardware_concurrency()));
  bool fast = false;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = std::atoi(argv[i + 1]);
      ++i;
    } else if (std::strcmp(argv[i], "--fast") == 0) {
      fast = true;
    } else if (std::strcmp(argv[i], "--no-bounds") == 0) {
      g_no_bounds = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;

  if (!fast) {
    print_reproduction();
    if (threads > 1) print_parallel_scaling(threads);
  }
  print_pruning_study();
  print_cache_study();
  print_portfolio_study();
  print_service_throughput_study();
  if (!fast) print_bounds_study();

  if (!json_path.empty()) {
    if (g_json.write_to(json_path)) {
      std::printf("wrote %zu records to %s\n", g_json.size(),
                  json_path.c_str());
    } else {
      std::printf("FAILED to write %s\n", json_path.c_str());
      return 1;
    }
  }
  if (g_portfolio_mismatch) {
    std::puts("portfolio: exact-identity/upgrade contract violated; "
              "failing the run");
    return 1;
  }
  if (g_service_mismatch) {
    std::puts("service_throughput: identity/replay/speedup contract "
              "violated; failing the run");
    return 1;
  }
  if (fast) return 0;

  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
