// thls — command-line front end for the trojan-hls library.
//
//   thls optimize <dfg-file> [options]       cost-minimal schedule+binding
//   thls simulate <dfg-file> [options]       optimize + Monte-Carlo attack
//   thls export-verilog <dfg-file> [options] optimize + RTL emission
//   thls export-dot <dfg-file> [options]     DFG structure as Graphviz
//   thls benchmarks                          list the paper's suite
//
// <dfg-file> is either a path to a textual DFG (see src/dfg/parse.hpp) or
// the name of a built-in benchmark (polynom, diff2, dtmf, mof2,
// ellipticicass, fir16, ar_lattice, matmul2x2, fft4).
//
// Common options:
//   --catalog table1|section5   IP market (default section5)
//   --lambda-det N              detection-phase latency bound (default CP+1)
//   --lambda-rec N              recovery-phase latency bound (default CP+1)
//   --detection-only            Rajendran baseline: no recovery phase
//   --area N                    total area bound (default 10x minimum core)
//   --strategy exact|heuristic  optimizer strategy (default exact)
//   --threads N                 parallel search lanes (default 1; 0 = all
//                               hardware threads; results are identical
//                               for every value)
//   --time-limit S              search wall-clock budget in seconds
//   --no-bounds                 disable the branch-and-bound lower bounds
//                               (A/B baseline; same answers, slower)
//   --portfolio                 racing portfolio: greedy + SLS incumbent
//                               seeders race ahead of the exact search
//                               (same proved answers, faster to optimal)
//   --progress                  print combos-tried / incumbent-cost lines
//                               as the search advances
//   --seed N                    RNG seed (default 1)
//   --trials N                  simulate: campaign size (default 400)
//   -o FILE                     export: write to FILE instead of stdout
//
// Observability (optimize/simulate/export-verilog):
//   --trace FILE                capture a Chrome trace-event JSON of the
//                               solve (load in Perfetto / chrome://tracing)
//   --metrics-json FILE         write per-stage counters and duration
//                               histograms as JSON
//   --explain                   print a prune-reason breakdown and per-stage
//                               time share after the solve
#include <cstdio>

#include "common.hpp"

#include "benchmarks/suite.hpp"
#include "core/engine.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "dfg/analysis.hpp"
#include "dfg/dot.hpp"
#include "rtl/verilog.hpp"
#include "trojan/monte_carlo.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

using namespace ht;

namespace {

struct Options {
  std::string command;
  std::string graph_arg;
  std::string catalog = "section5";
  int lambda_det = 0;
  int lambda_rec = 0;
  bool detection_only = false;
  long long area = 0;
  int max_instances = 0;
  std::string strategy = "exact";
  int threads = 1;
  double time_limit = 0;  // 0: engine default
  bool cost_bounds = true;
  bool static_screens = true;
  bool portfolio = false;
  bool progress = false;
  std::uint64_t seed = 1;
  int trials = 400;
  std::string out_file;
  bool share_registers = false;
  bool close_pairs = true;
  std::string trace_file;
  std::string metrics_file;
  bool explain = false;

  bool wants_metrics() const { return explain || !metrics_file.empty(); }

  tools::SpecOptions spec_options() const {
    tools::SpecOptions spec;
    spec.graph_arg = graph_arg;
    spec.catalog = catalog;
    spec.lambda_det = lambda_det;
    spec.lambda_rec = lambda_rec;
    spec.detection_only = detection_only;
    spec.area = area;
    spec.max_instances = max_instances;
    spec.close_pairs = close_pairs;
    spec.seed = seed;
    return spec;
  }

  tools::EngineOptions engine_options() const {
    tools::EngineOptions engine;
    engine.strategy = strategy;
    engine.threads = threads;
    engine.time_limit = time_limit;
    engine.cost_bounds = cost_bounds;
    engine.static_screens = static_screens;
    engine.portfolio = portfolio;
    engine.metrics = wants_metrics();
    engine.seed = seed;
    return engine;
  }
};

[[noreturn]] void usage(const std::string& error = "") {
  if (!error.empty()) std::fprintf(stderr, "thls: %s\n\n", error.c_str());
  std::fputs(
      "usage: thls <optimize|simulate|export-verilog|export-dot> "
      "<dfg-file|benchmark> [options]\n"
      "       thls benchmarks\n"
      "options: --catalog table1|section5  --lambda-det N  --lambda-rec N\n"
      "         --detection-only  --area N  --max-instances N\n"
      "         --strategy exact|heuristic\n"
      "         --threads N (0 = all cores)  --time-limit SECONDS  --progress\n"
      "         --no-bounds (disable branch-and-bound lower bounds)\n"
      "         --no-screens (disable the static pre-CSP screens)\n"
      "         --portfolio (race greedy + SLS incumbent seeders)\n"
      "         --seed N  --trials N  -o FILE  --share-registers\n"
      "         --no-close-pairs (skip Section 3.3 close-pair profiling)\n"
      "         --trace FILE (Chrome trace-event JSON of the solve)\n"
      "         --metrics-json FILE (per-stage counters/histograms as JSON)\n"
      "         --explain (prune-reason breakdown + per-stage time share)\n",
      stderr);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options options;
  if (argc < 2) usage();
  options.command = argv[1];
  int i = 2;
  if (options.command != "benchmarks") {
    if (argc < 3) usage("missing <dfg-file|benchmark>");
    options.graph_arg = argv[2];
    i = 3;
  }
  auto need_value = [&](const std::string& flag) -> std::string {
    if (i >= argc) usage("flag " + flag + " needs a value");
    return argv[i++];
  };
  while (i < argc) {
    const std::string flag = argv[i++];
    if (flag == "--catalog") {
      options.catalog = need_value(flag);
    } else if (flag == "--lambda-det") {
      options.lambda_det = util::parse_number<int>(need_value(flag), flag);
    } else if (flag == "--lambda-rec") {
      options.lambda_rec = util::parse_number<int>(need_value(flag), flag);
    } else if (flag == "--detection-only") {
      options.detection_only = true;
    } else if (flag == "--area") {
      options.area = util::parse_number<long long>(need_value(flag), flag);
    } else if (flag == "--max-instances") {
      options.max_instances = util::parse_number<int>(need_value(flag), flag);
    } else if (flag == "--strategy") {
      options.strategy = need_value(flag);
    } else if (flag == "--threads") {
      options.threads = util::parse_number<int>(need_value(flag), flag);
    } else if (flag == "--time-limit") {
      options.time_limit = util::parse_number<double>(need_value(flag), flag);
    } else if (flag == "--no-bounds") {
      options.cost_bounds = false;
    } else if (flag == "--no-screens") {
      options.static_screens = false;
    } else if (flag == "--portfolio") {
      options.portfolio = true;
    } else if (flag == "--progress") {
      options.progress = true;
    } else if (flag == "--seed") {
      options.seed =
          util::parse_number<unsigned long long>(need_value(flag), flag);
    } else if (flag == "--trials") {
      options.trials = util::parse_number<int>(need_value(flag), flag);
    } else if (flag == "-o") {
      options.out_file = need_value(flag);
    } else if (flag == "--share-registers") {
      options.share_registers = true;
    } else if (flag == "--no-close-pairs") {
      options.close_pairs = false;
    } else if (flag == "--trace") {
      options.trace_file = need_value(flag);
    } else if (flag == "--metrics-json") {
      options.metrics_file = need_value(flag);
    } else if (flag == "--explain") {
      options.explain = true;
    } else {
      usage("unknown flag " + flag);
    }
  }
  return options;
}

dfg::Dfg load_graph(const std::string& arg) {
  return tools::load_graph(arg);
}

core::ProblemSpec build_spec(const Options& options) {
  return tools::build_spec(options.spec_options());
}

/// --explain: per-stage time share plus the prune-reason breakdown.
/// Stage spans nest (stage/csp contains validation, nogood propagation is
/// inside the CSP), so shares are per stage, not a partition of the wall.
void print_explain(const core::OptimizeResult& result) {
  const double wall_ns = result.stats.seconds * 1e9;
  util::TablePrinter stages({"stage", "calls", "total ms", "share"});
  for (int s = 0; s < obs::kNumStages; ++s) {
    const auto stage = static_cast<obs::Stage>(s);
    const obs::StageStats& stats = result.metrics.stage(stage);
    if (stats.count == 0) continue;
    const double share =
        wall_ns > 0 ? 100.0 * static_cast<double>(stats.total_ns) / wall_ns
                    : 0.0;
    stages.add_row({obs::stage_name(stage), std::to_string(stats.count),
                    util::format_double(
                        static_cast<double>(stats.total_ns) / 1e6, 3),
                    util::format_double(share, 1) + "%"});
  }
  std::fputs(
      stages.to_string("per-stage time (stages nest; shares overlap)")
          .c_str(),
      stdout);
  util::TablePrinter prunes({"prune reason", "license sets"});
  long long total_pruned = 0;
  for (int r = 0; r < obs::kNumPruneReasons; ++r) {
    const auto reason = static_cast<obs::PruneReason>(r);
    prunes.add_row({obs::prune_reason_name(reason),
                    std::to_string(result.metrics.prune(reason))});
    total_pruned += result.metrics.prune(reason);
  }
  prunes.add_row({"(dispatched)",
                  std::to_string(result.stats.combos_tried)});
  std::fputs(prunes
                 .to_string("prune-reason breakdown (" +
                            std::to_string(total_pruned) +
                            " license sets skipped without CSP dispatch)")
                 .c_str(),
             stdout);
}

core::OptimizeResult run_optimizer(const core::ProblemSpec& spec,
                                   const Options& options) {
  core::SynthesisRequest request =
      tools::build_request(spec, options.engine_options());
  request.kind = core::RequestKind::kMinimize;
  if (options.progress) {
    request.progress = [](const core::SynthesisProgress& progress) {
      const long skipped = progress.combos_skipped_screen +
                           progress.combos_skipped_cache +
                           progress.lb_prunes;
      if (progress.have_incumbent) {
        std::fprintf(stderr,
                     "progress: combos=%ld skipped=%ld nodes=%ld "
                     "incumbent=$%lld t=%.2fs\n",
                     progress.combos_tried, skipped, progress.csp_nodes,
                     progress.incumbent_cost, progress.seconds);
      } else {
        std::fprintf(stderr,
                     "progress: combos=%ld skipped=%ld nodes=%ld "
                     "incumbent=- t=%.2fs\n",
                     progress.combos_tried, skipped, progress.csp_nodes,
                     progress.seconds);
      }
    };
  }
  core::SynthesisEngine engine(std::move(request));
  if (!options.trace_file.empty()) obs::start_tracing();
  const core::OptimizeResult result = engine.run().result;
  if (!options.trace_file.empty()) {
    const obs::TraceLog log = obs::stop_tracing();
    std::ostringstream buffer;
    obs::write_chrome_trace(log, buffer);
    util::write_file(options.trace_file, buffer.str());
    std::fprintf(stderr, "trace: %zu events (%llu dropped) -> %s\n",
                 log.events.size(),
                 static_cast<unsigned long long>(log.dropped),
                 options.trace_file.c_str());
  }
  if (!options.metrics_file.empty()) {
    util::write_file(options.metrics_file,
                     obs::to_json(result.metrics) + "\n");
    std::fprintf(stderr, "metrics: %s\n", options.metrics_file.c_str());
  }
  if (options.explain) print_explain(result);
  return result;
}

void emit(const Options& options, const std::string& content) {
  if (options.out_file.empty()) {
    std::fputs(content.c_str(), stdout);
  } else {
    util::write_file(options.out_file, content);
    std::printf("wrote %zu bytes to %s\n", content.size(),
                options.out_file.c_str());
  }
}

int cmd_optimize(const Options& options) {
  const core::ProblemSpec spec = build_spec(options);
  const core::OptimizeResult result = run_optimizer(spec, options);
  std::printf("graph: %s  (%d ops, critical path %d)\n",
              spec.graph.name().c_str(), spec.graph.num_ops(),
              dfg::critical_path_length(spec.graph));
  std::printf("constraints: lambda_det=%d lambda_rec=%d area<=%lld mode=%s\n",
              spec.lambda_detection, spec.lambda_recovery, spec.area_limit,
              spec.with_recovery ? "detect+recover" : "detection-only");
  std::printf("status: %s\n", core::to_string(result.status).c_str());
  if (!result.has_solution()) return 1;
  std::printf("minimum purchasing cost: %s\n",
              util::format_money(result.cost).c_str());
  std::printf("u=%zu cores  t=%zu licenses  v=%zu vendors  area=%lld\n\n",
              result.solution.cores_used(spec).size(),
              result.solution.licenses_used(spec).size(),
              result.solution.vendors_used(spec).size(),
              result.solution.total_area(spec));
  std::fputs(result.solution.to_string(spec).c_str(), stdout);
  return 0;
}

int cmd_simulate(const Options& options) {
  const core::ProblemSpec spec = build_spec(options);
  const core::OptimizeResult result = run_optimizer(spec, options);
  if (!result.has_solution()) {
    std::printf("optimization failed: %s\n",
                core::to_string(result.status).c_str());
    return 1;
  }
  if (!spec.with_recovery) {
    std::puts("note: detection-only design; simulating with re-execution "
              "as the (ineffective) recovery strategy");
  }
  trojan::CampaignConfig config;
  config.trials = options.trials;
  config.seed = options.seed;
  const trojan::CampaignStats stats = trojan::run_campaign(
      spec, result.solution, config,
      spec.with_recovery ? trojan::RecoveryStrategy::kRebindPerRules
                         : trojan::RecoveryStrategy::kReexecuteSame);
  std::printf("design cost %s; campaign of %d adversarial trials "
              "(seed %llu):\n",
              util::format_money(result.cost).c_str(), stats.trials,
              static_cast<unsigned long long>(config.seed));
  std::printf("  payload activated : %d\n", stats.payload_activated);
  std::printf("  detected          : %d  (rate %.3f)\n", stats.detected,
              stats.detection_rate());
  std::printf("  silent corruptions: %d\n", stats.silent_corruptions);
  std::printf("  recoveries        : %d of %d  (rate %.3f)\n",
              stats.recovered, stats.recovery_ran, stats.recovery_rate());
  return 0;
}

int cmd_export_verilog(const Options& options) {
  const core::ProblemSpec spec = build_spec(options);
  const core::OptimizeResult result = run_optimizer(spec, options);
  if (!result.has_solution()) {
    std::printf("optimization failed: %s\n",
                core::to_string(result.status).c_str());
    return 1;
  }
  rtl::ElaborateOptions elaborate_options;
  elaborate_options.share_registers = options.share_registers;
  const rtl::ElaboratedDesign design =
      rtl::elaborate(spec, result.solution, elaborate_options);
  std::fprintf(stderr, "elaborated %d data registers%s\n",
               design.num_data_registers,
               options.share_registers ? " (shared)" : "");
  emit(options, rtl::to_verilog(design));
  return 0;
}

int cmd_export_dot(const Options& options) {
  emit(options, dfg::to_dot(load_graph(options.graph_arg)));
  return 0;
}

int cmd_benchmarks() {
  util::TablePrinter table(
      {"name", "ops", "critical path", "adders", "multipliers", "alus"});
  auto add = [&](const std::string& name, const dfg::Dfg& graph) {
    const auto counts = graph.ops_per_class();
    table.add_row({name, std::to_string(graph.num_ops()),
                   std::to_string(dfg::critical_path_length(graph)),
                   std::to_string(counts[0]), std::to_string(counts[1]),
                   std::to_string(counts[2])});
  };
  for (const benchmarks::BenchmarkCase& entry : benchmarks::paper_suite()) {
    add(entry.name, entry.factory());
  }
  add("ar_lattice", benchmarks::ar_lattice());
  add("matmul2x2", benchmarks::matmul2x2());
  add("fft4", benchmarks::fft4());
  std::fputs(
      table.to_string("built-in benchmarks (paper suite + extras)").c_str(),
      stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options options = parse_args(argc, argv);
    if (options.command == "optimize") return cmd_optimize(options);
    if (options.command == "simulate") return cmd_simulate(options);
    if (options.command == "export-verilog") {
      return cmd_export_verilog(options);
    }
    if (options.command == "export-dot") return cmd_export_dot(options);
    if (options.command == "benchmarks") return cmd_benchmarks();
    usage("unknown command " + options.command);
  } catch (const util::Error& error) {
    std::fprintf(stderr, "thls: %s\n", error.what());
    return 1;
  }
}
