// Shared helpers for the table-reproduction benches.
//
// Each bench binary prints its paper table first (so `./bench_*` with no
// arguments reproduces the evaluation), then runs its google-benchmark
// timing section.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/incumbent_pool.hpp"
#include "core/optimizer.hpp"
#include "obs/metrics.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace ht::benchx {

/// u / t / v / mc columns of the paper's Tables 3-4 for one solution.
struct RowMetrics {
  std::size_t cores;     // u: IP core instances
  std::size_t licenses;  // t: (vendor, type) licenses
  std::size_t vendors;   // v: distinct vendors
  long long cost;        // mc: minimum purchasing cost
  bool starred;          // '*': not proved optimal (like the paper)
};

inline RowMetrics metrics_of(const core::ProblemSpec& spec,
                             const core::OptimizeResult& result) {
  RowMetrics metrics{};
  metrics.cores = result.solution.cores_used(spec).size();
  metrics.licenses = result.solution.licenses_used(spec).size();
  metrics.vendors = result.solution.vendors_used(spec).size();
  metrics.cost = result.cost;
  metrics.starred = result.status != core::OptStatus::kOptimal;
  return metrics;
}

inline std::string cost_cell(const RowMetrics& metrics) {
  return util::format_money(metrics.cost) + (metrics.starred ? "*" : "");
}

/// Prints a rendered table plus its CSV twin to stdout.
inline void print_table(const util::TablePrinter& table,
                        const std::string& title) {
  std::fputs(table.to_string(title).c_str(), stdout);
  std::fputs("\n", stdout);
}

/// One per-row record of the machine-readable bench log (`--json <path>`).
/// Mirrors the printed tables so perf trajectories can be diffed run over
/// run without scraping stdout.
struct JsonRecord {
  std::string benchmark;
  int n = 0;       ///< DFG operation count
  int lambda = 0;  ///< detection-phase latency bound
  long long area = 0;
  int threads = 1;
  std::string status;
  long long cost = 0;
  /// CSP nodes of the *winning* sub-search only — the attempt whose result
  /// the row reports (the full-market probe included when its backfilled
  /// answer is the one committed). 0 when no attempt won (unknown /
  /// infeasible rows), even if sub-searches burned nodes getting there.
  long nodes = 0;
  /// CSP nodes summed across *every* sub-search of the row: non-winning
  /// split/frontier attempts and unsuccessful probe runs included. Always
  /// >= `nodes`; compare run over run with `nodes_total`, read the
  /// winner's effort from `nodes`.
  long nodes_total = 0;
  long nogoods = 0;
  long backjumps = 0;
  long restarts = 0;
  long combos_tried = 0;
  long combos_skipped_cache = 0;
  long combos_skipped_screen = 0;
  /// License sets refuted by the branch-and-bound lower bounds before any
  /// CSP dispatch.
  long lb_prunes = 0;
  /// Counter-bucket entries examined by the nogood propagator
  /// (nodes_total-style aggregation).
  long nogood_watch_visits = 0;
  double wall_s = 0.0;
  // ---- racing portfolio attribution (core/incumbent_pool.hpp). Negative
  // values mean "not applicable" and the key is omitted, so rows from
  // pre-portfolio runs and portfolio-off rows without a solution
  // serialize exactly as before. ------------------------------------------
  /// Seconds until the first pool incumbent existed (-1: none).
  double time_to_incumbent_s = -1.0;
  /// Seconds until a binding at the final committed cost first existed
  /// (-1: no solution). Populated portfolio-off too (the winning set's
  /// commit time), so A/B runs compare time-to-optimal directly.
  double time_to_best_s = -1.0;
  /// Member whose binding was committed (-1 none; emitted as its name).
  int winner_member = -1;
  /// Incumbents published by the greedy/SLS members (0 portfolio-off).
  long incumbents = 0;
  // ---- service-throughput summary rows (thlsd concurrency study).
  // Negative values mean "not a service row" and the keys are omitted, so
  // solver rows serialize exactly as before. ------------------------------
  /// Completed requests per wall second for the batch this row summarizes.
  double req_per_sec = -1.0;
  /// End-to-end (queue wait + solve) latency percentiles of the batch.
  double latency_p50_s = -1.0;
  double latency_p95_s = -1.0;
  double latency_max_s = -1.0;
  /// Per-stage counters and duration histograms (obs/metrics.hpp); all
  /// zeros — and omitted from the JSON — unless the bench enabled
  /// OptimizerOptions::collect_metrics for this row.
  obs::SolveMetrics metrics;
};

inline JsonRecord record_of(std::string benchmark,
                            const core::ProblemSpec& spec, int threads,
                            const core::OptimizeResult& result,
                            double wall_s) {
  JsonRecord record;
  record.benchmark = std::move(benchmark);
  record.n = spec.graph.num_ops();
  record.lambda = spec.lambda_detection;
  record.area = spec.area_limit;
  record.threads = threads;
  record.status = core::to_string(result.status);
  record.cost = result.cost;
  record.nodes = result.stats.csp_nodes;
  record.nodes_total = result.stats.nodes_total;
  record.nogoods = result.stats.nogoods_learned;
  record.backjumps = result.stats.backjumps;
  record.restarts = result.stats.restarts;
  record.combos_tried = result.stats.combos_tried;
  record.combos_skipped_cache = result.stats.combos_skipped_cache;
  record.combos_skipped_screen = result.stats.combos_skipped_screen;
  record.lb_prunes = result.stats.lb_prunes;
  record.nogood_watch_visits = result.stats.nogood_watch_visits;
  record.wall_s = wall_s;
  record.time_to_incumbent_s = result.stats.time_to_incumbent_seconds;
  record.time_to_best_s = result.stats.time_to_best_seconds;
  record.winner_member = result.stats.best_source;
  record.incumbents = result.stats.incumbents_published;
  record.metrics = result.metrics;
  return record;
}

/// Accumulates JsonRecords and writes them as one JSON array.
class JsonReport {
 public:
  void add(JsonRecord record) { records_.push_back(std::move(record)); }
  bool empty() const { return records_.empty(); }
  std::size_t size() const { return records_.size(); }

  /// Returns false on I/O failure.
  bool write_to(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "[\n";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const JsonRecord& r = records_[i];
      out << "  {\"benchmark\": \"" << escaped(r.benchmark) << "\""
          << ", \"n\": " << r.n << ", \"lambda\": " << r.lambda
          << ", \"area\": " << r.area << ", \"threads\": " << r.threads
          << ", \"status\": \"" << escaped(r.status) << "\""
          << ", \"cost\": " << r.cost << ", \"nodes\": " << r.nodes
          << ", \"nodes_total\": " << r.nodes_total
          << ", \"nogoods\": " << r.nogoods
          << ", \"backjumps\": " << r.backjumps
          << ", \"restarts\": " << r.restarts
          << ", \"combos_tried\": " << r.combos_tried
          << ", \"combos_skipped_cache\": " << r.combos_skipped_cache
          << ", \"combos_skipped_screen\": " << r.combos_skipped_screen
          << ", \"lb_prunes\": " << r.lb_prunes
          << ", \"nogood_watch_visits\": " << r.nogood_watch_visits
          << ", \"wall_s\": " << util::format_double(r.wall_s, 4);
      if (r.time_to_incumbent_s >= 0.0) {
        out << ", \"time_to_incumbent_s\": "
            << util::format_double(r.time_to_incumbent_s, 4);
      }
      if (r.time_to_best_s >= 0.0) {
        out << ", \"time_to_best_s\": "
            << util::format_double(r.time_to_best_s, 4);
      }
      if (r.winner_member >= 0) {
        out << ", \"winner_member\": \""
            << core::portfolio_member_name(r.winner_member) << "\"";
      }
      if (r.incumbents > 0) out << ", \"incumbents\": " << r.incumbents;
      if (r.req_per_sec >= 0.0) {
        out << ", \"req_per_sec\": " << util::format_double(r.req_per_sec, 4);
      }
      if (r.latency_p50_s >= 0.0) {
        out << ", \"latency_p50_s\": "
            << util::format_double(r.latency_p50_s, 4);
      }
      if (r.latency_p95_s >= 0.0) {
        out << ", \"latency_p95_s\": "
            << util::format_double(r.latency_p95_s, 4);
      }
      if (r.latency_max_s >= 0.0) {
        out << ", \"latency_max_s\": "
            << util::format_double(r.latency_max_s, 4);
      }
      // Per-stage metrics ride along only when the row collected them, so
      // rows from metrics-off benches serialize exactly as before.
      if (!r.metrics.empty()) {
        out << ", \"metrics\": " << obs::to_json(r.metrics);
      }
      out << "}" << (i + 1 < records_.size() ? ",\n" : "\n");
    }
    out << "]\n";
    return static_cast<bool>(out);
  }

 private:
  static std::string escaped(const std::string& text) {
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
      if (c == '"' || c == '\\') out.push_back('\\');
      if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
    }
    return out;
  }

  std::vector<JsonRecord> records_;
};

/// Strips `--json <path>` from argv (google-benchmark rejects flags it
/// does not know) and returns the path, or "" when the flag is absent.
inline std::string consume_json_flag(int& argc, char** argv) {
  std::string path;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      path = argv[i + 1];
      ++i;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  return path;
}

/// Standard main body: print the reproduction, then run registered
/// google-benchmark timings.
#define HT_BENCH_MAIN(print_fn)                                   \
  int main(int argc, char** argv) {                               \
    print_fn();                                                   \
    ::benchmark::Initialize(&argc, argv);                         \
    if (::benchmark::ReportUnrecognizedArguments(argc, argv)) {   \
      return 1;                                                   \
    }                                                             \
    ::benchmark::RunSpecifiedBenchmarks();                        \
    ::benchmark::Shutdown();                                      \
    return 0;                                                     \
  }

}  // namespace ht::benchx
