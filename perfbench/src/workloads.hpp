// The workloads and the run loop around them.
//
// A run repeats *passes* until --seconds of wall time have gone by (and at
// least three passes and enough timed requests for the p95 rule). Every
// pass sets up from scratch — corpus generation, or server start plus the
// warm-up sequence — and then sends its timed sequence: every timed pool
// entry once, in an order (and, for cold_corpus, with a portfolio draw) that the seed and
// the pass's round decide. Request counts per pass are fixed, so
// proved_frac and license_cost_mean do not depend on how many passes fit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "expected.hpp"

namespace perfbench {

struct RunOptions {
  Workload workload = Workload::kColdCorpus;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// Per-layer run: alternate plain and traced passes (metrics collection
  /// on every request of a traced pass) and report the layers.
  bool trace = false;
  std::string out_dir;  ///< scratch files: socket, journal, spans
  std::string git_sha;
};

/// Runs the workload and prints the report; the last stdout line is the
/// result object. Returns the process exit code.
int run_workload(const RunOptions& options,
                 const std::vector<ExpectedRow>& rows);

}  // namespace perfbench
