// The benchmark's own arithmetic, kept free of I/O so stats_test.cpp can pin
// it down: the percentile rule, the license-cost charge of one reply, the
// check of a reply against its expected answer, and the decomposition of
// one request's wall time into layers plus residuals.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "core/engine.hpp"

namespace perfbench {

/// Nearest-rank percentile: the smallest sample with at least p of the
/// samples at or below it, i.e. sorted[ceil(p * n) - 1]. p in (0, 1].
/// Sorts a copy; returns 0 for an empty input.
double percentile(std::vector<double> samples, double p);

/// Samples strictly above the nearest-rank p-th percentile position:
/// n - ceil(p * n). The runner keeps measuring until this is at least 10
/// for p = 0.95.
std::size_t samples_beyond(std::size_t n, double p);

/// Sum of every offer's license cost in `catalog`: what licensing the whole
/// market would cost, an upper bound on any binding's bill.
long long whole_market_cost(const ht::vendor::Catalog& catalog);

/// What one reply costs the user for license_cost_mean: the binding's
/// license cost when it has one, 0 for a proved infeasibility, and the
/// whole-market cost when it has no binding (unknown status, error, or
/// transport failure — `result` is nullptr then).
long long charged_cost(const ht::core::OptimizeResult* result,
                       long long market_cost);

/// The committed answer for one request (see expected.hpp).
struct Expected {
  ht::core::OptStatus status = ht::core::OptStatus::kUnknown;
  long long cost = 0;
};

/// Checks a reply's status and cost against the committed answer and
/// returns the contradiction, or nullopt. A proved answer must repeat
/// exactly. An unproved committed answer (feasible or unknown) allows
/// upgrades: a reply may be cheaper, or proved, but never a worse binding
/// and never infeasible where a binding is known to exist.
std::optional<std::string> contradiction(const Expected& expected,
                                         ht::core::OptStatus status,
                                         long long cost);

/// Per-stage milliseconds of one reply's SolveMetrics.
struct StageMs {
  double enumeration = 0, screen = 0, cache_probe = 0, bounds = 0, csp = 0,
         sls = 0;
  /// Nested inside csp (and sls): reported, never added to the sum.
  double nogood = 0, validation = 0;

  /// Sum of the top-level stages: every stage counted once.
  double top_level_sum() const {
    return enumeration + screen + cache_probe + bounds + csp + sls;
  }
};
StageMs stage_ms(const ht::obs::SolveMetrics& metrics);

/// One request's wall time split into layers. Client-side spans come from
/// the benchmark's own clock; queue/solve from the reply envelope; engine
/// time from OptimizeStats::seconds; stages from SolveMetrics. The
/// residuals make the parts add up to `wall_ms` by construction:
///   wall = encode + decode + server_residual + queue + market + call
///          + stages.top_level_sum() + unattributed
struct Decomposition {
  double wall_ms = 0;
  double encode_ms = 0, decode_ms = 0;
  double server_residual_ms = 0;  ///< round trip not covered by the server
  double queue_ms = 0;
  double market_ms = 0;  ///< solve_ms minus engine time (service only)
  double call_ms = 0;    ///< synthesize() minus engine time (CLI only)
  double engine_ms = 0;
  StageMs stages;
  double unattributed_ms = 0;  ///< engine time the stages do not cover
};

/// Each residual of `d` is an enclosing time minus the parts measured
/// inside it, so it can only be negative when a part was counted twice (a
/// nested stage added as a top-level one, stages summed over concurrent
/// lanes) or was timed outside its enclosure. Describes the first residual
/// below -`tolerance_ms`, or returns nullopt.
std::optional<std::string> negative_residual(const Decomposition& d,
                                             double tolerance_ms);

/// A request served by the daemon: wall is the client's round trip.
Decomposition decompose_served(double wall_ms, double encode_ms,
                               double decode_ms, double queue_ms,
                               double solve_ms, double engine_ms,
                               const StageMs& stages);

/// A direct core::synthesize call: wall is the call.
Decomposition decompose_direct(double wall_ms, double engine_ms,
                               const StageMs& stages);

/// Median of `values` (0 for none).
double median(std::vector<double> values);

/// Arithmetic mean (0 for none).
double mean(const std::vector<double>& values);

}  // namespace perfbench
