#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

namespace perfbench {

using ht::core::OptStatus;

std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(n) - 1e-9));
  return n - std::clamp<std::size_t>(rank, 1, n);
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t beyond = samples_beyond(samples.size(), p);
  return samples[samples.size() - beyond - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

long long whole_market_cost(const ht::vendor::Catalog& catalog) {
  long long total = 0;
  for (int v = 0; v < catalog.num_vendors(); ++v) {
    for (int cls = 0; cls < ht::dfg::kNumResourceClasses; ++cls) {
      const auto rc = static_cast<ht::dfg::ResourceClass>(cls);
      if (catalog.offers(v, rc)) total += catalog.offer(v, rc).cost;
    }
  }
  return total;
}

long long charged_cost(const ht::core::OptimizeResult* result,
                       long long market_cost) {
  if (result == nullptr) return market_cost;
  if (result->status == OptStatus::kInfeasible) return 0;
  if (result->has_solution()) return result->cost;
  return market_cost;
}

std::optional<std::string> contradiction(const Expected& expected,
                                         OptStatus status, long long cost) {
  const auto describe = [&] {
    return "got " + ht::core::to_string(status) + " $" +
           std::to_string(cost) + ", expected " +
           ht::core::to_string(expected.status) + " $" +
           std::to_string(expected.cost);
  };
  const bool has_binding =
      status == OptStatus::kOptimal || status == OptStatus::kFeasible;
  switch (expected.status) {
    case OptStatus::kOptimal:
      if (status != OptStatus::kOptimal || cost != expected.cost) {
        return describe();
      }
      return std::nullopt;
    case OptStatus::kInfeasible:
      if (status != OptStatus::kInfeasible) return describe();
      return std::nullopt;
    case OptStatus::kFeasible:
      if (!has_binding || cost > expected.cost) return describe();
      return std::nullopt;
    case OptStatus::kUnknown:
      return std::nullopt;
  }
  return describe();
}

StageMs stage_ms(const ht::obs::SolveMetrics& metrics) {
  using ht::obs::Stage;
  const auto ms = [&](Stage stage) {
    return static_cast<double>(metrics.stage(stage).total_ns) * 1e-6;
  };
  StageMs out;
  out.enumeration = ms(Stage::kEnumeration);
  out.screen = ms(Stage::kScreen);
  out.cache_probe = ms(Stage::kCacheProbe);
  out.bounds = ms(Stage::kBoundsRefute) + ms(Stage::kLpBound);
  out.csp = ms(Stage::kCspDispatch);
  out.sls = ms(Stage::kSlsSearch);
  out.nogood = ms(Stage::kNogoodPropagation);
  out.validation = ms(Stage::kValidation);
  return out;
}

Decomposition decompose_served(double wall_ms, double encode_ms,
                               double decode_ms, double queue_ms,
                               double solve_ms, double engine_ms,
                               const StageMs& stages) {
  Decomposition d;
  d.wall_ms = wall_ms;
  d.encode_ms = encode_ms;
  d.decode_ms = decode_ms;
  d.queue_ms = queue_ms;
  d.market_ms = solve_ms - engine_ms;
  d.engine_ms = engine_ms;
  d.stages = stages;
  d.unattributed_ms = engine_ms - stages.top_level_sum();
  d.server_residual_ms = wall_ms - encode_ms - decode_ms - queue_ms - solve_ms;
  return d;
}

Decomposition decompose_direct(double wall_ms, double engine_ms,
                               const StageMs& stages) {
  Decomposition d;
  d.wall_ms = wall_ms;
  d.call_ms = wall_ms - engine_ms;
  d.engine_ms = engine_ms;
  d.stages = stages;
  d.unattributed_ms = engine_ms - stages.top_level_sum();
  return d;
}

std::optional<std::string> negative_residual(const Decomposition& d,
                                             double tolerance_ms) {
  const std::pair<const char*, double> residuals[] = {
      {"server residual", d.server_residual_ms},
      {"market", d.market_ms},
      {"call", d.call_ms},
      {"unattributed engine", d.unattributed_ms},
  };
  for (const auto& [name, value] : residuals) {
    if (value < -tolerance_ms) {
      return std::string(name) + " time is " + std::to_string(value) +
             " ms: a part was counted twice";
    }
  }
  return std::nullopt;
}

}  // namespace perfbench
