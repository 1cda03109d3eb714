#include "core/problem.hpp"

#include <algorithm>
#include <string>

#include "util/mask_kernels.hpp"

namespace ht::core {

int ProblemSpec::instance_cap(dfg::ResourceClass rc) const {
  if (max_instances_per_offer > 0) return max_instances_per_offer;
  const auto counts = graph.ops_per_class();
  return std::max(1, counts[static_cast<int>(rc)]);
}

int ProblemSpec::op_latency(dfg::OpId op) const {
  return class_latency[static_cast<std::size_t>(
      dfg::resource_class_of(graph.op(op).type))];
}

std::vector<int> ProblemSpec::op_latencies() const {
  std::vector<int> latencies;
  latencies.reserve(static_cast<std::size_t>(graph.num_ops()));
  for (dfg::OpId op = 0; op < graph.num_ops(); ++op) {
    latencies.push_back(op_latency(op));
  }
  return latencies;
}

bool ProblemSpec::unit_latency() const {
  for (int latency : class_latency) {
    if (latency != 1) return false;
  }
  return true;
}

void ProblemSpec::validate() const {
  graph.validate();
  catalog.validate();
  util::check_spec(graph.num_ops() > 0, "ProblemSpec: empty DFG");
  util::check_spec(lambda_detection > 0,
                   "ProblemSpec: detection latency must be positive");
  if (with_recovery) {
    util::check_spec(lambda_recovery > 0,
                     "ProblemSpec: recovery latency must be positive");
  }
  util::check_spec(graph.num_ops() < kMaxOps,
                   "ProblemSpec: the DFG must have fewer than " +
                       std::to_string(kMaxOps) + " ops");
  const int max_lambda =
      std::max(lambda_detection, with_recovery ? lambda_recovery : 0);
  util::check_spec(max_lambda < util::kSwarCycleLimit,
                   "ProblemSpec: latency bounds must be below " +
                       std::to_string(util::kSwarCycleLimit) + " cycles");
  util::check_spec(area_limit > 0, "ProblemSpec: area limit must be positive");
  util::check_spec(max_instances_per_offer >= 0,
                   "ProblemSpec: negative instance cap");
  for (int latency : class_latency) {
    util::check_spec(latency >= 1,
                     "ProblemSpec: class latencies must be >= 1");
  }

  const auto counts = graph.ops_per_class();
  for (int rc = 0; rc < dfg::kNumResourceClasses; ++rc) {
    if (counts[rc] == 0) continue;
    util::check_spec(
        catalog.num_vendors_offering(static_cast<dfg::ResourceClass>(rc)) > 0,
        "ProblemSpec: DFG uses " +
            dfg::resource_class_name(static_cast<dfg::ResourceClass>(rc)) +
            " ops but no vendor offers that class");
  }

  for (const auto& [a, b] : closely_related) {
    util::check_spec(a >= 0 && a < graph.num_ops() && b >= 0 &&
                         b < graph.num_ops() && a != b,
                     "ProblemSpec: close pair references invalid ops");
    util::check_spec(dfg::resource_class_of(graph.op(a).type) ==
                         dfg::resource_class_of(graph.op(b).type),
                     "ProblemSpec: close pairs must share a resource class "
                     "(the paper's Rule 2 for recovery assumes ot(i)=ot(j))");
  }
}

ProblemSpec make_detection_only_spec(dfg::Dfg graph, vendor::Catalog catalog,
                                     int lambda, long long area_limit) {
  ProblemSpec spec;
  spec.graph = std::move(graph);
  spec.catalog = std::move(catalog);
  spec.lambda_detection = lambda;
  spec.lambda_recovery = 0;
  spec.with_recovery = false;
  spec.area_limit = area_limit;
  spec.validate();
  return spec;
}

}  // namespace ht::core
