// Shared fixtures: the paper's motivational example (Figure 5 / Table 1)
// and small specs used across the core/trojan test binaries.
#pragma once

#include "benchmarks/classic.hpp"
#include "benchmarks/random_dfg.hpp"
#include "core/problem.hpp"
#include "dfg/analysis.hpp"
#include "util/rng.hpp"
#include "vendor/catalogs.hpp"

namespace ht::test {

/// The paper's motivational setup: 5-op polynom DFG, Table 1 catalog,
/// detection latency 4, recovery latency 3, area limit 22000.
inline core::ProblemSpec motivational_spec() {
  core::ProblemSpec spec;
  spec.graph = benchmarks::polynom();
  spec.catalog = vendor::table1();
  spec.lambda_detection = 4;
  spec.lambda_recovery = 3;
  spec.with_recovery = true;
  spec.area_limit = 22000;
  return spec;
}

/// Detection-only variant of the motivational setup.
inline core::ProblemSpec motivational_detection_only() {
  core::ProblemSpec spec = motivational_spec();
  spec.with_recovery = false;
  spec.lambda_recovery = 0;
  return spec;
}

/// polynom on the 8-vendor Section 5 catalog with roomy bounds — a spec
/// that every solver path can handle quickly.
inline core::ProblemSpec easy_section5_spec(bool with_recovery = true) {
  core::ProblemSpec spec;
  spec.graph = benchmarks::polynom();
  spec.catalog = vendor::section5();
  spec.lambda_detection = 5;
  spec.lambda_recovery = with_recovery ? 4 : 0;
  spec.with_recovery = with_recovery;
  spec.area_limit = 100000;
  return spec;
}

/// Small 4-vendor catalog over all three classes; the faithful ILP solves
/// specs on it in seconds.
inline vendor::Catalog small_catalog() {
  vendor::Catalog catalog(4);
  for (vendor::VendorId v = 0; v < 4; ++v) {
    catalog.set_offer(v, dfg::ResourceClass::kAdder,
                      {500 + 10 * v, 400 + 50 * v});
    catalog.set_offer(v, dfg::ResourceClass::kMultiplier,
                      {6000 - 100 * v, 900 - 40 * v});
    catalog.set_offer(v, dfg::ResourceClass::kAlu,
                      {800 + 25 * v, 500 + 30 * v});
  }
  return catalog;
}

/// Random tiny spec on small_catalog(): 4-7 ops, 0-3 cycles of slack per
/// phase, recovery half the time, 1-2 instances per offer and a drawn
/// area bound. A pure function of the generator state.
inline core::ProblemSpec random_tiny_spec(util::Rng& rng) {
  benchmarks::RandomDfgConfig config;
  config.num_ops = static_cast<int>(rng.uniform_int(4, 7));
  config.max_depth = 3;
  config.edge_probability = rng.uniform01() * 0.5 + 0.2;
  core::ProblemSpec spec;
  spec.graph = benchmarks::random_dfg(config, rng);
  spec.catalog = small_catalog();
  const int cp = dfg::critical_path_length(spec.graph, spec.op_latencies());
  spec.lambda_detection = cp + static_cast<int>(rng.uniform_int(0, 3));
  spec.with_recovery = rng.chance(0.5);
  spec.lambda_recovery =
      spec.with_recovery ? cp + static_cast<int>(rng.uniform_int(0, 3)) : 0;
  spec.area_limit = 4000 + rng.uniform_int(0, 8) * 2000;
  spec.max_instances_per_offer = static_cast<int>(rng.uniform_int(1, 2));
  return spec;
}

}  // namespace ht::test
