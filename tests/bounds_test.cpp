// Soundness of the branch-and-bound lower bounds (core/bounds.hpp).
//
// Every bound is a relaxation of the CSP, so on any spec:
//   * the global cost floor is at or below the true optimum whenever a
//     feasible design exists (cross-checked against both the bounds-off
//     exact engine and the independent ILP formulation);
//   * a refuted full market implies the instance is genuinely infeasible.
#include "core/bounds.hpp"

#include <gtest/gtest.h>

#include <climits>

#include "core/engine.hpp"
#include "core/ilp_formulation.hpp"
#include "core/optimizer.hpp"
#include "dfg/analysis.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"
#include "vendor/catalogs.hpp"

namespace ht::core {
namespace {

using dfg::ResourceClass;

/// Sentinel LowerBounds uses for "no market can supply the floors" (kept
/// well away from LLONG_MAX so incumbent comparisons cannot overflow).
constexpr long long kUnsuppliable = LLONG_MAX / 4;

Palettes full_palettes(const ProblemSpec& spec) {
  Palettes palettes;
  for (int cls = 0; cls < dfg::kNumResourceClasses; ++cls) {
    const auto rc = static_cast<ResourceClass>(cls);
    if (spec.graph.ops_per_class()[cls] == 0) continue;
    for (vendor::VendorId v = 0; v < spec.catalog.num_vendors(); ++v) {
      if (spec.catalog.offers(v, rc)) {
        palettes[static_cast<std::size_t>(cls)].push_back(v);
      }
    }
  }
  return palettes;
}

class BoundsPropertyTest : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Seeds, BoundsPropertyTest, ::testing::Range(1, 9));

TEST_P(BoundsPropertyTest, EveryLowerBoundIsAtOrBelowTheTrueOptimum) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 48271 + 7);
  for (int round = 0; round < 2; ++round) {
    const ProblemSpec spec = test::random_tiny_spec(rng);
    const LowerBounds bounds(spec);
    for (int cls = 0; cls < dfg::kNumResourceClasses; ++cls) {
      EXPECT_GE(bounds.instance_floors()[cls], 0);
      EXPECT_GE(bounds.vendor_floors()[cls], 0);
    }

    // Ground truth: the bounds-off exact engine (complete at these sizes).
    OptimizerOptions truth_options;
    truth_options.cost_bounds = false;
    truth_options.time_limit_seconds = 30;
    const OptimizeResult truth = synthesize(make_request(spec, truth_options)).result;
    // No oracle when the reference search exhausts its clock (rare at
    // these sizes): skip the round rather than assert against nothing.
    if (truth.status == OptStatus::kUnknown) continue;

    if (bounds.refutes(full_palettes(spec))) {
      EXPECT_EQ(truth.status, OptStatus::kInfeasible)
          << "bounds refuted a market the exact engine solved";
    }
    if (!truth.has_solution()) continue;

    EXPECT_LE(bounds.global_cost_lb(), truth.cost)
        << "combinatorial floor above the true optimum";

    // Independent oracle: the ILP formulation must agree with the engine,
    // and the floors must sit below its optimum too.
    ilp::BnbOptions ilp_options;
    ilp_options.time_limit_seconds = 30;
    const OptimizeResult via_ilp = minimize_cost_ilp(spec, ilp_options);
    if (via_ilp.status == OptStatus::kOptimal) {
      EXPECT_EQ(via_ilp.cost, truth.cost);
      EXPECT_LE(bounds.global_cost_lb(), via_ilp.cost);
    }
  }
}

TEST(BoundsTest, UnsuppliableDiversityFloorRefutesTheFullMarket) {
  // Three pairwise closely-related adds need three distinct adder vendors
  // for their recovery copies (recovery Rule 2); a two-vendor market
  // cannot supply them.
  dfg::Dfg g("clique");
  const dfg::Operand a = g.add_input("a");
  const dfg::Operand b = g.add_input("b");
  for (int i = 0; i < 3; ++i) g.mark_output(g.add(a, b));

  vendor::Catalog catalog(2);
  catalog.set_offer(0, ResourceClass::kAdder, {100, 900});
  catalog.set_offer(1, ResourceClass::kAdder, {100, 901});

  ProblemSpec spec;
  spec.graph = std::move(g);
  spec.catalog = std::move(catalog);
  spec.lambda_detection = 4;
  spec.with_recovery = true;
  spec.lambda_recovery = 4;
  spec.area_limit = 1'000'000;
  spec.closely_related = {{0, 1}, {0, 2}, {1, 2}};

  const LowerBounds bounds(spec);
  const int adder = static_cast<int>(ResourceClass::kAdder);
  EXPECT_GE(bounds.vendor_floors()[adder], 3);
  EXPECT_EQ(bounds.global_cost_lb(), kUnsuppliable);
  EXPECT_TRUE(bounds.refutes(full_palettes(spec)));

  OptimizerOptions options;
  options.cost_bounds = false;
  EXPECT_EQ(synthesize(make_request(spec, options)).result.status, OptStatus::kInfeasible);
}

TEST(BoundsTest, EnergeticFloorSeesWindowPressure) {
  // Four independent adds under lambda = 2 with unit latency: any schedule
  // needs at least two concurrent adders even though no single op is
  // pinned to a specific cycle.
  dfg::Dfg g("wide");
  const dfg::Operand a = g.add_input("a");
  const dfg::Operand b = g.add_input("b");
  for (int i = 0; i < 4; ++i) g.mark_output(g.add(a, b));

  ProblemSpec spec;
  spec.graph = std::move(g);
  spec.catalog = test::small_catalog();
  spec.lambda_detection = 2;
  spec.with_recovery = false;
  spec.area_limit = 1'000'000;
  spec.max_instances_per_offer = 1;

  const LowerBounds bounds(spec);
  const int adder = static_cast<int>(ResourceClass::kAdder);
  EXPECT_GE(bounds.instance_floors()[adder], 2);

  // With the cap at one instance per offer the same floor becomes a vendor
  // floor, and a single-vendor palette is refuted outright.
  EXPECT_GE(bounds.vendor_floors()[adder], 2);
  Palettes narrow;
  narrow[static_cast<std::size_t>(adder)] = {0};
  EXPECT_TRUE(bounds.refutes(narrow));
}

}  // namespace
}  // namespace ht::core
