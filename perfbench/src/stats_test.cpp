// Tests of the benchmark's own arithmetic (run with: python3
// perfbench/run.py --test).
#include <gtest/gtest.h>

#include "stats.hpp"
#include "vendor/catalogs.hpp"

namespace perfbench {
namespace {

using ht::core::OptStatus;

TEST(PercentileTest, NearestRankOnSmallSets) {
  EXPECT_EQ(percentile({}, 0.5), 0.0);
  EXPECT_EQ(percentile({7}, 0.95), 7.0);
  EXPECT_EQ(percentile({4, 1, 3, 2}, 0.5), 2.0);   // ceil(2) = 2nd
  EXPECT_EQ(percentile({5, 1, 4, 2, 3}, 0.5), 3.0);  // ceil(2.5) = 3rd
  EXPECT_EQ(percentile({5, 1, 4, 2, 3}, 1.0), 5.0);
}

TEST(PercentileTest, P95OfTwoHundredLeavesTenBeyond) {
  std::vector<double> samples;
  for (int i = 200; i >= 1; --i) samples.push_back(i);
  EXPECT_EQ(percentile(samples, 0.95), 190.0);
  EXPECT_EQ(samples_beyond(200, 0.95), 10u);
  EXPECT_EQ(samples_beyond(199, 0.95), 9u);  // rank ceil(189.05) = 190
  EXPECT_EQ(samples_beyond(0, 0.95), 0u);
}

TEST(PercentileTest, MedianAndMean) {
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(mean({1, 2, 6}), 3.0);
  EXPECT_EQ(mean({}), 0.0);
}

TEST(CostChargeTest, BindingInfeasibleAndMissing) {
  ht::core::OptimizeResult result;
  result.status = OptStatus::kOptimal;
  result.cost = 4160;
  EXPECT_EQ(charged_cost(&result, 99'999), 4160);
  result.status = OptStatus::kFeasible;
  EXPECT_EQ(charged_cost(&result, 99'999), 4160);
  result.status = OptStatus::kInfeasible;
  EXPECT_EQ(charged_cost(&result, 99'999), 0);
  result.status = OptStatus::kUnknown;
  EXPECT_EQ(charged_cost(&result, 99'999), 99'999);
  EXPECT_EQ(charged_cost(nullptr, 99'999), 99'999);
}

TEST(CostChargeTest, WholeMarketSumsEveryOffer) {
  const ht::vendor::Catalog table1 = ht::vendor::table1();
  long long total = 0;
  for (int v = 0; v < table1.num_vendors(); ++v) {
    for (const auto rc : {ht::dfg::ResourceClass::kAdder,
                          ht::dfg::ResourceClass::kMultiplier}) {
      total += table1.offer(v, rc).cost;
    }
  }
  EXPECT_EQ(whole_market_cost(table1), total);
}

TEST(ContradictionTest, ProvedAnswersMustRepeat) {
  const Expected optimal{OptStatus::kOptimal, 5300};
  EXPECT_FALSE(contradiction(optimal, OptStatus::kOptimal, 5300));
  EXPECT_TRUE(contradiction(optimal, OptStatus::kOptimal, 5299));
  EXPECT_TRUE(contradiction(optimal, OptStatus::kFeasible, 5300));
  const Expected infeasible{OptStatus::kInfeasible, 0};
  EXPECT_FALSE(contradiction(infeasible, OptStatus::kInfeasible, 0));
  EXPECT_TRUE(contradiction(infeasible, OptStatus::kUnknown, 0));
}

TEST(ContradictionTest, UnprovedAnswersMayOnlyUpgrade) {
  const Expected feasible{OptStatus::kFeasible, 15945};
  EXPECT_FALSE(contradiction(feasible, OptStatus::kFeasible, 15945));
  EXPECT_FALSE(contradiction(feasible, OptStatus::kFeasible, 7530));
  EXPECT_FALSE(contradiction(feasible, OptStatus::kOptimal, 7530));
  EXPECT_TRUE(contradiction(feasible, OptStatus::kFeasible, 16000));
  EXPECT_TRUE(contradiction(feasible, OptStatus::kUnknown, 0));
  EXPECT_TRUE(contradiction(feasible, OptStatus::kInfeasible, 0));
}

StageMs some_stages() {
  StageMs stages;
  stages.enumeration = 0.5;
  stages.screen = 0.25;
  stages.cache_probe = 0.125;
  stages.bounds = 0.0625;
  stages.csp = 2.0;
  stages.sls = 1.0;
  stages.nogood = 1.5;      // nested in csp: never added
  stages.validation = 0.75;  // nested: never added
  return stages;
}

TEST(DecompositionTest, NestedStagesCountOnce) {
  EXPECT_DOUBLE_EQ(some_stages().top_level_sum(), 3.9375);
}

TEST(DecompositionTest, ServedRequestAddsUpToTheRoundTrip) {
  const Decomposition d =
      decompose_served(/*wall=*/12.0, /*encode=*/0.5, /*decode=*/0.25,
                       /*queue=*/1.0, /*solve=*/8.0, /*engine=*/6.0,
                       some_stages());
  EXPECT_DOUBLE_EQ(d.server_residual_ms, 12.0 - 0.5 - 0.25 - 1.0 - 8.0);
  EXPECT_DOUBLE_EQ(d.market_ms, 2.0);
  EXPECT_DOUBLE_EQ(d.unattributed_ms, 6.0 - 3.9375);
  EXPECT_DOUBLE_EQ(d.call_ms, 0.0);
  EXPECT_FALSE(negative_residual(d, 1e-3));
}

TEST(DecompositionTest, DirectCallAddsUpToTheCall) {
  const Decomposition d = decompose_direct(/*wall=*/7.0, /*engine=*/6.5,
                                           some_stages());
  EXPECT_DOUBLE_EQ(d.call_ms, 0.5);
  EXPECT_DOUBLE_EQ(d.server_residual_ms, 0.0);
  EXPECT_DOUBLE_EQ(d.unattributed_ms, 6.5 - 3.9375);
  EXPECT_FALSE(negative_residual(d, 1e-3));
}

TEST(DecompositionTest, OvercountedPartsLeaveANegativeResidual) {
  // Nested stages added as top-level ones: 6.1875 ms of stages in 5 ms.
  StageMs doubled = some_stages();
  doubled.csp += doubled.nogood + doubled.validation;
  EXPECT_TRUE(negative_residual(decompose_direct(7.0, 5.0, doubled), 1e-3));
  // Queue and solve time longer than the round trip they sit in.
  EXPECT_TRUE(negative_residual(
      decompose_served(9.0, 0.5, 0.25, 1.0, 8.0, 6.0, some_stages()), 1e-3));
  // Engine time longer than the service's solve time around it.
  EXPECT_TRUE(negative_residual(
      decompose_served(12.0, 0.5, 0.25, 1.0, 5.0, 6.0, some_stages()), 1e-3));
  // Clock rounding within the tolerance is not a double count.
  EXPECT_FALSE(negative_residual(
      decompose_direct(6.4999995, 6.5, some_stages()), 1e-3));
}

TEST(DecompositionTest, StagesComeFromSolveMetrics) {
  ht::obs::SolveMetrics metrics;
  metrics.stage(ht::obs::Stage::kCspDispatch).add(2'000'000);
  metrics.stage(ht::obs::Stage::kBoundsRefute).add(500'000);
  metrics.stage(ht::obs::Stage::kLpBound).add(250'000);
  metrics.stage(ht::obs::Stage::kValidation).add(100'000);
  const StageMs stages = stage_ms(metrics);
  EXPECT_DOUBLE_EQ(stages.csp, 2.0);
  EXPECT_DOUBLE_EQ(stages.bounds, 0.75);
  EXPECT_DOUBLE_EQ(stages.validation, 0.1);
  EXPECT_DOUBLE_EQ(stages.top_level_sum(), 2.75);
}

}  // namespace
}  // namespace perfbench
