#include <gtest/gtest.h>

#include "benchmarks/classic.hpp"
#include "benchmarks/extra.hpp"
#include "benchmarks/random_dfg.hpp"
#include "benchmarks/suite.hpp"
#include "core/engine.hpp"
#include "dfg/analysis.hpp"
#include "core/optimizer.hpp"
#include "trojan/exec.hpp"
#include "vendor/catalogs.hpp"

namespace ht::benchmarks {
namespace {

using dfg::ResourceClass;

struct Expected {
  const char* name;
  int ops;
  int critical_path;
  int adders;
  int multipliers;
  int alus;
};

// Without a printer gtest dumps the struct's raw bytes, pointer included,
// into the test's CTest name, which then changes on every build.
void PrintTo(const Expected& expected, std::ostream* os) {
  *os << expected.name;
}

class ClassicBenchmarkTest : public ::testing::TestWithParam<Expected> {};

// Operation counts are the paper's Section 5 figures; critical paths are
// bounded by the tightest lambda of Tables 3/4 for each benchmark.
INSTANTIATE_TEST_SUITE_P(
    PaperSuite, ClassicBenchmarkTest,
    ::testing::Values(Expected{"polynom", 5, 3, 2, 3, 0},
                      Expected{"diff2", 11, 4, 4, 6, 1},
                      Expected{"dtmf", 11, 4, 6, 3, 2},
                      Expected{"mof2", 12, 7, 5, 7, 0},
                      Expected{"ellipticicass", 29, 8, 21, 8, 0},
                      Expected{"fir16", 31, 5, 15, 16, 0}));

TEST_P(ClassicBenchmarkTest, MatchesPaperShape) {
  const Expected& expected = GetParam();
  const dfg::Dfg graph = by_name(expected.name).factory();
  graph.validate();
  EXPECT_EQ(graph.num_ops(), expected.ops);
  EXPECT_EQ(dfg::critical_path_length(graph), expected.critical_path);
  const auto counts = graph.ops_per_class();
  EXPECT_EQ(counts[static_cast<int>(ResourceClass::kAdder)],
            expected.adders);
  EXPECT_EQ(counts[static_cast<int>(ResourceClass::kMultiplier)],
            expected.multipliers);
  EXPECT_EQ(counts[static_cast<int>(ResourceClass::kAlu)], expected.alus);
}

TEST_P(ClassicBenchmarkTest, HasOutputsAndConnectedOps) {
  const dfg::Dfg graph = by_name(GetParam().name).factory();
  EXPECT_FALSE(graph.outputs().empty());
  // Every non-output op feeds something (no dead computation).
  for (dfg::OpId op = 0; op < graph.num_ops(); ++op) {
    const bool is_output =
        std::find(graph.outputs().begin(), graph.outputs().end(), op) !=
        graph.outputs().end();
    EXPECT_TRUE(is_output || !graph.children(op).empty())
        << "dangling op " << graph.op(op).name;
  }
}

TEST_P(ClassicBenchmarkTest, TightestTable3LambdaIsSchedulable) {
  const BenchmarkCase& entry = by_name(GetParam().name);
  const dfg::Dfg graph = entry.factory();
  int tightest = entry.table3.front().lambda;
  for (const TableRow& row : entry.table3) {
    tightest = std::min(tightest, row.lambda);
  }
  EXPECT_LE(dfg::critical_path_length(graph), tightest);
}

TEST_P(ClassicBenchmarkTest, Table4LambdaFitsBothPhases) {
  const BenchmarkCase& entry = by_name(GetParam().name);
  const int cp = dfg::critical_path_length(entry.factory());
  for (const TableRow& row : entry.table4) {
    EXPECT_GE(row.lambda, 2 * cp) << "row lambda " << row.lambda;
  }
}

TEST(SuiteTest, SixBenchmarksInPaperOrder) {
  const auto& suite = paper_suite();
  ASSERT_EQ(suite.size(), 6u);
  EXPECT_EQ(suite[0].name, "polynom");
  EXPECT_EQ(suite[5].name, "fir16");
  for (const auto& entry : suite) {
    EXPECT_EQ(entry.table3.size(), 2u);
    EXPECT_EQ(entry.table4.size(), 2u);
  }
}

TEST(SuiteTest, UnknownNameThrows) {
  EXPECT_THROW(by_name("nonexistent"), util::SpecError);
}

// ---- functional spot checks (the graphs compute what they claim) ---------

TEST(FunctionalTest, PolynomComputesAbPlusCdPlusCde) {
  const dfg::Dfg graph = polynom();
  // inputs a,b,c,d,e
  const std::vector<trojan::Word> inputs = {2, 3, 5, 7, 11};
  const auto values = trojan::golden_eval(graph, inputs);
  const trojan::Word expected = 2 * 3 + 5 * 7 + (5 * 7) * 11;
  EXPECT_EQ(values[static_cast<std::size_t>(graph.outputs()[0])], expected);
}

TEST(FunctionalTest, Fir16ComputesDotProduct) {
  const dfg::Dfg graph = fir16();
  std::vector<trojan::Word> inputs;
  trojan::Word expected = 0;
  for (int i = 0; i < 16; ++i) {
    const trojan::Word x = i + 1;
    const trojan::Word h = 2 * i + 1;
    inputs.push_back(x);
    inputs.push_back(h);
    expected += x * h;
  }
  const auto values = trojan::golden_eval(graph, inputs);
  EXPECT_EQ(values[static_cast<std::size_t>(graph.outputs()[0])], expected);
}

TEST(FunctionalTest, Diff2EulerStep) {
  const dfg::Dfg graph = diff2();
  // x=1, y=2, u=3, dx=4, a=10
  const auto values = trojan::golden_eval(graph, {1, 2, 3, 4, 10});
  // u' = u - (3x)(u dx) - (3y)dx = 3 - 3*12 - 6*4 = -57
  // x' = 5, y' = 2 + 12 = 14, cont = (5 < 10) = 1
  std::vector<trojan::Word> outputs;
  for (dfg::OpId op : graph.outputs()) {
    outputs.push_back(values[static_cast<std::size_t>(op)]);
  }
  EXPECT_EQ(outputs, (std::vector<trojan::Word>{-57, 5, 14, 1}));
}

// ---- random generator -----------------------------------------------------

TEST(RandomDfgTest, RespectsOpCountAndValidates) {
  util::Rng rng(77);
  RandomDfgConfig config;
  config.num_ops = 25;
  const dfg::Dfg graph = random_dfg(config, rng);
  EXPECT_EQ(graph.num_ops(), 25);
  EXPECT_NO_THROW(graph.validate());
  EXPECT_FALSE(graph.outputs().empty());
}

TEST(RandomDfgTest, MaxDepthIsHonored) {
  util::Rng rng(78);
  RandomDfgConfig config;
  config.num_ops = 40;
  config.edge_probability = 0.9;
  config.max_depth = 4;
  for (int trial = 0; trial < 10; ++trial) {
    const dfg::Dfg graph = random_dfg(config, rng);
    EXPECT_LE(dfg::critical_path_length(graph), 4);
  }
}

TEST(RandomDfgTest, DeterministicGivenSeed) {
  RandomDfgConfig config;
  config.num_ops = 15;
  util::Rng rng_a(5);
  util::Rng rng_b(5);
  const dfg::Dfg a = random_dfg(config, rng_a);
  const dfg::Dfg b = random_dfg(config, rng_b);
  ASSERT_EQ(a.num_ops(), b.num_ops());
  for (dfg::OpId op = 0; op < a.num_ops(); ++op) {
    EXPECT_EQ(a.op(op).type, b.op(op).type);
    EXPECT_EQ(a.op(op).inputs, b.op(op).inputs);
  }
}

TEST(RandomDfgTest, ClassWeightsRespected) {
  util::Rng rng(79);
  RandomDfgConfig config;
  config.num_ops = 200;
  config.adder_weight = 1.0;
  config.multiplier_weight = 0.0;
  config.alu_weight = 0.0;
  const dfg::Dfg graph = random_dfg(config, rng);
  const auto counts = graph.ops_per_class();
  EXPECT_EQ(counts[static_cast<int>(ResourceClass::kAdder)], 200);
}

TEST(RandomDfgTest, ZeroWeightsThrow) {
  util::Rng rng(80);
  RandomDfgConfig config;
  config.adder_weight = 0;
  config.multiplier_weight = 0;
  config.alu_weight = 0;
  EXPECT_THROW(random_dfg(config, rng), util::SpecError);
}

// ---- extra (non-paper) kernels ---------------------------------------------

TEST(ExtraBenchmarksTest, ArLatticeShape) {
  const dfg::Dfg graph = ar_lattice();
  graph.validate();
  EXPECT_EQ(graph.num_ops(), 28);
  const auto counts = graph.ops_per_class();
  EXPECT_EQ(counts[static_cast<int>(ResourceClass::kMultiplier)], 16);
  EXPECT_EQ(counts[static_cast<int>(ResourceClass::kAdder)], 12);
  EXPECT_EQ(dfg::critical_path_length(graph), 14);
}

TEST(ExtraBenchmarksTest, Matmul2x2ComputesProduct) {
  const dfg::Dfg graph = matmul2x2();
  EXPECT_EQ(graph.num_ops(), 12);
  EXPECT_EQ(dfg::critical_path_length(graph), 2);
  // A = [1 2; 3 4], B = [5 6; 7 8] -> C = [19 22; 43 50].
  const auto values =
      trojan::golden_eval(graph, {1, 2, 3, 4, 5, 6, 7, 8});
  std::vector<trojan::Word> c;
  for (dfg::OpId op : graph.outputs()) {
    c.push_back(values[static_cast<std::size_t>(op)]);
  }
  EXPECT_EQ(c, (std::vector<trojan::Word>{19, 22, 43, 50}));
}

TEST(ExtraBenchmarksTest, Fft4ButterfliesAndWindow) {
  const dfg::Dfg graph = fft4();
  EXPECT_EQ(graph.num_ops(), 11);
  // x = {1,2,3,4}, unit window: X0 = 10, X1re = t1 = -2, X1im = -(x1-x3)=2,
  // X2 = (1+3)-(2+4) = -2.
  const auto values =
      trojan::golden_eval(graph, {1, 2, 3, 4, 1, 1, 1});
  std::vector<trojan::Word> outs;
  for (dfg::OpId op : graph.outputs()) {
    outs.push_back(values[static_cast<std::size_t>(op)]);
  }
  EXPECT_EQ(outs, (std::vector<trojan::Word>{10, -2, 2, -2}));
}

TEST(ExtraBenchmarksTest, ArLatticeComputesStages) {
  const dfg::Dfg graph = ar_lattice();
  // All reflection coefficients zero: f and b pass through unchanged, so
  // both outputs are f0*gain*atten and b0*gain*atten.
  std::vector<trojan::Word> inputs(
      static_cast<std::size_t>(graph.num_inputs()), 0);
  inputs[0] = 7;   // f0
  inputs[1] = 11;  // b0
  inputs[static_cast<std::size_t>(graph.num_inputs()) - 2] = 3;  // gain
  inputs[static_cast<std::size_t>(graph.num_inputs()) - 1] = 5;  // atten
  const auto values = trojan::golden_eval(graph, inputs);
  std::vector<trojan::Word> outs;
  for (dfg::OpId op : graph.outputs()) {
    outs.push_back(values[static_cast<std::size_t>(op)]);
  }
  EXPECT_EQ(outs, (std::vector<trojan::Word>{7 * 3 * 5, 11 * 3 * 5}));
}

TEST(ExtraBenchmarksTest, ExtrasSolveOnSection5Market) {
  for (const dfg::Dfg& graph : {matmul2x2(), fft4()}) {
    core::ProblemSpec spec;
    spec.graph = graph;
    spec.catalog = vendor::section5();
    const int cp = dfg::critical_path_length(spec.graph);
    spec.lambda_detection = cp + 2;
    spec.lambda_recovery = cp + 2;
    spec.with_recovery = true;
    spec.area_limit = 200000;
    core::OptimizerOptions options;
    options.strategy = core::Strategy::kHeuristic;
    options.time_limit_seconds = 10;
    const core::OptimizeResult result = core::synthesize(core::make_request(spec, options)).result;
    ASSERT_TRUE(result.has_solution()) << graph.name();
    EXPECT_TRUE(core::validate_solution(spec, result.solution).ok());
  }
}

}  // namespace
}  // namespace ht::benchmarks
