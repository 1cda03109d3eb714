#include "corpus.hpp"

#include <algorithm>
#include <cstdio>

#include "benchmarks/random_dfg.hpp"
#include "benchmarks/suite.hpp"
#include "dfg/analysis.hpp"
#include "util/rng.hpp"
#include "vendor/catalogs.hpp"

namespace perfbench {
namespace {

using namespace ht;

// Fixed generator seeds: the pools never depend on a run's --seed.
constexpr std::uint64_t kCorpusSeed = 0x5eed'c01d'0001ull;
constexpr std::uint64_t kPriceSeed = 0x5eed'0b1d'0002ull;
constexpr int kRandomCandidates = 72;
constexpr int kTinyCandidates = 8;

std::string format(const char* pattern, auto... args) {
  char buffer[128];
  std::snprintf(buffer, sizeof buffer, pattern, args...);
  return buffer;
}

core::SynthesisRequest base_request(core::ProblemSpec spec) {
  core::SynthesisRequest request;
  request.spec = std::move(spec);
  request.limits.time_limit_seconds = kGuardSeconds;
  return request;
}

/// The Table 3/4 "heavy row" shape: `slack` extra cycles on the detection
/// phase over the critical path, recovery at the critical path plus
/// slack - 1, and a per-license instance cap.
core::ProblemSpec shaped_spec(dfg::Dfg graph, vendor::Catalog catalog,
                              int slack, int max_instances) {
  core::ProblemSpec spec;
  spec.graph = std::move(graph);
  spec.catalog = std::move(catalog);
  const int critical_path =
      dfg::critical_path_length(spec.graph, spec.op_latencies());
  spec.lambda_detection = critical_path + slack;
  spec.lambda_recovery = critical_path + std::max(0, slack - 1);
  spec.with_recovery = true;
  spec.area_limit = 400'000;
  spec.max_instances_per_offer = max_instances;
  return spec;
}

/// Section 5 market with price variant `variant`: 0 is the catalog as
/// published; each other variant re-prices two seeded vendors' licenses
/// (one cheaper, one dearer), which reorders the cheapest-first search
/// without changing the market's structure.
vendor::Catalog priced_section5(int variant) {
  vendor::Catalog catalog = vendor::section5();
  if (variant == 0) return catalog;
  util::Rng rng(kPriceSeed + static_cast<std::uint64_t>(variant));
  const int n = catalog.num_vendors();
  const int cheaper = static_cast<int>(rng.index(static_cast<std::size_t>(n)));
  const int dearer =
      (cheaper + 1 + static_cast<int>(rng.index(static_cast<std::size_t>(n - 1)))) % n;
  const double scale_down = 0.55 + 0.05 * static_cast<double>(rng.index(6));
  const double scale_up = 1.25 + 0.05 * static_cast<double>(rng.index(6));
  for (int cls = 0; cls < dfg::kNumResourceClasses; ++cls) {
    const auto rc = static_cast<dfg::ResourceClass>(cls);
    for (const auto& [vendor, scale] :
         {std::pair{cheaper, scale_down}, std::pair{dearer, scale_up}}) {
      if (!catalog.offers(vendor, rc)) continue;
      vendor::IpOffer offer = catalog.offer(vendor, rc);
      offer.cost = std::max(1, static_cast<int>(offer.cost * scale));
      catalog.set_offer(vendor, rc, offer);
    }
  }
  return catalog;
}

void mix(std::uint64_t* h, std::uint64_t value) {
  // FNV-1a over the value's bytes.
  for (int i = 0; i < 8; ++i) {
    *h ^= (value >> (8 * i)) & 0xffu;
    *h *= 0x100000001b3ull;
  }
}

}  // namespace

const std::vector<RequestClass>& request_classes() {
  static const std::vector<RequestClass> classes = {
      {"suite",
       "paper-suite graphs at slack 0-2 and 1-2 instances per offer: the "
       "Table 3/4 shapes a thls user runs"},
      {"random",
       "seeded random DFGs (n 16-40, depth 5): the sizes where the "
       "license-set enumeration loop, screens and bounds do most of the work"},
      {"tiny",
       "Table-1 graphs of 3-4 ops: small enough for the faithful ILP to "
       "cross-check the committed answer"},
      {"grind",
       "fir16 at slack 2, 2 instances per offer, swept over area and "
       "prices: CSP-bound solves, four engines in one market"},
  };
  return classes;
}

std::vector<Candidate> corpus_candidates() {
  std::vector<Candidate> out;
  for (const benchmarks::BenchmarkCase& bench : benchmarks::paper_suite()) {
    for (int slack = 0; slack <= 2; ++slack) {
      for (int mi = 1; mi <= 2; ++mi) {
        out.push_back({format("corpus/suite-%s-s%d-m%d", bench.name.c_str(),
                              slack, mi),
                       "suite",
                       base_request(shaped_spec(bench.factory(),
                                                vendor::section5(), slack,
                                                mi))});
      }
    }
  }
  util::Rng rng(kCorpusSeed);
  for (int k = 0; k < kRandomCandidates; ++k) {
    benchmarks::RandomDfgConfig config;
    config.num_ops = static_cast<int>(rng.uniform_int(16, 40));
    config.max_depth = 5;
    const int slack = static_cast<int>(rng.uniform_int(0, 2));
    const int mi = static_cast<int>(rng.uniform_int(1, 2));
    util::Rng graph_rng(rng.next_u64());
    dfg::Dfg graph = benchmarks::random_dfg(config, graph_rng);
    out.push_back({format("corpus/rand-%03d-n%d-s%d-m%d", k,
                          config.num_ops, slack, mi),
                   "random",
                   base_request(shaped_spec(std::move(graph),
                                            vendor::section5(), slack, mi))});
  }
  for (int k = 0; k < kTinyCandidates; ++k) {
    benchmarks::RandomDfgConfig config;
    config.num_ops = static_cast<int>(rng.uniform_int(3, 4));
    config.adder_weight = 0.5;
    config.multiplier_weight = 0.5;
    config.alu_weight = 0.0;  // Table 1 sells no ALUs
    util::Rng graph_rng(rng.next_u64());
    core::ProblemSpec spec;
    spec.graph = benchmarks::random_dfg(config, graph_rng);
    spec.catalog = vendor::table1();
    const int critical_path =
        dfg::critical_path_length(spec.graph, spec.op_latencies());
    spec.lambda_detection = critical_path + static_cast<int>(rng.uniform_int(0, 1));
    spec.with_recovery = rng.chance(0.5);
    spec.lambda_recovery = spec.with_recovery ? critical_path : 0;
    spec.area_limit = 40'000;
    spec.max_instances_per_offer = 2;
    out.push_back({format("corpus/tiny-%02d-n%d", k, config.num_ops), "tiny",
                   base_request(std::move(spec))});
  }
  return out;
}

std::vector<Candidate> grind_candidates() {
  static const long long kAreas[] = {400'000, 300'000, 240'000, 200'000,
                                     170'000, 150'000, 135'000, 120'000};
  constexpr int kPriceVariants = 12;
  std::vector<Candidate> out;
  const dfg::Dfg graph = benchmarks::by_name("fir16").factory();
  for (int variant = 0; variant < kPriceVariants; ++variant) {
    for (const long long area : kAreas) {
      core::ProblemSpec spec =
          shaped_spec(graph, priced_section5(variant), 2, 2);
      spec.area_limit = area;
      out.push_back({format("grind/fir16-p%d-a%lld", variant, area), "grind",
                     base_request(std::move(spec))});
    }
  }
  return out;
}

std::uint64_t request_digest(const core::SynthesisRequest& request) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const core::ProblemSpec& spec = request.spec;
  mix(&h, static_cast<std::uint64_t>(request.kind));
  mix(&h, static_cast<std::uint64_t>(spec.graph.num_ops()));
  for (const dfg::Operation& op : spec.graph.ops()) {
    mix(&h, static_cast<std::uint64_t>(op.type));
    for (const dfg::Operand& operand : op.inputs) {
      mix(&h, static_cast<std::uint64_t>(operand.kind));
      mix(&h, static_cast<std::uint64_t>(operand.index));
      mix(&h, static_cast<std::uint64_t>(operand.value));
    }
  }
  for (const dfg::OpId output : spec.graph.outputs()) {
    mix(&h, static_cast<std::uint64_t>(output));
  }
  mix(&h, static_cast<std::uint64_t>(spec.lambda_detection));
  mix(&h, static_cast<std::uint64_t>(spec.lambda_recovery));
  mix(&h, spec.with_recovery ? 1u : 0u);
  mix(&h, static_cast<std::uint64_t>(spec.area_limit));
  mix(&h, static_cast<std::uint64_t>(spec.max_instances_per_offer));
  for (const int latency : spec.class_latency) {
    mix(&h, static_cast<std::uint64_t>(latency));
  }
  for (int v = 0; v < spec.catalog.num_vendors(); ++v) {
    for (int cls = 0; cls < dfg::kNumResourceClasses; ++cls) {
      const auto rc = static_cast<dfg::ResourceClass>(cls);
      if (!spec.catalog.offers(v, rc)) continue;
      mix(&h, static_cast<std::uint64_t>(v * 8 + cls));
      mix(&h, static_cast<std::uint64_t>(spec.catalog.offer(v, rc).area));
      mix(&h, static_cast<std::uint64_t>(spec.catalog.offer(v, rc).cost));
    }
  }
  for (const core::LicenseKey& key : request.banned) {
    mix(&h, static_cast<std::uint64_t>(key.vendor * 8 +
                                       static_cast<int>(key.rc)));
  }
  mix(&h, static_cast<std::uint64_t>(request.limits.csp_node_limit));
  mix(&h, static_cast<std::uint64_t>(request.limits.max_combos));
  mix(&h, request.seed);
  return h;
}

}  // namespace perfbench
