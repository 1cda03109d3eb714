// Conflict-directed CSP search on adversarial topologies: deep dependence
// chains, wide fan-in contention layers, and dense vendor-conflict cliques.
// These shapes maximize the distance between where a conflict is detected
// and the decision that caused it — exactly what backjumping and nogood
// learning exist for — while kInfeasible must remain a complete proof and
// the first solution found must be identical in every mode.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/csp_solver.hpp"
#include "core/nogood.hpp"
#include "core/search_cache.hpp"
#include "core/validate.hpp"
#include "test_helpers.hpp"
#include "vendor/catalog.hpp"

namespace ht::core {
namespace {

using dfg::ResourceClass;

vendor::Catalog uniform_adders(int vendors) {
  vendor::Catalog catalog(vendors);
  for (vendor::VendorId v = 0; v < vendors; ++v) {
    catalog.set_offer(v, ResourceClass::kAdder, {100, 1000 + v});
  }
  return catalog;
}

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

/// Dependence chain of `n` adders: every decision window is squeezed
/// between its neighbors, so a late conflict implicates a decision made
/// almost at the root.
ProblemSpec chain_spec(int n, int vendors, int slack) {
  ProblemSpec spec;
  dfg::Dfg graph("chain");
  const dfg::Operand a = graph.add_input("a");
  const dfg::Operand b = graph.add_input("b");
  dfg::OpId prev = graph.add(a, b);
  for (int i = 1; i < n; ++i) {
    prev = graph.add(dfg::Operand::op(prev), b);
  }
  graph.mark_output(prev);
  spec.graph = std::move(graph);
  spec.catalog = uniform_adders(vendors);
  spec.lambda_detection = n + slack;
  spec.lambda_recovery = n + slack;
  spec.with_recovery = true;
  spec.area_limit = 1'000'000;
  return spec;
}

/// `width` independent adders, one instance per offer: a pure contention
/// layer where 2*width detection copies compete for vendors*lambda slots.
/// With 2*width > vendors*lambda the spec is infeasible by a pigeonhole
/// argument the solver can only discover by search.
ProblemSpec star_spec(int width, int vendors, int lambda) {
  ProblemSpec spec;
  dfg::Dfg graph("star");
  for (int i = 0; i < width; ++i) {
    const dfg::Operand a = graph.add_input("a" + std::to_string(i));
    const dfg::Operand b = graph.add_input("b" + std::to_string(i));
    graph.mark_output(graph.add(a, b));
  }
  spec.graph = std::move(graph);
  spec.catalog = uniform_adders(vendors);
  spec.lambda_detection = lambda;
  spec.with_recovery = false;
  spec.area_limit = 1'000'000;
  spec.max_instances_per_offer = 1;
  return spec;
}

/// `n` independent adders, all pairs closely related: recovery Rule 2 plus
/// recovery Rule 1 make every recovery copy conflict with *every* NC/RC
/// copy. One instance per offer and a 3-cycle detection window squeeze the
/// 2n detection copies across all vendors, so with `vendors` == n - 1 no
/// vendor is left for any recovery copy — a dense-conflict infeasibility
/// only search can establish.
ProblemSpec clique_spec(int n, int vendors) {
  ProblemSpec spec;
  dfg::Dfg graph("clique");
  for (int i = 0; i < n; ++i) {
    const dfg::Operand a = graph.add_input("a" + std::to_string(i));
    const dfg::Operand b = graph.add_input("b" + std::to_string(i));
    graph.mark_output(graph.add(a, b));
  }
  spec.graph = std::move(graph);
  spec.catalog = uniform_adders(vendors);
  spec.lambda_detection = 3;
  spec.lambda_recovery = n + 2;
  spec.with_recovery = true;
  spec.area_limit = 1'000'000;
  spec.max_instances_per_offer = 1;
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      spec.closely_related.emplace_back(i, j);
    }
  }
  return spec;
}

CspResult solve(const ProblemSpec& spec, const CspOptions& options = {}) {
  return schedule_and_bind(spec, full_palettes(spec), options);
}

void expect_same_solution(const Solution& a, const Solution& b) {
  ASSERT_EQ(a.num_ops(), b.num_ops());
  ASSERT_EQ(a.with_recovery(), b.with_recovery());
  for (const CopyRef ref : a.all_copies()) {
    EXPECT_EQ(a.at(ref), b.at(ref))
        << "copy (" << static_cast<int>(ref.kind) << ", " << ref.op << ")";
  }
}

TEST(CspConflictTest, DeepChainFeasibleIdenticalAcrossModes) {
  const ProblemSpec spec = chain_spec(24, 4, 2);
  CspOptions chronological;
  chronological.learning = false;
  const CspResult base = solve(spec, chronological);
  ASSERT_EQ(base.status, CspResult::Status::kFeasible);
  ASSERT_TRUE(validate_solution(spec, base.solution).ok());

  const CspResult directed = solve(spec);  // learning on (default)
  ASSERT_EQ(directed.status, CspResult::Status::kFeasible);
  // Backjumps and nogoods skip only solution-free regions, so the first
  // solution found is bit-identical to the chronological search's.
  expect_same_solution(base.solution, directed.solution);
  EXPECT_LE(directed.nodes, base.nodes);
}

TEST(CspConflictTest, WideStarInfeasibleProvenInEveryMode) {
  // 10 detection copies into 2 vendors * 3 cycles = 6 slots.
  const ProblemSpec spec = star_spec(5, 2, 3);
  CspOptions chronological;
  chronological.learning = false;
  EXPECT_EQ(solve(spec, chronological).status,
            CspResult::Status::kInfeasible);

  const CspResult directed = solve(spec);
  EXPECT_EQ(directed.status, CspResult::Status::kInfeasible);

  CspOptions split;
  split.subtree_split = 8;
  EXPECT_EQ(solve(spec, split).status, CspResult::Status::kInfeasible);
}

/// The classic backjumping win: a feasible adder subproblem whose copies
/// are branched on *first* (smaller domains), interleaved with an
/// infeasible multiplier pigeonhole that is completely independent of it.
/// Chronological backtracking re-proves the multiplier infeasibility for
/// every adder layout; conflict sets name only multiplier copies, so CBJ
/// unwinds straight past the adder decisions after one proof.
ProblemSpec mixed_contention_spec() {
  ProblemSpec spec;
  dfg::Dfg graph("mixed");
  {
    const dfg::Operand a = graph.add_input("a");
    const dfg::Operand b = graph.add_input("b");
    graph.mark_output(graph.add(a, b));
  }
  for (int i = 0; i < 5; ++i) {
    const dfg::Operand a = graph.add_input("ma" + std::to_string(i));
    const dfg::Operand b = graph.add_input("mb" + std::to_string(i));
    graph.mark_output(graph.mul(a, b));
  }
  spec.graph = std::move(graph);
  vendor::Catalog catalog(4);
  catalog.set_offer(0, ResourceClass::kAdder, {100, 1000});
  catalog.set_offer(1, ResourceClass::kAdder, {100, 1001});
  catalog.set_offer(2, ResourceClass::kMultiplier, {100, 1002});
  catalog.set_offer(3, ResourceClass::kMultiplier, {100, 1003});
  spec.catalog = std::move(catalog);
  // 10 multiplier detection copies into 2 vendors * 4 cycles = 8 slots.
  spec.lambda_detection = 4;
  spec.with_recovery = false;
  spec.area_limit = 1'000'000;
  spec.max_instances_per_offer = 1;
  return spec;
}

TEST(CspConflictTest, ContestedMixedClassesLearningBeatsChronological) {
  const ProblemSpec spec = mixed_contention_spec();
  CspOptions chronological;
  chronological.learning = false;
  chronological.max_nodes = 50'000'000;
  const CspResult base = solve(spec, chronological);
  ASSERT_EQ(base.status, CspResult::Status::kInfeasible);

  CspOptions directed_options;
  directed_options.max_nodes = 50'000'000;
  const CspResult directed = solve(spec, directed_options);
  ASSERT_EQ(directed.status, CspResult::Status::kInfeasible);
  EXPECT_GT(directed.backjumps, 0);
  EXPECT_LT(directed.nodes, base.nodes)
      << "conflict-directed proof must visit strictly fewer nodes";
  std::printf("contested mixed: chronological %ld nodes, directed %ld "
              "nodes, %ld backjumps, %zu nogoods\n",
              base.nodes, directed.nodes, directed.backjumps,
              directed.learned.size());
}

TEST(CspConflictTest, RecoveryCliqueNeedsAsManyVendorsAsOps) {
  // 4-clique of recovery copies over 3 vendors: infeasible...
  const CspResult infeasible = solve(clique_spec(4, 3));
  EXPECT_EQ(infeasible.status, CspResult::Status::kInfeasible);
  // ...and satisfiable the moment a 4th vendor exists.
  const ProblemSpec wide = clique_spec(4, 4);
  const CspResult feasible = solve(wide);
  ASSERT_EQ(feasible.status, CspResult::Status::kFeasible);
  EXPECT_TRUE(validate_solution(wide, feasible.solution).ok());
}

TEST(CspConflictTest, SubtreeSplitBitIdenticalAcrossLaneCounts) {
  const ProblemSpec feasible = chain_spec(20, 4, 2);
  const ProblemSpec infeasible = star_spec(5, 2, 4);
  for (const ProblemSpec* spec : {&feasible, &infeasible}) {
    CspOptions mono;
    const CspResult reference = solve(*spec, mono);

    CspResult runs[3];
    const int lanes[3] = {1, 4, 8};
    for (int i = 0; i < 3; ++i) {
      CspOptions options;
      options.subtree_split = 8;
      options.split_threads = lanes[i];
      runs[i] = solve(*spec, options);
      ASSERT_EQ(runs[i].status, reference.status);
      if (reference.status == CspResult::Status::kFeasible) {
        ASSERT_TRUE(validate_solution(*spec, runs[i].solution).ok());
      }
    }
    // Lane count must not leak into anything: status, nodes, counters,
    // learned nogoods, and the committed solution are all pairwise equal.
    for (int i = 1; i < 3; ++i) {
      EXPECT_EQ(runs[i].nodes, runs[0].nodes);
      EXPECT_EQ(runs[i].backjumps, runs[0].backjumps);
      EXPECT_EQ(runs[i].restarts, runs[0].restarts);
      ASSERT_EQ(runs[i].learned.size(), runs[0].learned.size());
      for (std::size_t k = 0; k < runs[0].learned.size(); ++k) {
        EXPECT_EQ(runs[i].learned[k], runs[0].learned[k]);
      }
      if (reference.status == CspResult::Status::kFeasible) {
        expect_same_solution(runs[0].solution, runs[i].solution);
      }
    }
  }
}

TEST(CspConflictTest, RestartSeedsStayValidAndDeterministic) {
  const ProblemSpec spec = chain_spec(16, 4, 2);
  for (const std::uint64_t seed : {0ull, 1ull, 2ull, 3ull}) {
    CspOptions options;
    options.restart_base = 500;
    options.seed = seed;
    const CspResult first = solve(spec, options);
    ASSERT_EQ(first.status, CspResult::Status::kFeasible) << "seed " << seed;
    EXPECT_TRUE(validate_solution(spec, first.solution).ok());

    const CspResult second = solve(spec, options);
    ASSERT_EQ(second.status, CspResult::Status::kFeasible);
    EXPECT_EQ(first.nodes, second.nodes);
    EXPECT_EQ(first.restarts, second.restarts);
    expect_same_solution(first.solution, second.solution);
  }
}

TEST(CspConflictTest, ImportedNogoodsPruneWithoutChangingAnswers) {
  const ProblemSpec spec = star_spec(5, 2, 4);
  CspOptions teacher_options;
  teacher_options.max_nodes = 20'000'000;
  const CspResult teacher = solve(spec, teacher_options);
  ASSERT_EQ(teacher.status, CspResult::Status::kInfeasible);
  ASSERT_FALSE(teacher.learned.empty());

  CspOptions primed = teacher_options;
  primed.imported = &teacher.learned;
  const CspResult student = solve(spec, primed);
  EXPECT_EQ(student.status, CspResult::Status::kInfeasible);
  EXPECT_LE(student.nodes, teacher.nodes);
}

/// Every search counter the counter verdicts must reproduce exactly.
/// watch_visits is left out: the reference scan visits no counter bucket.
void expect_same_tree(const CspResult& counters, const CspResult& scan) {
  ASSERT_EQ(counters.status, scan.status);
  EXPECT_EQ(counters.nodes, scan.nodes);
  EXPECT_EQ(counters.backjumps, scan.backjumps);
  EXPECT_EQ(counters.restarts, scan.restarts);
  ASSERT_EQ(counters.learned.size(), scan.learned.size());
  for (std::size_t k = 0; k < scan.learned.size(); ++k) {
    EXPECT_EQ(counters.learned[k], scan.learned[k]);
  }
  if (scan.status == CspResult::Status::kFeasible) {
    expect_same_solution(scan.solution, counters.solution);
  }
}

TEST(CspConflictTest, FlatCounterPropagationMatchesScanExactly) {
  // True-literal-counter propagation must be invisible to the search:
  // every completion claim is verified against the nogood's literals, so
  // the search tree — status, nodes, backjumps, restarts, learned nogoods,
  // first solution — matches the reference scan bit for bit. Stale-high
  // counters may cause extra (refuted) claims; those change only
  // watch_visits, never the tree.
  std::vector<ProblemSpec> specs = {mixed_contention_spec(),
                                    chain_spec(24, 4, 2), star_spec(5, 2, 4)};
  for (const std::uint64_t seed : {11ull, 12ull, 13ull}) {
    util::Rng rng(seed);
    for (int i = 0; i < 8; ++i) specs.push_back(test::random_tiny_spec(rng));
  }
  long learned_total = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE("spec " + std::to_string(i));
    CspOptions options;
    options.max_nodes = 50'000'000;
    const Palettes palettes = full_palettes(specs[i]);
    const CspResult counters = schedule_and_bind(specs[i], palettes, options);
    const CspResult scan =
        detail::solve_with_reference_scan(specs[i], palettes, options);
    expect_same_tree(counters, scan);
    EXPECT_EQ(scan.watch_visits, 0);
    if (i == 0) {
      EXPECT_GT(counters.watch_visits, 0);
    }
    learned_total += static_cast<long>(scan.learned.size());
  }
  // The comparison means something only if nogoods were in play.
  EXPECT_GT(learned_total, 0);
}

TEST(CspConflictTest, FlatImportedNogoodsMatchScan) {
  // Imported nogoods arrive before any assignment, so their counters seed
  // at zero and climb with the trail — the one case where counts stay
  // exact. They must block the same candidates the scan does.
  const ProblemSpec spec = star_spec(5, 2, 4);
  CspOptions teacher_options;
  teacher_options.max_nodes = 20'000'000;
  const CspResult teacher = solve(spec, teacher_options);
  ASSERT_EQ(teacher.status, CspResult::Status::kInfeasible);
  ASSERT_FALSE(teacher.learned.empty());

  CspOptions primed = teacher_options;
  primed.imported = &teacher.learned;
  const CspResult counters = solve(spec, primed);
  const CspResult scan =
      detail::solve_with_reference_scan(spec, full_palettes(spec), primed);
  expect_same_tree(counters, scan);
  EXPECT_GT(counters.watch_visits, 0);
}

TEST(CspConflictTest, LearnedNogoodsDroppedOnCancel) {
  const ProblemSpec spec = star_spec(5, 2, 4);
  util::CancelToken cancel;
  cancel.request_cancel();
  CspOptions options;
  options.cancel = &cancel;
  const CspResult result = solve(spec, options);
  EXPECT_EQ(result.status, CspResult::Status::kCancelled);
  // A wall-clock/cancel truncation point is not deterministic; nothing it
  // learned may leak.
  EXPECT_TRUE(result.learned.empty());
}

// ---- NogoodStore: the frozen-tier discipline ---------------------------

PaletteSignature sig_of_masks(std::uint64_t adders, int lambda_det,
                              int lambda_rec, long long area) {
  PaletteSignature sig;
  sig.masks[static_cast<int>(ResourceClass::kAdder)] = adders;
  sig.lambda_detection = lambda_det;
  sig.lambda_recovery = lambda_rec;
  sig.area_limit = area;
  return sig;
}

CspNogood one_lit_nogood(int copy, int vendor, int cycle) {
  CspNogood nogood;
  nogood.lits.push_back({copy, vendor, cycle, cycle});
  return nogood;
}

TEST(NogoodStoreTest, EntriesInvisibleUntilSealed) {
  const ProblemSpec spec = star_spec(4, 3, 4);
  NogoodStore store;
  const std::uint64_t epoch = store.begin_op(spec);
  const PaletteSignature sig = sig_of_masks(0b111, 4, 0, 1'000'000);
  store.record({one_lit_nogood(0, 1, 2)}, sig, epoch, /*ctx=*/0,
               /*combo_cost=*/100);

  std::vector<CspNogood> out;
  store.collect_frozen(sig, epoch, &out);
  EXPECT_TRUE(out.empty()) << "same-epoch entries must be invisible";

  const std::uint64_t next = store.begin_op(spec);
  store.collect_frozen(sig, next, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], one_lit_nogood(0, 1, 2));
}

TEST(NogoodStoreTest, GuardDominanceScopesReuse) {
  const ProblemSpec spec = star_spec(4, 3, 4);
  NogoodStore store;
  const std::uint64_t epoch = store.begin_op(spec);
  const PaletteSignature guard = sig_of_masks(0b111, 4, 0, 1'000'000);
  store.record({one_lit_nogood(1, 0, 1)}, guard, epoch, 0, 100);
  const std::uint64_t next = store.begin_op(spec);

  std::vector<CspNogood> out;
  // Subset palette, tighter bounds: dominated, nogood applies.
  store.collect_frozen(sig_of_masks(0b011, 3, 0, 500'000), next, &out);
  EXPECT_EQ(out.size(), 1u);
  out.clear();
  // Superset palette: a vendor the proof never considered — no reuse.
  store.collect_frozen(sig_of_masks(0b1111, 4, 0, 1'000'000), next, &out);
  EXPECT_TRUE(out.empty());
  // Looser latency: no reuse.
  store.collect_frozen(sig_of_masks(0b111, 5, 0, 1'000'000), next, &out);
  EXPECT_TRUE(out.empty());
}

TEST(NogoodStoreTest, FinalizeContextDropsNondeterministicSuffix) {
  const ProblemSpec spec = star_spec(4, 3, 4);
  NogoodStore store;
  const std::uint64_t epoch = store.begin_op(spec);
  const PaletteSignature sig = sig_of_masks(0b111, 4, 0, 1'000'000);
  store.record({one_lit_nogood(0, 0, 1)}, sig, epoch, /*ctx=*/7,
               /*combo_cost=*/100);
  store.record({one_lit_nogood(0, 1, 1)}, sig, epoch, /*ctx=*/7,
               /*combo_cost=*/900);
  store.finalize_context(epoch, /*ctx=*/7, /*keep_below=*/500);
  EXPECT_EQ(store.size(), 1u);

  std::vector<CspNogood> out;
  store.collect_frozen(sig, store.begin_op(spec), &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], one_lit_nogood(0, 0, 1));
}

TEST(NogoodStoreTest, IncompatibleSpecDropsTheStore) {
  const ProblemSpec spec = star_spec(4, 3, 4);
  NogoodStore store;
  const std::uint64_t epoch = store.begin_op(spec);
  const PaletteSignature sig = sig_of_masks(0b111, 4, 0, 1'000'000);
  store.record({one_lit_nogood(0, 0, 1)}, sig, epoch, 0, 100);

  // Same family: entries survive the seal.
  store.begin_op(spec);
  EXPECT_EQ(store.size(), 1u);

  // Changed offer area: every area-derived deduction is void.
  ProblemSpec changed = spec;
  changed.catalog.set_offer(0, ResourceClass::kAdder, {999, 1000});
  store.begin_op(changed);
  EXPECT_EQ(store.size(), 0u);
}

TEST(NogoodStoreTest, ThinnedCatalogKeepsEntries) {
  // reoptimize() semantics: removing a vendor's offer keeps all proofs.
  const ProblemSpec spec = star_spec(4, 3, 4);
  NogoodStore store;
  const std::uint64_t epoch = store.begin_op(spec);
  store.record({one_lit_nogood(0, 0, 1)},
               sig_of_masks(0b011, 4, 0, 1'000'000), epoch, 0, 100);

  ProblemSpec thinned = spec;
  vendor::Catalog smaller(3);
  smaller.set_offer(0, ResourceClass::kAdder,
                    spec.catalog.offer(0, ResourceClass::kAdder));
  smaller.set_offer(1, ResourceClass::kAdder,
                    spec.catalog.offer(1, ResourceClass::kAdder));
  thinned.catalog = std::move(smaller);
  store.begin_op(thinned);
  EXPECT_EQ(store.size(), 1u);
}

}  // namespace
}  // namespace ht::core
